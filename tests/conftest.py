"""Test-session settings shared by every test module.

The hypothesis profile derives each property test's examples from the test
itself (``derandomize=True``, which also turns off the example database), so
every run of the suite draws the same examples.  ``deadline=None`` keeps a
slow host from failing an example on time alone.
"""

from hypothesis import settings

settings.register_profile("dissentsim", derandomize=True, deadline=None)
settings.load_profile("dissentsim")

"""The zero-support analysis reads the inputs of the engine's step 0.

``first_movers``, both thresholds and the share-space cascade take their t = 0 inputs from
one pass, ``analysis._zero_support``.  On the oracle test's scenarios (``tests/test_oracle.py``)
under every network kind and reputation variant, its perceived probability and effective
factors must equal the step-0 decision's bit for bit, and with reputation off (``alpha`` 0) its
first movers must be the agents at R after step 0.  With reputation on the two may differ: the
analysis' reputation terms are zero and the engine's are not.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings

import test_oracle
from dissentsim import (Environment, Position, apply_events, first_movers, init_state,
                        parse_scenario, step)
from dissentsim.analysis import _zero_support
from dissentsim.scenario import FACTOR_NAMES

#: Each network kind's document for ``n`` agents (a small world's ``k`` is even and below n).
NETWORKS = {
    "complete": lambda n: {"kind": "complete"},
    "erdos_renyi": lambda n: {"kind": "erdos_renyi", "p_edge": 0.5},
    "small_world": lambda n: {"kind": "small_world", "k": 2 if n > 2 else 0, "rewire_p": 0.3},
}


def bits(values) -> list[int]:
    """IEEE-754 bit patterns: equal only when values, infinities and zero signs match."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("variant", test_oracle.VARIANTS)
@pytest.mark.parametrize("kind", list(NETWORKS))
@settings(max_examples=12)
@given(doc=test_oracle.scenarios())
def test_the_zero_support_pass_is_the_step0_decision(kind, variant, doc):
    n = sum(group["count"] for group in doc["population"]["groups"])
    reputation = {"variant": variant, "centered": doc["reputation"]["centered"], "alpha": 0.0}
    if variant == "iterative_influence":
        reputation["damping"] = 0.85
    scenario = parse_scenario(json.dumps({**doc, "network": NETWORKS[kind](n),
                                          "reputation": reputation}))
    state = init_state(scenario)
    new = step(state, scenario)
    env0 = apply_events(Environment(beta_share=scenario.beta_share), scenario.events, 0)  # cli._env0

    pa, eff, p0, _ = _zero_support(state.params, env0, scenario.integrity)
    assert pa is state.params
    assert bits(p0) == bits(new._memo.p)
    for name in FACTOR_NAMES:
        assert bits(getattr(eff, name)) == bits(getattr(state.params._effective[1], name))
    assert first_movers(pa, env0, scenario.integrity) == np.flatnonzero(new.y == Position.R).tolist()

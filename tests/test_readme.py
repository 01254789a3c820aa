"""README's examples run as written: its minimal scenario parses, and its library quick
start writes the CSV and SVG it promises."""

import re
from pathlib import Path

from dissentsim import parse_scenario

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(heading: str, language: str) -> str:
    """The first fenced ``language`` block that follows ``heading`` in README."""
    found = re.search(rf"```{language}\n(.*?)```", README[README.index(heading):], re.DOTALL)
    assert found is not None, f"no {language} block after {heading!r}"
    return found.group(1)


def test_the_minimal_scenario_parses():
    scenario = parse_scenario(block_after("Minimal example:", "json"))
    assert (scenario.horizon, scenario.n_total) == (30, 100)
    assert [ev.label for ev in scenario.events] == ["crackdown"]


def test_the_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block_after("## Library quick start", "python"), namespace)
    records = namespace["records"]
    assert capsys.readouterr().out == f"{records[-1].share_R}\n"
    csv = (tmp_path / "out.csv").read_bytes().splitlines()
    assert csv[0].startswith(b"t,share_R,") and len(csv) == 1 + len(records)
    assert (tmp_path / "out.svg").read_text(encoding="utf-8").startswith("<svg")

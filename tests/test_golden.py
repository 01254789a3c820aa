"""Cross-commit output pins: sha256 of the bytes the CLI writes.

Each digest was recorded once and must never move unless the output format
is changed on purpose.  ``small_donbass`` is the committed baseline scaled to
300 agents (same factor distributions, network, events and horizon).
``EDGES`` is a six-agent scenario whose threshold rows hit ``inf``, ``-inf``
and ``-0.000000``, with a step-0 event that floors an offset at zero.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dissentsim.cli import main

DONBASS_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "donbass.json"

SMALL_COUNTS = (30, 45, 225)

EDGES = {
    "name": "threshold-edges",
    "seed": 7,
    "horizon": 4,
    "beta_share": 0.5,
    "population": {"groups": [
        # F = S = A_U = 0 and a taste for abstaining: rebelling never wins (inf).
        {"label": "never", "count": 1, "private_type": "pro_status_quo",
         "factors": {"V_NJ": {"dist": "constant", "value": 1.0},
                     "C": {"dist": "constant", "value": 0.3}}},
        # F = S = A_U = 0 and a taste for rebelling: rebels for every p (-inf).
        {"label": "always", "count": 1, "private_type": "pro_rebellion",
         "factors": {"V_R": {"dist": "constant", "value": 1.0},
                     "A_R": {"dist": "constant", "value": 0.5},
                     "C": {"dist": "constant", "value": 0.3}}},
        # C barely above c and a taste for abstaining that cancels the
        # integrity terms: the abstain-over-support threshold is a tiny negative.
        {"label": "knife", "count": 1, "private_type": "pro_status_quo",
         "factors": {"V_NJ": {"dist": "constant", "value": 0.3},
                     "F": {"dist": "constant", "value": 1.0},
                     "S": {"dist": "constant", "value": 1.0},
                     "A_R": {"dist": "constant", "value": 1.0},
                     "c": {"dist": "constant", "value": 0.5},
                     "C": {"dist": "constant", "value": 0.5000001},
                     "p_base": {"dist": "constant", "value": 0.2}}},
        # A_U is floored at zero by the step-0 event.
        {"label": "floored", "count": 3, "private_type": "pro_rebellion",
         "factors": {"F": {"dist": "uniform", "lo": 1.0, "hi": 2.0},
                     "S": {"dist": "uniform", "lo": 0.5, "hi": 1.0},
                     "A_U": {"dist": "uniform", "lo": 0.0, "hi": 1.0},
                     "A_R": {"dist": "uniform", "lo": 0.5, "hi": 1.0},
                     "c": {"dist": "uniform", "lo": 0.0, "hi": 0.2},
                     "C": {"dist": "uniform", "lo": 0.3, "hi": 0.6},
                     "p_base": {"dist": "uniform", "lo": 0.0, "hi": 0.6}}},
    ]},
    "network": {"kind": "complete"},
    "reputation": {"variant": "unweighted_fraction", "alpha": 0.3},
    "integrity": {"nu_match": 0.2, "nu0": 0.1, "kappa": 0.05, "cap": 0.3},
    "events": [
        {"step": 0, "label": "amnesty", "deltas": {"dA_U": -1.5, "dp": 0.05}},
        {"step": 2, "label": "crackdown", "deltas": {"dC": 0.4}},
    ],
}

GOLDEN = {
    "small_donbass": {
        "run.csv": "1a645d896f08e43b4ab91b69834b43c3d21e3ef797d7b414f654d6929a6ac843",
        "run.svg": "2cde8687a34f929ac2b17bc01a7673bf083d9e59266b6ba9b3aba537346b1589",
        "run.stdout": "f364a6c785cabf7c4caf872d6e84f6ee9e6cf3e97b0fd9b403769a3f2ceabbb2",
        "thresholds.csv": "48129c5eaf4c6909e40de1fab41830d8548b77f5ee250590cb246816044478ec",
        "equilibrium.stdout": "dd9965d179e7526035003cd70c85f69deb7ddcb7e949fbc8f8c2192072fd0831",
    },
    "edges": {
        "run.csv": "0bab662c1fa59d4a4d55a6d95f6ee2bd212e52aca9c981fb5ae518bda80ac824",
        "run.svg": "b64eb1708d233962a5b0c68c95be3a0d7709ce4f39a04076a0dc1665312c71ba",
        "run.stdout": "788c85f54d837d8889fb0067bd8736380a7be0239cc75c4026e9a1cb325a46e5",
        "thresholds.csv": "820ffcf84fa6f55f6e17e7682d9656aae1d6525f0619a3f9595545c3608dabd9",
        "equilibrium.stdout": "3e504cbb682bb80ae71879c7e59e87a5a24ca28ae27d396d9d2bacd623aeae43",
    },
}


def _small_donbass() -> dict:
    doc = json.loads(DONBASS_PATH.read_text(encoding="utf-8"))
    for group, count in zip(doc["population"]["groups"], SMALL_COUNTS):
        group["count"] = count
    return doc


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(doc: dict, workdir, monkeypatch, capsys) -> dict:
    """Run the three analysis-bearing commands with relative paths; hash every output."""
    monkeypatch.chdir(workdir)
    (workdir / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    out = {}
    assert main(["run", "scenario.json", "--out", "run.csv", "--svg", "run.svg"]) == 0
    out["run.stdout"] = _sha(capsys.readouterr().out.encode("utf-8"))
    out["run.csv"] = _sha((workdir / "run.csv").read_bytes())
    out["run.svg"] = _sha((workdir / "run.svg").read_bytes())
    assert main(["thresholds", "scenario.json", "--out", "thresholds.csv"]) == 0
    capsys.readouterr()
    out["thresholds.csv"] = _sha((workdir / "thresholds.csv").read_bytes())
    assert main(["equilibrium", "scenario.json"]) == 0
    out["equilibrium.stdout"] = _sha(capsys.readouterr().out.encode("utf-8"))
    return out


@pytest.mark.parametrize("name, doc", [("small_donbass", _small_donbass()), ("edges", EDGES)])
def test_golden_outputs(name, doc, tmp_path, monkeypatch, capsys):
    assert _outputs(doc, tmp_path, monkeypatch, capsys) == GOLDEN[name]


def test_edges_scenario_hits_every_threshold_form(tmp_path, monkeypatch, capsys):
    _outputs(EDGES, tmp_path, monkeypatch, capsys)
    cells = {
        cell
        for row in (tmp_path / "thresholds.csv").read_text().splitlines()[1:]
        for cell in row.split(",")[2:4]
    }
    assert {"inf", "-inf", "-0.000000"} <= cells

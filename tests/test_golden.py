"""Cross-commit output pins: sha256 of the bytes the CLI writes.

Each digest was recorded once and must never move unless the output format
is changed on purpose.  ``small_donbass`` is the committed baseline scaled to
300 agents (same factor distributions, network, events and horizon).
``EDGES`` is a six-agent scenario whose threshold rows hit ``inf``, ``-inf``
and ``-0.000000``, with a step-0 event that floors an offset at zero.  The
other network kinds and ``sweep`` are pinned on variants of ``small_donbass``:
a complete graph with unweighted reputation and exits that fire, the
``dense`` benchmark workload's complete graph at 600 agents with its exits, an
Erdos-Renyi graph, the summary of a two-seed ``iterative_influence`` sweep,
a 240-step ``iterative_influence`` run with exits whose public state
stands still between changes (the steps that reuse their reputation terms),
and 500 agents on a ``small_world`` graph whose every lattice tie rewires.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dissentsim.cli import main
from dissentsim.engine import init_state, step
from dissentsim.scenario import parse_scenario

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


def _small_complete_with_exits() -> dict:
    doc = _small_donbass()
    doc["network"] = {"kind": "complete"}
    doc["reputation"] = {"variant": "unweighted_fraction", "alpha": 0.5}
    doc["exit"] = {"threshold": 0.0, "patience": 3}
    return doc


def _dense_exits() -> dict:
    """perfbench's ``dense`` workload at 600 agents: a complete graph, centred unweighted
    reputation, and the exit rule under which about a fifth of the agents leave."""
    doc = json.loads(DONBASS_PATH.read_text(encoding="utf-8"))
    groups = doc["population"]["groups"]
    total = sum(g["count"] for g in groups)
    for group in groups:
        group["count"] = group["count"] * 600 // total
    doc["network"] = {"kind": "complete"}
    doc["reputation"] = {"variant": "unweighted_fraction", "alpha": 0.5, "centered": True}
    doc["exit"] = {"threshold": 0.0, "patience": 10}
    return doc


def _small_erdos_renyi() -> dict:
    doc = _small_donbass()
    doc["network"] = {"kind": "erdos_renyi", "p_edge": 0.05}
    return doc


def _rewired_small_world() -> dict:
    """500 agents on a small world whose every lattice tie rewires: most edges are Python draws."""
    doc = _small_donbass()
    for group, count in zip(doc["population"]["groups"], (50, 75, 375)):
        group["count"] = count
    doc["network"] = {"kind": "small_world", "k": 20, "rewire_p": 1.0}
    return doc


def _small_iterative() -> dict:
    """Cut to 20 steps, mid-transition, so the final shares the summary holds differ by cell."""
    doc = _small_donbass()
    doc["reputation"] = {"variant": "iterative_influence", "alpha": 0.5}
    doc["horizon"] = 20
    doc["events"] = [e for e in doc["events"] if e["step"] < 20]
    return doc


def _small_iterative_exits() -> dict:
    """Exits keep firing after the stances settle, so still steps and exit-only changes interleave."""
    doc = _small_donbass()
    doc["reputation"] = {"variant": "iterative_influence", "alpha": 0.5}
    doc["exit"] = {"threshold": 1.0, "patience": 20}
    doc["horizon"] = 240
    return doc


SWEEP_SPEC = {"path": "reputation.alpha", "values": [0.3, 0.6], "seeds": [1, 2]}

GOLDEN_RUN_CSV = {
    "complete_exits": "54c19a724deb71dc0c3631c96a3ee94fb357c33d2b45a75bdcbbefbe129c0413",
    "dense_exits": "f87c647bb863a23d1f03a661a87faa4bcf835726947db861768e04a54d821a4f",
    "erdos_renyi": "5849b46f8bfd1748be8c74eab3066dbcae4e64f4bdb17387ace1330fe59a8c6a",
    "iterative_exits": "825700b561fa0bab133d10e32338b8878e51664fd296c2b78f32e144353b860e",
    "rewired_small_world": "714949775ded6696766551f130fbcabce699f96a4ec2653de8576703521601d6",
}

GOLDEN_SWEEP_SUMMARY = "2cd5032137054f639c7e191977e6bb8a523874f39d89840c401b653a0691c7ed"


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


def _run_csv(doc: dict, workdir) -> bytes:
    (workdir / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "run.csv"
    assert main(["run", str(workdir / "scenario.json"), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "name, doc",
    [
        ("complete_exits", _small_complete_with_exits()),
        ("erdos_renyi", _small_erdos_renyi()),
        ("iterative_exits", _small_iterative_exits()),
        ("rewired_small_world", _rewired_small_world()),
        ("dense_exits", _dense_exits()),
    ],
)
def test_golden_run_csv_other_networks(name, doc, tmp_path):
    assert _sha(_run_csv(doc, tmp_path)) == GOLDEN_RUN_CSV[name]


def test_complete_scenario_exits_fire(tmp_path):
    last = _run_csv(_small_complete_with_exits(), tmp_path).decode().splitlines()[-1]
    assert int(last.split(",")[4]) > 0


def test_iterative_exits_scenario_has_still_stretches():
    """After the first exit, some steps leave (y, exited) as it was, and some change exits alone."""
    scenario = parse_scenario(json.dumps(_small_iterative_exits()))
    state = init_state(scenario)
    still, exit_only, any_exited = [], [], []
    for _ in range(scenario.horizon):
        new = step(state, scenario)
        same_y = np.array_equal(new.y, state.y)
        same_exited = np.array_equal(new.exited, state.exited)
        still.append(same_y and same_exited)
        exit_only.append(same_y and not same_exited)
        any_exited.append(bool(new.exited.any()))
        state = new
    first_exit = any_exited.index(True)
    assert any(still[first_exit:])
    # A still step followed by one where only exits changed: reused terms must be dropped there.
    assert any(still[t] and exit_only[t + 1] for t in range(first_exit, len(still) - 1))


def test_golden_sweep_summary(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(_small_iterative()), encoding="utf-8")
    (tmp_path / "spec.json").write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", str(tmp_path / "scenario.json"), str(tmp_path / "spec.json"),
                 "--out", str(out)]) == 0
    assert _sha((out / "summary.csv").read_bytes()) == GOLDEN_SWEEP_SUMMARY

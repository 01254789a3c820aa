"""Cross-commit output pins: sha256 of the bytes the CLI writes.

Each digest was recorded once and must never move unless the output format
is changed on purpose.  ``small_donbass`` is the committed baseline scaled to
300 agents (same factor distributions, network, events and horizon).
``EDGES`` is a six-agent scenario whose threshold rows hit ``inf``, ``-inf``
and ``-0.000000``, with a step-0 event that floors an offset at zero.  The
other network kinds and ``sweep`` are pinned on variants of ``small_donbass``:
a complete graph with unweighted reputation and exits that fire, the
``dense`` benchmark workload's complete graph at 600 agents with its exits, an
Erdos-Renyi graph with and without exits, the summary of a two-seed ``iterative_influence`` sweep,
a 240-step ``iterative_influence`` run with exits whose public state
stands still between changes (the steps that reuse their reputation terms),
and 500 agents on a ``small_world`` graph whose every lattice tie rewires.
``GOLDEN_SVG`` pins ``render_svg`` on a titled, odd-sized canvas over a run with exits.
``REDRAWN`` pins the sampled population itself: truncated normals that take
many redraw rounds, overlapping ``c``/``C`` supports whose joint redraws draw a
truncated normal, and a degenerate ``uniform``.
``GOLDEN_NETWORKS`` pins the generators' ids at sizes past the reference tests' reach.
``GOLDEN_HAND_BUILT`` pins ``run`` under ``weighted_fraction`` over a hand-built network
of 40 agents, with exits and two events: once with weights from {0, 1, 2, 3, 2**40},
and once with every weight 1.
"""

import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dissentsim.analysis import RenderOptions, render_svg
from dissentsim.cli import main
from dissentsim.engine import FACTOR_NAMES, init_state, run, sample_params, step
from dissentsim.network import SocialNetwork, generate_network
from dissentsim.scenario import (
    Constant,
    Group,
    NetworkKind,
    NetworkSpec,
    PopulationSpec,
    PrivateType,
    TruncNormal,
    Uniform,
    donbass_baseline,
    parse_scenario,
    write_csv,
)

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


def _small_erdos_renyi_exits() -> dict:
    """The Erdos-Renyi variant with an exit rule that fires on several steps: the counts
    path over a transposed audience index while exits change the totals."""
    doc = _small_erdos_renyi()
    doc["exit"] = {"threshold": 0.0, "patience": 10}
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
    "erdos_renyi_exits": "7e0b5b9fe3e7240d5ab0d8eafb86a471fc27db29065325abe27c0411676bc77a",
    "iterative_exits": "825700b561fa0bab133d10e32338b8878e51664fd296c2b78f32e144353b860e",
    "rewired_small_world": "714949775ded6696766551f130fbcabce699f96a4ec2653de8576703521601d6",
}

REDRAWN = PopulationSpec([
    # F accepts about one normal draw in six; c's and C's supports overlap, so (c, C)
    # is redrawn jointly, and each joint round redraws c's truncated normal again.
    Group("drawn", 300, PrivateType.PRO_REBELLION, {
        "F": TruncNormal(0.0, 1.0, 1.0),
        "c": TruncNormal(0.4, 0.3, 0.1, 0.9),
        "C": Uniform(0.2, 0.8),
        "V_R": Uniform(0.25, 0.25),
        "p_base": Uniform(0.0, 1.0),
    }),
    # A constant c under a truncated-normal C: the joint redraws draw C's truncation.
    Group("costly", 100, PrivateType.PRO_STATUS_QUO, {
        "S": TruncNormal(1.0, 0.5, 0.0),
        "c": Constant(0.1),
        "C": TruncNormal(0.3, 0.2, 0.05, 0.5),
        "p_base": TruncNormal(0.3, 0.1, 0.0, 1.0),
    }),
])

GOLDEN_REDRAWN = "6df9f0ac4413f1ce9aff16061bed0e1643fa0b2c35509eeab44f260a83c5d4cd"

#: ``render_svg`` of the Erdos-Renyi exits run (exits, event labels) on an odd-sized,
#: titled canvas: every record, and the first record alone, which draws circles.
SVG_OPTIONS = RenderOptions(width=333.3, height=250.5, title='a<b & "c"')
GOLDEN_SVG = {
    "all": "bd863c5bafd9bf0b7cbb87044acc672a217c6f656730e9f942c437b161fab8b7",
    "first": "6bcb2325564397fef1349e46d5d471fb7c991a97719ba77680208b511ce34497",
}

#: sha256 of ``src.tobytes() + dst.tobytes()`` of a generated network: (spec, n, seed).
GOLDEN_NETWORKS = {
    "small_world_3": ((NetworkKind.SMALL_WORLD, {"k": 10, "rewire_p": 0.1}), 20_000, 3,
                      "93e012a538236207d31040353eef82d935c95fc8cef5c1118e0be47c27430e76"),
    "small_world_4": ((NetworkKind.SMALL_WORLD, {"k": 10, "rewire_p": 0.1}), 20_000, 4,
                      "15d17c766030e979132966df28f7f41b0901d333f2e69d2bf9fb8752be309fa4"),
    "complete": ((NetworkKind.COMPLETE, {}), 400, 0,
                 "6552999cf09a2ca5fd58d4a695a333d515c13aba95eb877b1e3922ce6e258328"),
    "erdos_renyi": ((NetworkKind.ERDOS_RENYI, {"p_edge": 0.01}), 2_000, 0,
                    "47f5343e4675a640da880945fd91a0f6737b970168362633fdcfad1970bb41ef"),
}

#: sha256 of ``write_csv`` over ``run`` on ``_hand_built_scenario`` over
#: ``_hand_built_network(weights)``, keyed by the weights drawn from.
GOLDEN_HAND_BUILT = {
    (0.0, 1.0, 2.0, 3.0, 2.0**40): "8aabfbf85c84168053f00539a7ce9606a02006f89bd84a3550884ad05880f989",
    (1.0,): "c5c0e95fc47a7b2b7baf9bfcc55d25dd65a3c22f4acc9730ce3973e35b943be0",
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
        ("erdos_renyi_exits", _small_erdos_renyi_exits()),
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


def svg_cases() -> dict:
    """The pinned ``render_svg`` inputs, keyed as in ``GOLDEN_SVG``."""
    records = run(parse_scenario(json.dumps(_small_erdos_renyi_exits())))
    return {"all": records, "first": records[:1]}


def test_golden_svg_options():
    for name, records in svg_cases().items():
        assert _sha(render_svg(records, SVG_OPTIONS).encode("utf-8")) == GOLDEN_SVG[name], name


@pytest.mark.parametrize("name", GOLDEN_NETWORKS)
def test_golden_generated_network(name):
    (kind, fields), n, seed, digest = GOLDEN_NETWORKS[name]
    net = generate_network(NetworkSpec(kind, **fields), n, seed)
    assert _sha(net.src.tobytes() + net.dst.tobytes()) == digest
    assert net.w.dtype == np.float64 and net.w.shape == net.dst.shape and (net.w == 1.0).all()


def _hand_built_scenario() -> dict:
    """The baseline's groups at 40 agents, 60 steps, an exit rule that fires, and two events."""
    doc = _small_donbass()
    for group, count in zip(doc["population"]["groups"], (4, 6, 30)):
        group["count"] = count
    doc["horizon"] = 60
    doc["exit"] = {"threshold": 0.0, "patience": 3}
    doc["events"] = [
        {"step": 5, "label": "protection_pledge", "deltas": {"dA_U": -0.8, "dp": 0.06}},
        {"step": 20, "label": "militia_attacks", "deltas": {"dC": 0.35, "dc": 0.12, "dp": 0.025}},
    ]
    return doc


def _hand_built_network(weights, n: int = 40) -> SocialNetwork:
    """445 edges i -> j where (3i + 5j) % 7 < 2, the weight of each picked from ``weights``."""
    return SocialNetwork(n, [(i, j, weights[(i * j + j) % len(weights)]) for i in range(n)
                             for j in range(n) if i != j and (3 * i + 5 * j) % 7 < 2])


@pytest.mark.parametrize("weights", GOLDEN_HAND_BUILT)
def test_golden_hand_built_network(weights):
    scenario = parse_scenario(json.dumps(_hand_built_scenario()))
    records = run(scenario, replace(init_state(scenario), network=_hand_built_network(weights)))
    assert records[-1].n_exited > 0
    sink = io.BytesIO()
    write_csv(records, sink)
    assert _sha(sink.getvalue()) == GOLDEN_HAND_BUILT[weights]


def test_golden_sweep_summary(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(_small_iterative()), encoding="utf-8")
    (tmp_path / "spec.json").write_text(json.dumps(SWEEP_SPEC), encoding="utf-8")
    out = tmp_path / "sweep"
    assert main(["sweep", str(tmp_path / "scenario.json"), str(tmp_path / "spec.json"),
                 "--out", str(out)]) == 0
    assert _sha((out / "summary.csv").read_bytes()) == GOLDEN_SWEEP_SUMMARY


def test_golden_redrawn_population():
    # Its redraws finish within the cap, so a scenario made of it validates.
    replace(donbass_baseline(), population=REDRAWN)
    params = sample_params(REDRAWN, 2024)
    digest = hashlib.sha256()
    for name in FACTOR_NAMES + ("x_rebel",):
        digest.update(getattr(params, name).tobytes())
    assert digest.hexdigest() == GOLDEN_REDRAWN

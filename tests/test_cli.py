"""End-to-end CLI tests: every subcommand, exit codes, and output contracts."""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dissentsim import cli, parse_scenario, payoff_nojoin, payoff_rebel
from dissentsim.cli import main
from dissentsim.errors import (
    ConvergenceError,
    DissentSimError,
    GenerationError,
    InvalidParameterError,
    NotFoundError,
    ScenarioParseError,
    ScenarioValidationError,
)
from dissentsim.model import SoftTerms
from dissentsim.scenario import SWEEP_CELL_BUDGET, parse_sweep_spec

ZERO_SOFT = SoftTerms(rep=0.0, integ=0.0)

REPO_ROOT = Path(__file__).resolve().parent.parent


def ladder_doc(p_base: float, n: int = 10) -> str:
    """n single-agent groups whose rebel thresholds sit at 0.0, 0.1, ..."""
    groups = ",".join(
        '{"label": "rung%d", "count": 1, "private_type": "pro_rebellion",'
        ' "factors": {"S": {"dist": "constant", "value": %.1f},'
        ' "F": {"dist": "constant", "value": %.1f},'
        ' "C": {"dist": "constant", "value": 0.01},'
        ' "p_base": {"dist": "constant", "value": %s}}}' % (i, i / n, 1 - i / n, p_base)
        for i in range(n)
    )
    return (
        '{"horizon": 10, "beta_share": 1.0,'
        ' "population": {"groups": [%s]},'
        ' "network": {"kind": "complete"},'
        ' "reputation": {"variant": "unweighted_fraction", "alpha": 0.0},'
        ' "integrity": {"nu_match": 0.0, "nu0": 0.0, "kappa": 0.0, "cap": 1.0}}' % groups
    )


def flat_doc(p_base: float = 0.0, n: int = 10) -> str:
    """n agents who all share the same 0.5 rebel threshold."""
    return (
        '{"horizon": 5, "beta_share": 1.0,'
        ' "population": {"groups": ['
        '{"label": "uniform", "count": %d, "private_type": "pro_rebellion",'
        ' "factors": {"S": {"dist": "constant", "value": 1.0},'
        ' "F": {"dist": "constant", "value": 1.0},'
        ' "C": {"dist": "constant", "value": 0.01},'
        ' "p_base": {"dist": "constant", "value": %s}}}]},'
        ' "network": {"kind": "complete"},'
        ' "reputation": {"variant": "unweighted_fraction", "alpha": 0.0},'
        ' "integrity": {"nu_match": 0.0, "nu0": 0.0, "kappa": 0.0, "cap": 1.0}}' % (n, p_base)
    )


@pytest.fixture
def ladder(tmp_path):
    path = tmp_path / "ladder.json"
    path.write_text(ladder_doc(0.05))
    return path


# ---------------------------------------------------------------- run

def test_run_writes_csv_and_summary(ladder, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["run", str(ladder), "--out", str(out)]) == 0
    lines = out.read_bytes().splitlines()
    assert lines[0] == b"t,share_R,share_U,share_NJ,n_exited,n_falsifying,mean_p,events"
    assert len(lines) == 11
    summary = capsys.readouterr().out.strip()
    assert summary == (
        f"share_R=1.000000 share_U=0.000000 share_NJ=0.000000 "
        f"n_exited=0 first_movers=1 csv={out}"
    )


def test_run_is_deterministic(ladder, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(ladder), "--out", str(a)]) == 0
    assert main(["run", str(ladder), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_seed_override_writes_comment(ladder, tmp_path):
    out = tmp_path / "out.csv"
    assert main(["run", str(ladder), "--out", str(out), "--seed", "7"]) == 0
    body = out.read_bytes()
    assert body.startswith(b"# seed=7\nt,share_R,")


def test_run_bad_seed(ladder, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["run", str(ladder), "--out", str(out), "--seed", "-1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_svg_output(ladder, tmp_path):
    out, svg = tmp_path / "out.csv", tmp_path / "chart.svg"
    assert main(["run", str(ladder), "--out", str(out), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")


def test_run_svg_refuses_a_zero_horizon_before_writing(ladder, tmp_path, capsys):
    """A zero-step scenario is valid and ``run`` writes its empty CSV, but there is nothing
    to chart: ``--svg`` is refused, and neither file is written."""
    doc = json.loads(ladder.read_text())
    doc["horizon"] = 0
    ladder.write_text(json.dumps(doc))
    out, svg = tmp_path / "out.csv", tmp_path / "chart.svg"
    assert main(["run", str(ladder), "--out", str(out), "--svg", str(svg)]) == 1
    err = capsys.readouterr().err
    assert "--svg" in err and "horizon is 0" in err
    assert not out.exists() and not svg.exists()
    assert main(["run", str(ladder), "--out", str(out)]) == 0
    assert out.read_bytes() == b"t,share_R,share_U,share_NJ,n_exited,n_falsifying,mean_p,events\n"


def test_run_missing_scenario_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_invalid_scenario_names_fields(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"horizon": -3, "population": {"groups": []}, "network": {"kind": "complete"}}')
    assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert "invalid: horizon" in err
    assert "invalid: population" in err


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"horizon": 3,')
    assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_convergence_failure_exits_two(tmp_path, capsys):
    doc = json.loads(ladder_doc(0.05))
    doc["network"] = {"kind": "erdos_renyi", "p_edge": 0.4}
    doc["seed"] = 3
    doc["reputation"] = {
        "variant": "iterative_influence", "alpha": 0.5, "max_iters": 1, "tol": 1e-15,
    }
    path = tmp_path / "iter.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- thresholds

def test_thresholds_golden_rows(tmp_path, capsys):
    doc = """
    {"horizon": 1, "population": {"groups": [
        {"label": "a", "count": 1, "private_type": "pro_rebellion",
         "factors": {"F": {"dist": "constant", "value": 1.0},
                     "C": {"dist": "constant", "value": 0.01},
                     "p_base": {"dist": "constant", "value": 0.25}}},
        {"label": "b", "count": 1, "private_type": "pro_status_quo",
         "factors": {"F": {"dist": "constant", "value": 1.0},
                     "C": {"dist": "constant", "value": 0.01},
                     "V_U": {"dist": "constant", "value": 1.0},
                     "p_base": {"dist": "constant", "value": 0.25}}}]},
     "network": {"kind": "complete"}}
    """
    path = tmp_path / "two.json"
    path.write_text(doc)
    out = tmp_path / "thr.csv"
    assert main(["thresholds", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,x,threshold_R_over_NJ,threshold_NJ_over_U,p0"
    # agent 0: ratio 0/1; split cost 0 - 0.01 with no rebel-side punishment -> -inf
    assert lines[1] == "0,pro_rebellion,0.000000,-inf,0.250000"
    # agent 1: numerator 0 - 0.01 + 1.0 > 0 over a zero denominator -> inf
    assert lines[2] == "1,pro_status_quo,0.000000,inf,0.250000"
    assert "thresholds for 2 agents" in capsys.readouterr().out


def test_thresholds_agree_with_payoff_crossings(tmp_path):
    doc = """
    {"horizon": 1, "seed": 12, "population": {"groups": [
        {"label": "mix", "count": 30, "private_type": "pro_rebellion",
         "factors": {"F": {"dist": "uniform", "lo": 0.5, "hi": 3.0},
                     "S": {"dist": "uniform", "lo": 0.5, "hi": 3.0},
                     "A_U": {"dist": "uniform", "lo": 0.0, "hi": 2.0},
                     "c": {"dist": "uniform", "lo": 0.0, "hi": 0.1},
                     "C": {"dist": "uniform", "lo": 0.2, "hi": 0.5},
                     "p_base": {"dist": "uniform", "lo": 0.0, "hi": 1.0}}}]},
     "network": {"kind": "complete"}}
    """
    path = tmp_path / "mix.json"
    path.write_text(doc)
    out = tmp_path / "thr.csv"
    assert main(["thresholds", str(path), "--out", str(out)]) == 0

    from dissentsim import init_state

    scenario = parse_scenario(doc)
    agents = [a.params for a in init_state(scenario).agents]
    rows = out.read_text().splitlines()[1:]
    checked = 0
    for agent, row in zip(agents, rows):
        thr = float(row.split(",")[2])
        if not 1e-4 < thr < 1 - 1e-4:
            continue
        checked += 1
        for p, rebel_wins in ((thr + 1e-4, True), (thr - 1e-4, False)):
            rebel = payoff_rebel(agent.F, agent.A_U, p, ZERO_SOFT, agent.V_R)
            quiet = payoff_nojoin(agent.S, agent.c, p, ZERO_SOFT, agent.V_NJ)
            assert (rebel > quiet) is rebel_wins
    assert checked >= 20


def test_thresholds_chunks_write_the_same_bytes(ladder, tmp_path, monkeypatch):
    """Rows are formatted and written a chunk at a time; any chunk size gives the same file."""
    written = []
    for chunk in (1, 3, 4, 5, cli.THRESHOLDS_CHUNK):
        monkeypatch.setattr(cli, "THRESHOLDS_CHUNK", chunk)
        out = tmp_path / f"thr_{chunk}.csv"
        assert main(["thresholds", str(ladder), "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert len(set(written)) == 1
    assert written[0].count(b"\n") == 11  # the header and the ladder's 10 agents


# ---------------------------------------------------------------- equilibrium

def test_equilibrium_ladder(ladder, capsys):
    assert main(["equilibrium", str(ladder)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "equilibria=[1.000000] tipping_seed=0/10 thresholds: n=10 min=-inf max=0.850000"


def test_equilibrium_uniform_thresholds(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(flat_doc(p_base=0.0))
    assert main(["equilibrium", str(path)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == (
        "equilibria=[0.000000 1.000000] tipping_seed=6/10 "
        "thresholds: n=10 min=0.500000 max=0.500000"
    )


def test_equilibrium_rejects_empty_population(tmp_path, capsys):
    path = tmp_path / "none.json"
    path.write_text('{"horizon": 1, "population": {"groups": []}, "network": {"kind": "complete"}}')
    assert main(["equilibrium", str(path)]) == 1
    assert "invalid: population" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep

def test_sweep_single_cell_matches_run(ladder, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"path": "beta_share", "values": [1.0]}')
    sweep_dir = tmp_path / "sweep"
    assert main(["sweep", str(ladder), str(spec), "--out", str(sweep_dir)]) == 0
    run_out = tmp_path / "direct.csv"
    assert main(["run", str(ladder), "--out", str(run_out)]) == 0
    cell = sweep_dir / "beta_share=1_seed=0.csv"
    assert cell.read_bytes() == run_out.read_bytes()
    summary = (sweep_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "param,value,seed,share_R,share_U,share_NJ"
    assert summary[1] == "beta_share,1,0,1.000000,0.000000,0.000000"


def test_sweep_grid_fear_monotone(tmp_path):
    doc = json.loads(ladder_doc(0.05))
    doc["horizon"] = 1
    doc["population"]["groups"] = [
        {
            "label": "crowd", "count": 120, "private_type": "pro_status_quo",
            "factors": {
                "F": {"dist": "uniform", "lo": 0.0, "hi": 2.0},
                "S": {"dist": "uniform", "lo": 0.5, "hi": 3.0},
                "A_R": {"dist": "uniform", "lo": 0.0, "hi": 1.5},
                "c": {"dist": "uniform", "lo": 0.0, "hi": 0.4},
                "C": {"dist": "uniform", "lo": 0.4, "hi": 1.2},
                "p_base": {"dist": "uniform", "lo": 0.1, "hi": 0.9},
            },
        }
    ]
    doc["events"] = [{"step": 0, "label": "pressure", "deltas": {"dC": 0.0}}]
    # The integrity bonus makes open support worth choosing at zero pressure;
    # otherwise abstaining dominates it outright and every share_U is 0.
    doc["integrity"] = {"nu_match": 1.2, "nu0": 0.3, "kappa": 0.0, "cap": 1.0}
    scenario_path = tmp_path / "crowd.json"
    scenario_path.write_text(json.dumps(doc))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "path": "events[0].deltas.dC",
        "grid": {"lo": 0.0, "hi": 2.0, "count": 5},
        "seeds": [1, 2],
    }))
    sweep_dir = tmp_path / "grid"
    assert main(["sweep", str(scenario_path), str(spec), "--out", str(sweep_dir)]) == 0
    assert len(list(sweep_dir.glob("events_0__deltas_dC=*.csv"))) == 10

    rows = [r.split(",") for r in (sweep_dir / "summary.csv").read_text().splitlines()[1:]]
    assert len(rows) == 10
    by_seed = {}
    for _, value, seed, _, share_u, _ in rows:
        by_seed.setdefault(seed, []).append((float(value), float(share_u)))
    for series in by_seed.values():
        shares = [u for _, u in sorted(series)]
        assert shares == sorted(shares, reverse=True)  # more fear, fewer open supporters
        assert shares[0] > shares[-1]  # and the effect actually bites


def test_sweep_path_must_exist(ladder, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"path": "nope.deeper", "values": [1.0]}')
    assert main(["sweep", str(ladder), str(spec), "--out", str(tmp_path / "d")]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_sweep_path_must_be_numeric(ladder, tmp_path, capsys):
    (tmp_path / "named.json").write_text(
        ladder_doc(0.05).replace('{"horizon"', '{"name": "x", "horizon"')
    )
    spec = tmp_path / "spec.json"
    spec.write_text('{"path": "name", "values": [1.0]}')
    assert main(["sweep", str(tmp_path / "named.json"), str(spec), "--out", str(tmp_path / "d")]) == 1
    assert "does not point at a number" in capsys.readouterr().err


def test_sweep_rejects_cells_that_share_a_file_name(ladder, tmp_path, capsys):
    cases = [
        ('{"path": "beta_share", "values": [0.1234561, 0.1234562]}', "beta_share=0.123456_seed=0.csv"),
        ('{"path": "beta_share", "values": [1.0], "seeds": [3, 3]}', "beta_share=1_seed=3.csv"),
    ]
    for body, name in cases:
        spec = tmp_path / "spec.json"
        spec.write_text(body)
        out = tmp_path / "d"
        assert main(["sweep", str(ladder), str(spec), "--out", str(out)]) == 1
        assert f"2 sweep cells would all write {name}" in capsys.readouterr().err
        assert not out.exists()  # rejected before any run


def test_sweep_varies_integer_fields(tmp_path, capsys):
    doc = json.loads(ladder_doc(0.05))
    doc["network"] = {"kind": "small_world", "k": 2, "rewire_p": 0.1}
    doc["exit"] = {"threshold": 0.0, "patience": 2}
    doc["reputation"]["alpha"] = 0  # a number field written as an integer
    scenario = tmp_path / "ints.json"
    scenario.write_text(json.dumps(doc))
    cases = [
        ("network.k", [4, 6], None),
        ("horizon", [3, 5], None),
        ("exit.patience", [1, 3.0], None),
        ("population.groups[0].count", [2, 3], None),
        ("reputation.alpha", [0.5], None),  # still takes any number
        ("network.k", [4, 4.5], "network.k: expected an integer"),
        ("horizon", [2.5], "horizon: expected an integer"),
    ]
    for i, (path, values, error) in enumerate(cases):
        spec = tmp_path / f"spec{i}.json"
        spec.write_text(json.dumps({"path": path, "values": values}))
        out = tmp_path / f"out{i}"
        code = main(["sweep", str(scenario), str(spec), "--out", str(out)])
        err = capsys.readouterr().err
        if error is None:
            assert code == 0, err
            stem = path.replace("[", "_").replace("]", "_").replace(".", "_")
            names = [f"{stem}={v:g}_seed=0.csv" for v in values]
            assert sorted(f.name for f in out.glob("*=*.csv")) == sorted(names)
        else:
            assert code == 1
            assert error in err
            assert not out.exists()  # rejected before any cell ran
    assert len((tmp_path / "out1" / "horizon=3_seed=0.csv").read_text().splitlines()) == 1 + 3


def test_sweep_spec_validation(ladder, tmp_path, capsys):
    cases = [
        ('{"path": "beta_share"}', "exactly one"),
        ('{"path": "beta_share", "values": [1.0], "grid": {"lo": 0, "hi": 1, "count": 2}}', "exactly one"),
        ('{"path": "beta_share", "values": []}', "non-empty"),
        ('{"path": "beta_share", "values": [1.0], "extra": 1}', "unknown field"),
        ('{"path": "beta_share", "grid": {"lo": 2, "hi": 1, "count": 2}}', "grid"),
        ('{"path": "beta_share", "values": [1.0], "seeds": [-1]}', "seeds"),
        ('{"values": [1.0]}', "path"),
        ('{"path": "beta_share", "values": [1.0, Infinity]}', "invalid: spec.values[1]: must be finite"),
        ('[{"path": "beta_share", "values": [1.0]}]', "invalid: spec: expected an object"),
    ]
    for body, needle in cases:
        spec = tmp_path / "spec.json"
        spec.write_text(body)
        assert main(["sweep", str(ladder), str(spec), "--out", str(tmp_path / "d")]) == 1
        assert needle in capsys.readouterr().err


def test_sweep_refuses_the_seed_as_its_path(tmp_path, capsys):
    """Each cell's seed is written after the swept value, so a swept seed would be lost: every
    file would be the base seed's run.  Seeds are swept by ``seeds``."""
    scenario = tmp_path / "seeded.json"
    scenario.write_text(json.dumps({**json.loads(ladder_doc(0.05)), "seed": 20140301}))
    spec, out = tmp_path / "spec.json", tmp_path / "d"
    spec.write_text('{"path": "seed", "values": [1, 2, 3]}')
    assert main(["sweep", str(scenario), str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "invalid: spec.path: a sweep varies the seed by 'seeds', not by 'path'\n"
    )
    assert not out.exists()


def test_sweep_reports_malformed_scenario_json_as_validate_does(tmp_path, capsys):
    bad, spec = tmp_path / "bad.json", tmp_path / "spec.json"
    bad.write_text('{"horizon": 3,\n}')
    spec.write_text('{"path": "horizon", "values": [2]}')
    assert main(["validate", str(bad)]) == 1
    expected = capsys.readouterr().err
    assert expected.startswith("error: invalid JSON at line 2, column 1: ")
    assert main(["sweep", str(bad), str(spec), "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err == expected


def test_sweep_cell_budget(ladder, tmp_path, capsys):
    """Cells are counted from the spec, before a grid value is made or a cell is parsed."""
    def spec(**fields):
        return json.dumps({"path": "beta_share", **fields})

    grid = {"lo": 0.0, "hi": 1.0}
    assert len(parse_sweep_spec(spec(grid={**grid, "count": SWEEP_CELL_BUDGET}))[1]) == 10_000
    _, values, seeds = parse_sweep_spec(spec(values=[0.5] * 100, seeds=list(range(100))))
    assert len(values) * len(seeds) == SWEEP_CELL_BUDGET
    over = [
        (spec(grid={**grid, "count": SWEEP_CELL_BUDGET + 1}), 10_001),
        (spec(values=[0.5], seeds=list(range(SWEEP_CELL_BUDGET + 1))), 10_001),
        (spec(values=[0.5] * 101, seeds=list(range(100))), 10_100),
        (spec(grid={**grid, "count": 10**15}), 10**15),
    ]
    for body, cells in over:
        path, out = tmp_path / "spec.json", tmp_path / "d"
        path.write_text(body)
        assert main(["sweep", str(ladder), str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"invalid: spec: has {cells} cells, more than the budget of 1e+04\n"
        )
        assert not out.exists()


def test_sweep_refuses_a_horizon_over_its_budget(ladder, tmp_path, capsys):
    spec, out = tmp_path / "spec.json", tmp_path / "d"
    spec.write_text('{"path": "horizon", "values": [5, 1000001]}')
    assert main(["sweep", str(ladder), str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "invalid: horizon: has 1000001 steps, more than the budget of 1e+06\n"
    )
    assert not out.exists()  # refused before the first cell ran


# ---------------------------------------------------------------- validate

def test_validate_shipped_baseline(capsys):
    path = REPO_ROOT / "scenarios" / "donbass.json"
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_cost_order_violation(tmp_path, capsys):
    doc = json.loads(ladder_doc(0.05))
    doc["population"]["groups"][0]["factors"]["C"] = {"dist": "constant", "value": 0.0}
    doc["population"]["groups"][0]["factors"]["c"] = {"dist": "constant", "value": 1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "C >= c violated" in capsys.readouterr().err


def test_validate_refuses_a_zero_sd_trunc_normal_outside_its_bounds(tmp_path, capsys):
    """Every draw of an sd-0 trunc_normal is its mean: outside [lo, hi], ``run`` could never
    draw one, so ``validate`` refuses it."""
    doc = json.loads(ladder_doc(0.05))
    doc["population"]["groups"][0]["factors"]["F"] = {
        "dist": "trunc_normal", "mean": 5.0, "sd": 0.0, "lo": 0.0, "hi": 1.0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "population.groups[0].factors.F: trunc_normal with sd 0" in capsys.readouterr().err


def test_validate_refuses_erdos_renyi_over_the_draw_budget(tmp_path, capsys, monkeypatch):
    """erdos_renyi draws n² uniforms whatever p_edge is: 10^6 agents (10^12 draws, though only
    10^7 expected edges) are refused from the spec alone, with nothing sampled or generated."""
    import dissentsim.engine as engine
    import dissentsim.network as network

    def never(*args, **kwargs):
        raise AssertionError("validate must not build the population or the network")

    for module, name in ((network, "generate_network"), (engine, "generate_network"),
                         (engine, "sample_population"), (engine, "init_state")):
        monkeypatch.setattr(module, name, never)
    doc = json.loads(ladder_doc(0.05, n=1))
    doc["population"]["groups"][0]["count"] = 1_000_000
    doc["network"] = {"kind": "erdos_renyi", "p_edge": 1e-5}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert ("network: erdos_renyi over 1000000 agents draws 1e+12 uniforms, "
            "more than the budget of 1e+11") in capsys.readouterr().err


def test_commands_refuse_a_population_over_the_agent_budget(tmp_path, capsys, monkeypatch):
    """10^12 agents on an empty small-world graph have no edges to count, yet sampling them
    alone would need terabytes: every command refuses them from the spec, sampling nothing."""
    import dissentsim.engine as engine

    def never(*args, **kwargs):
        raise AssertionError("the population must not be sampled")

    monkeypatch.setattr(engine, "sample_population", never)
    doc = json.loads(ladder_doc(0.05, n=1))
    doc["population"]["groups"][0]["count"] = 10**12
    doc["network"] = {"kind": "small_world", "k": 0, "rewire_p": 0.0}
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["equilibrium", str(path)],
                 ["thresholds", str(path), "--out", str(tmp_path / "t.csv")],
                 ["run", str(path), "--out", str(tmp_path / "r.csv")]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "invalid: population: has 1000000000000 agents, more than the budget of 1e+07\n"
        )
    assert not (tmp_path / "t.csv").exists() and not (tmp_path / "r.csv").exists()


def test_validate_event_beyond_horizon(tmp_path, capsys):
    doc = json.loads(ladder_doc(0.05))
    doc["events"] = [{"step": 99, "label": "late", "deltas": {"dC": 1.0}}]
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "events[0].step" in capsys.readouterr().err


# ---------------------------------------------------------------- errors and warnings

EXIT_CASES = [
    (ScenarioValidationError(["population: boom"]), 1, "invalid: population: boom\n"),
    (ConvergenceError("boom"), 2, "error: boom\n"),
    (ScenarioParseError("boom"), 1, "error: boom\n"),
    (GenerationError("boom"), 1, "error: boom\n"),
    (InvalidParameterError("boom"), 1, "error: boom\n"),
    (NotFoundError("boom"), 1, "error: boom\n"),
    (DissentSimError("boom"), 1, "error: boom\n"),
    (OSError("boom"), 1, "error: boom\n"),
]


def test_the_exit_cases_cover_every_error_class():
    assert set(DissentSimError.__subclasses__()) <= {type(exc) for exc, _, _ in EXIT_CASES}


@pytest.mark.parametrize("exc, code, err", EXIT_CASES,
                         ids=[type(exc).__name__ for exc, _, _ in EXIT_CASES])
def test_each_error_has_its_exit_code_and_one_line(exc, code, err, monkeypatch, capsys):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_validate", fail)
    assert main(["validate", "scenario.json"]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("cost", [{"dist": "constant", "value": 0.5},
                                  {"dist": "uniform", "lo": 0.5, "hi": 0.5}],
                         ids=["constant", "degenerate-uniform"])
@pytest.mark.parametrize("command", ["run", "thresholds", "equilibrium", "validate"])
def test_equal_costs_warn_once_per_command(cost, command, tmp_path):
    """The parser warns when c and C are the same single point; sampling does not warn again."""
    doc = json.loads(flat_doc(n=3))
    doc["population"]["groups"][0]["factors"].update(c=cost, C=cost)
    path = tmp_path / "equal.json"
    path.write_text(json.dumps(doc))
    out = {"run": ["--out", str(tmp_path / "r.csv")],
           "thresholds": ["--out", str(tmp_path / "t.csv")]}.get(command, [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(path), *out]) == 0
    assert ["C == c" in str(w.message) for w in caught] == [True]


# ---------------------------------------------------------------- entry point

def test_module_entry_point(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(flat_doc())
    proc = subprocess.run(
        [sys.executable, "-m", "dissentsim", "validate", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "OK"

"""The import graph: loading and checking a scenario imports no numpy.

The scenario types, their checks, the budgets, parsing and the CSV writer live
in :mod:`dissentsim.scenario`, which imports no numpy.  The kernel modules
re-export the types they used to define, and the package and the CLI bind the
numpy-backed names on first use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dissentsim
from dissentsim import analysis, cli, engine, model, network, scenario

SRC = Path(dissentsim.__file__).resolve().parents[1]
SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "donbass.json"

#: Scenario-layer names each kernel module exports: first the ones it defined before
#: they moved, then the ones callers import from it.
REEXPORTED = {
    model: ("Position", "PrivateType", "FACTOR_NAMES", "NONNEGATIVE_FACTORS"),
    network: ("ReputationVariant", "NetworkKind", "ReputationSpec", "NetworkSpec",
              "DEFAULT_DAMPING", "DEFAULT_TOL", "DEFAULT_MAX_ITERS", "EDGE_BUDGET",
              "AGENT_BUDGET", "DRAW_BUDGET", "edge_count", "draw_count", "Position"),
    engine: ("DELTA_FIELDS", "IntegritySpec", "Environment", "Event", "ExitSpec",
             "Position", "PrivateType", "FACTOR_NAMES", "ReputationSpec", "ReputationVariant"),
    analysis: ("Environment", "IntegritySpec", "Position"),
}


def run_fresh(code: str) -> str:
    """``code``'s stdout, run by a fresh interpreter that imports this checkout."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc.stdout


def test_validate_imports_no_numpy(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"horizon": -1}')
    out = run_fresh(
        "import sys\n"
        "from dissentsim.cli import main\n"
        f"assert main(['validate', {str(SCENARIO)!r}]) == 0\n"
        # Every command checks its scenario before it loads a kernel.
        f"assert main(['run', {str(bad)!r}, '--out', {str(tmp_path / 'r.csv')!r}]) == 1\n"
        "print('numpy' in sys.modules,\n"
        "      sorted(m for m in sys.modules if m.startswith('dissentsim')))\n"
    )
    assert out.splitlines()[-1] == (
        "False ['dissentsim', 'dissentsim.cli', 'dissentsim.errors', 'dissentsim.scenario']"
    )


TINY = (
    '{"horizon": 3, "beta_share": 0.5, "population": {"groups": [{"label": "only", "count": 3,'
    ' "private_type": "pro_rebellion", "factors": {"C": {"dist": "constant", "value": 0.5}}}]},'
    ' "network": {"kind": "complete"}}'
)


@pytest.mark.parametrize("command", [
    ["run", "{doc}", "--out", "{tmp}/run.csv", "--svg", "{tmp}/run.svg"],
    ["thresholds", "{doc}", "--out", "{tmp}/thresholds.csv"],
    ["equilibrium", "{doc}"],
    ["sweep", "{doc}", "{spec}", "--out", "{tmp}/sweep"],
], ids=lambda command: command[0])
def test_each_command_loads_its_kernels_in_a_fresh_process(command, tmp_path):
    doc, spec = tmp_path / "tiny.json", tmp_path / "spec.json"
    doc.write_text(TINY)
    spec.write_text('{"path": "beta_share", "values": [0.25]}')
    argv = [arg.format(doc=doc, spec=spec, tmp=tmp_path) for arg in command]
    proc = subprocess.run([sys.executable, "-m", "dissentsim", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stderr) == (0, "")


def test_the_baseline_loads_without_numpy():
    out = run_fresh(
        "import sys, dissentsim\n"
        "assert dissentsim.donbass_baseline().n_total == 10000\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out == "False\n"


PUBLIC = [
    "AgentParams", "AgentState", "CascadeReport", "Constant", "ConvergenceError",
    "DissentSimError", "Environment", "Event", "ExitSpec", "GenerationError", "Group",
    "IntegritySpec", "InvalidParameterError", "NetworkKind", "NetworkSpec", "NotFoundError",
    "PopulationSpec", "Position", "PrivateType", "RenderOptions", "ReputationSpec",
    "ReputationVariant", "Scenario", "ScenarioParseError", "ScenarioValidationError", "SimState",
    "SocialNetwork", "SoftTerms", "StepRecord", "TIE_EPS", "TruncNormal", "Uniform",
    "__version__", "apply_events", "cascade_equilibria", "cascade_trajectory", "check_exit",
    "choose_positions", "consistent", "decide", "donbass_baseline", "effective_params",
    "falsification_series", "first_movers", "generate_network", "generate_population",
    "influence_scores", "init_state", "integrity_value", "parse_scenario", "payoff_nojoin",
    "payoff_rebel", "payoff_statusquo", "perceived_probability", "public_sentiment",
    "rebellion_thresholds_zero_support", "render_svg", "reputation_fraction",
    "reputation_iterative", "run", "serialize_scenario", "share_space_thresholds", "step",
    "threshold_nj_over_u", "threshold_r_over_nj", "write_csv", "zero_support_soft_terms",
]


def test_the_public_surface_is_pinned():
    assert len(dissentsim.__all__) == len(set(dissentsim.__all__)) == 67
    assert sorted(dissentsim.__all__) == PUBLIC


def test_every_public_name_resolves_and_is_listed():
    listed = dir(dissentsim)
    for name in dissentsim.__all__:
        assert getattr(dissentsim, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        dissentsim.no_such_name


@pytest.mark.parametrize("module", list(REEXPORTED), ids=lambda m: m.__name__)
def test_moved_names_are_the_scenario_layers_objects(module):
    for name in REEXPORTED[module]:
        assert getattr(module, name) is getattr(scenario, name)
        if name in dissentsim.__all__:
            assert getattr(dissentsim, name) is getattr(scenario, name)


def test_cli_binds_its_kernel_names_without_overwriting(monkeypatch):
    assert cli.init_state is engine.init_state
    assert cli.cascade_equilibria is analysis.cascade_equilibria
    assert cli.threshold_r_over_nj is model.threshold_r_over_nj

    def spy(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(cli, "run", spy)
    cli._bind_kernels()
    assert cli.run is spy
    with pytest.raises(AttributeError):
        cli.no_such_name

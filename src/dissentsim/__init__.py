"""dissentsim: agent-based simulation of public position choice under social pressure.

Agents privately favor rebellion or the status quo but choose what to say in
public — rebel, support the status quo, or abstain — by weighing contextual
payoffs, network reputation with their audience, the private cost of saying
what they do not believe, and their perceived probability that the rebellion
wins.  The package provides the decision model, reputation variants on a
directed weighted network, a deterministic synchronous dynamics engine with
timed events and exit, cascade/fixed-point analysis, strict JSON scenario I/O
with CSV/SVG output, and a CLI.

The scenario types and the errors load with the package; the numpy-backed
names (the model, network, engine and analysis kernels) load on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names that load with the package, by the module that holds them: the errors
#: and the scenario types, parsing and output, none of which imports numpy.
_EAGER = {
    "errors": (
        "ConvergenceError",
        "DissentSimError",
        "GenerationError",
        "InvalidParameterError",
        "NotFoundError",
        "ScenarioParseError",
        "ScenarioValidationError",
    ),
    "scenario": (
        "Constant",
        "Environment",
        "Event",
        "ExitSpec",
        "Group",
        "IntegritySpec",
        "NetworkKind",
        "NetworkSpec",
        "PopulationSpec",
        "Position",
        "PrivateType",
        "ReputationSpec",
        "ReputationVariant",
        "Scenario",
        "TruncNormal",
        "Uniform",
        "donbass_baseline",
        "generate_population",
        "parse_scenario",
        "serialize_scenario",
        "write_csv",
    ),
}

#: The numpy-backed public names, by the module that holds them.  Each is imported on
#: first use (PEP 562), so loading and checking a scenario imports no numpy.
_KERNELS = {
    "analysis": (
        "CascadeReport",
        "RenderOptions",
        "cascade_equilibria",
        "cascade_trajectory",
        "falsification_series",
        "first_movers",
        "rebellion_thresholds_zero_support",
        "render_svg",
        "share_space_thresholds",
        "zero_support_soft_terms",
    ),
    "engine": (
        "AgentState",
        "SimState",
        "StepRecord",
        "apply_events",
        "check_exit",
        "consistent",
        "effective_params",
        "init_state",
        "integrity_value",
        "perceived_probability",
        "run",
        "step",
    ),
    "model": (
        "TIE_EPS",
        "AgentParams",
        "SoftTerms",
        "choose_positions",
        "decide",
        "payoff_nojoin",
        "payoff_rebel",
        "payoff_statusquo",
        "threshold_nj_over_u",
        "threshold_r_over_nj",
    ),
    "network": (
        "SocialNetwork",
        "generate_network",
        "influence_scores",
        "public_sentiment",
        "reputation_fraction",
        "reputation_iterative",
    ),
}
_HOME = {name: module for table in (_EAGER, _KERNELS) for module, names in table.items()
         for name in names}
globals().update({name: getattr(import_module(f".{module}", __name__), name)
                  for module, names in _EAGER.items() for name in names})

__all__ = ["__version__", *_HOME]

def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

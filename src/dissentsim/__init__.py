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

from .errors import (
    ConvergenceError,
    DissentSimError,
    GenerationError,
    InvalidParameterError,
    NotFoundError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .scenario import (
    Constant,
    Environment,
    Event,
    ExitSpec,
    Group,
    IntegritySpec,
    NetworkKind,
    NetworkSpec,
    PopulationSpec,
    Position,
    PrivateType,
    ReputationSpec,
    ReputationVariant,
    Scenario,
    TruncNormal,
    Uniform,
    donbass_baseline,
    generate_population,
    parse_scenario,
    serialize_scenario,
    write_csv,
)

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
_HOME = {name: module for module, names in _KERNELS.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "TIE_EPS",
    "Position",
    "PrivateType",
    "SoftTerms",
    "AgentParams",
    "payoff_rebel",
    "payoff_statusquo",
    "payoff_nojoin",
    "choose_positions",
    "decide",
    "threshold_nj_over_u",
    "threshold_r_over_nj",
    # network
    "SocialNetwork",
    "ReputationVariant",
    "ReputationSpec",
    "NetworkKind",
    "NetworkSpec",
    "generate_network",
    "influence_scores",
    "reputation_fraction",
    "reputation_iterative",
    "public_sentiment",
    # engine
    "Environment",
    "Event",
    "IntegritySpec",
    "ExitSpec",
    "AgentState",
    "SimState",
    "StepRecord",
    "consistent",
    "effective_params",
    "perceived_probability",
    "integrity_value",
    "check_exit",
    "apply_events",
    "init_state",
    "step",
    "run",
    # scenario
    "Constant",
    "Uniform",
    "TruncNormal",
    "Group",
    "PopulationSpec",
    "Scenario",
    "generate_population",
    "parse_scenario",
    "serialize_scenario",
    "write_csv",
    "donbass_baseline",
    # analysis
    "CascadeReport",
    "cascade_trajectory",
    "cascade_equilibria",
    "first_movers",
    "rebellion_thresholds_zero_support",
    "share_space_thresholds",
    "zero_support_soft_terms",
    "falsification_series",
    "render_svg",
    "RenderOptions",
    # errors
    "DissentSimError",
    "InvalidParameterError",
    "NotFoundError",
    "ConvergenceError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "GenerationError",
]

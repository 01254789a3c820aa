"""Scenario documents: strict JSON parsing, population sampling, CSV output.

A scenario pins everything a run needs — population groups with factor
distributions, network generator, reputation variant, integrity shape,
share->probability coupling, exit rule, timed events, horizon, and seed —
so identical documents reproduce identical trajectories byte for byte.
The JSON schema is strict: unknown fields anywhere are rejected, and
validation reports *all* violations with their field paths, not just the
first.  See docs/scenario-schema.md for the field-by-field reference.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .engine import (
    DELTA_FIELDS,
    Event,
    ExitSpec,
    IntegritySpec,
    ParamArrays,
    StepRecord,
)
from .errors import (
    GenerationError,
    InvalidParameterError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .model import FACTOR_NAMES, NONNEGATIVE_FACTORS, AgentParams, PrivateType, check_params
from .network import DRAW_BUDGET, EDGE_BUDGET, NetworkKind, NetworkSpec, ReputationSpec
from .network import ReputationVariant, draw_count, edge_count

#: Rejection-sampling retry cap, per agent, both for truncation and for C >= c.
REJECTION_CAP = 1000

#: CSV header for step records (fixed contract; LF line endings, UTF-8).
CSV_HEADER = "t,share_R,share_U,share_NJ,n_exited,n_falsifying,mean_p,events"

_MAX_SEED = 2**64


@dataclass(frozen=True)
class Constant:
    """Degenerate distribution: every draw equals ``value``."""

    value: float

    def support(self) -> tuple[float, float]:
        return (self.value, self.value)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, float(self.value))


@dataclass(frozen=True)
class Uniform:
    """Uniform draw on [lo, hi] (degenerate when lo == hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.lo > self.hi:
            raise InvalidParameterError(
                f"uniform bounds need finite lo <= hi, got [{self.lo!r}, {self.hi!r}]"
            )

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.lo == self.hi:
            return np.full(size, float(self.lo))
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class TruncNormal:
    """Normal(mean, sd) draw rejected until it lands in [lo, hi]; hi may be +inf."""

    mean: float
    sd: float
    lo: float
    hi: float = math.inf

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.sd)) or self.sd < 0:
            raise InvalidParameterError(
                f"trunc_normal needs finite mean and sd >= 0, got mean={self.mean!r}, sd={self.sd!r}"
            )
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise InvalidParameterError(
                f"trunc_normal bounds need lo <= hi, got [{self.lo!r}, {self.hi!r}]"
            )
        if math.isinf(self.lo):
            raise InvalidParameterError("trunc_normal lo must be finite")

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = rng.normal(self.mean, self.sd, size)
        bad = (out < self.lo) | (out > self.hi)
        rounds = 0
        while bad.any():
            rounds += 1
            if rounds > REJECTION_CAP:
                raise GenerationError(
                    f"trunc_normal(mean={self.mean}, sd={self.sd}, lo={self.lo}, hi={self.hi}) "
                    f"exceeded {REJECTION_CAP} redraw rounds"
                )
            out[bad] = rng.normal(self.mean, self.sd, int(bad.sum()))
            bad = (out < self.lo) | (out > self.hi)
        return out


Distribution = Constant | Uniform | TruncNormal


@dataclass(frozen=True)
class Group:
    """A homogeneous population slice: one private type, one distribution per factor."""

    label: str
    count: int
    x: PrivateType
    factors: Mapping[str, Distribution]

    def __post_init__(self):
        object.__setattr__(self, "factors", dict(self.factors))
        if not self.label:
            raise InvalidParameterError("group label must be non-empty")
        if self.count < 0:
            raise InvalidParameterError(f"group count must be >= 0, got {self.count!r}")
        if not isinstance(self.x, PrivateType):
            raise InvalidParameterError(f"group private type must be a PrivateType, got {self.x!r}")
        unknown = set(self.factors) - set(FACTOR_NAMES)
        if unknown:
            raise InvalidParameterError(f"unknown factors {sorted(unknown)}")


@dataclass(frozen=True)
class PopulationSpec:
    groups: tuple[Group, ...]

    def __init__(self, groups):
        object.__setattr__(self, "groups", tuple(groups))

    @property
    def n_total(self) -> int:
        return sum(g.count for g in self.groups)


@dataclass(frozen=True)
class Scenario:
    """Everything one reproducible run needs."""

    name: str
    population: PopulationSpec
    network: NetworkSpec
    reputation: ReputationSpec
    integrity: IntegritySpec
    beta_share: float
    exit: ExitSpec | None
    events: tuple[Event, ...]
    horizon: int
    seed: int
    update: str = "synchronous"

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def n_total(self) -> int:
        return self.population.n_total


def _draw_group(group: Group, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One group's factor columns, drawn in FACTOR_NAMES order, then (c, C) redrawn until C >= c."""
    dists = {name: group.factors.get(name, Constant(0.0)) for name in FACTOR_NAMES}
    drawn: dict[str, np.ndarray] = {}
    for name, dist in dists.items():
        try:
            drawn[name] = dist.sample(rng, group.count)
        except GenerationError as exc:
            raise GenerationError(f"group {group.label!r}, factor {name}: {exc}") from None
    bad = drawn["C"] < drawn["c"]
    rounds = 0
    while bad.any():
        rounds += 1
        if rounds > REJECTION_CAP:
            raise GenerationError(
                f"group {group.label!r}: could not satisfy C >= c within "
                f"{REJECTION_CAP} redraw rounds"
            )
        k = int(bad.sum())
        drawn["c"][bad] = dists["c"].sample(rng, k)
        drawn["C"][bad] = dists["C"].sample(rng, k)
        bad = drawn["C"] < drawn["c"]
    return drawn


def sample_params(spec: PopulationSpec, seed) -> ParamArrays:
    """Draw every group's agents, in declaration order, as one column per factor.

    Groups draw in turn from one generator (see :func:`_draw_group`); the
    joined columns pass the checks of AgentParams.validate, applied
    elementwise.  Deterministic for (spec, seed); ``seed`` may be an int or a
    numpy SeedSequence.
    """
    rng = np.random.default_rng(seed)
    drawn = [_draw_group(group, rng) for group in spec.groups]
    params = ParamArrays(
        x_rebel=np.repeat(
            [g.x is PrivateType.PRO_REBELLION for g in spec.groups], [g.count for g in spec.groups]
        ).astype(bool),
        **{name: np.concatenate([np.empty(0)] + [d[name] for d in drawn]) for name in FACTOR_NAMES},
    )
    check_params(params)
    return params


def generate_population(spec: PopulationSpec, seed) -> list[AgentParams]:
    """The :func:`sample_params` population as one AgentParams per agent, in id order."""
    return sample_params(spec, seed).to_params()


# --------------------------------------------------------------------------
# Strict JSON parsing / validation
# --------------------------------------------------------------------------

_NETWORK_KEYS = {
    NetworkKind.COMPLETE: set(),
    NetworkKind.ERDOS_RENYI: {"p_edge"},
    NetworkKind.SMALL_WORLD: {"k", "rewire_p"},
}


class _Check:
    """Collects validation violations with field paths while walking a document."""

    def __init__(self):
        self.violations: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}")

    def known_keys(self, obj: dict, path: str, allowed: set[str]) -> None:
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown field")

    def typed(self, obj: dict, path: str, key: str, kinds, required=True, default=None):
        """Fetch obj[key], checking its JSON type; records a violation on mismatch."""
        if key not in obj:
            if required:
                self.fail(f"{path}.{key}" if path else key, "required field is missing")
            return default
        value = obj[key]
        if kinds is bool:
            ok = isinstance(value, bool)
        elif kinds is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif kinds == "number":
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif kinds is str:
            ok = isinstance(value, str)
        elif kinds is dict:
            ok = isinstance(value, dict)
        elif kinds is list:
            ok = isinstance(value, list)
        else:  # pragma: no cover - internal misuse
            raise AssertionError(kinds)
        if not ok:
            self.fail(f"{path}.{key}" if path else key, f"expected {_type_name(kinds)}")
            return default
        return value


def _type_name(kinds) -> str:
    return {bool: "a boolean", int: "an integer", "number": "a number",
            str: "a string", dict: "an object", list: "an array"}[kinds]


def _parse_distribution(doc, path: str, check: _Check) -> Distribution | None:
    if not isinstance(doc, dict):
        check.fail(path, "expected an object")
        return None
    kind = check.typed(doc, path, "dist", str)
    if kind is None:
        return None
    try:
        if kind == "constant":
            check.known_keys(doc, path, {"dist", "value"})
            value = check.typed(doc, path, "value", "number")
            if value is None:
                return None
            if not np.isfinite(value):
                check.fail(f"{path}.value", "must be finite")
                return None
            return Constant(float(value))
        if kind == "uniform":
            check.known_keys(doc, path, {"dist", "lo", "hi"})
            lo = check.typed(doc, path, "lo", "number")
            hi = check.typed(doc, path, "hi", "number")
            if lo is None or hi is None:
                return None
            return Uniform(float(lo), float(hi))
        if kind == "trunc_normal":
            check.known_keys(doc, path, {"dist", "mean", "sd", "lo", "hi"})
            mean = check.typed(doc, path, "mean", "number")
            sd = check.typed(doc, path, "sd", "number")
            lo = check.typed(doc, path, "lo", "number")
            hi = doc.get("hi")
            if hi is not None and (isinstance(hi, bool) or not isinstance(hi, (int, float))):
                check.fail(f"{path}.hi", "expected a number or null")
                return None
            if mean is None or sd is None or lo is None:
                return None
            return TruncNormal(
                float(mean), float(sd), float(lo),
                math.inf if hi is None else float(hi),
            )
    except InvalidParameterError as exc:
        check.fail(path, str(exc))
        return None
    check.fail(f"{path}.dist", f"unknown distribution kind {kind!r}")
    return None


def _validate_factor_support(name: str, dist: Distribution, path: str, check: _Check) -> None:
    lo, hi = dist.support()
    if name in NONNEGATIVE_FACTORS and lo < 0:
        check.fail(path, f"{name} must be >= 0 over the whole support, found lo={lo}")
    if name == "p_base" and (lo < 0 or hi > 1):
        check.fail(path, f"p_base support must lie within [0, 1], found [{lo}, {hi}]")


def _parse_group(doc, path: str, check: _Check) -> Group | None:
    if not isinstance(doc, dict):
        check.fail(path, "expected an object")
        return None
    check.known_keys(doc, path, {"label", "count", "private_type", "factors"})
    label = check.typed(doc, path, "label", str)
    count = check.typed(doc, path, "count", int)
    ptype = check.typed(doc, path, "private_type", str)
    factors_doc = check.typed(doc, path, "factors", dict, required=False, default={})

    x = None
    if ptype is not None:
        try:
            x = PrivateType(ptype)
        except ValueError:
            check.fail(f"{path}.private_type",
                       f"must be one of {[m.value for m in PrivateType]}, got {ptype!r}")
    factors: dict[str, Distribution] = {}
    for key, sub in (factors_doc or {}).items():
        fpath = f"{path}.factors.{key}"
        if key not in FACTOR_NAMES:
            check.fail(fpath, "unknown factor")
            continue
        dist = _parse_distribution(sub, fpath, check)
        if dist is not None:
            factors[key] = dist
            _validate_factor_support(key, dist, fpath, check)

    # Cross-factor feasibility: some draw must satisfy C >= c.
    c_dist = factors.get("c", Constant(0.0))
    C_dist = factors.get("C", Constant(0.0))
    if C_dist.support()[1] < c_dist.support()[0]:
        check.fail(f"{path}.factors", "C >= c violated: C support lies entirely below c support")
    if isinstance(c_dist, Constant) and isinstance(C_dist, Constant) and C_dist.value == c_dist.value:
        warnings.warn(
            f"{path}: C == c for every agent in this group; the model expects strict C > c",
            stacklevel=2,
        )

    if label is None or count is None or x is None:
        return None
    try:
        return Group(label=label, count=count, x=x, factors=factors)
    except InvalidParameterError as exc:
        check.fail(path, str(exc))
        return None


def _parse_network(doc, path: str, check: _Check) -> NetworkSpec | None:
    if not isinstance(doc, dict):
        check.fail(path, "expected an object")
        return None
    kind_name = check.typed(doc, path, "kind", str)
    if kind_name is None:
        return None
    try:
        kind = NetworkKind(kind_name)
    except ValueError:
        check.fail(f"{path}.kind",
                   f"must be one of {[m.value for m in NetworkKind]}, got {kind_name!r}")
        return None
    check.known_keys(doc, path, {"kind"} | _NETWORK_KEYS[kind])
    kwargs = {}
    if kind is NetworkKind.ERDOS_RENYI:
        p_edge = check.typed(doc, path, "p_edge", "number")
        if p_edge is None:
            return None
        kwargs["p_edge"] = float(p_edge)
    elif kind is NetworkKind.SMALL_WORLD:
        k = check.typed(doc, path, "k", int)
        rewire_p = check.typed(doc, path, "rewire_p", "number")
        if k is None or rewire_p is None:
            return None
        kwargs["k"] = k
        kwargs["rewire_p"] = float(rewire_p)
    try:
        return NetworkSpec(kind=kind, **kwargs)
    except InvalidParameterError as exc:
        check.fail(path, str(exc))
        return None


def _parse_reputation(doc, path: str, check: _Check) -> ReputationSpec | None:
    if not isinstance(doc, dict):
        check.fail(path, "expected an object")
        return None
    variant_name = check.typed(doc, path, "variant", str)
    if variant_name is None:
        return None
    try:
        variant = ReputationVariant(variant_name)
    except ValueError:
        check.fail(f"{path}.variant",
                   f"must be one of {[m.value for m in ReputationVariant]}, got {variant_name!r}")
        return None
    allowed = {"variant", "alpha", "centered"}
    if variant is ReputationVariant.ITERATIVE_INFLUENCE:
        allowed |= {"damping", "tol", "max_iters"}
    check.known_keys(doc, path, allowed)
    alpha = check.typed(doc, path, "alpha", "number")
    centered = check.typed(doc, path, "centered", bool, required=False, default=True)
    kwargs = {}
    if variant is ReputationVariant.ITERATIVE_INFLUENCE:
        damping = check.typed(doc, path, "damping", "number", required=False, default=0.85)
        tol = check.typed(doc, path, "tol", "number", required=False, default=1e-12)
        max_iters = check.typed(doc, path, "max_iters", int, required=False, default=200)
        kwargs = {"damping": float(damping), "tol": float(tol), "max_iters": max_iters}
    if alpha is None:
        return None
    try:
        return ReputationSpec(variant=variant, alpha=float(alpha), centered=centered, **kwargs)
    except InvalidParameterError as exc:
        check.fail(path, str(exc))
        return None


def _parse_integrity(doc, path: str, check: _Check) -> IntegritySpec | None:
    if not isinstance(doc, dict):
        check.fail(path, "expected an object")
        return None
    check.known_keys(doc, path, {"nu_match", "nu0", "kappa", "cap"})
    nu_match = check.typed(doc, path, "nu_match", "number", required=False, default=0.0)
    nu0 = check.typed(doc, path, "nu0", "number", required=False, default=0.0)
    kappa = check.typed(doc, path, "kappa", "number", required=False, default=0.0)
    cap = check.typed(doc, path, "cap", "number", required=False, default=1.0)
    try:
        return IntegritySpec(
            nu_match=float(nu_match), nu0=float(nu0), kappa=float(kappa), cap=float(cap)
        )
    except InvalidParameterError as exc:
        check.fail(path, str(exc))
        return None


def _parse_exit(doc, path: str, check: _Check) -> ExitSpec | None:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        check.fail(path, "expected an object or null")
        return None
    check.known_keys(doc, path, {"threshold", "patience"})
    threshold = check.typed(doc, path, "threshold", "number")
    patience = check.typed(doc, path, "patience", int)
    if threshold is None or patience is None:
        return None
    if not np.isfinite(threshold):
        check.fail(f"{path}.threshold", "must be finite")
        return None
    try:
        return ExitSpec(threshold=float(threshold), patience=patience)
    except InvalidParameterError as exc:
        check.fail(path, str(exc))
        return None


def _parse_event(doc, path: str, check: _Check) -> Event | None:
    if not isinstance(doc, dict):
        check.fail(path, "expected an object")
        return None
    check.known_keys(doc, path, {"step", "label", "deltas"})
    step = check.typed(doc, path, "step", int)
    label = check.typed(doc, path, "label", str)
    deltas_doc = check.typed(doc, path, "deltas", dict, required=False, default={})
    deltas: dict[str, float] = {}
    for key, value in (deltas_doc or {}).items():
        dpath = f"{path}.deltas.{key}"
        if key not in DELTA_FIELDS:
            check.fail(dpath, f"unknown delta; expected one of {list(DELTA_FIELDS)}")
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            check.fail(dpath, "expected a number")
            continue
        deltas[key] = float(value)
    if step is None or label is None:
        return None
    try:
        return Event(step=step, label=label, deltas=deltas)
    except InvalidParameterError as exc:
        check.fail(path, str(exc))
        return None


_TOP_KEYS = {
    "name", "seed", "horizon", "beta_share", "population", "network",
    "reputation", "integrity", "exit", "events", "update",
}


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document.

    Raises ScenarioParseError (with line/column) on malformed JSON and
    ScenarioValidationError (listing every violation with its field path)
    on schema or invariant violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from None

    check = _Check()
    if not isinstance(doc, dict):
        raise ScenarioValidationError(["document: expected a top-level object"])

    check.known_keys(doc, "", _TOP_KEYS)
    name = check.typed(doc, "", "name", str, required=False, default="unnamed")
    seed = check.typed(doc, "", "seed", int, required=False, default=0)
    horizon = check.typed(doc, "", "horizon", int)
    beta_share = check.typed(doc, "", "beta_share", "number", required=False, default=0.0)
    update = check.typed(doc, "", "update", str, required=False, default="synchronous")

    if seed is not None and not 0 <= seed < _MAX_SEED:
        check.fail("seed", f"must be a 64-bit unsigned integer, got {seed!r}")
    if horizon is not None and horizon < 0:
        check.fail("horizon", f"must be >= 0, got {horizon!r}")
    if beta_share is not None and (
        not np.isfinite(beta_share) or beta_share < 0
    ):
        check.fail("beta_share", f"must be finite and >= 0, got {beta_share!r}")
    if update != "synchronous":
        check.fail("update", f"only 'synchronous' is supported, got {update!r}")

    population = None
    pop_doc = check.typed(doc, "", "population", dict)
    if pop_doc is not None:
        check.known_keys(pop_doc, "population", {"groups"})
        groups_doc = check.typed(pop_doc, "population", "groups", list)
        groups = []
        if groups_doc is not None:
            for idx, gdoc in enumerate(groups_doc):
                group = _parse_group(gdoc, f"population.groups[{idx}]", check)
                if group is not None:
                    groups.append(group)
            population = PopulationSpec(groups)

    network = None
    net_doc = check.typed(doc, "", "network", dict)
    if net_doc is not None:
        network = _parse_network(net_doc, "network", check)

    rep_doc = check.typed(doc, "", "reputation", dict, required=False)
    reputation = (
        _parse_reputation(rep_doc, "reputation", check)
        if rep_doc is not None
        else ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=1.0)
    )

    integ_doc = check.typed(doc, "", "integrity", dict, required=False)
    integrity = (
        _parse_integrity(integ_doc, "integrity", check)
        if integ_doc is not None
        else IntegritySpec(nu_match=0.0, nu0=0.0, kappa=0.0, cap=1.0)
    )

    exit_spec = _parse_exit(doc.get("exit"), "exit", check)

    events: list[Event] = []
    events_doc = check.typed(doc, "", "events", list, required=False, default=[])
    for idx, edoc in enumerate(events_doc or []):
        event = _parse_event(edoc, f"events[{idx}]", check)
        if event is not None:
            events.append(event)

    # Cross-field invariants.
    if population is not None and population.n_total < 1:
        check.fail("population", "total agent count must be >= 1")
    if (
        population is not None
        and network is not None
        and network.kind is NetworkKind.SMALL_WORLD
        and network.k is not None
        and network.k >= max(population.n_total, 1)
    ):
        check.fail("network.k", f"must be < total population, got k={network.k}, n={population.n_total}")
    if population is not None and network is not None:
        edges = edge_count(network, population.n_total)
        if edges > EDGE_BUDGET:
            check.fail("network", f"{network.kind.value} over {population.n_total} agents has "
                                  f"{edges:.3g} edges, more than the budget of {EDGE_BUDGET:.3g}")
        draws = draw_count(network, population.n_total)
        if draws > DRAW_BUDGET:
            check.fail("network", f"{network.kind.value} over {population.n_total} agents draws "
                                  f"{draws:.3g} uniforms, more than the budget of {DRAW_BUDGET:.3g}")
    if horizon is not None:
        for idx, event in enumerate(events):
            if event.step >= horizon:  # steps run 0..horizon-1; a later event would never fire
                check.fail(f"events[{idx}].step",
                           f"must be < horizon ({horizon}), got {event.step}")
    steps = [e.step for e in events]
    if steps != sorted(steps):
        check.fail("events", "must be sorted by step (ascending)")

    if check.violations:
        raise ScenarioValidationError(check.violations)

    return Scenario(
        name=name,
        population=population,
        network=network,
        reputation=reputation,
        integrity=integrity,
        beta_share=float(beta_share),
        exit=exit_spec,
        events=tuple(events),
        horizon=horizon,
        seed=seed,
        update=update,
    )


def _serialize_distribution(dist: Distribution) -> dict:
    if isinstance(dist, Constant):
        return {"dist": "constant", "value": dist.value}
    if isinstance(dist, Uniform):
        return {"dist": "uniform", "lo": dist.lo, "hi": dist.hi}
    out = {"dist": "trunc_normal", "mean": dist.mean, "sd": dist.sd, "lo": dist.lo}
    out["hi"] = None if math.isinf(dist.hi) else dist.hi
    return out


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON form; parse(serialize(parse(text))) == parse(text)."""
    doc: dict = {
        "name": scenario.name,
        "seed": scenario.seed,
        "horizon": scenario.horizon,
        "beta_share": scenario.beta_share,
        "update": scenario.update,
        "population": {
            "groups": [
                {
                    "label": g.label,
                    "count": g.count,
                    "private_type": g.x.value,
                    "factors": {
                        name: _serialize_distribution(g.factors[name])
                        for name in FACTOR_NAMES
                        if name in g.factors
                    },
                }
                for g in scenario.population.groups
            ]
        },
    }
    net: dict = {"kind": scenario.network.kind.value}
    if scenario.network.kind is NetworkKind.ERDOS_RENYI:
        net["p_edge"] = scenario.network.p_edge
    elif scenario.network.kind is NetworkKind.SMALL_WORLD:
        net["k"] = scenario.network.k
        net["rewire_p"] = scenario.network.rewire_p
    doc["network"] = net

    rep: dict = {
        "variant": scenario.reputation.variant.value,
        "alpha": scenario.reputation.alpha,
        "centered": scenario.reputation.centered,
    }
    if scenario.reputation.variant is ReputationVariant.ITERATIVE_INFLUENCE:
        rep["damping"] = scenario.reputation.damping
        rep["tol"] = scenario.reputation.tol
        rep["max_iters"] = scenario.reputation.max_iters
    doc["reputation"] = rep

    doc["integrity"] = {
        "nu_match": scenario.integrity.nu_match,
        "nu0": scenario.integrity.nu0,
        "kappa": scenario.integrity.kappa,
        "cap": scenario.integrity.cap,
    }
    doc["exit"] = (
        None
        if scenario.exit is None
        else {"threshold": scenario.exit.threshold, "patience": scenario.exit.patience}
    )
    doc["events"] = [
        {"step": e.step, "label": e.label, "deltas": dict(e.deltas)}
        for e in scenario.events
    ]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_csv(records: Sequence[StepRecord], sink: IO[bytes]) -> None:
    """Write step records in the fixed CSV contract.

    Header then one row per record; shares and mean_p as 6-decimal fixed
    point; event labels joined with ';'; LF line endings; UTF-8 bytes.
    Identical records always produce identical bytes.
    """
    sink.write((CSV_HEADER + "\n").encode("utf-8"))
    for r in records:
        row = (
            f"{r.t},{r.share_R:.6f},{r.share_U:.6f},{r.share_NJ:.6f},"
            f"{r.n_exited},{r.n_falsifying},{r.mean_p:.6f},{';'.join(r.events)}\n"
        )
        sink.write(row.encode("utf-8"))


# --------------------------------------------------------------------------
# Built-in baseline: Donbass, spring 2014 (1 step = 1 day from March 1, 2014)
# --------------------------------------------------------------------------

def donbass_baseline() -> Scenario:
    """Built-in 10^4-agent baseline reproducing the qualitative Donbass 2014 arc.

    Three groups: a pro-rebellion core with real stakes in a rebel win, a
    pro-status-quo activist slice, and a large privately-pro-status-quo but
    ambivalent majority.  The event timeline maps reported episodes to
    environment shocks: beatings of status-quo demonstrators raise the cost
    of open support (dC), staged rallies and an armed-protection pledge raise
    perceived rebel chances (dp) and lower expected punishment for supporters
    of the old order (dA_U), a broadcast switchover drives propaganda gains
    (dF) that stop after the counter-ban, and recurring spring attacks raise
    dC, dc, and dp together.  Delta magnitudes are illustrative placeholders
    calibrated so the qualitative trends hold; they are not measurements.
    """
    groups = (
        Group(
            label="rebel_core",
            count=1000,
            x=PrivateType.PRO_REBELLION,
            factors={
                "F": Uniform(3.0, 6.0),
                "S": Uniform(0.5, 1.5),
                "A_U": Uniform(1.5, 2.5),
                "A_R": Uniform(0.5, 1.5),
                "c": Uniform(0.2, 0.6),
                "C": Uniform(1.0, 2.0),
                "V_R": Uniform(0.0, 2.0),
                "V_U": Constant(0.0),
                "V_NJ": Constant(0.0),
                "p_base": Uniform(0.25, 0.5),
            },
        ),
        Group(
            label="status_quo_activists",
            count=1500,
            x=PrivateType.PRO_STATUS_QUO,
            factors={
                "F": Uniform(0.0, 0.5),
                "S": Uniform(2.0, 3.5),
                "A_U": Uniform(1.0, 2.0),
                "A_R": Uniform(0.8, 1.6),
                "c": Uniform(0.2, 0.5),
                "C": Uniform(0.8, 1.5),
                "V_R": Constant(0.0),
                "V_U": Constant(0.0),
                "V_NJ": Constant(0.0),
                "p_base": Uniform(0.05, 0.2),
            },
        ),
        Group(
            label="ambivalent_majority",
            count=7500,
            x=PrivateType.PRO_STATUS_QUO,
            factors={
                "F": Uniform(0.5, 2.5),
                "S": Uniform(1.0, 2.5),
                "A_U": Uniform(1.0, 2.5),
                "A_R": Uniform(0.5, 1.5),
                "c": Uniform(0.2, 0.8),
                "C": Uniform(1.5, 3.0),
                "V_R": Constant(0.0),
                "V_U": Constant(0.0),
                "V_NJ": Constant(0.0),
                "p_base": Uniform(0.05, 0.35),
            },
        ),
    )

    events = [
        Event(0, "kharkiv_beating", {"dC": 0.4}),
        Event(3, "broadcast_push", {"dF": 0.12}),
        Event(8, "broadcast_push", {"dF": 0.12}),
        Event(12, "donetsk_beating", {"dC": 0.4}),
        Event(13, "broadcast_push", {"dF": 0.12}),
        Event(15, "referendum_rallies", {"dp": 0.04}),
        Event(17, "protection_pledge", {"dA_U": -0.8, "dp": 0.06}),
        Event(18, "broadcast_push", {"dF": 0.12}),
        Event(23, "broadcast_push", {"dF": 0.12}),
        Event(24, "tv_ban", {}),
        Event(36, "administration_seizures", {"dC": 0.5, "dp": 0.06}),
    ]
    for day in range(45, 91, 5):
        events.append(Event(day, "militia_attacks", {"dC": 0.35, "dc": 0.12, "dp": 0.025}))

    return Scenario(
        name="donbass-2014-baseline",
        population=PopulationSpec(groups),
        network=NetworkSpec(kind=NetworkKind.SMALL_WORLD, k=10, rewire_p=0.1),
        reputation=ReputationSpec(
            ReputationVariant.WEIGHTED_FRACTION, alpha=0.5, centered=True
        ),
        integrity=IntegritySpec(nu_match=1.5, nu0=0.4, kappa=0.02, cap=0.6),
        beta_share=0.6,
        exit=None,
        events=tuple(events),
        horizon=120,
        seed=20140301,
    )

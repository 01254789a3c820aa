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
from functools import partial
from typing import IO, Callable, Mapping, NamedTuple, Sequence

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
from .network import (
    AGENT_BUDGET,
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    DRAW_BUDGET,
    EDGE_BUDGET,
    NetworkKind,
    NetworkSpec,
    ReputationSpec,
    ReputationVariant,
    draw_count,
    edge_count,
)

#: Rejection-sampling retry cap, per agent, both for truncation and for C >= c.
REJECTION_CAP = 1000

#: CSV header for step records (fixed contract; LF line endings, UTF-8).
CSV_HEADER = "t,share_R,share_U,share_NJ,n_exited,n_falsifying,mean_p,events"

#: Seeds are 64-bit unsigned integers: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 2**64


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

class _Type(NamedTuple):
    """A JSON value type: its name in violations, and its conversions to and from a spec."""

    name: str
    accepts: Callable[[object], bool]
    load: Callable = lambda value: value  # JSON value -> spec argument
    dump: Callable = lambda value: value  # spec attribute -> JSON value
    finite: bool = False  # a well-typed value that is not finite is still a violation


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_BOOL = _Type("a boolean", lambda value: isinstance(value, bool))
_INT = _Type("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool))
_NUMBER = _Type("a number", _is_number, float)
_FINITE = _NUMBER._replace(finite=True)
_NUMBER_OR_NULL = _Type(
    "a number or null", lambda value: value is None or _is_number(value),
    lambda value: math.inf if value is None else float(value),
    lambda value: None if value == math.inf else value,
)
_STRING = _Type("a string", lambda value: isinstance(value, str))
_OBJECT = _Type("an object", lambda value: isinstance(value, dict))
_OBJECT_OR_NULL = _Type("an object or null", lambda value: value is None or isinstance(value, dict))
_ARRAY = _Type("an array", lambda value: isinstance(value, list))

#: The default of a key that must be present.  A nullable key may still be omitted: it reads as null.
_REQUIRED = object()

# Field tables: key -> (JSON type, default or _REQUIRED), in document order.  The parser
# reads a section's keys from its table and serialize_scenario writes them from it.
_DISTRIBUTIONS = {
    "constant": (Constant, {"value": (_FINITE, _REQUIRED)}),
    "uniform": (Uniform, {"lo": (_NUMBER, _REQUIRED), "hi": (_NUMBER, _REQUIRED)}),
    "trunc_normal": (TruncNormal, {
        "mean": (_NUMBER, _REQUIRED),
        "sd": (_NUMBER, _REQUIRED),
        "lo": (_NUMBER, _REQUIRED),
        "hi": (_NUMBER_OR_NULL, _REQUIRED),  # null or omitted: unbounded above
    }),
}
_GROUP_FIELDS = {
    "label": (_STRING, _REQUIRED),
    "count": (_INT, _REQUIRED),
    "private_type": (_STRING, _REQUIRED),
    "factors": (_OBJECT, {}),
}
_NETWORK_FIELDS = {
    NetworkKind.COMPLETE: {},
    NetworkKind.ERDOS_RENYI: {"p_edge": (_NUMBER, _REQUIRED)},
    NetworkKind.SMALL_WORLD: {"k": (_INT, _REQUIRED), "rewire_p": (_NUMBER, _REQUIRED)},
}
_FRACTION_FIELDS = {"alpha": (_NUMBER, _REQUIRED), "centered": (_BOOL, True)}
_REPUTATION_FIELDS = {
    ReputationVariant.UNWEIGHTED_FRACTION: _FRACTION_FIELDS,
    ReputationVariant.WEIGHTED_FRACTION: _FRACTION_FIELDS,
    ReputationVariant.ITERATIVE_INFLUENCE: {
        **_FRACTION_FIELDS,
        "damping": (_NUMBER, DEFAULT_DAMPING),
        "tol": (_NUMBER, DEFAULT_TOL),
        "max_iters": (_INT, DEFAULT_MAX_ITERS),
    },
}
_INTEGRITY_FIELDS = {
    "nu_match": (_NUMBER, 0.0),
    "nu0": (_NUMBER, 0.0),
    "kappa": (_NUMBER, 0.0),
    "cap": (_NUMBER, 1.0),
}
_EXIT_FIELDS = {"threshold": (_FINITE, _REQUIRED), "patience": (_INT, _REQUIRED)}
_EVENT_FIELDS = {
    "step": (_INT, _REQUIRED),
    "label": (_STRING, _REQUIRED),
    "deltas": (_OBJECT, {}),
}
_TOP_FIELDS = {
    "name": (_STRING, "unnamed"),
    "seed": (_INT, 0),
    "horizon": (_INT, _REQUIRED),
    "beta_share": (_NUMBER, 0.0),
    "update": (_STRING, "synchronous"),
}

class _Check:
    """Collects validation violations with field paths while walking a document."""

    def __init__(self):
        self.violations: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.violations.append(f"{path}: {message}")

    def known_keys(self, obj: dict, path: str, allowed) -> None:
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown field")

    def fields(self, obj: dict, path: str, table: dict) -> dict:
        """The values of ``table``'s keys in ``obj``, in table order.

        A missing key takes its default.  A value of the wrong type is a
        violation and takes the default too; a key without one is left out,
        so a caller can tell when a spec cannot be built.
        """
        values = {}
        for key, (kind, default) in table.items():
            where = f"{path}.{key}" if path else key
            if key not in obj and kind.accepts(None):
                values[key] = None
            elif key not in obj and default is _REQUIRED:
                self.fail(where, "required field is missing")
            elif key in obj and not kind.accepts(obj[key]):
                self.fail(where, f"expected {kind.name}")
                if default is not _REQUIRED:
                    values[key] = default
            else:
                values[key] = obj.get(key, default)
        return values

    def typed(self, obj: dict, path: str, key: str, kind: _Type):
        """The required ``obj[key]``, or None after a violation."""
        return self.fields(obj, path, {key: (kind, _REQUIRED)}).get(key)

    def is_object(self, doc, path: str) -> bool:
        if not isinstance(doc, dict):
            self.fail(path, "expected an object")
        return isinstance(doc, dict)

    def member(self, enum_type, value: str | None, path: str):
        """The member of ``enum_type`` whose value is ``value``; None if there is none."""
        if value is None:
            return None
        try:
            return enum_type(value)
        except ValueError:
            self.fail(path, f"must be one of {[m.value for m in enum_type]}, got {value!r}")
            return None

    def build(self, path: str, make, **kwargs):
        """``make(**kwargs)``, or None with its InvalidParameterError recorded at ``path``."""
        try:
            return make(**kwargs)
        except InvalidParameterError as exc:
            self.fail(path, str(exc))
            return None


def _read_spec(doc: dict, path: str, check: _Check, make, table: dict, tag: str | None = None):
    """``make`` called with ``table``'s keys read from ``doc``, which may also hold ``tag``;
    None after a violation that leaves it unbuilt."""
    check.known_keys(doc, path, table.keys() | {tag})
    values = check.fields(doc, path, table)
    if len(values) < len(table):
        return None
    for key, value in values.items():
        if table[key][0].finite and not np.isfinite(value):
            check.fail(f"{path}.{key}", "must be finite")
            return None
    return check.build(path, make, **{key: table[key][0].load(v) for key, v in values.items()})


def _dump(spec, table: dict) -> dict:
    """``spec``'s attributes named by ``table``'s keys, as JSON values."""
    return {key: kind.dump(getattr(spec, key)) for key, (kind, _) in table.items()}


def _tagged(tag: str, make, tables: dict):
    """Parse and dump functions for a spec whose ``tag`` key names the enum member that
    picks its field table."""
    enum_type = type(next(iter(tables)))

    def parse(doc: dict, path: str, check: _Check):
        member = check.member(enum_type, check.typed(doc, path, tag, _STRING), f"{path}.{tag}")
        if member is None:
            return None
        return _read_spec(doc, path, check, partial(make, **{tag: member}), tables[member], tag)

    def dump(spec) -> dict:
        member = getattr(spec, tag)
        return {tag: member.value, **_dump(spec, tables[member])}

    return parse, dump


def _plain(make, table: dict):
    """Parse and dump functions for a spec built from one field table."""
    return (lambda doc, path, check: _read_spec(doc, path, check, make, table),
            lambda spec: _dump(spec, table))


def _parse_distribution(doc, path: str, check: _Check) -> Distribution | None:
    if not check.is_object(doc, path):
        return None
    kind = check.typed(doc, path, "dist", _STRING)
    if kind is None:
        return None
    if kind not in _DISTRIBUTIONS:
        check.fail(f"{path}.dist", f"unknown distribution kind {kind!r}")
        return None
    return _read_spec(doc, path, check, *_DISTRIBUTIONS[kind], tag="dist")


def _dump_distribution(dist: Distribution) -> dict:
    kind = next(kind for kind, (cls, _) in _DISTRIBUTIONS.items() if type(dist) is cls)
    return {"dist": kind, **_dump(dist, _DISTRIBUTIONS[kind][1])}


def _validate_factor_support(name: str, dist: Distribution, path: str, check: _Check) -> None:
    lo, hi = dist.support()
    if name in NONNEGATIVE_FACTORS and lo < 0:
        check.fail(path, f"{name} must be >= 0 over the whole support, found lo={lo}")
    if name == "p_base" and (lo < 0 or hi > 1):
        check.fail(path, f"p_base support must lie within [0, 1], found [{lo}, {hi}]")


def _parse_group(doc, path: str, check: _Check) -> Group | None:
    if not check.is_object(doc, path):
        return None
    check.known_keys(doc, path, _GROUP_FIELDS.keys())
    values = check.fields(doc, path, _GROUP_FIELDS)
    x = check.member(PrivateType, values.get("private_type"), f"{path}.private_type")
    factors: dict[str, Distribution] = {}
    for key, sub in values["factors"].items():
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

    if x is None or len(values) < len(_GROUP_FIELDS):
        return None
    return check.build(path, Group, label=values["label"], count=values["count"], x=x,
                       factors=factors)


def _parse_population(doc: dict, path: str, check: _Check) -> PopulationSpec | None:
    check.known_keys(doc, path, {"groups"})
    groups = check.typed(doc, path, "groups", _ARRAY)
    if groups is None:
        return None
    groups = [_parse_group(gdoc, f"{path}.groups[{idx}]", check) for idx, gdoc in enumerate(groups)]
    return PopulationSpec(group for group in groups if group is not None)


def _dump_population(population: PopulationSpec) -> dict:
    return {"groups": [
        {
            "label": g.label,
            "count": g.count,
            "private_type": g.x.value,
            "factors": {
                name: _dump_distribution(g.factors[name]) for name in FACTOR_NAMES if name in g.factors
            },
        }
        for g in population.groups
    ]}


def _parse_event(doc, path: str, check: _Check) -> Event | None:
    if not check.is_object(doc, path):
        return None
    check.known_keys(doc, path, _EVENT_FIELDS.keys())
    values = check.fields(doc, path, _EVENT_FIELDS)
    deltas: dict[str, float] = {}
    for key, value in values["deltas"].items():
        dpath = f"{path}.deltas.{key}"
        if key not in DELTA_FIELDS:
            check.fail(dpath, f"unknown delta; expected one of {list(DELTA_FIELDS)}")
        elif not _is_number(value):
            check.fail(dpath, "expected a number")
        else:
            deltas[key] = float(value)
    if len(values) < len(_EVENT_FIELDS):
        return None
    return check.build(path, Event, **{**values, "deltas": deltas})


def _parse_events(doc: list, path: str, check: _Check) -> tuple[Event, ...]:
    events = [_parse_event(edoc, f"{path}[{idx}]", check) for idx, edoc in enumerate(doc)]
    return tuple(event for event in events if event is not None)


#: The sections after the top-level fields: key -> (JSON type, default, (parse, dump)).
#: A missing or mistyped optional section is parsed from its default document.
_SECTIONS = {
    "population": (_OBJECT, _REQUIRED, (_parse_population, _dump_population)),
    "network": (_OBJECT, _REQUIRED, _tagged("kind", NetworkSpec, _NETWORK_FIELDS)),
    "reputation": (_OBJECT, {"variant": "unweighted_fraction", "alpha": 1.0},
                   _tagged("variant", ReputationSpec, _REPUTATION_FIELDS)),
    "integrity": (_OBJECT, {}, _plain(IntegritySpec, _INTEGRITY_FIELDS)),
    "exit": (_OBJECT_OR_NULL, None, _plain(ExitSpec, _EXIT_FIELDS)),
    "events": (_ARRAY, [], (_parse_events, lambda events: [_dump(e, _EVENT_FIELDS) for e in events])),
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

    check.known_keys(doc, "", _TOP_FIELDS.keys() | _SECTIONS.keys())
    top = check.fields(doc, "", _TOP_FIELDS)
    seed, horizon, beta_share, update = top["seed"], top.get("horizon"), top["beta_share"], top["update"]
    if not 0 <= seed < SEED_LIMIT:
        check.fail("seed", f"must be a 64-bit unsigned integer, got {seed!r}")
    if horizon is not None and horizon < 0:
        check.fail("horizon", f"must be >= 0, got {horizon!r}")
    if not np.isfinite(beta_share) or beta_share < 0:
        check.fail("beta_share", f"must be finite and >= 0, got {beta_share!r}")
    if update != "synchronous":
        check.fail("update", f"only 'synchronous' is supported, got {update!r}")

    sections = {}
    for key, (kind, default, (parse, _)) in _SECTIONS.items():
        value = check.fields(doc, "", {key: (kind, default)}).get(key)
        sections[key] = None if value is None else parse(value, key, check)
    population, network, events = sections["population"], sections["network"], sections["events"]

    # Cross-field invariants.
    if population is not None and population.n_total < 1:
        check.fail("population", "total agent count must be >= 1")
    elif population is not None and population.n_total > AGENT_BUDGET:
        check.fail("population", f"has {population.n_total} agents, more than the budget of "
                                 f"{AGENT_BUDGET:.3g}")
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
    return Scenario(**{**top, "beta_share": float(beta_share)}, **sections)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON form; parse(serialize(parse(text))) == parse(text)."""
    doc = _dump(scenario, _TOP_FIELDS)
    for key, (_, _, (_, dump)) in _SECTIONS.items():
        value = getattr(scenario, key)
        doc[key] = None if value is None else dump(value)
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


def donbass_baseline() -> Scenario:
    """The shipped 10^4-agent Donbass 2014 baseline, read from the package's ``donbass.json``.

    docs/scenario-schema.md ("The shipped baseline") describes its groups and event timeline.
    """
    from importlib import resources  # deferred: only the baseline reads package data

    return parse_scenario(resources.files(__package__).joinpath("donbass.json").read_text("utf-8"))

"""Scenario documents and the types they build: strict JSON parsing and CSV output.

A scenario pins everything a run needs — population groups with factor
distributions, network generator, reputation variant, integrity shape,
share->probability coupling, exit rule, timed events, horizon, and seed —
so identical documents reproduce identical trajectories byte for byte.
The JSON schema is strict: unknown fields anywhere are rejected, and
validation reports *all* violations with their field paths, not just the
first.  See docs/scenario-schema.md for the field-by-field reference.

This module is the load-time layer: the spec types, their checks, the size
budgets, parsing, serialization and the CSV writer, none of which imports
numpy.  The array kernels (:mod:`model`, :mod:`network`, :mod:`engine`,
:mod:`analysis`) build on it and re-export its types; sampling a population
lives in :mod:`engine`.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import re
import warnings
from dataclasses import dataclass
from functools import partial
from typing import IO, TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .errors import InvalidParameterError, ScenarioParseError, ScenarioValidationError

if TYPE_CHECKING:
    from .engine import StepRecord
    from .model import AgentParams

#: CSV header for step records (fixed contract; LF line endings, UTF-8).
CSV_HEADER = "t,share_R,share_U,share_NJ,n_exited,n_falsifying,mean_p,events"

#: Seeds are 64-bit unsigned integers: 0 <= seed < SEED_LIMIT.
SEED_LIMIT = 2**64

#: Default damping factor for the influence iteration.
DEFAULT_DAMPING = 0.85
#: Default L1 convergence tolerance for the influence iteration.
DEFAULT_TOL = 1e-12
#: Default iteration cap for the influence iteration.
DEFAULT_MAX_ITERS = 200

#: Most directed edges a scenario's network may have (see :func:`edge_count`).  A generated
#: edge takes 16 bytes stored (two int64 ids; its weight is an implicit 1.0) and at most
#: about as much again while built: 5e7 edges need ~1.6 GB.
EDGE_BUDGET = 50_000_000

#: Most agents a scenario may have.  A run holds about 320 bytes per agent at its peak
#: (measured with no edges: 69 MB at 10^5 agents, 352 MB at 10^6), so 10^7 need ~3.2 GB.
AGENT_BUDGET = 10_000_000

#: Most uniforms a scenario's network generator may draw (see :func:`draw_count`).
#: ``erdos_renyi`` draws one per ordered pair whatever ``p_edge`` is, at 3-4 ns each:
#: 1e11 draws (n of about 3.2e5) take 5-7 minutes, and 10^6 agents about an hour.
DRAW_BUDGET = 100_000_000_000

#: Rejection-sampling cap: the most redraw rounds one column (a truncated normal) or one
#: group's (c, C) pair takes; each round redraws every entry still rejected.
REJECTION_CAP = 1000

#: The largest chance a validated group may have that one of its truncated normal
#: columns still holds a rejected draw after REJECTION_CAP rounds (a union bound).
REDRAW_FAILURE_BOUND = 1e-9

#: Most steps a scenario may run.  A run keeps one record per step, about 360 bytes each
#: (measured: 17 MB for 5*10^4 steps of 89 agents), so 10^6 steps hold about 360 MB.
HORIZON_BUDGET = 1_000_000

#: Most cells (one run per value and seed) a sweep may make.  Every cell is written and
#: parsed before the first one runs, at about 1.1 ms and 15 KB each for the shipped
#: baseline (2-vCPU Xeon, Python 3.11): 10^4 cells take about 11 s and 150 MB.
SWEEP_CELL_BUDGET = 10_000

#: The numeric AgentParams fields, in the order a population draws them.
FACTOR_NAMES = ("F", "S", "A_U", "A_R", "c", "C", "V_R", "V_U", "V_NJ", "p_base")

#: Factors that must never be negative.
NONNEGATIVE_FACTORS = ("F", "S", "A_U", "A_R", "c", "C")

#: Environment offset names events may shift.
DELTA_FIELDS = ("dF", "dS", "dC", "dc", "dA_U", "dA_R", "dp")

#: Characters allowed in event labels (kept CSV-safe: no ',', ';', newlines).
_LABEL_SAFE = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.- "
)


def _finite(value) -> bool:
    """Whether ``value`` is a finite number.  An integer too large for a float is not,
    and neither is a value that is no number, so each spec's check raises its own
    InvalidParameterError instead of an OverflowError or a TypeError."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _shown(value) -> str:
    """``value`` as a message shows it: its repr, but an integer past the float range by its
    size, so no message prints hundreds of digits or asks ``str`` for more than it formats."""
    if _is_int(value) and not _finite(value):
        return f"~{'-' if value < 0 else ''}1e+{math.log10(abs(value)):.0f}"
    return repr(value)


def _store_int(spec, name: str, label: str) -> None:
    """Store the field ``name`` of the spec being built as a Python int, or refuse a value
    that :func:`_is_int` does not accept (4.0 included) with an error naming ``label``."""
    value = getattr(spec, name)
    if not _is_int(value):
        raise InvalidParameterError(f"{label} must be an integer, got {value!r}")
    object.__setattr__(spec, name, int(value))


class Position(enum.IntEnum):
    """Public stance.  Integer codes double as the tie-break order NJ < U < R."""

    NJ = 0
    U = 1
    R = 2


class PrivateType(enum.Enum):
    """An agent's true, privately held preference."""

    PRO_REBELLION = "pro_rebellion"
    PRO_STATUS_QUO = "pro_status_quo"


class ReputationVariant(enum.Enum):
    UNWEIGHTED_FRACTION = "unweighted_fraction"
    WEIGHTED_FRACTION = "weighted_fraction"
    ITERATIVE_INFLUENCE = "iterative_influence"


class NetworkKind(enum.Enum):
    COMPLETE = "complete"
    ERDOS_RENYI = "erdos_renyi"
    SMALL_WORLD = "small_world"


@dataclass(frozen=True)
class ReputationSpec:
    """How reputation terms are computed.

    ``alpha`` scales the whole term; ``centered`` subtracts 1/2 from the
    conforming fraction before scaling, making minority stances cost
    reputation instead of merely earning less.  The iterative variant also
    needs solver controls (damping, tol, max_iters); they default sensibly,
    and the fraction variants, which run no solver, take only the defaults.
    """

    variant: ReputationVariant
    alpha: float
    centered: bool = True
    damping: float = DEFAULT_DAMPING
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if not isinstance(self.variant, ReputationVariant):
            raise InvalidParameterError(f"unknown reputation variant {_shown(self.variant)}")
        if self.variant is not ReputationVariant.ITERATIVE_INFLUENCE and (
                (self.damping, self.tol, self.max_iters)
                != (DEFAULT_DAMPING, DEFAULT_TOL, DEFAULT_MAX_ITERS)):
            raise InvalidParameterError(
                f"{self.variant.value} takes no solver controls (damping, tol, max_iters)")
        if not _finite(self.alpha) or self.alpha < 0.0:
            raise InvalidParameterError(f"alpha must be finite and >= 0, got {_shown(self.alpha)}")
        if not (_finite(self.damping) and 0.0 < self.damping < 1.0):
            raise InvalidParameterError(f"damping must lie in (0, 1), got {_shown(self.damping)}")
        if not _finite(self.tol) or self.tol <= 0.0:
            raise InvalidParameterError(f"tol must be > 0, got {_shown(self.tol)}")
        _store_int(self, "max_iters", "max_iters")
        if self.max_iters < 1:
            raise InvalidParameterError(f"max_iters must be >= 1, got {_shown(self.max_iters)}")


@dataclass(frozen=True)
class NetworkSpec:
    """Which generator builds the graph, plus its shape parameters."""

    kind: NetworkKind
    p_edge: float | None = None
    k: int | None = None
    rewire_p: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, NetworkKind):
            raise InvalidParameterError(f"unknown network kind {_shown(self.kind)}")
        if self.kind is NetworkKind.COMPLETE:
            if self.p_edge is not None or self.k is not None or self.rewire_p is not None:
                raise InvalidParameterError("complete networks take no shape parameters")
        elif self.kind is NetworkKind.ERDOS_RENYI:
            if self.k is not None or self.rewire_p is not None:
                raise InvalidParameterError("erdos_renyi takes only p_edge")
            if not (_finite(self.p_edge) and 0.0 <= self.p_edge <= 1.0):
                raise InvalidParameterError(f"p_edge must lie in [0, 1], got {_shown(self.p_edge)}")
        else:  # SMALL_WORLD
            if self.p_edge is not None:
                raise InvalidParameterError("small_world takes k and rewire_p, not p_edge")
            _store_int(self, "k", "k")
            if self.k < 0 or self.k % 2 != 0:
                raise InvalidParameterError(
                    f"k must be a non-negative even integer, got {_shown(self.k)}")
            if not (_finite(self.rewire_p) and 0.0 <= self.rewire_p <= 1.0):
                raise InvalidParameterError(
                    f"rewire_p must lie in [0, 1], got {_shown(self.rewire_p)}")


def edge_count(spec: NetworkSpec, n: int) -> float:
    """Directed edges the generator builds for ``n`` agents (the expected count for erdos_renyi)."""
    if spec.kind is NetworkKind.COMPLETE:
        return float(n * (n - 1))
    if spec.kind is NetworkKind.ERDOS_RENYI:
        return spec.p_edge * n * (n - 1)
    return float(n * spec.k)


def draw_count(spec: NetworkSpec, n: int) -> float:
    """Uniforms the generator draws for ``n`` agents where the edge budget does not bound
    them: n² for erdos_renyi, one per ordered pair whatever ``p_edge`` is; 0 otherwise.
    complete draws none; small_world draws n·k/2 uniforms, one per lattice tie, plus the
    targets of the rewired ties, which the edge budget bounds."""
    return float(n) * n if spec.kind is NetworkKind.ERDOS_RENYI else 0.0


@dataclass(frozen=True)
class IntegritySpec:
    """Integrity reward/penalty shape.

    A consistent stance earns ``+nu_match``.  Any falsified stance costs
    ``min(cap, nu0 + kappa * d)`` where ``d`` counts consecutive falsifying
    steps, so sustained pretence wears on the agent up to a cap.
    """

    nu_match: float
    nu0: float
    kappa: float
    cap: float

    def __post_init__(self):
        for name in ("nu_match", "nu0", "kappa", "cap"):
            value = getattr(self, name)
            if not _finite(value) or value < 0.0:
                raise InvalidParameterError(f"{name} must be finite and >= 0, got {_shown(value)}")
        if self.cap <= 0.0:
            raise InvalidParameterError(f"cap must be > 0, got {self.cap!r}")
        if self.nu0 > self.cap:
            raise InvalidParameterError(
                f"nu0 must not exceed cap, got nu0={self.nu0!r} > cap={self.cap!r}"
            )


@dataclass(frozen=True)
class Environment:
    """Shared additive offsets on the hard factors, plus the share->p coupling.

    ``dp`` shifts every agent's perceived win probability directly;
    ``beta_share`` scales how strongly the previous rebel share feeds it.
    """

    dF: float = 0.0
    dS: float = 0.0
    dC: float = 0.0
    dc: float = 0.0
    dA_U: float = 0.0
    dA_R: float = 0.0
    dp: float = 0.0
    beta_share: float = 0.0

    def __post_init__(self):
        for name in DELTA_FIELDS + ("beta_share",):
            value = getattr(self, name)
            if not _finite(value):
                raise InvalidParameterError(f"{name} must be finite, got {_shown(value)}")
        if self.beta_share < 0.0:
            raise InvalidParameterError(f"beta_share must be >= 0, got {self.beta_share!r}")


@dataclass(frozen=True)
class Event:
    """A timed additive shock: at ``step``, add ``deltas`` to the environment."""

    step: int
    label: str
    deltas: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "deltas", dict(self.deltas))
        _store_int(self, "step", "event step")
        if self.step < 0:
            raise InvalidParameterError(f"event step must be >= 0, got {_shown(self.step)}")
        if not self.label or not set(self.label) <= _LABEL_SAFE:
            raise InvalidParameterError(
                f"event label {self.label!r} must be non-empty and use only "
                "letters, digits, '_', '-', '.', or spaces"
            )
        for key, value in self.deltas.items():
            if key not in DELTA_FIELDS:
                raise InvalidParameterError(f"unknown event delta {_shown(key)}")
            if not _finite(value):
                raise InvalidParameterError(
                    f"event delta {key} must be finite, got {_shown(value)}")


@dataclass(frozen=True)
class ExitSpec:
    """Leave-the-system rule: exit after ``patience`` consecutive steps whose
    best available payoff falls below ``threshold``."""

    threshold: float
    patience: int

    def __post_init__(self):
        if not (_finite(self.threshold) or self.threshold == -math.inf):
            raise InvalidParameterError("exit threshold must be a real value or -inf")
        _store_int(self, "patience", "exit patience")
        if self.patience < 1:
            raise InvalidParameterError(f"exit patience must be >= 1, got {_shown(self.patience)}")


@dataclass(frozen=True)
class Constant:
    """Degenerate distribution: every draw equals ``value``."""

    value: float

    def __post_init__(self):
        if not _finite(self.value):
            raise InvalidParameterError(f"constant value must be finite, got {_shown(self.value)}")

    def support(self) -> tuple[float, float]:
        return (self.value, self.value)


@dataclass(frozen=True)
class Uniform:
    """Uniform draw on [lo, hi] (degenerate when lo == hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (_finite(self.lo) and _finite(self.hi)) or self.lo > self.hi:
            raise InvalidParameterError(
                f"uniform bounds need finite lo <= hi, got [{_shown(self.lo)}, {_shown(self.hi)}]"
            )

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class TruncNormal:
    """Normal(mean, sd) draw rejected until it lands in [lo, hi]; hi may be +inf.  With sd 0
    every draw is ``mean``, so it must lie in [lo, hi]; with sd > 0, lo < hi."""

    mean: float
    sd: float
    lo: float
    hi: float = math.inf

    def __post_init__(self):
        if not (_finite(self.mean) and _finite(self.sd)) or self.sd < 0:
            raise InvalidParameterError(
                f"trunc_normal needs finite mean and sd >= 0, "
                f"got mean={_shown(self.mean)}, sd={_shown(self.sd)}"
            )
        if not _finite(self.lo):
            raise InvalidParameterError("trunc_normal lo must be finite")
        if not ((_finite(self.hi) or self.hi == math.inf) and self.lo <= self.hi):  # also NaN
            raise InvalidParameterError(
                f"trunc_normal bounds need lo <= hi, got [{self.lo!r}, {_shown(self.hi)}]"
            )
        if self.sd == 0 and not self.lo <= self.mean <= self.hi:
            raise InvalidParameterError(
                f"trunc_normal with sd 0 draws its mean, which must lie in [lo, hi], "
                f"got mean={self.mean!r} outside [{self.lo!r}, {self.hi!r}]"
            )
        if self.sd > 0 and self.lo == self.hi:
            raise InvalidParameterError(f"trunc_normal with sd > 0 never draws the one point lo = hi = {self.lo!r}")

    def support(self) -> tuple[float, float]:
        return (self.mean, self.mean) if self.sd == 0 else (self.lo, self.hi)

    def acceptance(self) -> float:
        """The probability q that one normal draw lands in [lo, hi].  A bound on one side of
        the mean takes the tail beyond it from ``erfc``, so a tiny q keeps its digits."""
        if self.sd == 0:
            return 1.0
        a, b = ((bound - self.mean) / (self.sd * math.sqrt(2.0)) for bound in (self.lo, self.hi))
        if a > 0:
            return (math.erfc(a) - math.erfc(b)) / 2
        if b < 0:
            return (math.erfc(-b) - math.erfc(-a)) / 2
        return (math.erf(b) - math.erf(a)) / 2


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
        _store_int(self, "count", "group count")
        if self.count < 0:
            raise InvalidParameterError(f"group count must be >= 0, got {_shown(self.count)}")
        if not isinstance(self.x, PrivateType):
            raise InvalidParameterError(
                f"group private type must be a PrivateType, got {_shown(self.x)}")
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
        if not _SEED.accepts(self.seed):
            raise InvalidParameterError(f"seed must be {_SEED.name}, got {_shown(self.seed)}")
        _store_int(self, "horizon", "horizon")
        check = _Check()  # the parser's rules in its order; the warnings are the parser's
        _check_rules(check, self.horizon, self.beta_share, self.update)
        for idx, group in enumerate(self.population.groups):
            path = f"population.groups[{idx}]"
            for name, dist in group.factors.items():
                _validate_factor_support(name, dist, f"{path}.factors.{name}", check)
            _check_costs(group.factors, path, check)
            _check_redraws(group.label, group.count, group.factors, path, check)
        _check_rules(check, population=self.population, network=self.network)
        if check.violations:
            raise ScenarioValidationError(check.violations)

    @property
    def n_total(self) -> int:
        return self.population.n_total


def generate_population(spec: PopulationSpec, seed) -> list[AgentParams]:
    """The :func:`engine.sample_params` population as one AgentParams per agent, in id order."""
    from .engine import sample_params  # deferred: sampling needs numpy, loading does not

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


def _float(value) -> float:
    """A JSON number as a float; an integer too large for one reads as +-inf, which every
    finiteness check then rejects."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


_BOOL = _Type("a boolean", lambda value: isinstance(value, bool))
_INT = _Type("an integer", _is_int)
_NUMBER = _Type("a number", _is_number, _float)
_FINITE = _NUMBER._replace(finite=True)
_NUMBER_OR_NULL = _Type(
    "a number or null", lambda value: value is None or _is_number(value),
    lambda value: math.inf if value is None else _float(value),
    lambda value: None if value == math.inf else value,
)
_STRING = _Type("a string", lambda value: isinstance(value, str))
_OBJECT = _Type("an object", lambda value: isinstance(value, dict))
_OBJECT_OR_NULL = _Type("an object or null", lambda value: value is None or isinstance(value, dict))
_ARRAY = _Type("an array", lambda value: isinstance(value, list))
_SEED = _Type("a 64-bit unsigned integer", lambda value: _INT.accepts(value) and 0 <= value < SEED_LIMIT)

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
        self.warnings: list[str] = []  # emitted by parse_scenario, at its caller's line

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

    def elements(self, array: list, path: str, kind: _Type) -> list | None:
        """The elements of the non-empty ``array`` loaded as ``kind``; None after a violation."""
        before = len(self.violations)
        if not array:
            self.fail(path, "must be non-empty")
        for idx, value in enumerate(array):
            if not kind.accepts(value):
                self.fail(f"{path}[{idx}]", f"expected {kind.name}")
            elif kind.finite and not math.isfinite(kind.load(value)):
                self.fail(f"{path}[{idx}]", "must be finite")
        return [kind.load(value) for value in array] if len(self.violations) == before else None

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
    values = {key: table[key][0].load(value) for key, value in values.items()}
    for key, value in values.items():
        if table[key][0].finite and not math.isfinite(value):
            check.fail(f"{path}.{key}", "must be finite")
            return None
    return check.build(path, make, **values)


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


def _check_costs(factors: Mapping[str, Distribution], path: str, check: _Check) -> None:
    """Some draw must satisfy C >= c (supports that touch only at C's top and c's bottom
    meet with probability 0, unless both are that point); warns when both are one point."""
    c_lo, c_hi = factors.get("c", Constant(0.0)).support()
    C_lo, C_hi = factors.get("C", Constant(0.0)).support()
    if C_hi < c_lo:
        check.fail(f"{path}.factors", "C >= c violated: C support lies entirely below c support")
    elif C_hi == c_lo and not c_lo == c_hi == C_lo:
        check.fail(f"{path}.factors", f"C >= c violated: the C and c supports share only the "
                                      f"point {C_hi!r}, which draws reach with probability 0")
    if c_lo == c_hi == C_lo == C_hi:
        check.warnings.append(
            f"{path}: C == c for every agent in this group; the model expects strict C > c"
        )


def _check_redraws(label, count, factors: Mapping[str, Distribution], path: str,
                   check: _Check) -> None:
    """Refuse a truncated normal factor whose ``count`` draws could still hold a rejected
    one after REJECTION_CAP redraw rounds: ``count * (1 - q)**REJECTION_CAP`` above
    REDRAW_FAILURE_BOUND, compared in logs, so a count past any float is no error."""
    if not _is_int(count) or count < 1:
        return
    for name, dist in factors.items():
        q = dist.acceptance() if isinstance(dist, TruncNormal) else 1.0
        if q < 1.0 and (math.log(count) + REJECTION_CAP * math.log1p(-q)
                        > math.log(REDRAW_FAILURE_BOUND)):
            check.fail(f"{path}.factors.{name}",
                       f"group {_shown(label)}, factor {name}: a draw lands in [{dist.lo!r}, "
                       f"{dist.hi!r}] with probability q={q:.3g}, so one of {_shown(count)} draws "
                       f"may exceed {REJECTION_CAP} redraw rounds (chance above "
                       f"{REDRAW_FAILURE_BOUND:g})")


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
    _check_costs(factors, path, check)
    _check_redraws(values.get("label"), values.get("count"), factors, path, check)

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
            deltas[key] = _float(value)
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


def _load_json(text: str, what: str = ""):
    """The JSON document ``text``; raises ScenarioParseError, with line and column, when it
    is malformed, and without them for a repeated key in one object or past the reader's
    limits (nesting depth, digits in an integer).  ``what`` names the document in the
    message."""
    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ScenarioParseError(f"{what}invalid JSON: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ScenarioParseError:  # a repeated key, from unique_keys
        raise
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{what}invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from None
    except RecursionError:
        raise ScenarioParseError(f"{what}JSON past the reader's limit: nested too deeply") from None
    except ValueError:  # Python's limit on the digits of an integer it reads
        raise ScenarioParseError(
            f"{what}JSON past the reader's limit: an integer has too many digits") from None


def _check_rules(check: _Check, horizon=None, beta_share=0.0, update="synchronous",
                 population=None, network=None) -> None:
    """The scenario's own rules, on what is given (the defaults pass): the horizon
    (0..HORIZON_BUDGET steps), beta_share (a finite number >= 0) and update; then the agent
    count (1..AGENT_BUDGET), small_world's ``k < n``, and, for sizes that pass those, the edge
    and draw budgets, so no count past the float range is formed.  :func:`parse_scenario` and
    :class:`Scenario` both apply them."""
    if horizon is not None and horizon < 0:
        check.fail("horizon", f"must be >= 0, got {_shown(horizon)}")
    elif horizon is not None and horizon > HORIZON_BUDGET:
        check.fail("horizon", f"has {_shown(horizon)} steps, more than the budget of "
                              f"{HORIZON_BUDGET:.3g}")
    if not _finite(beta_share) or beta_share < 0:
        check.fail("beta_share", f"must be finite and >= 0, got {_shown(beta_share)}")
    if update != "synchronous":
        check.fail("update", f"only 'synchronous' is supported, got {_shown(update)}")
    if population is None:
        return
    n = population.n_total
    if n < 1:
        check.fail("population", "total agent count must be >= 1")
    elif n > AGENT_BUDGET:
        check.fail("population", f"has {_shown(n)} agents, more than the budget of "
                                 f"{AGENT_BUDGET:.3g}")
    if network is None:
        return
    if network.kind is NetworkKind.SMALL_WORLD and network.k >= max(n, 1):
        check.fail("network.k",
                   f"must be < total population, got k={_shown(network.k)}, n={_shown(n)}")
    elif n <= AGENT_BUDGET:
        edges, draws = edge_count(network, n), draw_count(network, n)
        if edges > EDGE_BUDGET:
            check.fail("network", f"{network.kind.value} over {n} agents has {edges:.3g} edges, "
                                  f"more than the budget of {EDGE_BUDGET:.3g}")
        if draws > DRAW_BUDGET:
            check.fail("network", f"{network.kind.value} over {n} agents draws {draws:.3g} "
                                  f"uniforms, more than the budget of {DRAW_BUDGET:.3g}")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario JSON document.

    Raises ScenarioParseError (with line/column) on malformed JSON and
    ScenarioValidationError (listing every violation with its field path)
    on schema or invariant violations.
    """
    doc = _load_json(text)
    check = _Check()
    if not isinstance(doc, dict):
        raise ScenarioValidationError(["document: expected a top-level object"])

    check.known_keys(doc, "", _TOP_FIELDS.keys() | _SECTIONS.keys())
    top = check.fields(doc, "", _TOP_FIELDS)
    seed, horizon, beta_share, update = top["seed"], top.get("horizon"), top["beta_share"], top["update"]
    if not _SEED.accepts(seed):
        check.fail("seed", f"must be {_SEED.name}, got {_shown(seed)}")
    _check_rules(check, horizon, beta_share, update)

    sections = {}
    for key, (kind, default, (parse, _)) in _SECTIONS.items():
        value = check.fields(doc, "", {key: (kind, default)}).get(key)
        sections[key] = None if value is None else parse(value, key, check)
    population, network, events = sections["population"], sections["network"], sections["events"]

    # Cross-field invariants.
    _check_rules(check, population=population, network=network)
    for idx, event in enumerate(events):
        if horizon is not None and event.step >= horizon:  # steps run 0..horizon-1: it never fires
            check.fail(f"events[{idx}].step",
                       f"must be < horizon ({_shown(horizon)}), got {_shown(event.step)}")
    steps = [e.step for e in events]
    if steps != sorted(steps):
        check.fail("events", "must be sorted by step (ascending)")

    for message in check.warnings:
        warnings.warn(message, stacklevel=2)
    if check.violations:
        raise ScenarioValidationError(check.violations)
    return Scenario(**{**top, "beta_share": _float(beta_share)}, **sections)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON form; parse(serialize(parse(text))) == parse(text)."""
    doc = _dump(scenario, _TOP_FIELDS)
    for key, (_, _, (_, dump)) in _SECTIONS.items():
        value = getattr(scenario, key)
        doc[key] = None if value is None else dump(value)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# --------------------------------------------------------------------------
# Sweep specs
# --------------------------------------------------------------------------

_DOT_PATH = re.compile(r"[A-Za-z_]\w*(\[\d+\])*(\.[A-Za-z_]\w*(\[\d+\])*)*", re.ASCII)
_PATH = _Type("a dot path such as events[0].deltas.dC",
              lambda value: isinstance(value, str) and _DOT_PATH.fullmatch(value) is not None)
_SWEEP_FIELDS = {
    "path": (_PATH, _REQUIRED),
    "values": (_ARRAY, None),  # exactly one of values and grid
    "grid": (_OBJECT, None),
    "seeds": (_ARRAY, None),  # omitted: the scenario's own seed
}
_GRID_FIELDS = {"lo": (_FINITE, _REQUIRED), "hi": (_FINITE, _REQUIRED), "count": (_INT, _REQUIRED)}


def _grid(lo: float, hi: float, count: int) -> tuple[float, float, int]:
    if not lo <= hi or count < 1:
        raise InvalidParameterError(
            f"grid needs lo <= hi and count >= 1, got lo={lo!r}, hi={hi!r}, count={_shown(count)}"
        )
    return lo, hi, count


def parse_sweep_spec(text: str) -> tuple[str, list[float], list[int] | None]:
    """Parse and validate a sweep spec JSON document (docs/scenario-schema.md, "Sweep specs").

    Returns ``(path, values, seeds)``: one run per value and seed, with the
    number at ``path`` in the scenario document set to the value and its seed
    to the seed (``seeds`` None: the scenario's own).  Raises
    ScenarioParseError on malformed JSON and ScenarioValidationError listing
    every violation, the cell budget included, before any value of a grid is made.
    """
    doc, check = _load_json(text, "sweep spec: "), _Check()
    if not check.is_object(doc, "spec"):
        raise ScenarioValidationError(check.violations)
    check.known_keys(doc, "spec", _SWEEP_FIELDS.keys())
    fields = check.fields(doc, "spec", _SWEEP_FIELDS)
    if fields.get("path") == "seed":
        check.fail("spec.path", "a sweep varies the seed by 'seeds', not by 'path'")
    values, grid, seeds = fields["values"], fields["grid"], fields["seeds"]
    if (values is None) == (grid is None):
        check.fail("spec", "needs exactly one of 'values' or 'grid'")
        values = grid = None
    elif grid is not None:
        grid = _read_spec(grid, "spec.grid", check, _grid, _GRID_FIELDS)
    else:
        values = check.elements(values, "spec.values", _FINITE)
    if seeds is not None:
        seeds = check.elements(seeds, "spec.seeds", _SEED)
    cells = (grid[2] if grid else len(values or ())) * len(seeds or [None])
    if cells > SWEEP_CELL_BUDGET:
        check.fail("spec", f"has {_shown(cells)} cells, more than the budget of "
                           f"{SWEEP_CELL_BUDGET:.3g}")
    if check.violations:
        raise ScenarioValidationError(check.violations)
    if grid:
        import numpy as np  # deferred: only a grid needs it, and a sweep imports it anyway

        values = [float(v) for v in np.linspace(*grid)]
    return fields["path"], values, seeds


def sweep_document(text: str, path: str, value: float, seed: int) -> str:
    """The scenario document ``text`` with the number at the :func:`parse_sweep_spec` dot
    path ``path`` set to ``value`` and its seed to ``seed``.

    The target must already exist and hold a number; anything else is a
    validation error, so a typo never creates a key.  A target that holds an
    integer gets an integral value as an integer, so integer fields
    (``network.k``, ``horizon``, a group's ``count``) can be swept; a
    non-integral value is written as given, and parsing rejects it there.
    """
    *parents, last = (int(key) if key.isdigit() else key for key in re.findall(r"\w+", path))
    doc = node = json.loads(text)
    try:
        for key in parents:
            node = node[key]
        current = node[last]
    except (KeyError, IndexError, TypeError):
        raise ScenarioValidationError([f"sweep path {path!r} does not exist in the scenario"]) from None
    if not _is_number(current):
        raise ScenarioValidationError([f"sweep path {path!r} does not point at a number"])
    node[last] = int(value) if _INT.accepts(current) and value.is_integer() else value
    doc["seed"] = seed
    return json.dumps(doc)


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

"""Core single-agent model: stances, contextual payoffs, and participation thresholds.

Each agent holds a private preference (for the rebellion or for the status
quo) and publicly shows one of three stances:

* ``R``  — join the rebellion,
* ``U``  — actively support the status quo,
* ``NJ`` — abstain / stay silent.

Expected payoffs for the three stances combine hard contextual factors
(stakes, punishments, participation costs), soft social terms (reputation
among observed neighbors, personal-integrity value), and a fixed taste term
per stance.  The payoff, decision and threshold functions are written as
plain elementwise arithmetic, so they accept Python floats or numpy arrays
interchangeably; the simulation engine and the cascade analysis rely on that
to evaluate whole populations at once through the exact same expressions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .scenario import FACTOR_NAMES, NONNEGATIVE_FACTORS, Position, PrivateType  # re-exported

#: Absolute tolerance under which two stance payoffs count as tied.
TIE_EPS = 1e-9

#: Stable tie-break order: earliest wins when the previous stance is not tied.
TIE_ORDER = (Position.NJ, Position.U, Position.R)


@dataclass(frozen=True)
class SoftTerms:
    """Soft payoff contribution of one candidate stance.

    ``rep``   — reputation payoff among the agent's observed neighbors.
    ``integ`` — personal-integrity payoff (reward for consistency or penalty
                for falsifying).
    """

    rep: float
    integ: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.rep)) and np.all(np.isfinite(self.integ))):
            raise InvalidParameterError("SoftTerms rep/integ must be finite")


@dataclass(frozen=True)
class AgentParams:
    """Hard per-agent factors. All are time-constant; events shift them via offsets.

    F      — value the agent places on the rebellion winning.
    S      — value the agent places on the status quo surviving.
    A_U    — punishment the agent expects from the winning rebels for having
             supported the status quo.
    A_R    — punishment the agent expects from the surviving regime for having
             rebelled or stayed aside when support was demanded.
    c      — cost of abstaining (lost protection, suspicion, self-denial).
    C      — cost of actively supporting the status quo (time, exposure,
             being targeted by rebels); the model assumes C >= c.
    V_R/V_U/V_NJ — fixed taste for each stance (e.g. appetite for violence).
    x      — private preference.
    p_base — the agent's baseline estimate that the rebellion wins.
    """

    F: float
    S: float
    A_U: float
    A_R: float
    c: float
    C: float
    V_R: float
    V_U: float
    V_NJ: float
    x: PrivateType
    p_base: float

    def validate(self) -> None:
        """Load-time checks; raises InvalidParameterError, warns when C == c."""
        check_params(self)
        if not isinstance(self.x, PrivateType):
            raise InvalidParameterError(f"x must be a PrivateType, got {self.x!r}")


def _require(ok, message: str, **values) -> None:
    """Raise ``message`` with the named values at the first element where ``ok`` fails."""
    bad = np.flatnonzero(~np.asarray(ok))
    if bad.size:
        got = ", ".join(f"{k}={float(np.ravel(v)[bad[0]])!r}" for k, v in values.items())
        raise InvalidParameterError(f"{message}, got {got}")


def check_params(params) -> None:
    """Load-time checks on one agent's AgentParams or a whole ParamArrays, elementwise.

    Every factor finite, the hard factors >= 0, p_base in [0, 1] and C >= c;
    raises InvalidParameterError naming the first offending value, and warns
    when C == c for any agent.
    """
    _check_finite(**{name: getattr(params, name) for name in FACTOR_NAMES})
    for name in NONNEGATIVE_FACTORS:
        _require(getattr(params, name) >= 0, f"{name} must be >= 0",
                 **{name: getattr(params, name)})
    _check_probability(p_base=params.p_base)
    _require(params.C >= params.c, "C >= c violated", C=params.C, c=params.c)
    if np.any(params.C == params.c):
        warnings.warn(
            "C == c: supporting the status quo is no costlier than abstaining; "
            "the model expects strict C > c",
            stacklevel=3,
        )


def _check_finite(**named) -> None:
    for name, value in named.items():
        if not np.isfinite(value).all():
            raise InvalidParameterError(f"{name} must be finite")


def _check_probability(**named) -> None:
    for name, p in named.items():
        _require((p >= 0.0) & (p <= 1.0), f"{name} must lie in [0, 1]", **{name: p})


# The payoff formulas, unchecked: the engine calls them on inputs checked where they are
# made, and each public payoff function checks its inputs, then calls its kernel.

def rebel_kernel(F, A_U, p, rep, integ, V_R):
    """:func:`payoff_rebel` without its checks."""
    return p * F - (1.0 - p) * A_U + rep + integ + V_R


def statusquo_kernel(S, A_R, C, p, rep, integ, V_U):
    """:func:`payoff_statusquo` without its checks."""
    return S * (1.0 - p) - A_R * p - C + rep + integ + V_U


def nojoin_kernel(S, c, p, rep, integ, V_NJ):
    """:func:`payoff_nojoin` without its checks."""
    return S * (1.0 - p) - c + rep + integ + V_NJ


def payoff_rebel(F, A_U, p, soft: SoftTerms, V_R):
    """Expected payoff of publicly joining the rebellion.

    Wins F with probability p; eats the rebels'-enemy punishment A_U if the
    status quo survives instead.
    """
    _check_probability(p=p)
    _check_finite(F=F, A_U=A_U, V_R=V_R)
    return rebel_kernel(F, A_U, p, soft.rep, soft.integ, V_R)


def payoff_statusquo(S, A_R, C, p, soft: SoftTerms, V_U):
    """Expected payoff of actively supporting the status quo.

    Keeps S if the status quo survives, eats the rebel punishment A_R if the
    rebellion wins, and always pays the activism cost C.
    """
    _check_probability(p=p)
    _check_finite(S=S, A_R=A_R, C=C, V_U=V_U)
    return statusquo_kernel(S, A_R, C, p, soft.rep, soft.integ, V_U)


def payoff_nojoin(S, c, p, soft: SoftTerms, V_NJ):
    """Expected payoff of abstaining: keeps S if the status quo survives, pays c."""
    _check_probability(p=p)
    _check_finite(S=S, c=c, V_NJ=V_NJ)
    return nojoin_kernel(S, c, p, soft.rep, soft.integ, V_NJ)


def choose_positions(e_nj, e_u, e_r, previous) -> np.ndarray:
    """Vectorized stance selection: argmax of the three payoffs with a sticky tie rule.

    ``previous`` holds Position codes.  Stances within TIE_EPS of the best
    payoff form the tied set; the previous stance wins if tied, otherwise the
    earliest tied stance in (NJ, U, R) order.  Returns int8 Position codes.
    A previous code other than NJ or U is kept when R is tied.

    Written in mask arithmetic, which does not branch per element.
    """
    e_nj = np.asarray(e_nj, dtype=np.float64)
    e_u = np.asarray(e_u, dtype=np.float64)
    e_r = np.asarray(e_r, dtype=np.float64)
    prev = np.asarray(previous, dtype=np.int8)

    floor = np.maximum(np.maximum(e_nj, e_u), e_r) - TIE_EPS
    tied_nj, tied_u, tied_r = e_nj >= floor, e_u >= floor, e_r >= floor
    first = (np.int8(Position.U) + ~tied_u) * ~tied_nj  # NJ if tied, else U if tied, else R
    at_nj, at_u = prev == Position.NJ, prev == Position.U
    keep = at_nj & tied_nj | at_u & tied_u | ~(at_nj | at_u) & tied_r
    return np.asarray(first ^ (prev ^ first) * keep)  # prev where kept, else first


def decide(
    params: AgentParams,
    p,
    soft_by_position,
    previous=Position.NJ,
):
    """Pick the stance with the highest expected payoff at win-probability ``p``.

    ``soft_by_position`` maps each Position to its SoftTerms.  Delegates to
    :func:`choose_positions` so the scalar and vectorized paths share one rule.
    Elementwise: with scalar inputs it returns a Position; when ``params``
    holds arrays (a ``ParamArrays``), ``p``, the soft terms and ``previous``
    may be arrays too and it returns the int8 Position codes.
    """
    e_nj = payoff_nojoin(params.S, params.c, p, soft_by_position[Position.NJ], params.V_NJ)
    e_u = payoff_statusquo(
        params.S, params.A_R, params.C, p, soft_by_position[Position.U], params.V_U
    )
    e_r = payoff_rebel(params.F, params.A_U, p, soft_by_position[Position.R], params.V_R)
    codes = choose_positions(e_nj, e_u, e_r, previous)
    return Position(int(codes)) if codes.ndim == 0 else codes


def _extended_ratio(numerator, denominator):
    """numerator/denominator on the extended reals, elementwise.

    A zero denominator means p never influences the comparison: the sign of
    the numerator alone decides, so the threshold degenerates to -inf (the
    favored stance wins for every p) or +inf (it never wins).
    """
    with np.errstate(all="ignore"):  # zero denominators are replaced below; overflow is +-inf
        ratio = np.divide(numerator, denominator)
    return np.where(denominator == 0.0, np.where(numerator > 0.0, np.inf, -np.inf), ratio)[()]


def threshold_nj_over_u(
    params: AgentParams, soft_nj: SoftTerms, soft_u: SoftTerms
) -> float:
    """Win-probability above which abstaining strictly beats supporting the status quo.

    Closed form of payoff_nojoin > payoff_statusquo solved for p.  Returns an
    extended real; -inf means abstention (weakly) dominates for every p.
    Elementwise over array-valued ``params`` and soft terms.
    """
    _check_finite(c=params.c, C=params.C, A_R=params.A_R, V_NJ=params.V_NJ, V_U=params.V_U)
    numerator = (
        params.c - params.C
        - soft_nj.rep + soft_u.rep
        - soft_nj.integ + soft_u.integ
        - params.V_NJ + params.V_U
    )
    return _extended_ratio(numerator, params.A_R)


def threshold_r_over_nj(
    params: AgentParams, soft_r: SoftTerms, soft_nj: SoftTerms
) -> float:
    """Win-probability above which rebelling strictly beats abstaining.

    Closed form of payoff_rebel > payoff_nojoin solved for p; extended real
    with the same degenerate-denominator convention as threshold_nj_over_u.
    """
    _check_finite(
        F=params.F, S=params.S, A_U=params.A_U, c=params.c,
        V_R=params.V_R, V_NJ=params.V_NJ,
    )
    numerator = (
        params.S - params.c + params.A_U
        + soft_nj.rep - soft_r.rep
        + soft_nj.integ - soft_r.integ
        + params.V_NJ - params.V_R
    )
    denominator = params.F + params.S + params.A_U
    return _extended_ratio(numerator, denominator)

"""Discrete-time synchronous dynamics over a population of stance-choosing agents.

One step = one time unit (the shipped baseline reads it as one day).  Every
step: timed events shift the shared environment, each agent re-evaluates the
three stances against the *previous* step's public state (previous rebel
share, previous neighbor stances), consecutive-falsification counters and
exit streaks update, and time advances.  Decisions never see anything from
the current step, so update order within a step cannot matter.

Every per-agent rule is written once, elementwise: ``effective_params``,
``perceived_probability``, ``consistent``, ``integrity_value`` and the
low-payoff streak rule ``exit_update`` take one agent's values or the whole
population's arrays, and :func:`step` and the cascade analysis call them on
the arrays.  The single-agent calls (``check_exit`` here, and the reputation
functions in :mod:`network`) are n=1 views over the same kernels.  The
integrity of showing each stance has one maker, :func:`integrity_rows`, which
both the step's payoffs and the zero-support analysis read.

Stances under preference falsification stand still for long stretches and then
flip in cascades, so each state carries a memo of the step that made it
(:class:`_StepMemo`): the next step recomputes only what its changed inputs
reach, and :func:`run` reuses the previous record when the decision is reused.
What a step sees of the public state is one record, made by :func:`_see`: each
observer's observed weight per stance and its total, from which one formula,
:func:`terms_from_counts`, makes the reputation terms.  :func:`_see` finds the agents
whose stance or exit changed as one mask.  On neighbour counts (``unweighted_fraction``,
or ``weighted_fraction`` on unit weights) the counts are brought up to date over those
agents' audiences; otherwise a keyed pass remakes only their observers' rows (or every
row, when they are most of them), replaying a full pass's additions bit for bit.  A state
keeps one generation of what the next step reads: the counts, not the terms made from
them, and one set of effective factors per population, in the parameters' own slot.
The per-element rules are mask arithmetic, which does not branch per element.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GenerationError, InvalidParameterError
from .model import (  # the payoff_* are bound here for perfbench/trace_cli.py's call sites
    AgentParams,
    _check_finite,
    check_params,
    choose_positions,
    nojoin_kernel,
    payoff_nojoin,
    payoff_rebel,
    payoff_statusquo,
    rebel_kernel,
    statusquo_kernel,
)
from .network import (
    SocialNetwork,
    audience_counts,
    counted,
    generate_network,
    influence_scores,
    keyed_counts,
    observed_weights,
    observer_edges,
    observer_rows,
    terms_from_counts,
)
from .scenario import (  # re-exported: the spec types are load-time names
    DELTA_FIELDS,
    FACTOR_NAMES,
    NONNEGATIVE_FACTORS,
    Constant,
    Environment,
    Event,
    ExitSpec,
    Group,
    IntegritySpec,
    PopulationSpec,
    Position,
    PrivateType,
    REJECTION_CAP,
    ReputationSpec,
    ReputationVariant,
    TruncNormal,
    Uniform,
    _shown,
)

_INT64_MAX = int(np.iinfo(np.int64).max)


def consistent(y, x):
    """True when the shown stance matches the private preference.

    Abstaining is *not* consistent for either type: silence falsifies both a
    rebel heart and a loyalist one.  Elementwise: ``y`` is a Position or an
    array of Position codes, ``x`` a PrivateType or a boolean ``x_rebel`` array.
    """
    x_rebel = np.asarray(x is PrivateType.PRO_REBELLION if isinstance(x, PrivateType) else x)
    return y == np.int8(Position.U) + x_rebel  # the preferred stance: U, or R = U + 1 for a rebel


@dataclass
class AgentState:
    """Full per-agent state at one instant."""

    id: int
    params: AgentParams
    y: Position
    d_falsify: int = 0
    exited: bool = False
    low_payoff_streak: int = 0


@dataclass(frozen=True)
class StepRecord:
    """Aggregate outcome of one step.

    Shares are fractions of non-exited agents (all zero once everyone has
    left); ``n_falsifying`` counts non-exited agents whose shown stance
    contradicts their private preference; ``mean_p`` averages the perceived
    win probability the step's decisions actually used.
    """

    t: int
    share_R: float
    share_U: float
    share_NJ: float
    n_exited: int
    n_falsifying: int
    mean_p: float
    events: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParamArrays:
    """Struct-of-arrays population: one float64 array per AgentParams field, in id order.

    The private preference is stored as the boolean ``x_rebel``.  The
    elementwise model formulas accept it wherever they accept AgentParams.
    The columns are read-only (the arrays passed in are marked so), which
    lets :func:`step` recognise unchanged parameters by identity.  Each instance
    also holds one slot for its effective factors under one environment (see
    :func:`_effective`); :func:`dataclasses.replace` makes one with an empty slot.
    """

    F: np.ndarray
    S: np.ndarray
    A_U: np.ndarray
    A_R: np.ndarray
    c: np.ndarray
    C: np.ndarray
    V_R: np.ndarray
    V_U: np.ndarray
    V_NJ: np.ndarray
    p_base: np.ndarray
    x_rebel: np.ndarray

    def __post_init__(self):
        for name in FACTOR_NAMES + ("x_rebel",):
            getattr(self, name).setflags(write=False)
        object.__setattr__(self, "_effective", None)  # one (environment, factors) pair

    @classmethod
    def from_params(cls, params: Sequence[AgentParams]) -> "ParamArrays":
        return cls(
            x_rebel=np.asarray([a.x is PrivateType.PRO_REBELLION for a in params], dtype=bool),
            **{
                name: np.asarray([getattr(a, name) for a in params], dtype=np.float64)
                for name in FACTOR_NAMES
            },
        )

    def to_params(self) -> list[AgentParams]:
        """The per-agent view: one AgentParams per agent, in id order."""
        columns = [getattr(self, name).tolist() for name in FACTOR_NAMES]
        return [
            AgentParams(x=PrivateType.PRO_REBELLION if rebel else PrivateType.PRO_STATUS_QUO,
                        **dict(zip(FACTOR_NAMES, row)))
            for rebel, *row in zip(self.x_rebel.tolist(), *columns)
        ]


class _Seen(NamedTuple):
    """Each observer's observed weight per stance ``num`` (n x 3) and its total ``denom``, from
    which :func:`terms_from_counts` makes a step's reputation terms in :func:`_payoffs`, one
    stance at a time.  Valid while ``network`` is the same
    object, ``reputation`` compares equal, and ``exited`` and ``y`` (read-only private copies)
    are equal by content.  Only these are kept: no terms, no per-edge array, nor a view of a
    larger one.  The next step over the same network and spec works from the one mask of the
    agents whose stance or exit differs from these (see :func:`_see`): the keyed path remakes
    only their observers' rows, bit for bit as a pass over every edge would, as ``np.bincount``
    adds each bin's weights in order from 0.0, a row's bins take only its own edges, and a row
    not remade saw no change."""

    network: SocialNetwork
    reputation: ReputationSpec
    exited: np.ndarray
    y: np.ndarray
    num: np.ndarray
    denom: np.ndarray


class _StepMemo(NamedTuple):
    """One step's inputs and decision, kept on its successor state for the next step.

    The decision (the perceived probability ``p`` and the new stances and masks of
    :func:`_tail_masks`) is valid while ``seen`` is the same object and the parameters (by
    identity: their columns are read-only), the environment after events (see
    :func:`_same_env`), the integrity and exit specs and the falsification streaks clipped
    at :func:`_steady_streak` (a private copy) match.  The effective factors are not kept
    here but in the parameters' own slot (see :func:`_effective`).  States share memos, so a
    step never updates a kept array in place; the kept arrays are read-only.
    """

    seen: _Seen
    integrity: IntegritySpec
    exit: ExitSpec | None
    params: ParamArrays
    env: Environment
    streaks: np.ndarray
    p: np.ndarray
    y_next: np.ndarray
    grow: np.ndarray
    keep: np.ndarray
    low: np.ndarray | None
    hold: np.ndarray | None


@dataclass
class SimState:
    """Simulation state: time, environment, network, and population arrays.

    Canonical storage is struct-of-arrays for speed; the ``agents`` property
    materializes the per-agent view on demand.
    """

    t: int
    env: Environment
    network: SocialNetwork
    params: ParamArrays
    y: np.ndarray
    d_falsify: np.ndarray
    exited: np.ndarray
    low_payoff_streak: np.ndarray
    _last_events: tuple[str, ...] = ()
    _memo: _StepMemo | None = None  # what the step that made this state read and decided
    _schedule: tuple | None = None  # the events that step read, by :func:`_index_events`

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def agents(self) -> list[AgentState]:
        rows = zip(
            self.params.to_params(), self.y.tolist(), self.d_falsify.tolist(),
            self.exited.tolist(), self.low_payoff_streak.tolist(),
        )
        return [
            AgentState(id=i, params=params, y=Position(y), d_falsify=d, exited=exited,
                       low_payoff_streak=streak)
            for i, (params, y, d, exited, streak) in enumerate(rows)
        ]

    @classmethod
    def from_agents(
        cls,
        agents: Sequence[AgentState],
        network: SocialNetwork,
        env: Environment | None = None,
        t: int = 0,
    ) -> "SimState":
        """State with each agent at the network node its ``id`` names; the ids must be 0..n-1."""
        if len(agents) != network.n:
            raise InvalidParameterError(
                f"{len(agents)} agents but network of size {network.n}"
            )
        by_id = {a.id: a for a in agents}
        if set(by_id) != set(range(network.n)):  # a repeated id leaves another one missing
            raise InvalidParameterError(
                f"agent ids must be 0..{network.n - 1}, each exactly once"
            )
        agents = [by_id[i] for i in range(network.n)]
        params = ParamArrays.from_params([a.params for a in agents])
        return cls(
            t=t,
            env=env if env is not None else Environment(),
            network=network,
            params=params,
            y=np.asarray([int(a.y) for a in agents], dtype=np.int8),
            d_falsify=np.asarray([a.d_falsify for a in agents], dtype=np.int64),
            exited=np.asarray([a.exited for a in agents], dtype=bool),
            low_payoff_streak=np.asarray(
                [a.low_payoff_streak for a in agents], dtype=np.int64
            ),
        )


def effective_params(params: AgentParams | ParamArrays, env: Environment):
    """Hard factors after environment offsets, floored at zero.

    Tastes, private preference, and the probability baseline are untouched.
    Elementwise: returns the same type it is given (AgentParams or ParamArrays).
    This is where offsets meet factors, so it raises InvalidParameterError
    unless every factor of the result is finite: an offset sum that
    overflows, or a state built by hand with a non-finite factor.
    """
    with np.errstate(over="ignore"):  # an offset sum that overflows is refused below
        eff = replace(params, **{name: np.maximum(0.0, getattr(params, name) + getattr(env, f"d{name}"))
                                 for name in NONNEGATIVE_FACTORS})
    _check_finite(**{name: getattr(eff, name) for name in FACTOR_NAMES})
    return eff


def perceived_probability(
    params: AgentParams | ParamArrays, share_R_prev: float, env: Environment
):
    """Perceived rebellion-win probability: baseline + share coupling + shock, clamped to [0, 1].

    Elementwise over ``params.p_base``; ``share_R_prev`` is the population's
    previous rebel share, one number for everyone.
    """
    if not 0.0 <= share_R_prev <= 1.0:
        raise InvalidParameterError(
            f"share_R_prev must lie in [0, 1], got {share_R_prev!r}"
        )
    return np.clip(params.p_base + env.beta_share * share_R_prev + env.dp, 0.0, 1.0)


def integrity_value(spec: IntegritySpec, y, x, d_falsify):
    """Integrity payoff of showing ``y`` given preference ``x`` and streak ``d_falsify``.

    Elementwise and broadcasting over ``y`` and ``x`` as in :func:`consistent`
    and over ``d_falsify``; the falsification penalty is computed once for
    the whole ``d_falsify`` array.
    """
    return np.where(consistent(y, x), spec.nu_match, -falsification_penalty(spec, d_falsify))[()]


def falsification_penalty(spec: IntegritySpec, d_falsify):
    """The cost ``min(cap, nu0 + kappa * d)`` of falsifying after ``d`` falsifying steps, elementwise."""
    if np.min(d_falsify, initial=0) < 0:
        raise InvalidParameterError(f"d_falsify must be >= 0, got {d_falsify!r}")
    return np.minimum(spec.cap, spec.nu0 + spec.kappa * d_falsify)


@lru_cache(maxsize=256)
def _steady_streak(spec: IntegritySpec) -> int:
    """The least streak from which :func:`falsification_penalty` stays as it is up to the
    int64 maximum: 0 when ``kappa`` is 0, the first streak at ``cap`` when one reaches it.

    The penalty does not decrease as the streak grows (``kappa >= 0``, and int-to-float
    conversion and rounding are monotone), so streaks that are equal once clipped at this
    one have equal penalties.  Found by bisection over the penalty itself, on int64 streaks.
    """
    def penalty(d: int) -> np.float64:
        with np.errstate(over="ignore"):  # kappa * d may pass the float64 range: the cap holds
            return falsification_penalty(spec, np.int64(d))

    steady, lo, hi = penalty(_INT64_MAX), 0, _INT64_MAX
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if penalty(mid) == steady else (mid + 1, hi)
    return lo


def exit_update(streak, exited, best_payoff, exit_threshold: float, exit_patience: int):
    """The low-payoff streak and exit flag after one step, elementwise.

    The streak grows while the best available payoff is below the threshold
    and resets otherwise; an agent exits for good once it reaches
    ``exit_patience``.  A ``-inf`` threshold disables exit (no payoff is ever
    below it).  Mask arithmetic, which does not branch per element.
    """
    if exit_patience < 1:
        raise InvalidParameterError(f"exit patience must be >= 1, got {_shown(exit_patience)}")
    low = np.less(best_payoff, exit_threshold)
    return _exits(streak, exited, low, low, exit_patience)


def _streak(count, grow, keep):
    """``count`` one longer where ``grow``, as it was where ``keep`` alone, and 0 elsewhere."""
    count = count + grow
    count *= keep
    return count


def _exits(streak, exited, low, hold, patience: int):
    """The low-payoff streak, grown where ``low`` and kept where ``hold``, and the exit
    flags: an agent exits for good once its streak reaches ``patience``."""
    streak = _streak(streak, low, hold)
    return streak, exited | (streak >= patience)


def check_exit(
    agent: AgentState, best_payoff: float, exit_threshold: float, exit_patience: int
) -> AgentState:
    """One agent's :func:`exit_update`."""
    streak, exited = exit_update(
        agent.low_payoff_streak, agent.exited, best_payoff, exit_threshold, exit_patience
    )
    return replace(agent, low_payoff_streak=int(streak), exited=bool(exited))


def apply_events(
    env: Environment, events: Sequence[Event], t: int
) -> Environment:
    """Fold every event scheduled at step ``t`` into the environment, in list order."""
    out = env
    for ev in events:
        if ev.step == t:
            out = replace(
                out,
                **{
                    name: getattr(out, name) + ev.deltas.get(name, 0.0)
                    for name in DELTA_FIELDS
                },
            )
    return out


def _index_events(events, kept: tuple | None) -> tuple:
    """``events`` and each step's events in list order, keyed by step.

    ``kept``, the pair the previous step made, is returned as it is when it holds the
    same events tuple; any other sequence may have changed in place, so it is indexed anew.
    """
    if kept is not None and kept[0] is events and isinstance(events, tuple):
        return kept
    index: dict = {}
    for ev in events:
        index.setdefault(ev.step, []).append(ev)
    return events, index


def step(state: SimState, scenario) -> SimState:
    """One synchronous step; returns the successor state.

    Sub-steps, in order: apply events at t; compute previous rebel share over
    non-exited agents; effective factors; perceived probability; soft terms
    (reputation from the previous step's stances, integrity from the current
    falsification streak); stance choice; falsification-streak update; exit
    check on the best payoff; advance t.  All decisions read only step-t-1
    public state.  Exited agents are frozen and invisible to neighbors.

    The decision is a pure function of its inputs, so a step reuses what the
    step that made ``state`` kept where they are unchanged (see
    :class:`_StepMemo`); an input that fails a check still raises.  The
    streaks and exits are updated on every step, from masks the decision
    keeps (see :func:`_tail_masks`).
    """
    t = state.t
    schedule = _index_events(scenario.events, state._schedule)
    fired = schedule[1].get(t, ())
    env = apply_events(state.env, fired, t)
    memo = _decide(state, scenario, env)
    exited, streak = state.exited, state.low_payoff_streak  # handed on as they are without exits
    if scenario.exit is not None:
        streak, exited = _exits(streak, exited, memo.low, memo.hold, scenario.exit.patience)
    return replace(
        state,
        t=t + 1,
        env=env,
        y=memo.y_next.copy(),
        d_falsify=_streak(state.d_falsify, memo.grow, memo.keep),
        exited=exited,
        low_payoff_streak=streak,
        _last_events=tuple(ev.label for ev in fired),
        _memo=memo,
        _schedule=schedule,
    )


def _same_env(a: Environment, b: Environment) -> bool:
    """Whether two environments hold the same bits in every field.  ``==`` alone takes
    ``-0.0`` for ``0.0``, and numpy keeps the sign of a zero through ``np.maximum`` and
    ``np.clip``, so the factors or ``p`` made under one could differ from the other's."""
    if a is b:
        return True
    first, second = (np.array(list(vars(env).values())).tobytes() for env in (a, b))
    return first == second


def _effective(pa: ParamArrays, env: Environment) -> ParamArrays:
    """:func:`effective_params` of ``pa`` under ``env``, kept in ``pa``'s one slot with the
    environment it was made under, and reused under one of the same bits (see
    :func:`_same_env`).  The kept set is dropped before another is made, so at most one is
    alive per ``ParamArrays``, and it dies with it."""
    if pa._effective is None or not _same_env(pa._effective[0], env):
        object.__setattr__(pa, "_effective", None)
        object.__setattr__(pa, "_effective", (env, effective_params(pa, env)))
    return pa._effective[1]


def _tail_masks(chosen, best, y, exited, x_rebel, exit_rule):
    """The step's new stances, and the int64 masks ``grow, keep`` of the falsification
    streaks and ``low, hold`` of the low-payoff streaks (None without an exit rule).

    Exited agents keep their stance and both streaks.  An active agent's falsification
    streak grows while its new stance contradicts its preference, its low-payoff streak
    while its best payoff is below the exit threshold, and either resets otherwise.  Masks
    of the streaks' int64 dtype keep the updates free of casts.  While nobody has exited,
    ``keep`` is ``grow`` itself and ``hold`` is ``low``.
    """
    active, anyone_out = ~exited, exited.any()
    y_next = (chosen * active + y * exited).astype(np.int8, copy=False)

    def held(mask):  # the mask and the mask or exited, as int64
        grown = mask.astype(np.int64)
        return grown, (mask | exited).astype(np.int64) if anyone_out else grown

    grow, keep = held(active & ~consistent(y_next, x_rebel))
    low = hold = None
    if exit_rule is not None:
        low, hold = held(active & np.less(best, exit_rule.threshold))
    return y_next, grow, keep, low, hold


def _decide(state: SimState, scenario, env: Environment) -> _StepMemo:
    """The step's decision, reusing what ``state._memo`` kept where its inputs are unchanged.

    When :func:`_see` returns the kept record and every other input matches, the kept
    decision is returned as it is.
    """
    last = state._memo
    integrity, pa = scenario.integrity, state.params
    seen = _see(state.network, scenario.reputation, state.y, state.exited,
                None if last is None else last.seen)
    streaks = np.minimum(state.d_falsify, _steady_streak(integrity))
    same_inputs = last is not None and last.params is pa and _same_env(last.env, env)
    if (
        same_inputs
        and last.seen is seen
        and last.integrity == integrity
        and last.exit == scenario.exit
        and np.array_equal(last.streaks, streaks)  # never equal while a streak is negative
    ):
        return last

    y_prev, exited = seen.y, seen.exited
    active = ~exited
    share_R_prev = float((y_prev[active] == int(Position.R)).sum()) / max(int(active.sum()), 1)
    p = perceived_probability(pa, share_R_prev, env)
    e_nj, e_u, e_r = _payoffs(_effective(pa, env), p, seen, integrity, state.d_falsify)
    chosen = choose_positions(e_nj, e_u, e_r, y_prev)
    best = np.maximum(np.maximum(e_nj, e_u), e_r)
    y_next, grow, keep, low, hold = _tail_masks(chosen, best, y_prev, exited, pa.x_rebel,
                                                scenario.exit)
    for kept in (streaks, p, y_next, grow, keep, low, hold):
        if kept is not None:
            kept.setflags(write=False)
    return _StepMemo(
        seen=seen, integrity=integrity, exit=scenario.exit, params=pa, env=env,
        streaks=streaks, p=p, y_next=y_next, grow=grow, keep=keep, low=low, hold=hold,
    )


def _payoffs(eff: ParamArrays, p, seen: _Seen, integrity: IntegritySpec, d_falsify):
    """The payoffs of showing NJ, U and R at ``p``.  Each stance's reputation terms and
    integrity values are made for its own payoff alone, so one column of terms and at most
    two rows of integrity values are alive at a time.

    The kernels' inputs are checked where they are made: the factors and p_base by
    effective_params, the reputation denominators by keyed_counts or, for counts, by
    being neighbour counts; the terms, the integrity values and p are finite by construction.
    """
    integ = integrity_rows(integrity, eff.x_rebel, d_falsify)  # in Position order: NJ, U, R

    def soft(code):
        return terms_from_counts(seen.reputation, seen.num[:, code], seen.denom), next(integ)

    return (nojoin_kernel(eff.S, eff.c, p, *soft(Position.NJ), eff.V_NJ),
            statusquo_kernel(eff.S, eff.A_R, eff.C, p, *soft(Position.U), eff.V_U),
            rebel_kernel(eff.F, eff.A_U, p, *soft(Position.R), eff.V_R))


def integrity_rows(spec: IntegritySpec, x, d_falsify):
    """:func:`integrity_value` of showing each stance, one row at a time in Position order
    (NJ, U, R), from one :func:`falsification_penalty` (which raises if a streak < 0): the
    last row is written over the negated penalty itself.  Each row has the broadcast shape
    of ``x`` and ``d_falsify``, a 0-d array for one agent."""
    cost = np.asarray(-falsification_penalty(spec, d_falsify))
    *first, last = Position
    for code in first:
        yield np.where(consistent(code, x), spec.nu_match, cost)
    np.copyto(cost, spec.nu_match, where=consistent(last, x))
    yield cost


def _see(net, spec, y, exited, last: _Seen | None) -> _Seen:
    """The :class:`_Seen` of the previous stances ``y`` and exits over ``net`` under ``spec``:
    ``last`` itself when none of its keys changed.  Over ``last``'s network and spec, both
    paths work from ``last`` and the one mask ``changed`` of the agents whose stance or exit
    differs: the :func:`counted` path takes off those agents' audiences as ``last`` saw them
    and adds them as seen now, and the keyed pass remakes their observers' rows from their
    out-edges in stored order, or every row when those are more than half of them (it gives
    the same bits, see :class:`_Seen`, with no per-edge positions or copied ids).  Otherwise
    each path walks every edge."""
    same_net = last is not None and last.network is net and last.reputation == spec
    same_exits = same_net and np.array_equal(last.exited, exited)
    if same_exits and np.array_equal(last.y, y):
        return last
    exited = last.exited if same_exits else exited.copy()
    y = y.copy()
    changed = (y != last.y) | (exited != last.exited) if same_net else None
    if counted(spec, net):
        if same_net:
            num = last.num - audience_counts(net, changed & ~last.exited, last.y)
            num += audience_counts(net, changed & ~exited, y)
        else:
            num = audience_counts(net, ~exited, y).astype(np.float64)
        denom = last.denom if same_exits else num.sum(axis=1)
    else:
        iterative = spec.variant is ReputationVariant.ITERATIVE_INFLUENCE
        scores = influence_scores(net, spec.damping, spec.tol, spec.max_iters) if iterative else None
        rows = observer_rows(net, changed) if same_net else None
        if rows is None or 2 * rows.size > net.n:
            rows, edges, row = None, slice(None), net.src
        else:
            edges, row = observer_edges(net, rows)
        dst = net.dst[edges]
        weight = observed_weights(spec, net.w[edges], dst, exited[dst], scores)
        num, denom = keyed_counts(row, weight, y[dst], net.n if rows is None else rows.size)
        if rows is not None:  # the kept rows, with the remade ones written over
            part, num, denom = (num, denom), last.num.copy(), last.denom.copy()
            num[rows], denom[rows] = part
    for kept in (exited, y, num, denom):
        kept.setflags(write=False)
    return _Seen(net, spec, exited, y, num, denom)


def _record_from(state: SimState) -> StepRecord:
    active = ~state.exited
    n_active = int(active.sum())
    per_active = max(n_active, 1)  # nobody active: every share and ``mean_p`` are 0
    shares = np.bincount(state.y[active], minlength=3) / per_active
    return StepRecord(
        t=state.t - 1,
        share_R=float(shares[Position.R]),
        share_U=float(shares[Position.U]),
        share_NJ=float(shares[Position.NJ]),
        n_exited=state.n - n_active,
        n_falsifying=int((active & ~consistent(state.y, state.params.x_rebel)).sum()),
        mean_p=float(state._memo.p[active].sum() / per_active),
        events=state._last_events,
    )


def _seed_streams(seed: int) -> list[np.random.SeedSequence]:
    """The master seed's two streams: child 0 draws the population, child 1 the network."""
    return np.random.SeedSequence(seed).spawn(2)


def _redraw(columns, draw, rejected, failure: str) -> None:
    """Redraw the entries of ``columns`` that ``rejected(*columns)`` flags, one round at a time,
    from ``draw(k)`` (``k`` new entries per column, in column order), until none is flagged;
    raises GenerationError ``failure`` (which names the group and the factor) if any still is
    after REJECTION_CAP rounds."""
    bad = rejected(*columns)
    for _ in range(REJECTION_CAP):
        if not bad.any():
            return
        for column, new in zip(columns, draw(int(bad.sum()))):
            column[bad] = new
        bad = rejected(*columns)
    if bad.any():
        raise GenerationError(failure)


def _sample(dist: Constant | Uniform | TruncNormal, rng: np.random.Generator,
            size: int, where: str) -> np.ndarray:
    """``size`` draws of the factor ``where`` names; a truncated normal redraws until each
    lands in [lo, hi]."""
    if isinstance(dist, Constant):
        return np.full(size, float(dist.value))
    if isinstance(dist, Uniform):
        if dist.lo == dist.hi:
            return np.full(size, float(dist.lo))
        return rng.uniform(dist.lo, dist.hi, size)
    out = rng.normal(dist.mean, dist.sd, size)
    _redraw((out,), lambda k: (rng.normal(dist.mean, dist.sd, k),),
            lambda x: (x < dist.lo) | (x > dist.hi),
            f"{where}: trunc_normal(mean={dist.mean}, sd={dist.sd}, lo={dist.lo}, hi={dist.hi}) "
            f"exceeded {REJECTION_CAP} redraw rounds")
    return out


def _draw_group(group: Group, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One group's factor columns, drawn in FACTOR_NAMES order, then (c, C) redrawn until C >= c."""
    prefix = f"group {group.label!r}"
    dists = {name: group.factors.get(name, Constant(0.0)) for name in FACTOR_NAMES}
    drawn = {name: _sample(dists[name], rng, group.count, f"{prefix}, factor {name}")
             for name in FACTOR_NAMES}
    _redraw((drawn["c"], drawn["C"]),
            lambda k: [_sample(dists[name], rng, k, f"{prefix}, factor {name}") for name in ("c", "C")],
            lambda c, C: C < c,
            f"{prefix}, factors c, C: could not satisfy C >= c within {REJECTION_CAP} redraw rounds")
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


def sample_population(scenario) -> ParamArrays:
    """The scenario's population in id order, drawn from its population stream alone.

    Analyses that need only the agents' parameters call this instead of
    :func:`init_state`, which also builds the network.
    """
    pop_seq, _ = _seed_streams(scenario.seed)
    return sample_params(scenario.population, pop_seq)


def init_state(scenario) -> SimState:
    """Fresh t=0 state: population and network drawn from the scenario seed, everyone abstaining."""
    params = sample_population(scenario)
    n = len(params.F)
    _, net_seq = _seed_streams(scenario.seed)
    network = generate_network(scenario.network, n, net_seq)
    return SimState(
        t=0,
        env=Environment(beta_share=scenario.beta_share),
        network=network,
        params=params,
        y=np.full(n, int(Position.NJ), dtype=np.int8),
        d_falsify=np.zeros(n, dtype=np.int64),
        exited=np.zeros(n, dtype=bool),
        low_payoff_streak=np.zeros(n, dtype=np.int64),
    )


def run(scenario, state: SimState | None = None) -> list[StepRecord]:
    """Simulate ``scenario.horizon`` steps; one record per step.

    Starts from ``state`` when given (it is not modified), otherwise from
    ``init_state(scenario)``.  Bit-identical across repeated calls with the
    same scenario.
    """
    if state is None:
        state = init_state(scenario)
    records = []
    for _ in range(scenario.horizon):
        new = step(state, scenario)
        if (  # a reused decision repeats the stances: with the exits, only t and the events differ
            records
            and new._memo is state._memo
            and np.array_equal(new.exited, state.exited)
        ):
            records.append(replace(records[-1], t=new.t - 1, events=new._last_events))
        else:
            records.append(_record_from(new))
        state = new
    return records

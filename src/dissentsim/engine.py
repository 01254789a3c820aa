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
functions in :mod:`network`) are n=1 views over the same kernels.

Stances under preference falsification stand still for long stretches, so
each state carries a memo of the step that made it: that step's inputs and
what it computed from them, in four levels.  The next step reuses the
per-edge base weights while the network and the reputation spec are
unchanged, the observed weights and each observer's total while the exit
flags are unchanged too, the reputation terms while the stances are
unchanged too, and the whole decision while the parameters, the
environment, the integrity spec and every falsification penalty are
unchanged as well; :func:`run` then reuses the previous record.  Inputs
that can be edited in place are compared by content, so manual stepping
stays exact after such edits.  The per-element rules are mask arithmetic,
which does not branch per element.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GenerationError, InvalidParameterError
from .model import (
    AgentParams,
    SoftTerms,
    check_params,
    choose_positions,
    payoff_nojoin,
    payoff_rebel,
    payoff_statusquo,
)
from .network import (
    SocialNetwork,
    edge_weights,
    generate_network,
    influence_scores,
    observed_weights,
    observer_totals,
    reputation_terms,
)
from .scenario import (  # re-exported: the spec types are load-time names
    DELTA_FIELDS,
    FACTOR_NAMES,
    Constant,
    Environment,
    Event,
    ExitSpec,
    Group,
    IntegritySpec,
    PopulationSpec,
    Position,
    PrivateType,
    ReputationSpec,
    ReputationVariant,
    TruncNormal,
    Uniform,
)

#: Rejection-sampling retry cap, per agent, both for truncation and for C >= c.
REJECTION_CAP = 1000


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
    lets :func:`step` recognise unchanged parameters by identity.
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


class _StepMemo(NamedTuple):
    """One step's inputs and decision, kept on its successor state for the next step.

    Four levels, each valid while its own key and every key above it match:

    1. the network (by identity: its arrays are read-only) and the reputation
       spec: the per-edge base weights and the bincount keys ``3 * src``;
    2. the exit flags: the observed weights and each observer's total;
    3. the previous stances: the reputation terms;
    4. the parameters, the environment after events, the integrity spec and
       every falsification penalty: the decision (``p``, ``chosen``, ``best``).

    ``exited``, ``y`` and ``penalty`` are private copies, so a later step
    compares them by content; the arrays it hands out are read-only.  So
    are the others but ``weight``, which only :func:`reputation_terms` reads:
    ``np.bincount`` copies a read-only weights array on every call.
    """

    network: SocialNetwork
    reputation: ReputationSpec
    base: np.ndarray
    keys: np.ndarray
    exited: np.ndarray
    weight: np.ndarray
    denom: np.ndarray
    y: np.ndarray
    rep: np.ndarray
    integrity: IntegritySpec
    params: ParamArrays
    env: Environment
    penalty: np.ndarray
    p: np.ndarray
    chosen: np.ndarray
    best: np.ndarray


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
    """
    return replace(
        params,
        F=np.maximum(0.0, params.F + env.dF),
        S=np.maximum(0.0, params.S + env.dS),
        C=np.maximum(0.0, params.C + env.dC),
        c=np.maximum(0.0, params.c + env.dc),
        A_U=np.maximum(0.0, params.A_U + env.dA_U),
        A_R=np.maximum(0.0, params.A_R + env.dA_R),
    )


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
    return _integrity(spec, y, x, falsification_penalty(spec, d_falsify))


def _integrity(spec: IntegritySpec, y, x, penalty):
    """:func:`integrity_value` given the :func:`falsification_penalty` of each agent's streak."""
    return np.where(consistent(y, x), spec.nu_match, -penalty)[()]


def falsification_penalty(spec: IntegritySpec, d_falsify):
    """The cost ``min(cap, nu0 + kappa * d)`` of falsifying after ``d`` falsifying steps, elementwise."""
    if np.min(d_falsify, initial=0) < 0:
        raise InvalidParameterError(f"d_falsify must be >= 0, got {d_falsify!r}")
    return np.minimum(spec.cap, spec.nu0 + spec.kappa * d_falsify)


def integrity_by_stance(spec: IntegritySpec, x, penalty):
    """:func:`integrity_value` of showing each stance, rows indexed by Position code.

    ``penalty`` is the :func:`falsification_penalty` of each agent's streak,
    which the caller has already computed.
    """
    codes = np.arange(len(Position)).reshape((-1,) + (1,) * np.ndim(x))
    return _integrity(spec, codes, x, penalty)


def exit_update(streak, exited, best_payoff, exit_threshold: float, exit_patience: int):
    """The low-payoff streak and exit flag after one step, elementwise.

    The streak grows while the best available payoff is below the threshold
    and resets otherwise; an agent exits for good once it reaches
    ``exit_patience``.  A ``-inf`` threshold disables exit (no payoff is ever
    below it).  Mask arithmetic, which does not branch per element.
    """
    if exit_patience < 1:
        raise InvalidParameterError(f"exit patience must be >= 1, got {exit_patience!r}")
    streak = (streak + 1) * np.less(best_payoff, exit_threshold)
    return streak, exited | (streak >= exit_patience)


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


def step(state: SimState, scenario) -> SimState:
    """One synchronous step; returns the successor state.

    Sub-steps, in order: apply events at t; compute previous rebel share over
    non-exited agents; effective factors; perceived probability; soft terms
    (reputation from the previous step's stances, integrity from the current
    falsification streak); stance choice; falsification-streak update; exit
    check on the best payoff; advance t.  All decisions read only step-t-1
    public state.  Exited agents are frozen and invisible to neighbors.

    The decision (perceived probability, chosen stances, best payoff) is a
    pure function of its inputs, so a step whose inputs equal those of the
    step that made ``state`` repeats that step's work instead of redoing it
    (see :func:`_decide`).  The inputs are compared by content or equality,
    never by the identity of anything that can change in place, so manual
    stepping stays exact after in-place edits of ``y``, ``exited`` or
    ``d_falsify``, and an input that fails a check still raises.
    """
    t = state.t
    env = apply_events(state.env, scenario.events, t)
    labels = tuple(ev.label for ev in scenario.events if ev.step == t)

    active = ~state.exited
    if not active.any():
        return replace(state, t=t + 1, env=env, _last_events=labels, _memo=None)

    memo = _decide(state, scenario, env, active)
    # Mask arithmetic, which does not branch per element: exited agents keep their values.
    exited = state.exited
    y_new = (memo.chosen * active + state.y * exited).astype(np.int8, copy=False)
    reset = active & consistent(y_new, state.params.x_rebel)
    d_new = (state.d_falsify + active) * ~reset  # 0 when consistent, else one more

    exited_new = exited
    streak_new = state.low_payoff_streak
    if scenario.exit is not None:
        streak, exited_new = exit_update(
            streak_new, exited, memo.best, scenario.exit.threshold, scenario.exit.patience,
        )
        streak_new = streak * active + streak_new * exited  # exited agents are frozen

    return replace(
        state,
        t=t + 1,
        env=env,
        y=y_new,
        d_falsify=d_new,
        exited=exited_new,
        low_payoff_streak=streak_new,
        _last_events=labels,
        _memo=memo,
    )


def _decide(state: SimState, scenario, env: Environment, active: np.ndarray) -> _StepMemo:
    """The step's decision, reusing what ``state._memo`` kept where its inputs are unchanged.

    The levels of :class:`_StepMemo` are checked in order, and each computes
    afresh only when its own key or one above it changed: a new network or
    spec rebuilds the base weights, new exits the observed weights and their
    totals, new stances the reputation terms.  When every input matches, the
    kept decision is returned as it is.
    """
    last = state._memo
    net, spec, integrity, pa = state.network, scenario.reputation, scenario.integrity, state.params
    y_prev, exited = state.y, state.exited
    same_net = last is not None and last.network is net and last.reputation == spec
    same_exits = same_net and np.array_equal(last.exited, exited)
    same_public = same_exits and np.array_equal(last.y, y_prev)
    if same_net:
        base, keys = last.base, last.keys
    else:
        iterative = spec.variant is ReputationVariant.ITERATIVE_INFLUENCE
        scores = influence_scores(net, spec.damping, spec.tol, spec.max_iters) if iterative else None
        base, keys = edge_weights(spec, net.w, net.dst, scores), 3 * net.src
    if same_exits:
        exited, weight, denom = last.exited, last.weight, last.denom
    else:  # an exit changed since the last step
        weight = observed_weights(spec, net.w, net.dst, exited[net.dst], base=base)
        exited, denom = exited.copy(), observer_totals(net.src, weight, net.n)
    if same_public:
        y_prev, rep = last.y, last.rep
    else:  # a stance changed since the last step
        rep = reputation_terms(spec, net.src, weight, y_prev[net.dst], net.n, denom, keys)
        y_prev = y_prev.copy()
    penalty = falsification_penalty(integrity, state.d_falsify)  # checks d_falsify every step
    if (
        same_public
        and last.env is env  # frozen; apply_events returns it as is when no event fires
        and last.params is pa  # read-only columns
        and last.integrity == integrity
        and np.array_equal(last.penalty, penalty)
    ):
        return last

    share_R_prev = float((y_prev[active] == int(Position.R)).sum()) / int(active.sum())
    eff = effective_params(pa, env)
    p = perceived_probability(pa, share_R_prev, env)
    integ = integrity_by_stance(integrity, pa.x_rebel, penalty)

    NJ, U, R = Position.NJ, Position.U, Position.R
    e_nj = payoff_nojoin(eff.S, eff.c, p, SoftTerms(rep[:, NJ], integ[NJ]), pa.V_NJ)
    e_u = payoff_statusquo(eff.S, eff.A_R, eff.C, p, SoftTerms(rep[:, U], integ[U]), pa.V_U)
    e_r = payoff_rebel(eff.F, eff.A_U, p, SoftTerms(rep[:, R], integ[R]), pa.V_R)
    chosen = choose_positions(e_nj, e_u, e_r, y_prev)
    best = np.maximum(np.maximum(e_nj, e_u), e_r)
    for kept in (base, keys, denom, rep, p, chosen, best):
        kept.setflags(write=False)
    return _StepMemo(net, spec, base, keys, exited, weight, denom, y_prev, rep, integrity, pa,
                     env, penalty, p, chosen, best)


def _record_from(state: SimState) -> StepRecord:
    active = ~state.exited
    n_active = int(active.sum())
    n_exited = int(state.exited.sum())
    if n_active == 0:
        return StepRecord(
            t=state.t - 1, share_R=0.0, share_U=0.0, share_NJ=0.0,
            n_exited=n_exited, n_falsifying=0, mean_p=0.0,
            events=state._last_events,
        )
    counts = np.bincount(state.y[active], minlength=3)
    n_falsifying = int((active & ~consistent(state.y, state.params.x_rebel)).sum())
    mean_p = float(state._memo.p[active].mean()) if state._memo is not None else 0.0
    return StepRecord(
        t=state.t - 1,
        share_R=int(counts[Position.R]) / n_active,
        share_U=int(counts[Position.U]) / n_active,
        share_NJ=int(counts[Position.NJ]) / n_active,
        n_exited=n_exited,
        n_falsifying=n_falsifying,
        mean_p=mean_p,
        events=state._last_events,
    )


def _seed_streams(seed: int) -> list[np.random.SeedSequence]:
    """The master seed's two streams: child 0 draws the population, child 1 the network."""
    return np.random.SeedSequence(seed).spawn(2)


def _sample(dist: Constant | Uniform | TruncNormal, rng: np.random.Generator,
            size: int) -> np.ndarray:
    """``size`` draws of one factor; a truncated normal redraws until each lands in [lo, hi]."""
    if isinstance(dist, Constant):
        return np.full(size, float(dist.value))
    if isinstance(dist, Uniform):
        if dist.lo == dist.hi:
            return np.full(size, float(dist.lo))
        return rng.uniform(dist.lo, dist.hi, size)
    out = rng.normal(dist.mean, dist.sd, size)
    bad = (out < dist.lo) | (out > dist.hi)
    rounds = 0
    while bad.any():
        rounds += 1
        if rounds > REJECTION_CAP:
            raise GenerationError(
                f"trunc_normal(mean={dist.mean}, sd={dist.sd}, lo={dist.lo}, hi={dist.hi}) "
                f"exceeded {REJECTION_CAP} redraw rounds"
            )
        out[bad] = rng.normal(dist.mean, dist.sd, int(bad.sum()))
        bad = (out < dist.lo) | (out > dist.hi)
    return out


def _draw_group(group: Group, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One group's factor columns, drawn in FACTOR_NAMES order, then (c, C) redrawn until C >= c."""
    dists = {name: group.factors.get(name, Constant(0.0)) for name in FACTOR_NAMES}
    drawn: dict[str, np.ndarray] = {}
    for name, dist in dists.items():
        try:
            drawn[name] = _sample(dist, rng, group.count)
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
        drawn["c"][bad] = _sample(dists["c"], rng, k)
        drawn["C"][bad] = _sample(dists["C"], rng, k)
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


def sample_population(scenario) -> ParamArrays:
    """The scenario's population in id order, drawn from its population stream alone.

    Analyses that need only the agents' parameters call this instead of
    :func:`init_state`, which also builds the network.
    """
    pop_seq, _ = _seed_streams(scenario.seed)
    return sample_params(scenario.population, pop_seq)


def init_state(scenario) -> SimState:
    """Fresh t=0 state: population and network drawn from the scenario seed, everyone abstaining."""
    if scenario.update != "synchronous":
        raise InvalidParameterError(f"unsupported update discipline {scenario.update!r}")
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
        if (  # nothing the record reads changed: only t and the events differ
            records
            and new._memo is state._memo
            and np.array_equal(new.y, state.y)
            and np.array_equal(new.exited, state.exited)
        ):
            records.append(replace(records[-1], t=new.t - 1, events=new._last_events))
        else:
            records.append(_record_from(new))
        state = new
    return records

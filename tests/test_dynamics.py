"""Engine tests: scalar ops, the 3-agent hand-trace golden, and step properties.

The 3-agent trajectory was hand-computed with exact rational arithmetic by an
independent script before the engine ran; positions, falsification streaks,
and the full CSV byte stream are frozen below.  The minimum payoff margin
between the chosen stance and the runner-up across the whole trace is 0.2,
so float rounding cannot flip any decision.
"""

import io
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dissentsim import (
    AgentParams,
    AgentState,
    Environment,
    Event,
    ExitSpec,
    IntegritySpec,
    InvalidParameterError,
    PopulationSpec,
    Position,
    PrivateType,
    ReputationSpec,
    ReputationVariant,
    SimState,
    SocialNetwork,
    apply_events,
    check_exit,
    consistent,
    donbass_baseline,
    effective_params,
    generate_network,
    init_state,
    integrity_value,
    parse_scenario,
    perceived_probability,
    reputation_fraction,
    run,
    step,
    write_csv,
)
from dissentsim.engine import FACTOR_NAMES, ParamArrays, _record_from
from dissentsim.model import SoftTerms, decide
from dissentsim.network import terms_from_counts

R, U, NJ = Position.R, Position.U, Position.NJ


def params(**kw) -> AgentParams:
    base = dict(
        F=0.0, S=0.0, A_U=0.0, A_R=0.0, c=0.0, C=0.0,
        V_R=0.0, V_U=0.0, V_NJ=0.0,
        x=PrivateType.PRO_REBELLION, p_base=0.5,
    )
    base.update(kw)
    return AgentParams(**base)


def plain_scenario(**overrides):
    """Minimal object with the scenario fields step() consumes."""
    fields = dict(
        events=[],
        reputation=ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=0.0),
        integrity=IntegritySpec(nu_match=0.0, nu0=0.0, kappa=0.0, cap=1.0),
        exit=None,
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


def state_of(param_list, network=None, ys=None, env=None):
    n = len(param_list)
    net = network if network is not None else generate_network_complete(n)
    agents = [
        AgentState(id=i, params=p, y=(ys[i] if ys else NJ))
        for i, p in enumerate(param_list)
    ]
    return SimState.from_agents(agents, net, env=env)


def generate_network_complete(n):
    return SocialNetwork(n, [(i, j, 1.0) for i in range(n) for j in range(n) if i != j])


# ---------------------------------------------------------------- scalar ops

def test_from_agents_places_each_agent_at_its_id():
    net = SocialNetwork(2, [(0, 1, 1.0), (1, 0, 1.0)])
    agents = [
        AgentState(id=1, params=params(F=1.0), y=R, d_falsify=3),
        AgentState(id=0, params=params(F=2.0), y=U),
    ]
    state = SimState.from_agents(agents, net)
    assert state.params.F.tolist() == [2.0, 1.0]
    assert state.y.tolist() == [int(U), int(R)]
    assert state.d_falsify.tolist() == [0, 3]
    assert [a.id for a in state.agents] == [0, 1]
    assert state.agents[1].params.F == 1.0


@pytest.mark.parametrize("ids", [[5, 5], [0, 0], [1, 2], [0, -1]])
def test_from_agents_requires_ids_zero_to_n(ids):
    net = SocialNetwork(2, [(0, 1, 1.0)])
    agents = [AgentState(id=i, params=params(), y=NJ) for i in ids]
    with pytest.raises(InvalidParameterError, match="agent ids"):
        SimState.from_agents(agents, net)


def test_from_agents_requires_one_agent_per_node():
    agents = [AgentState(id=0, params=params(), y=NJ)]
    with pytest.raises(InvalidParameterError, match="^1 agents but network of size 2$"):
        SimState.from_agents(agents, SocialNetwork(2, [(0, 1, 1.0)]))


def test_effective_params_identity():
    a = params(F=1.0, S=2.0, C=3.0, c=0.5, A_U=1.0, A_R=1.0)
    assert effective_params(a, Environment()) == a


def test_effective_params_offsets_and_clamp():
    a = params(C=3.0, A_U=1.0)
    out = effective_params(a, Environment(dC=2.0, dA_U=-3.0))
    assert out.C == 5.0
    assert out.A_U == 0.0
    assert out.x is a.x and out.p_base == a.p_base


@pytest.mark.filterwarnings("error")
def test_step_refuses_non_finite_effective_factors():
    """The payoffs' inputs are checked where they are made: a hand-built state with an infinite
    factor, offsets that overflow a factor, and an observer whose total weight overflows.  Each
    raises, with no numpy overflow warning."""
    with pytest.raises(InvalidParameterError, match="F must be finite"):
        step(state_of([params(F=math.inf), params()]), plain_scenario())
    surge = [Event(0, "surge", {"dF": 1e308})]
    with pytest.raises(InvalidParameterError, match="F must be finite"):
        step(state_of([params(F=1e308), params()]), plain_scenario(events=surge))
    heavy = SocialNetwork(3, [(0, 1, 1e308), (0, 2, 1e308)])
    weighted = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=1.0)
    with pytest.raises(InvalidParameterError, match="total observed weight must be finite"):
        step(state_of([params()] * 3, network=heavy), plain_scenario(reputation=weighted))


def test_perceived_probability():
    assert perceived_probability(params(p_base=0.3), 0.7, Environment()) == 0.3
    assert perceived_probability(
        params(p_base=0.2), 0.4, Environment(beta_share=0.5)
    ) == pytest.approx(0.4, abs=1e-12)
    assert perceived_probability(
        params(p_base=0.9), 0.5, Environment(beta_share=1.0)
    ) == 1.0
    assert perceived_probability(params(p_base=0.1), 0.0, Environment(dp=-0.5)) == 0.0
    with pytest.raises(InvalidParameterError):
        perceived_probability(params(), 1.5, Environment())


def test_integrity_value():
    spec = IntegritySpec(nu_match=0.7, nu0=0.5, kappa=0.1, cap=2.0)
    assert integrity_value(spec, R, PrivateType.PRO_REBELLION, 5) == 0.7
    assert integrity_value(spec, U, PrivateType.PRO_STATUS_QUO, 5) == 0.7
    assert integrity_value(spec, U, PrivateType.PRO_REBELLION, 3) == pytest.approx(-0.8)
    assert integrity_value(spec, NJ, PrivateType.PRO_STATUS_QUO, 3) == pytest.approx(-0.8)
    assert integrity_value(spec, NJ, PrivateType.PRO_REBELLION, 100) == -2.0
    with pytest.raises(InvalidParameterError):
        integrity_value(spec, R, PrivateType.PRO_REBELLION, -1)


def test_integrity_spec_validation():
    with pytest.raises(InvalidParameterError):
        IntegritySpec(nu_match=-0.1, nu0=0.0, kappa=0.0, cap=1.0)
    with pytest.raises(InvalidParameterError):
        IntegritySpec(nu_match=0.0, nu0=2.0, kappa=0.0, cap=1.0)  # nu0 > cap
    with pytest.raises(InvalidParameterError):
        IntegritySpec(nu_match=0.0, nu0=0.0, kappa=0.0, cap=0.0)  # cap must be > 0


def test_consistent():
    assert consistent(R, PrivateType.PRO_REBELLION)
    assert consistent(U, PrivateType.PRO_STATUS_QUO)
    assert not consistent(NJ, PrivateType.PRO_REBELLION)
    assert not consistent(NJ, PrivateType.PRO_STATUS_QUO)
    assert not consistent(U, PrivateType.PRO_REBELLION)
    assert not consistent(R, PrivateType.PRO_STATUS_QUO)


def test_consistent_is_elementwise_over_codes():
    assert consistent(2, PrivateType.PRO_REBELLION)  # code 2 is R
    assert not consistent(1, PrivateType.PRO_REBELLION)
    y = np.array([NJ, U, R, NJ, U, R], dtype=np.int8)
    x_rebel = np.array([True, True, True, False, False, False])
    assert consistent(y, x_rebel).tolist() == [False, False, True, False, True, False]


def test_integrity_value_is_elementwise():
    spec = IntegritySpec(nu_match=0.7, nu0=0.5, kappa=0.1, cap=2.0)
    y = np.array([R, U, NJ, R], dtype=np.int8)
    x_rebel = np.array([True, True, False, False])
    d = np.array([5, 3, 3, 100])
    types = [PrivateType.PRO_REBELLION if x else PrivateType.PRO_STATUS_QUO for x in x_rebel]
    expected = [integrity_value(spec, Position(a), b, int(c)) for a, b, c in zip(y, types, d)]
    assert integrity_value(spec, y, x_rebel, d).tolist() == expected
    with pytest.raises(InvalidParameterError):
        integrity_value(spec, y, x_rebel, np.array([0, 0, -1, 0]))


def test_check_exit_disabled_sentinel():
    agent = AgentState(id=0, params=params(), y=NJ)
    out = agent
    for _ in range(5):
        out = check_exit(out, -1e9, -math.inf, 1)
    assert not out.exited and out.low_payoff_streak == 0


def test_check_exit_immediate():
    agent = AgentState(id=0, params=params(), y=NJ)
    out = check_exit(agent, -0.1, 0.0, 1)
    assert out.exited


def test_check_exit_streak_reset_then_run():
    agent = AgentState(id=0, params=params(), y=NJ)
    flags = []
    for payoff in (-1.0, 1.0, -1.0, -1.0, -1.0):
        agent = check_exit(agent, payoff, 0.0, 3)
        flags.append(agent.exited)
    assert flags == [False, False, False, False, True]  # exits at the 5th step


def test_check_exit_inf_threshold_and_bad_patience():
    agent = AgentState(id=0, params=params(), y=NJ)
    out = check_exit(check_exit(agent, 1e9, math.inf, 2), 1e9, math.inf, 2)
    assert out.exited and out.low_payoff_streak == 2
    assert type(out.low_payoff_streak) is int and type(out.exited) is bool
    with pytest.raises(InvalidParameterError):
        check_exit(agent, 0.0, 0.0, 0)


def test_apply_events():
    env = Environment()
    assert apply_events(env, [], 0) == env
    ev = Event(step=2, label="shock", deltas={"dC": 1.0, "dp": 0.05})
    out = apply_events(env, [ev], 2)
    assert out.dC == 1.0 and out.dp == 0.05 and out.dF == 0.0
    assert apply_events(env, [ev], 1) == env  # different step: untouched
    two = [Event(step=0, label="a", deltas={"dC": 1.0}), Event(step=0, label="b", deltas={"dC": 2.0})]
    assert apply_events(env, two, 0).dC == 3.0


def test_event_offsets_persist_after_their_step():
    """The engine carries offsets forward.  On the baseline timeline dC is 0.4
    from the step-0 beating until the next dC shock at step 12, and at every
    step it is the sum of the dC deltas fired so far."""
    baseline = donbass_baseline()
    small = PopulationSpec(tuple(replace(g, count=20) for g in baseline.population.groups))
    scenario = replace(baseline, population=small)
    state = init_state(scenario)
    dC = []
    for t in range(scenario.horizon):
        state = step(state, scenario)
        dC.append(state.env.dC)
        assert state.env.dC == sum(ev.deltas.get("dC", 0.0) for ev in scenario.events if ev.step <= t)
    assert dC[:12] == [0.4] * 12
    assert dC[12] == 0.8


def test_event_validation():
    with pytest.raises(InvalidParameterError):
        Event(step=-1, label="x", deltas={})
    with pytest.raises(InvalidParameterError):
        Event(step=0, label="bad,comma", deltas={})
    with pytest.raises(InvalidParameterError):
        Event(step=0, label="x", deltas={"dZ": 1.0})
    with pytest.raises(InvalidParameterError):
        Event(step=0, label="x", deltas={"dC": float("inf")})


# ---------------------------------------------------------------- tiny runs

def test_single_rebel_fixed_point():
    doc = """
    {"horizon": 4, "population": {"groups": [
        {"label": "solo", "count": 1, "private_type": "pro_rebellion",
         "factors": {"F": {"dist": "constant", "value": 1.0},
                     "C": {"dist": "constant", "value": 0.1},
                     "p_base": {"dist": "constant", "value": 1.0}}}]},
     "network": {"kind": "complete"}}
    """
    records = run(parse_scenario(doc))
    assert [r.share_R for r in records] == [1.0, 1.0, 1.0, 1.0]


def test_horizon_zero_empty_records():
    doc = """
    {"horizon": 0, "population": {"groups": [
        {"label": "solo", "count": 1, "private_type": "pro_rebellion",
         "factors": {"C": {"dist": "constant", "value": 0.1}}}]},
     "network": {"kind": "complete"}}
    """
    assert run(parse_scenario(doc)) == []


# ---------------------------------------------------------------- hand-trace golden

HAND_TRACE_DOC = """
{
  "name": "three-agent-hand-trace",
  "seed": 42,
  "horizon": 6,
  "beta_share": 0.3,
  "population": {"groups": [
    {"label": "hothead", "count": 1, "private_type": "pro_rebellion",
     "factors": {
       "F": {"dist": "constant", "value": 3.0},
       "S": {"dist": "constant", "value": 1.0},
       "A_U": {"dist": "constant", "value": 0.5},
       "A_R": {"dist": "constant", "value": 0.5},
       "c": {"dist": "constant", "value": 0.2},
       "C": {"dist": "constant", "value": 1.0},
       "V_R": {"dist": "constant", "value": 0.5},
       "p_base": {"dist": "constant", "value": 0.5}}},
    {"label": "loyalist", "count": 1, "private_type": "pro_status_quo",
     "factors": {
       "F": {"dist": "constant", "value": 0.2},
       "S": {"dist": "constant", "value": 2.0},
       "A_U": {"dist": "constant", "value": 1.0},
       "A_R": {"dist": "constant", "value": 1.0},
       "c": {"dist": "constant", "value": 0.2},
       "C": {"dist": "constant", "value": 0.5},
       "p_base": {"dist": "constant", "value": 0.1}}},
    {"label": "fence_sitter", "count": 1, "private_type": "pro_status_quo",
     "factors": {
       "F": {"dist": "constant", "value": 1.0},
       "S": {"dist": "constant", "value": 1.2},
       "A_U": {"dist": "constant", "value": 0.8},
       "A_R": {"dist": "constant", "value": 0.8},
       "c": {"dist": "constant", "value": 0.2},
       "C": {"dist": "constant", "value": 0.9},
       "p_base": {"dist": "constant", "value": 0.3}}}
  ]},
  "network": {"kind": "complete"},
  "reputation": {"variant": "unweighted_fraction", "alpha": 0.6, "centered": true},
  "integrity": {"nu_match": 1.0, "nu0": 0.2, "kappa": 0.1, "cap": 0.4},
  "events": [{"step": 3, "label": "crackdown", "deltas": {"dC": 2.0}}]
}
"""

# hand-computed with exact rationals: (t, (y0, y1, y2), (d0, d1, d2), n_falsifying)
HAND_TRACE = [
    (0, (R, U, NJ), (0, 0, 1), 1),
    (1, (R, U, U), (0, 0, 0), 0),
    (2, (R, U, U), (0, 0, 0), 0),
    (3, (R, NJ, NJ), (0, 1, 1), 2),
    (4, (R, NJ, NJ), (0, 2, 2), 2),
    (5, (R, NJ, NJ), (0, 3, 3), 2),
]

HAND_TRACE_CSV = (
    b"t,share_R,share_U,share_NJ,n_exited,n_falsifying,mean_p,events\n"
    b"0,0.333333,0.333333,0.333333,0,1,0.300000,\n"
    b"1,0.333333,0.666667,0.000000,0,0,0.400000,\n"
    b"2,0.333333,0.666667,0.000000,0,0,0.400000,\n"
    b"3,0.333333,0.000000,0.666667,0,2,0.400000,crackdown\n"
    b"4,0.333333,0.000000,0.666667,0,2,0.400000,\n"
    b"5,0.333333,0.000000,0.666667,0,2,0.400000,\n"
)


def test_hand_trace_positions_exact():
    scenario = parse_scenario(HAND_TRACE_DOC)
    state = init_state(scenario)
    for t, ys, ds, n_fals in HAND_TRACE:
        state = step(state, scenario)
        assert tuple(Position(int(v)) for v in state.y) == ys, f"positions diverged at t={t}"
        assert tuple(int(v) for v in state.d_falsify) == ds, f"streaks diverged at t={t}"
        assert _record_from(state).n_falsifying == n_fals


def test_hand_trace_csv_bytes_exact():
    records = run(parse_scenario(HAND_TRACE_DOC))
    sink = io.BytesIO()
    write_csv(records, sink)
    assert sink.getvalue() == HAND_TRACE_CSV


def test_hand_trace_seed_irrelevant_for_constant_factors():
    a = run(parse_scenario(HAND_TRACE_DOC))
    b = run(parse_scenario(HAND_TRACE_DOC.replace('"seed": 42', '"seed": 43')))
    assert [r.share_R for r in a] == [r.share_R for r in b]
    assert [r.share_U for r in a] == [r.share_U for r in b]


# ---------------------------------------------------------------- step properties

def test_conservation_with_exits():
    doc = """
    {"horizon": 30, "seed": 7, "beta_share": 0.2,
     "population": {"groups": [
        {"label": "a", "count": 30, "private_type": "pro_rebellion",
         "factors": {"F": {"dist": "uniform", "lo": 0.0, "hi": 2.0},
                     "S": {"dist": "uniform", "lo": 0.0, "hi": 1.0},
                     "A_U": {"dist": "uniform", "lo": 0.0, "hi": 3.0},
                     "c": {"dist": "constant", "value": 0.4},
                     "C": {"dist": "constant", "value": 1.0},
                     "p_base": {"dist": "uniform", "lo": 0.0, "hi": 0.4}}},
        {"label": "b", "count": 30, "private_type": "pro_status_quo",
         "factors": {"S": {"dist": "uniform", "lo": 0.0, "hi": 2.0},
                     "A_R": {"dist": "uniform", "lo": 0.0, "hi": 2.0},
                     "c": {"dist": "constant", "value": 0.4},
                     "C": {"dist": "constant", "value": 1.0},
                     "p_base": {"dist": "uniform", "lo": 0.0, "hi": 0.6}}}]},
     "network": {"kind": "erdos_renyi", "p_edge": 0.2},
     "reputation": {"variant": "unweighted_fraction", "alpha": 0.5},
     "integrity": {"nu_match": 0.3, "nu0": 0.2, "kappa": 0.05, "cap": 0.5},
     "exit": {"threshold": 0.05, "patience": 2}}
    """
    scenario = parse_scenario(doc)
    state = init_state(scenario)
    n = scenario.n_total
    saw_exits = False
    for _ in range(scenario.horizon):
        state = step(state, scenario)
        rec = _record_from(state)
        active = n - rec.n_exited
        counts = np.bincount(state.y[~state.exited], minlength=3)
        assert counts.sum() == active
        assert counts.sum() + rec.n_exited == n
        if active:
            assert rec.share_R + rec.share_U + rec.share_NJ == pytest.approx(1.0, abs=1e-9)
        saw_exits = saw_exits or rec.n_exited > 0
    assert saw_exits  # the fixture must actually exercise the exit path


def test_exit_disabled_means_no_exits():
    doc = HAND_TRACE_DOC  # exit field omitted -> disabled
    records = run(parse_scenario(doc))
    assert all(r.n_exited == 0 for r in records)


def test_permutation_invariance_single_step():
    rng = np.random.default_rng(31)
    plist = []
    for _ in range(12):
        f, s, a_u, a_r = rng.uniform(0, 3, size=4)
        lo, hi = np.sort(rng.uniform(0, 2, size=2))
        plist.append(params(
            F=float(f), S=float(s), A_U=float(a_u), A_R=float(a_r),
            c=float(lo), C=float(hi),
            x=PrivateType.PRO_REBELLION if rng.random() < 0.5 else PrivateType.PRO_STATUS_QUO,
            p_base=float(rng.uniform(0, 1)),
        ))
    scenario = plain_scenario(
        reputation=ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=0.4, centered=True),
        integrity=IntegritySpec(nu_match=0.5, nu0=0.1, kappa=0.0, cap=0.5),
    )
    env = Environment(beta_share=0.5)

    perm = list(rng.permutation(12))
    forward = step(state_of(plist, env=env), scenario)
    permuted = step(state_of([plist[i] for i in perm], env=env), scenario)
    # complete network + identical params multiset: agent i's trajectory only
    # depends on its own params, so the permuted run must match pointwise.
    for new_idx, old_idx in enumerate(perm):
        assert permuted.y[new_idx] == forward.y[old_idx]


@st.composite
def relabeled_worlds(draw):
    """A random directed graph and population with exits and an event, whose fraction-variant
    reputation comes from maintained counts (unit weights, ``unweighted_fraction``) or from
    the keyed pass (weights other than 1, ``weighted_fraction``); and a permutation."""
    n = draw(st.integers(2, 12))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keyed = draw(st.booleans())
    weight = st.sampled_from([0.1, 0.3, 0.7, 1.3]) if keyed else st.just(1.0)
    chosen = draw(st.permutations(pairs))[:draw(st.integers(0, len(pairs)))]  # dense ones too
    edges = [(i, j, draw(weight)) for i, j in chosen]

    def column(values, dtype):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

    columns = {name: column(st.floats(0.0, 2.0), np.float64)
               for name in FACTOR_NAMES if name != "p_base"}
    columns.update(p_base=column(st.floats(0.0, 1.0), np.float64), x_rebel=column(st.booleans(), bool))
    agents = dict(y=column(st.sampled_from(list(Position)), np.int8),
                  d_falsify=column(st.integers(0, 3), np.int64),
                  exited=column(st.sampled_from([False, False, True]), bool),
                  low_payoff_streak=column(st.integers(0, 1), np.int64))
    variant = ReputationVariant.WEIGHTED_FRACTION if keyed else ReputationVariant.UNWEIGHTED_FRACTION
    scenario = plain_scenario(
        reputation=ReputationSpec(variant, alpha=draw(st.sampled_from([0.5, 1.5])),
                                  centered=draw(st.booleans())),
        integrity=IntegritySpec(nu_match=0.5, nu0=0.1, kappa=0.1, cap=0.6),
        exit=ExitSpec(threshold=draw(st.sampled_from([0.5, 1.0, 2.0])), patience=2),
        events=[Event(step=2, label="shock", deltas={"dp": 0.25, "dC": -0.5})],
    )
    return n, edges, columns, agents, np.array(draw(st.permutations(range(n)))), scenario


def world_of(n, edges, columns, agents):
    return SimState(t=0, env=Environment(beta_share=0.5), network=SocialNetwork(n, edges),
                    params=ParamArrays(**columns), **agents)


@given(relabeled_worlds())
def test_relabeling_the_agents_relabels_every_step(drawn):
    """Agent i becomes ``perm[i]`` and every edge is mapped through ``perm``, in the same
    order, so each observer's edges keep their relative order under the stable sort by
    source and every sum adds the same terms in the same order: each step's stances,
    streaks, exits and reputation terms map pointwise, bit for bit, on the counts path and
    the keyed pass."""
    n, edges, columns, agents, perm, scenario = drawn
    old = np.argsort(perm)  # relabeled agent k was agent old[k]
    forward = world_of(n, edges, columns, agents)
    moved = world_of(n, [(perm[i], perm[j], w) for i, j, w in edges],
                     {name: a[old] for name, a in columns.items()},
                     {name: a[old] for name, a in agents.items()})
    for _ in range(6):
        forward, moved = step(forward, scenario), step(moved, scenario)
        for name in agents:
            assert getattr(moved, name)[perm].tobytes() == getattr(forward, name).tobytes()
        rep = [terms_from_counts(seen.reputation, seen.num, seen.denom)
               for seen in (moved._memo.seen, forward._memo.seen)]
        assert rep[0][perm].tobytes() == rep[1].tobytes()


def test_monotone_fear_dC():
    base_doc = _random_population_doc(seed=99, extra_events="")
    bump_doc = _random_population_doc(
        seed=99,
        extra_events='{"step": 0, "label": "fear", "deltas": {"dC": 1.0}}',
    )
    y_base = _positions_after_one_step(base_doc)
    y_bump = _positions_after_one_step(bump_doc)
    u_base = set(np.nonzero(y_base == int(U))[0])
    u_bump = set(np.nonzero(y_bump == int(U))[0])
    assert u_bump <= u_base


def test_share_feedback_dp():
    base_doc = _random_population_doc(seed=99, extra_events="")
    bump_doc = _random_population_doc(
        seed=99,
        extra_events='{"step": 0, "label": "hope", "deltas": {"dp": 0.1}}',
    )
    y_base = _positions_after_one_step(base_doc)
    y_bump = _positions_after_one_step(bump_doc)
    r_base = set(np.nonzero(y_base == int(R))[0])
    r_bump = set(np.nonzero(y_bump == int(R))[0])
    assert r_base <= r_bump


def _random_population_doc(seed: int, extra_events: str) -> str:
    events = f"[{extra_events}]" if extra_events else "[]"
    return f"""
    {{"horizon": 1, "seed": {seed}, "beta_share": 0.3,
     "population": {{"groups": [
        {{"label": "mix", "count": 200, "private_type": "pro_status_quo",
         "factors": {{"F": {{"dist": "uniform", "lo": 0.0, "hi": 4.0}},
                     "S": {{"dist": "uniform", "lo": 0.0, "hi": 4.0}},
                     "A_U": {{"dist": "uniform", "lo": 0.0, "hi": 2.0}},
                     "A_R": {{"dist": "uniform", "lo": 0.0, "hi": 2.0}},
                     "c": {{"dist": "uniform", "lo": 0.0, "hi": 0.5}},
                     "C": {{"dist": "uniform", "lo": 0.5, "hi": 1.5}},
                     "p_base": {{"dist": "uniform", "lo": 0.0, "hi": 1.0}}}}}},
        {{"label": "reb", "count": 100, "private_type": "pro_rebellion",
         "factors": {{"F": {{"dist": "uniform", "lo": 0.0, "hi": 4.0}},
                     "S": {{"dist": "uniform", "lo": 0.0, "hi": 2.0}},
                     "A_U": {{"dist": "uniform", "lo": 0.0, "hi": 2.0}},
                     "c": {{"dist": "uniform", "lo": 0.0, "hi": 0.5}},
                     "C": {{"dist": "uniform", "lo": 0.5, "hi": 1.5}},
                     "p_base": {{"dist": "uniform", "lo": 0.0, "hi": 1.0}}}}}}]}},
     "network": {{"kind": "erdos_renyi", "p_edge": 0.1}},
     "reputation": {{"variant": "unweighted_fraction", "alpha": 0.3}},
     "integrity": {{"nu_match": 0.4, "nu0": 0.2, "kappa": 0.1, "cap": 0.6}},
     "events": {events}}}
    """


def _positions_after_one_step(doc: str) -> np.ndarray:
    scenario = parse_scenario(doc)
    state = step(init_state(scenario), scenario)
    return state.y


def test_baseline_run_builds_no_edge_tuples():
    """The network stays in its CSR arrays: the per-edge ``edges`` view is never built."""
    scenario = donbass_baseline()
    state = init_state(scenario)
    run(scenario, state)
    assert "edges" not in vars(state.network)


def test_determinism_run_twice():
    doc = _random_population_doc(seed=5, extra_events="")
    a, b = run(parse_scenario(doc)), run(parse_scenario(doc))
    sink_a, sink_b = io.BytesIO(), io.BytesIO()
    write_csv(a, sink_a)
    write_csv(b, sink_b)
    assert sink_a.getvalue() == sink_b.getvalue()


def test_all_exited_step_is_noop_but_time_advances():
    doc = """
    {"horizon": 4, "population": {"groups": [
        {"label": "miserable", "count": 2, "private_type": "pro_rebellion",
         "factors": {"c": {"dist": "constant", "value": 0.5},
                     "C": {"dist": "constant", "value": 1.0},
                     "p_base": {"dist": "constant", "value": 0.0}}}]},
     "network": {"kind": "complete"},
     "integrity": {"nu_match": 0.0, "nu0": 0.2, "kappa": 0.0, "cap": 0.2},
     "exit": {"threshold": 100.0, "patience": 1},
     "events": [{"step": 2, "label": "late_event", "deltas": {"dC": 1.0}}]}
    """
    scenario = parse_scenario(doc)
    records = run(scenario)
    assert [r.t for r in records] == [0, 1, 2, 3]
    assert records[0].n_exited == 2
    assert records[-1].n_exited == 2
    assert records[2].events == ("late_event",)  # events still logged while empty
    assert records[1].share_R == records[1].share_U == records[1].share_NJ == 0.0
    assert records[1].mean_p == 0.0


def test_engine_reputation_matches_scalar_ops():
    """Replicate one vectorized step with the scalar API, position by position."""
    rng = np.random.default_rng(1234)
    n = 10
    plist = []
    for _ in range(n):
        f, s, a_u, a_r = rng.uniform(0, 3, size=4)
        lo, hi = np.sort(rng.uniform(0, 2, size=2))
        plist.append(params(
            F=float(f), S=float(s), A_U=float(a_u), A_R=float(a_r),
            c=float(lo), C=float(hi),
            x=PrivateType.PRO_REBELLION if rng.random() < 0.5 else PrivateType.PRO_STATUS_QUO,
            p_base=float(rng.uniform(0, 1)),
        ))
    ys = [Position(int(rng.integers(3))) for _ in range(n)]
    net = generate_network_complete(n)
    rep_spec = ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=0.7, centered=True)
    integ_spec = IntegritySpec(nu_match=0.5, nu0=0.2, kappa=0.1, cap=0.4)
    scenario = plain_scenario(reputation=rep_spec, integrity=integ_spec)
    env = Environment(beta_share=0.4, dC=0.3)

    state0 = state_of(plist, network=net, ys=ys, env=env)
    state1 = step(state0, scenario)

    publics = {i: ys[i] for i in range(n)}
    share = sum(1 for y in ys if y is R) / n
    for i, a in enumerate(plist):
        eff = effective_params(a, env)
        p = perceived_probability(a, share, env)
        soft = {
            pos: SoftTerms(
                reputation_fraction(i, pos, net, publics, rep_spec),
                integrity_value(integ_spec, pos, a.x, 0),
            )
            for pos in (NJ, U, R)
        }
        expected = decide(eff, p, soft, previous=ys[i])
        assert Position(int(state1.y[i])) is expected

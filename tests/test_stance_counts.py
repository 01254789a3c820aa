"""Fraction-variant reputation from maintained stance counts equals the keyed pass, bit for bit.

Under ``unweighted_fraction``, and under ``weighted_fraction`` where every weight is 1,
:func:`step` keeps each observer's visible neighbours per stance and brings them up to
date by walking only the in-edges of the agents whose stance or exit flag changed.  Any
other weights take the keyed pass.  The reference is the keyed pass over every edge:
``observed_weights``, ``observer_totals`` and ``reputation_terms``.
"""

import io
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dissentsim import (
    ExitSpec,
    IntegritySpec,
    InvalidParameterError,
    NetworkKind,
    NetworkSpec,
    Position,
    ReputationSpec,
    ReputationVariant,
    SimState,
    SocialNetwork,
    generate_network,
    run,
    step,
)
from dissentsim.engine import FACTOR_NAMES, Environment, ParamArrays
from dissentsim import engine
from dissentsim.network import (
    counted,
    influence_scores,
    observed_weights,
    observer_totals,
    reputation_terms,
    terms_from_counts,
)
from dissentsim.scenario import PopulationSpec, donbass_baseline, write_csv

FRACTIONS = (ReputationVariant.UNWEIGHTED_FRACTION, ReputationVariant.WEIGHTED_FRACTION)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def seen_record(seen):
    """A step's counts and totals, and the reputation terms made from them."""
    return seen.num, seen.denom, terms_from_counts(seen.reputation, seen.num, seen.denom)


def keyed_pass(spec, net, y, exited):
    """The numerators, totals and terms of one keyed pass over every edge."""
    scores = None
    if spec.variant is ReputationVariant.ITERATIVE_INFLUENCE:
        scores = influence_scores(net, spec.damping, spec.tol, spec.max_iters)
    weight = observed_weights(spec, net.w, net.dst, exited[net.dst], scores)
    num = np.bincount(3 * net.src + y[net.dst], weights=weight, minlength=3 * net.n)
    return (num.reshape(-1, 3), observer_totals(net.src, weight, net.n),
            reputation_terms(spec, net.src, weight, y[net.dst], net.n))


def state_of(net, params, y, exited):
    n = net.n
    return SimState(
        t=0, env=Environment(beta_share=0.5), network=net, params=params,
        y=np.asarray(y, dtype=np.int8), d_falsify=np.zeros(n, dtype=np.int64),
        exited=np.asarray(exited, dtype=bool), low_payoff_streak=np.zeros(n, dtype=np.int64),
    )


def scenario_of(spec, exit=None):
    return SimpleNamespace(events=(), exit=exit, reputation=spec,
                           integrity=IntegritySpec(nu_match=0.5, nu0=0.1, kappa=0.2, cap=0.5))


def params_of(draw, n):
    factor = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    column = st.lists(factor, min_size=n, max_size=n).map(np.array)
    return ParamArrays(
        **{name: draw(column) for name in FACTOR_NAMES if name != "p_base"},
        p_base=draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)
                    .map(np.array)),
        x_rebel=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )


@st.composite
def fraction_runs(draw):
    """A random directed graph with unit weights, or integral ones with zero among them, so
    that ``weighted_fraction`` takes either path; a fraction variant, an exit rule or none,
    and the edits made before each manual step."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weight = draw(st.sampled_from([st.just(1.0), st.sampled_from([0.0, 1.0, 2.0, 3.0, 2.0**40])]))
    net = SocialNetwork(n, [(i, j, draw(weight)) for i, j in chosen])
    spec = ReputationSpec(draw(st.sampled_from(FRACTIONS)), alpha=draw(st.sampled_from([0.3, 1.0])),
                          centered=draw(st.booleans()))
    exit_rule = draw(st.one_of(st.none(), st.builds(
        ExitSpec, threshold=st.sampled_from([0.0, 1.0, 2.0]), patience=st.integers(1, 3))))
    y = draw(st.lists(st.sampled_from(list(Position)), min_size=n, max_size=n))
    exited = draw(st.one_of(st.lists(st.booleans(), min_size=n, max_size=n), st.just([True] * n)))
    agent = st.integers(0, n - 1)
    edit = st.one_of(
        st.none(),  # a plain step
        st.tuples(st.just("y"), agent, st.integers(1, 2)),  # a stance, in place
        st.tuples(st.just("exited"), agent, st.just(0)),  # an exit flag flipped, in place
        st.tuples(st.just("silence"), agent, st.just(0)),  # every target of an observer exits
        st.tuples(st.just("again"), agent, st.integers(1, 3)),  # an older state, stepped again
    )
    edits = draw(st.lists(edit, min_size=1, max_size=15))
    return state_of(net, params_of(draw, n), y, exited), scenario_of(spec, exit_rule), edits


def silenced(weights):
    """Agent 0 observes 1 and 2 at ``weights``, and both exit; agent 3 observes nobody."""
    net = SocialNetwork(4, [(0, 1, weights[0]), (0, 2, weights[1]), (1, 0, 1.0)])
    params = ParamArrays(**{name: np.ones(4) for name in FACTOR_NAMES},
                         x_rebel=np.array([True, False, True, False]))
    return (state_of(net, params, [Position.R, Position.U, Position.NJ, Position.R], [False] * 4),
            scenario_of(ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=1.0, centered=True)),
            [None, ("silence", 0, 0), None, ("exited", 1, 0), ("again", 0, 2), ("y", 2, 1)])


@given(fraction_runs())
@example(silenced((1.0, 1.0)))  # the counts path
@example(silenced((2.0, 0.0)))  # the keyed pass
def test_counts_equal_the_keyed_pass_at_every_step(world):
    state, scenario, edits = world
    spec, history = scenario.reputation, [state]
    unit = (state.network.w == 1.0).all() or spec.variant is ReputationVariant.UNWEIGHTED_FRACTION
    for edit in edits:
        if edit is not None:
            kind, i, shift = edit
            if kind == "again":
                state = history[max(0, len(history) - 1 - shift)]
                kind = "y"
            if kind == "y":
                state.y[i] = (state.y[i] + shift) % 3
            elif kind == "exited":
                state.exited[i] = not state.exited[i]
            elif kind == "silence":
                state.exited[state.network.dst[state.network._row(i)]] = True
        num, denom, rep = keyed_pass(spec, state.network, state.y, state.exited)
        new = step(state, scenario)
        seen = new._memo.seen
        assert counted(spec, state.network) == unit
        assert [bits(a) for a in seen_record(seen)] == [bits(a) for a in (num, denom, rep)]
        fresh = step(replace(state, _memo=None), scenario)
        assert bits(new.y) == bits(fresh.y) and bits(new.exited) == bits(fresh.exited)
        assert bits(new._memo.p) == bits(fresh._memo.p)
        history.append(new)
        state = new


def test_a_cascade_takes_both_keyed_routes_bit_for_bit(monkeypatch):
    """The every-step check over a cascade of the dynamics: the baseline's groups at 300
    agents under ``iterative_influence``, with exits, over 240 steps.  A step whose changed
    agents' observers are at most half the rows remakes those rows alone, and one whose
    observers are more remakes every row; both routes run after the first step, and each
    step's record equals a keyed pass over every edge, bit for bit."""
    baseline = donbass_baseline()
    groups = [replace(g, count=c) for g, c in zip(baseline.population.groups, (30, 45, 225))]
    scenario = replace(baseline, population=PopulationSpec(groups), horizon=240,
                       reputation=ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=0.5),
                       exit=ExitSpec(threshold=1.0, patience=20))
    walked, edges, real_step = [], set(), engine.step

    def checked(state, scenario):
        with counting_calls("observed_weights") as calls:
            new = real_step(state, scenario)
        seen, expected = new._memo.seen, keyed_pass(scenario.reputation, state.network,
                                                     state.y, state.exited)
        assert [bits(a) for a in seen_record(seen)] == [bits(a) for a in expected]
        walked.extend(call[2].size for call in calls)
        edges.add(state.network.src.size)
        return new

    monkeypatch.setattr(engine, "step", checked)
    run(scenario)
    (m,) = edges
    assert walked[0] == m and m in walked[1:] and any(0 < size < m for size in walked[1:])


def test_counts_start_afresh_on_a_new_network_or_spec():
    """Counts kept over one network or spec are not carried over to another, even where no
    stance or exit changed between the steps."""
    n = 4
    params = ParamArrays(**{name: np.ones(n) for name in FACTOR_NAMES}, x_rebel=np.zeros(n, bool))
    ring = SocialNetwork(n, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    heavy = SocialNetwork(n, [(0, 1, 3.0), (0, 2, 1.0), (1, 3, 2.0), (3, 2, 1.0)])
    weighted = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=1.0)
    unweighted = replace(weighted, variant=ReputationVariant.UNWEIGHTED_FRACTION)
    state = step(state_of(ring, params, [0, 1, 2, 1], [False] * n), scenario_of(weighted))
    for net, spec in ((heavy, weighted), (heavy, unweighted), (ring, unweighted)):
        state = replace(state, network=net)
        expected = keyed_pass(spec, net, state.y, state.exited)
        seen = step(state, scenario_of(spec))._memo.seen
        assert [bits(a) for a in seen_record(seen)] == [bits(a) for a in expected]


# ---------------------------------------------------------------- which path a step takes

@contextmanager
def counting_calls(name):
    """Records the arguments of each call of the engine's module-level function ``name``."""
    calls, real = [], getattr(engine, name)
    setattr(engine, name, lambda *args: calls.append(args) or real(*args))
    try:
        yield calls
    finally:
        setattr(engine, name, real)


def routed(net, variant):
    """The path one step over ``net`` under ``variant`` takes, ``"counts"`` or ``"keyed"``; its
    reputation record is checked against a fresh keyed pass over every edge, bit for bit.
    A first step on the counts path walks the audiences of every visible agent, once."""
    n = net.n
    params = ParamArrays(**{name: np.ones(n) for name in FACTOR_NAMES}, x_rebel=np.zeros(n, bool))
    state = state_of(net, params, [Position.R] * n, [False] * n)
    spec = ReputationSpec(variant, alpha=1.0)
    with counting_calls("audience_counts") as counts, counting_calls("keyed_counts") as keyed:
        seen = step(state, scenario_of(spec))._memo.seen
    expected = keyed_pass(spec, net, state.y, state.exited)
    assert [bits(a) for a in seen_record(seen)] == [bits(a) for a in expected]
    assert len(counts) + len(keyed) == 1
    assert [call[1].tolist() for call in counts] in ([], [(~state.exited).tolist()])
    return "keyed" if keyed else "counts"


def test_non_integral_weights_take_the_keyed_pass():
    net = SocialNetwork(3, [(0, 1, 0.5), (0, 2, 1.0), (1, 2, 2.0)])
    assert routed(net, ReputationVariant.WEIGHTED_FRACTION) == "keyed"
    assert routed(net, ReputationVariant.UNWEIGHTED_FRACTION) == "counts"  # every weight is 1
    assert routed(net, ReputationVariant.ITERATIVE_INFLUENCE) == "keyed"


def test_observer_totals_from_two_to_the_53_take_the_keyed_pass():
    """Integral weights whose observer totals reach 2**53, where float64 stops holding every
    integer, take the keyed pass under ``weighted_fraction``; so do totals just below it,
    since no weight other than 1 is a neighbour count."""
    below = SocialNetwork(3, [(0, 1, 2.0**52), (0, 2, 2.0**52 - 1), (1, 2, 1.0)])
    at = SocialNetwork(3, [(0, 1, 2.0**52), (0, 2, 2.0**52), (1, 2, 1.0)])
    assert routed(below, ReputationVariant.WEIGHTED_FRACTION) == "keyed"
    assert routed(at, ReputationVariant.WEIGHTED_FRACTION) == "keyed"
    assert routed(at, ReputationVariant.UNWEIGHTED_FRACTION) == "counts"
    overflowing = SocialNetwork(3, [(0, 1, 1e308), (0, 2, 1e308)])  # integral, total inf
    with pytest.raises(InvalidParameterError, match="total observed weight must be finite"):
        routed(overflowing, ReputationVariant.WEIGHTED_FRACTION)
    assert routed(overflowing, ReputationVariant.UNWEIGHTED_FRACTION) == "counts"


def test_weights_other_than_one_take_the_keyed_pass():
    """Under ``weighted_fraction`` only unit weights are neighbour counts: a network with any
    other weight, integral ones and zero among them, takes the keyed pass, while
    ``unweighted_fraction`` counts neighbours over any weights."""
    for weights in ((2.0, 1.0, 1.0), (0.0, 1.0, 1.0)):
        net = SocialNetwork(3, [(0, 1, weights[0]), (0, 2, weights[1]), (1, 2, weights[2])])
        assert routed(net, ReputationVariant.WEIGHTED_FRACTION) == "keyed"
        assert routed(net, ReputationVariant.UNWEIGHTED_FRACTION) == "counts"
        assert routed(net, ReputationVariant.ITERATIVE_INFLUENCE) == "keyed"
    ones = SocialNetwork(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert routed(ones, ReputationVariant.WEIGHTED_FRACTION) == "counts"


# ---------------------------------------------------------------- what the memo keeps

@pytest.mark.parametrize("variant", FRACTIONS)
def test_a_generated_small_world_keeps_no_per_edge_array(variant):
    """After the first step the memo holds no array with an entry per edge, and the in-edge
    index is the network's own CSR: no transpose is built."""
    net = generate_network(NetworkSpec(NetworkKind.SMALL_WORLD, k=6, rewire_p=0.3), 50, 5)
    m = net.src.size
    assert m not in (net.n, 3 * net.n)
    n = net.n
    params = ParamArrays(**{name: np.full(n, 0.5) for name in FACTOR_NAMES},
                         x_rebel=np.arange(n) % 3 == 0)
    state = state_of(net, params, np.arange(n) % 3, np.arange(n) % 7 == 0)
    scenario = scenario_of(ReputationSpec(variant, alpha=1.0), ExitSpec(threshold=0.6, patience=2))
    for _ in range(4):
        state = step(state, scenario)
        kept = [*state._memo, *state._memo.seen]
        kept += [getattr(state.params._effective[1], name) for name in FACTOR_NAMES]
        assert all(np.size(a) != m for a in kept if isinstance(a, np.ndarray))
        assert counted(scenario.reputation, net)
    assert net._audiences[1] is net.dst and net._audiences[0] is net.row_ptr


@pytest.mark.parametrize("spec", [
    NetworkSpec(NetworkKind.SMALL_WORLD, k=4, rewire_p=0.5),
    NetworkSpec(NetworkKind.SMALL_WORLD, k=6, rewire_p=1.0),
    NetworkSpec(NetworkKind.COMPLETE),
    NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.2),
])
def test_generated_networks_record_their_audiences_and_totals(spec):
    """What a generator records equals what the network would work out: the symmetric
    generators' CSR rows are the transpose, and the weights are units, so each observer's
    total is its out-degree."""
    net = generate_network(spec, 30, 11)
    assert "_unit_weights" in vars(net)  # recorded by the generator, not worked out
    assert ("_audiences" in vars(net)) is (spec.kind is not NetworkKind.ERDOS_RENYI)
    transpose = type(net)._audiences.func(net)
    assert len(net._audiences) == len(transpose) == 2
    assert all(np.array_equal(a, b) for a, b in zip(net._audiences, transpose))
    assert net._unit_weights and type(net)._unit_weights.func(net)
    totals = np.bincount(net.src, weights=net.w, minlength=net.n)
    assert bits(totals) == bits(np.diff(net.row_ptr).astype(np.float64))


@pytest.mark.parametrize("exit_rule", [None, ExitSpec(threshold=0.0, patience=3)],
                         ids=["no-exits", "exits"])
@pytest.mark.parametrize("network", [
    NetworkSpec(NetworkKind.COMPLETE),
    NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.05),
    NetworkSpec(NetworkKind.SMALL_WORLD, k=10, rewire_p=0.1),
], ids=lambda spec: spec.kind.value)
def test_over_a_generated_network_the_fraction_variants_are_one_model(network, exit_rule):
    """Every generated weight is 1, so ``run`` writes the same CSV bytes under
    ``weighted_fraction`` as under ``unweighted_fraction``: the baseline's groups at 300
    agents over its first 60 steps."""
    baseline = donbass_baseline()
    groups = [replace(g, count=c) for g, c in zip(baseline.population.groups, (30, 45, 225))]
    written = []
    for variant in FRACTIONS:
        scenario = replace(baseline, population=PopulationSpec(groups), network=network,
                           exit=exit_rule, horizon=60,
                           events=tuple(e for e in baseline.events if e.step < 60),
                           reputation=replace(baseline.reputation, variant=variant))
        records = run(scenario)
        sink = io.BytesIO()
        write_csv(records, sink)
        written.append(sink.getvalue())
    assert written[0] == written[1]
    assert (records[-1].n_exited > 0) is (exit_rule is not None)


# ---------------------------------------------------------------- the row-local keyed pass

KEYED = (ReputationVariant.WEIGHTED_FRACTION, ReputationVariant.ITERATIVE_INFLUENCE)


@st.composite
def keyed_chains(draw):
    """A random directed graph with fractional weights (so both variants take the keyed pass),
    zero weights and repeated edges, a keyed variant, a start, and a chain of edits."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    weight = st.sampled_from([0.0, 0.1, 0.5, 1.0, 1 / 3, 2.5, 1e-300])
    edges = [(i, j, draw(weight)) for i, j in draw(st.lists(st.sampled_from(pairs), max_size=24))]
    edges.append((*draw(st.sampled_from(pairs)), draw(st.sampled_from([0.1, 0.5, 1 / 3]))))
    net = SocialNetwork(n, draw(st.permutations(edges)))
    spec = ReputationSpec(draw(st.sampled_from(KEYED)), alpha=draw(st.sampled_from([0.3, 1.0])),
                          centered=draw(st.booleans()))
    y = np.array(draw(st.lists(st.sampled_from(list(Position)), min_size=n, max_size=n)), np.int8)
    exited = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    agent = st.integers(0, n - 1)
    edit = st.one_of(
        st.tuples(st.just("y"), agent, st.integers(1, 2)),  # one agent's stance
        st.tuples(st.just("exit"), agent),  # one agent's exit flag, flipped
        st.tuples(st.just("undone"), agent),  # an exit and its undoing, one step apart
        st.tuples(st.just("all"), st.integers(1, 2)),  # every stance: every observer's view
        st.tuples(st.just("silence"), agent),  # every target of one observer exits
        st.just(("still",)),
    )
    return net, spec, y, exited, draw(st.lists(edit, min_size=1, max_size=12))


@given(keyed_chains())
@example((  # 0 observes 1 twice and 2 at weight 0; 3 observes nobody; 1 exits and returns
    SocialNetwork(4, [(0, 1, 0.5), (0, 2, 0.0), (0, 1, 0.25), (1, 0, 1 / 3), (2, 0, 0.1)]),
    ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=1.0),
    np.array([2, 1, 0, 2], np.int8), np.zeros(4, bool),
    [("undone", 1), ("silence", 0), ("all", 1), ("still",), ("y", 2, 2)],
))
def test_the_row_local_keyed_pass_equals_a_pass_over_every_edge(chain):
    """After each edit, the record :func:`engine._see` makes from the one before equals the
    record it makes from nothing, bit for bit, and walks only the out-edges of the observers
    of the agents whose stance or exit changed, or every edge when those observers are more
    than half the rows."""
    net, spec, y, exited, edits = chain
    assert not counted(spec, net)
    y, exited = y.copy(), exited.copy()
    last = engine._see(net, spec, y, exited, None)
    for edit in edits:
        states = []
        if edit[0] == "y":
            y[edit[1]] = (y[edit[1]] + edit[2]) % 3
        elif edit[0] == "all":
            y = ((y + edit[1]) % 3).astype(np.int8)
        elif edit[0] == "silence":
            exited[net.dst[net._row(edit[1])]] = True
        elif edit[0] in ("exit", "undone"):
            exited[edit[1]] = not exited[edit[1]]
        if edit[0] == "undone":
            states.append((y.copy(), exited.copy()))
            exited[edit[1]] = not exited[edit[1]]
        states.append((y, exited))
        for y_now, exited_now in states:
            with counting_calls("observed_weights") as calls:
                seen = engine._see(net, spec, y_now, exited_now, last)
            fresh = engine._see(net, spec, y_now, exited_now, None)
            record = [bits(a) for a in seen_record(seen)]
            assert record == [bits(a) for a in seen_record(fresh)]
            changed = set(np.flatnonzero((y_now != last.y) | (exited_now != last.exited)).tolist())
            watching = {i for i, j, _ in net.edges if j in changed}
            walked = [j for i, j, _ in net.edges if i in watching or 2 * len(watching) > net.n]
            assert [call[2].tolist() for call in calls] == ([walked] if changed else [])
            last = seen

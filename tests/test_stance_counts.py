"""Fraction-variant reputation from maintained stance counts equals the keyed pass, bit for bit.

Under ``unweighted_fraction``, and under ``weighted_fraction`` on integral weights whose
every observer's total is below 2**53, :func:`step` keeps each observer's observed weight
per stance and brings it up to date by walking only the in-edges of the agents whose
stance or exit flag changed.  The reference is the keyed pass over every edge:
``observed_weights``, ``observer_totals`` and ``reputation_terms``.
"""

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
    step,
)
from dissentsim.engine import FACTOR_NAMES, Environment, ParamArrays
from dissentsim.network import observed_weights, observer_totals, reputation_terms

FRACTIONS = (ReputationVariant.UNWEIGHTED_FRACTION, ReputationVariant.WEIGHTED_FRACTION)


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def keyed_pass(spec, net, y, exited):
    """The numerators, totals and terms of one keyed pass over every edge."""
    weight = observed_weights(spec, net.w, net.dst, exited[net.dst])
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
def counted_runs(draw):
    """A random directed graph with integral weights (zero among them), a fraction variant,
    an exit rule or none, and the edits made before each manual step."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weight = st.sampled_from([0.0, 1.0, 2.0, 3.0, 2.0**40])
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


@given(counted_runs())
@example((  # agent 0 observes 1 and 2 (weight 0), both exit; agent 3 observes nobody
    state_of(SocialNetwork(4, [(0, 1, 2.0), (0, 2, 0.0), (1, 0, 1.0)]),
             ParamArrays(**{name: np.ones(4) for name in FACTOR_NAMES},
                         x_rebel=np.array([True, False, True, False])),
             [Position.R, Position.U, Position.NJ, Position.R], [False] * 4),
    scenario_of(ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=1.0, centered=True)),
    [None, ("silence", 0, 0), None, ("exited", 1, 0), ("again", 0, 2), ("y", 2, 1)],
))
def test_counts_equal_the_keyed_pass_at_every_step(world):
    state, scenario, edits = world
    spec, history = scenario.reputation, [state]
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
        memo = new._memo
        assert memo.edges is None
        assert (bits(memo.num), bits(memo.denom), bits(memo.rep)) == (bits(num), bits(denom), bits(rep))
        fresh = step(replace(state, _memo=None), scenario)
        assert bits(new.y) == bits(fresh.y) and bits(new.exited) == bits(fresh.exited)
        assert bits(memo.p) == bits(fresh._memo.p)
        history.append(new)
        state = new


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
        memo = step(state, scenario_of(spec))._memo
        assert [bits(a) for a in (memo.num, memo.denom, memo.rep)] == [bits(a) for a in expected]


# ---------------------------------------------------------------- which path a step takes

def routed(net, variant):
    """The memo of one step over ``net`` under ``variant``."""
    n = net.n
    params = ParamArrays(**{name: np.ones(n) for name in FACTOR_NAMES}, x_rebel=np.zeros(n, bool))
    state = state_of(net, params, [Position.R] * n, [False] * n)
    return step(state, scenario_of(ReputationSpec(variant, alpha=1.0)))._memo


def test_non_integral_weights_take_the_keyed_pass():
    net = SocialNetwork(3, [(0, 1, 0.5), (0, 2, 1.0), (1, 2, 2.0)])
    assert routed(net, ReputationVariant.WEIGHTED_FRACTION).edges is not None
    assert routed(net, ReputationVariant.UNWEIGHTED_FRACTION).edges is None  # every weight is 1
    assert routed(net, ReputationVariant.ITERATIVE_INFLUENCE).edges is not None


def test_observer_totals_from_two_to_the_53_take_the_keyed_pass():
    """Integral weights, but one observer's total reaches 2**53, where float64 stops holding
    every integer: its sums could depend on their order."""
    below = SocialNetwork(3, [(0, 1, 2.0**52), (0, 2, 2.0**52 - 1), (1, 2, 1.0)])
    at = SocialNetwork(3, [(0, 1, 2.0**52), (0, 2, 2.0**52), (1, 2, 1.0)])
    assert routed(below, ReputationVariant.WEIGHTED_FRACTION).edges is None
    assert routed(at, ReputationVariant.WEIGHTED_FRACTION).edges is not None
    overflowing = SocialNetwork(3, [(0, 1, 1e308), (0, 2, 1e308)])  # integral, total inf
    with pytest.raises(InvalidParameterError, match="total observed weight must be finite"):
        routed(overflowing, ReputationVariant.WEIGHTED_FRACTION)
    assert routed(overflowing, ReputationVariant.UNWEIGHTED_FRACTION).edges is None


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
        kept = [getattr(state._memo, name) for name in state._memo._fields]
        kept += [getattr(state._memo.eff, name) for name in FACTOR_NAMES]
        assert all(np.size(a) != m for a in kept if isinstance(a, np.ndarray))
        assert state._memo.edges is None
    assert net._audiences[1] is net.dst and net._audiences[0] is net.row_ptr


@pytest.mark.parametrize("spec", [
    NetworkSpec(NetworkKind.SMALL_WORLD, k=4, rewire_p=0.5),
    NetworkSpec(NetworkKind.SMALL_WORLD, k=6, rewire_p=1.0),
    NetworkSpec(NetworkKind.COMPLETE),
    NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.2),
])
def test_generated_networks_record_their_audiences_and_totals(spec):
    """What a generator records equals what the network would work out: the symmetric
    generators' CSR rows are the transpose, and unit weights have integral totals."""
    net = generate_network(spec, 30, 11)
    assert "_integral_totals" in vars(net)  # recorded by the generator, not worked out
    assert ("_audiences" in vars(net)) is (spec.kind is not NetworkKind.ERDOS_RENYI)
    transpose = type(net)._audiences.func(net)
    assert all(np.array_equal(a, b) for a, b in zip(net._audiences, transpose))
    assert net._integral_totals and type(net)._integral_totals.func(net)

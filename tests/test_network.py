"""Network tests: reputation variants, influence scores, sentiment, generators.

The influence-score expected values were computed by an independent oracle
(exact rational linear solve plus a separately written float power iteration)
before the implementation ran, and are frozen here as literals.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dissentsim import network
from dissentsim import (
    ConvergenceError,
    InvalidParameterError,
    NetworkKind,
    NetworkSpec,
    NotFoundError,
    Position,
    ReputationSpec,
    ReputationVariant,
    SocialNetwork,
    generate_network,
    influence_scores,
    public_sentiment,
    reputation_fraction,
    reputation_iterative,
)

UNW = ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=1.0, centered=False)
R, U, NJ = Position.R, Position.U, Position.NJ

# frozen oracle literals: damped random-surfer scores at d=0.85
# chain 0->1->2, unit weights: exact (400/2169, 740/2169, 343/723)
CHAIN_SCORES = (0.18441678192715538, 0.34117104656523745, 0.47441217150760717)
# triangle 0->1, 0->2, 1->2, unit weights
TRI_SCORES = (0.1975796492961225, 0.28155100024697455, 0.520869350456903)


def chain():
    return SocialNetwork(3, [(0, 1, 1.0), (1, 2, 1.0)])


def triangle():
    return SocialNetwork(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])


# ---------------------------------------------------------------- SocialNetwork

def test_network_rejects_self_loops_bad_ids_bad_weights():
    with pytest.raises(InvalidParameterError):
        SocialNetwork(3, [(0, 0, 1.0)])
    with pytest.raises(InvalidParameterError):
        SocialNetwork(3, [(0, 3, 1.0)])
    with pytest.raises(InvalidParameterError):
        SocialNetwork(3, [(-1, 0, 1.0)])
    with pytest.raises(InvalidParameterError):
        SocialNetwork(3, [(0, 1, -0.5)])
    with pytest.raises(InvalidParameterError):
        SocialNetwork(3, [(0, 1, float("nan"))])
    with pytest.raises(InvalidParameterError):
        SocialNetwork(0, [])


def test_network_rejects_non_integral_ids():
    with pytest.raises(InvalidParameterError, match="non-integral"):
        SocialNetwork(3, [(0, 1.5, 1.0)])
    with pytest.raises(InvalidParameterError, match="non-integral"):
        SocialNetwork(3, [(float("nan"), 1, 1.0)])
    with pytest.raises(InvalidParameterError, match="3 columns"):
        SocialNetwork(3, [(0, 1), (1, 2), (2, 0)])  # pairs, not triples: six numbers, yet no edges


def test_network_rejects_non_integral_size():
    for n in (2.5, float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError, match="integer"):
            SocialNetwork(n, [])
    assert SocialNetwork(2.0, [(0, 1, 1.0)]).n == 2


_KINDS = [NetworkSpec(NetworkKind.COMPLETE), NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.5),
          NetworkSpec(NetworkKind.SMALL_WORLD, k=2, rewire_p=0.3)]


@pytest.mark.parametrize("spec", _KINDS, ids=lambda spec: spec.kind.value)
def test_generated_size_is_read_as_a_built_network_reads_it(spec):
    """``generate_network`` takes an integral float as the integer it holds, and refuses
    what ``SocialNetwork`` refuses, with the same error naming ``n``."""
    assert generate_network(spec, 4.0, 0).edges == generate_network(spec, 4, 0).edges
    for n in (True, np.True_, "3", None, 2.5, float("nan")):
        for build in (lambda: SocialNetwork(n, []), lambda: generate_network(spec, n, 0)):
            with pytest.raises(InvalidParameterError, match=r"must be an integer, got n="):
                build()
    for n in (0, -2, 0.0):
        with pytest.raises(InvalidParameterError, match=r"at least one agent, got n="):
            generate_network(spec, n, 0)


@pytest.mark.parametrize("spec", _KINDS, ids=lambda spec: spec.kind.value)
def test_a_size_past_the_int64_ids_is_refused(spec):
    """A size is read exactly when it is an integer, so one too large for a float is not
    called a non-integer, and a size the int64 agent ids cannot number is refused before
    anything is built."""
    for n in (2**63, np.uint64(2**63), 2.0**63, 10**400):
        for build in (lambda: SocialNetwork(n, []), lambda: generate_network(spec, n, 0)):
            with pytest.raises(InvalidParameterError, match=r"ids are int64, so n must be < 2\*\*63"):
                build()
    assert SocialNetwork(np.int64(3), []).n == 3 and type(SocialNetwork(np.int64(3), []).n) is int


@pytest.mark.parametrize("build", [
    SocialNetwork,
    lambda n, edges: generate_network(NetworkSpec(NetworkKind.COMPLETE), n, 0),
    lambda n, edges: generate_network(NetworkSpec(NetworkKind.SMALL_WORLD, k=2, rewire_p=0.1), n, 0),
], ids=["SocialNetwork", "complete", "small_world"])
def test_a_size_over_the_agent_budget_is_refused(build):
    """The scenario's agent budget holds at the network door too, before anything is built."""
    for n in (network.AGENT_BUDGET + 1, 10**12, 1e12, 2**62):
        with pytest.raises(InvalidParameterError,
                           match=rf"^a network has at most 1e\+07 agents, got n={n!r}$"):
            build(n, [])
    assert network._network_size(network.AGENT_BUDGET) == network.AGENT_BUDGET


def test_network_stores_source_sorted_arrays():
    net = SocialNetwork(3, np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 0.5], [0.0, 1.0, 2.0]]))
    assert net.src.tolist() == [0, 0, 2]
    assert net.dst.tolist() == [2, 1, 0]  # stable: each source keeps its given target order
    assert net.w.tolist() == [0.5, 2.0, 1.0]
    assert net.row_ptr.tolist() == [0, 2, 2, 3]
    assert net.edges == ((0, 2, 0.5), (0, 1, 2.0), (2, 0, 1.0))


def reference_network(n, edges):
    """The constructor's checks and stable sort as first written, over an (m, 2) id array:
    the stored (src, dst, w, row_ptr), or the message of the error it raises."""
    triples = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
    ids, w = triples[:, :2], triples[:, 2]
    for bad, problem in (
        ((ids != np.floor(ids)).any(axis=1), "has a non-integral agent id"),
        (((ids < 0) | (ids >= n)).any(axis=1), "references an unknown agent id"),
        (ids[:, 0] == ids[:, 1], "is a self-loop, which is not allowed"),
        (~np.isfinite(w) | (w < 0.0), "weight must be finite and >= 0"),
    ):
        if bad.any():
            s, t = ids[np.argmax(bad)].tolist()
            return f"edge ({s:g}, {t:g}) {problem}"
    order = np.argsort(ids[:, 0], kind="stable")
    src = ids[order, 0].astype(np.int64)
    return src, ids[order, 1].astype(np.int64), w[order], np.searchsorted(src, np.arange(n + 1))


@st.composite
def edge_lists(draw):
    """Edge lists over a few agents, sorted by source or not, some with one bad entry."""
    n = draw(st.integers(1, 6))
    agent = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(agent, agent, st.sampled_from([0.0, 0.5, 1.0, 2.0])), max_size=15))
    if draw(st.booleans()):
        edges.sort(key=lambda e: e[0])
    edges = [list(e) for e in edges if e[0] != e[1]]
    if edges and draw(st.booleans()):  # corrupt one field of one edge
        bad = st.sampled_from([-1.0, float(n), 0.5, float("nan"), float("inf"), -0.25])
        edges[draw(st.integers(0, len(edges) - 1))][draw(st.integers(0, 2))] = draw(bad)
    return n, edges


@given(edge_lists())
@example((3, [[0, 2, 1.0], [1, 1, 1.0], [0, 0.5, 1.0]]))  # a later problem found first in order
def test_network_constructor_matches_the_reference(case):
    """The constructor gives the reference's arrays, or its error message."""
    n, edges = case
    expected = reference_network(n, edges)
    if isinstance(expected, str):
        with pytest.raises(InvalidParameterError) as raised:
            SocialNetwork(n, edges)
        assert str(raised.value) == expected
        return
    net = SocialNetwork(n, edges)
    for got, want in zip((net.src, net.dst, net.w, net.row_ptr), expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_network_arrays_are_read_only():
    """Influence scores and the last step's reputation terms are cached on the network."""
    edges = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
    net = SocialNetwork(2, edges)
    for name in ("src", "dst", "w", "row_ptr"):
        with pytest.raises(ValueError):
            getattr(net, name)[0] = 1
    edges[0, 2] = 5.0  # the caller's array is copied, not frozen
    assert net.w.tolist() == [1.0, 2.0]


def test_out_edges():
    net = SocialNetwork(4, [(1, 2, 2.0), (1, 0, 1.0), (3, 1, 5.0)])
    assert net.out_edges(1) == [(2, 2.0), (0, 1.0)] or net.out_edges(1) == [(0, 1.0), (2, 2.0)]
    assert net.out_edges(0) == []
    with pytest.raises(NotFoundError):
        net.out_edges(4)


# ---------------------------------------------------------------- fraction variants

def test_unweighted_fraction_three_of_four():
    net = SocialNetwork(5, [(0, j, 1.0) for j in (1, 2, 3, 4)])
    publics = {0: NJ, 1: R, 2: R, 3: R, 4: U}
    assert reputation_fraction(0, R, net, publics, UNW) == pytest.approx(0.75, abs=1e-12)


def test_isolate_returns_zero():
    net = SocialNetwork(2, [(1, 0, 1.0)])
    assert reputation_fraction(0, R, net, {0: R, 1: R}, UNW) == 0.0


def test_weighted_fraction_centered():
    spec = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=2.0, centered=True)
    net = SocialNetwork(3, [(0, 1, 3.0), (0, 2, 1.0)])
    publics = {0: NJ, 1: R, 2: NJ}
    # 2 * (3/4 - 1/2) = 0.5
    assert reputation_fraction(0, R, net, publics, spec) == pytest.approx(0.5, abs=1e-12)


def test_centered_fifty_fifty_is_zero():
    spec = ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=3.0, centered=True)
    net = SocialNetwork(3, [(0, 1, 1.0), (0, 2, 1.0)])
    publics = {0: NJ, 1: R, 2: U}
    assert reputation_fraction(0, R, net, publics, spec) == 0.0
    assert reputation_fraction(0, U, net, publics, spec) == 0.0


def test_unweighted_equals_weighted_at_equal_weights():
    unw = ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=1.7, centered=True)
    wgt = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=1.7, centered=True)
    net_w = SocialNetwork(4, [(0, 1, 2.5), (0, 2, 2.5), (0, 3, 2.5)])
    publics = {0: NJ, 1: R, 2: U, 3: R}
    for pos in (R, U, NJ):
        assert reputation_fraction(0, pos, net_w, publics, unw) == pytest.approx(
            reputation_fraction(0, pos, net_w, publics, wgt), abs=1e-12
        )


def test_fraction_monotone_in_support():
    rng = np.random.default_rng(77)
    spec = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=1.0, centered=True)
    for _ in range(50):
        n = 6
        net = SocialNetwork(n, [(0, j, float(rng.uniform(0.1, 3))) for j in range(1, n)])
        publics = {j: Position(int(rng.integers(3))) for j in range(n)}
        flip = int(rng.integers(1, n))
        before = reputation_fraction(0, R, net, publics, spec)
        publics_after = dict(publics)
        publics_after[flip] = R
        after = reputation_fraction(0, R, net, publics_after, spec)
        assert after >= before - 1e-12


def test_exited_neighbors_drop_from_both_sides():
    net = SocialNetwork(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    # agent 3 exited: omitted from publics entirely
    publics = {0: NJ, 1: R, 2: U}
    assert reputation_fraction(0, R, net, publics, UNW) == pytest.approx(0.5, abs=1e-12)
    # all neighbors exited -> degenerate -> 0
    assert reputation_fraction(0, R, net, {0: NJ}, UNW) == 0.0


def test_zero_total_weight_returns_zero():
    spec = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=1.0, centered=True)
    net = SocialNetwork(2, [(0, 1, 0.0)])
    assert reputation_fraction(0, R, net, {0: NJ, 1: R}, spec) == 0.0


def test_fraction_rejects_iterative_spec_and_bad_agent():
    it = ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=1.0)
    with pytest.raises(InvalidParameterError):
        reputation_fraction(0, R, chain(), {0: NJ, 1: NJ, 2: NJ}, it)
    with pytest.raises(NotFoundError):
        reputation_fraction(9, R, chain(), {0: NJ, 1: NJ, 2: NJ}, UNW)


# ---------------------------------------------------------------- influence scores

def test_influence_single_node():
    assert influence_scores(SocialNetwork(1, [])).tolist() == [1.0]


def test_influence_two_node_symmetric():
    net = SocialNetwork(2, [(0, 1, 1.0), (1, 0, 1.0)])
    scores = influence_scores(net)
    assert scores[0] == pytest.approx(0.5, abs=1e-12)
    assert scores[1] == pytest.approx(0.5, abs=1e-12)


def test_influence_chain_matches_oracle():
    scores = influence_scores(chain(), damping=0.85, tol=1e-12, max_iters=200)
    for got, want in zip(scores, CHAIN_SCORES):
        assert got == pytest.approx(want, abs=1e-8)
    assert abs(float(scores.sum()) - 1.0) <= 1e-9


def test_influence_triangle_matches_oracle():
    scores = influence_scores(triangle(), damping=0.85, tol=1e-12, max_iters=200)
    for got, want in zip(scores, TRI_SCORES):
        assert got == pytest.approx(want, abs=1e-8)


def reference_influence(net, damping=0.85, tol=1e-12, max_iters=200):
    """The iteration as first written, which allocates each edge's mass anew."""
    n, src, dst, w = net.n, net.src, net.dst, net.w
    out_strength = np.bincount(src, weights=w, minlength=n)
    with np.errstate(invalid="ignore", divide="ignore"):
        edge_p = np.where(out_strength[src] > 0.0, w / out_strength[src], 0.0)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        flow = np.bincount(dst, weights=x[src] * edge_p, minlength=n)
        x_next = damping * (flow + float(x[out_strength == 0.0].sum()) / n) + (1.0 - damping) / n
        residual = float(np.abs(x_next - x).sum())
        x = x_next
        if residual < tol:
            return x
    raise AssertionError("the reference did not converge")


def test_influence_sum_and_nonneg_on_random_graphs():
    """The scores sum to 1, are >= 0, and equal the reference iteration's bit for bit."""
    rng = np.random.default_rng(4242)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        edges = [
            (i, j, float(rng.uniform(0.1, 4)))
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.3
        ]
        net = SocialNetwork(n, edges)
        scores = influence_scores(net)
        assert abs(float(scores.sum()) - 1.0) <= 1e-9
        assert (scores >= 0).all()
        assert scores.tobytes() == reference_influence(net).tobytes()


def test_influence_nonconvergence_error_carries_state():
    with pytest.raises(ConvergenceError) as exc_info:
        influence_scores(chain(), damping=0.85, tol=1e-12, max_iters=1)
    err = exc_info.value
    assert err.last_iterate is not None and len(err.last_iterate) == 3
    assert err.residual > 1e-12


def test_influence_memoized_per_network():
    net = chain()
    a = influence_scores(net)
    b = influence_scores(net)
    assert a is b
    with pytest.raises(ValueError):
        a[0] = 0.0  # read-only


# ---------------------------------------------------------------- iterative reputation

def test_iterative_reduces_to_weighted_when_scores_equal():
    # fully symmetric 2-cycle: scores are (0.5, 0.5) so iterative == weighted
    net = SocialNetwork(2, [(0, 1, 1.0), (1, 0, 1.0)])
    publics = {0: NJ, 1: R}
    it = ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=1.3, centered=True)
    wg = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=1.3, centered=True)
    for pos in (R, U, NJ):
        assert reputation_iterative(0, pos, net, publics, it) == pytest.approx(
            reputation_fraction(0, pos, net, publics, wg), abs=1e-12
        )


def test_iterative_single_neighbor():
    it = ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=2.0, centered=True)
    it_raw = ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=2.0, centered=False)
    net = chain()
    publics = {0: NJ, 1: R, 2: NJ}
    assert reputation_iterative(0, R, net, publics, it) == pytest.approx(1.0, abs=1e-12)  # 2*(1-1/2)
    assert reputation_iterative(0, R, net, publics, it_raw) == pytest.approx(2.0, abs=1e-12)


def test_iterative_composed_oracle():
    # triangle scores weighted into the fraction: agent 0 sees 1 (R) and 2 (NJ);
    # frozen oracle: frac = s1/(s1+s2) = 740/2109... exact value 20/57 with the
    # triangle's (s1, s2); alpha=2 centered -> -17/57, alpha=1 raw -> 20/57.
    net = triangle()
    publics = {0: NJ, 1: R, 2: NJ}
    it2c = ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=2.0, centered=True)
    it1r = ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=1.0, centered=False)
    assert reputation_iterative(0, R, net, publics, it2c) == pytest.approx(-0.2982456140350877, abs=1e-8)
    assert reputation_iterative(0, R, net, publics, it1r) == pytest.approx(0.3508771929824561, abs=1e-8)


def test_iterative_rejects_fraction_spec():
    with pytest.raises(InvalidParameterError):
        reputation_iterative(0, R, chain(), {0: NJ, 1: NJ, 2: NJ}, UNW)


@pytest.mark.parametrize("code", [7, -1, 1.5, "R"])
def test_a_stance_code_outside_position_names_its_agent(code):
    """The single-agent reputation and sentiment functions refuse a shown stance that is no
    Position code, naming the agent that shows it."""
    it = ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=1.0)
    publics = {0: NJ, 1: code, 2: R}
    message = re.escape(f"agent 1 shows {code!r}, which is not a Position code")
    with pytest.raises(InvalidParameterError, match=message):
        reputation_fraction(0, R, triangle(), publics, UNW)
    with pytest.raises(InvalidParameterError, match=message):
        reputation_iterative(0, R, triangle(), publics, it)
    with pytest.raises(InvalidParameterError, match=message):
        public_sentiment(publics, {0: 1.0, 1: 1.0, 2: 1.0})


# ---------------------------------------------------------------- sentiment

def test_sentiment_examples():
    publics = {0: R, 1: R, 2: U, 3: NJ}
    unit = {i: 1.0 for i in publics}
    assert public_sentiment(publics, unit) == pytest.approx(0.25, abs=1e-12)
    assert public_sentiment({0: NJ, 1: NJ}, {0: 1.0, 1: 2.0}) == 0.0
    assert public_sentiment({0: R, 1: R}, {0: 0.2, 1: 5.0}) == pytest.approx(1.0, abs=1e-12)


def test_sentiment_errors():
    with pytest.raises(InvalidParameterError):
        public_sentiment({0: R}, {0: 0.0})
    with pytest.raises(NotFoundError):
        public_sentiment({0: R, 1: U}, {0: 1.0})
    with pytest.raises(InvalidParameterError):
        public_sentiment({0: R}, {0: -1.0})
    for w in ("1", 10**400, [1.0], 1 + 0j, float("nan"), float("inf")):
        with pytest.raises(InvalidParameterError, match="weight for agent 0 must be finite"):
            public_sentiment({0: R}, {0: w})


# ---------------------------------------------------------------- generators

def test_complete_network():
    net = generate_network(NetworkSpec(NetworkKind.COMPLETE), 3, seed=0)
    assert len(net.edges) == 6
    assert set(net.edges) == {(i, j, 1.0) for i in range(3) for j in range(3) if i != j}


def test_erdos_renyi_extremes():
    spec0 = NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.0)
    spec1 = NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=1.0)
    assert len(generate_network(spec0, 10, seed=3).edges) == 0
    assert len(generate_network(spec1, 4, seed=3).edges) == 12


def test_erdos_renyi_directions_independent():
    spec = NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.5)
    net = generate_network(spec, 30, seed=11)
    pairs = {(s, t) for s, t, _ in net.edges}
    asymmetric = [(s, t) for (s, t) in pairs if (t, s) not in pairs]
    assert asymmetric  # independent per-direction draws leave one-way edges


def test_generator_determinism():
    for spec in (
        NetworkSpec(NetworkKind.COMPLETE),
        NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.3),
        NetworkSpec(NetworkKind.SMALL_WORLD, k=4, rewire_p=0.4),
    ):
        a = generate_network(spec, 24, seed=99)
        b = generate_network(spec, 24, seed=99)
        assert a.edges == b.edges
    a = generate_network(NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.3), 24, seed=99)
    c = generate_network(NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.3), 24, seed=100)
    assert a.edges != c.edges


def test_small_world_lattice_no_rewiring():
    net = generate_network(NetworkSpec(NetworkKind.SMALL_WORLD, k=2, rewire_p=0.0), 6, seed=1)
    expected = set()
    for i in range(6):
        expected.add((i, (i + 1) % 6, 1.0))
        expected.add(((i + 1) % 6, i, 1.0))
    assert set(net.edges) == expected


def test_small_world_rewired_stays_symmetric_and_sized():
    net = generate_network(NetworkSpec(NetworkKind.SMALL_WORLD, k=6, rewire_p=1.0), 20, seed=5)
    pairs = {(s, t) for s, t, _ in net.edges}
    assert len(net.edges) == 20 * 6  # tie count conserved, both directions
    assert all((t, s) in pairs for (s, t) in pairs)


def test_generator_validation():
    with pytest.raises(InvalidParameterError):
        NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=1.5)
    with pytest.raises(InvalidParameterError):
        NetworkSpec(NetworkKind.SMALL_WORLD, k=3, rewire_p=0.1)  # odd k
    with pytest.raises(InvalidParameterError):
        NetworkSpec(NetworkKind.SMALL_WORLD, k=4, rewire_p=-0.1)
    with pytest.raises(InvalidParameterError):
        generate_network(NetworkSpec(NetworkKind.SMALL_WORLD, k=10, rewire_p=0.1), 10, seed=0)
    with pytest.raises(InvalidParameterError):
        generate_network(NetworkSpec(NetworkKind.COMPLETE), 0, seed=0)
    with pytest.raises(InvalidParameterError):
        NetworkSpec(NetworkKind.COMPLETE, p_edge=0.5)  # parameter for wrong kind


def test_reputation_spec_validation():
    with pytest.raises(InvalidParameterError):
        ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=-1.0)
    with pytest.raises(InvalidParameterError):
        ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=1.0, damping=1.0)
    with pytest.raises(InvalidParameterError):
        ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=1.0, tol=0.0)
    with pytest.raises(InvalidParameterError):
        ReputationSpec(ReputationVariant.ITERATIVE_INFLUENCE, alpha=1.0, max_iters=0)


@pytest.mark.parametrize("spec, n", [
    (NetworkSpec(NetworkKind.SMALL_WORLD, k=10, rewire_p=0.1), 10**5),
    (NetworkSpec(NetworkKind.COMPLETE), 1_000),
    (NetworkSpec(NetworkKind.ERDOS_RENYI, p_edge=0.01), 3_000),
])
def test_a_generated_network_stores_two_id_arrays(spec, n):
    """Building a generated network peaks near the ids it keeps, and its unit weights are
    a read-only zero-stride view of one 1.0, not an array per edge."""
    generate_network(spec, 20, seed=0)  # numpy.random's import and first use are not counted
    tracemalloc.start()
    try:
        net = generate_network(spec, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = net.src.nbytes + net.dst.nbytes + net.row_ptr.nbytes
    assert peak <= 2.25 * kept, peak / kept
    assert not net.w.flags.writeable and net.w.strides == (0,) and net.w.shape == net.dst.shape
    assert all(a.dtype == np.int64 for a in net._audiences)  # the in-edge index holds ids only
    owner = net.w
    while owner.base is not None:
        owner = owner.base
    assert owner.nbytes <= 8


# ------------------------------------------------- small_world against a reference

def reference_small_world(n, k, rewire_p, seed):
    """The set-based Watts-Strogatz walk the array generator must reproduce draw for draw:
    one uniform per lattice tie, offset-major, and ``integers(n)`` redraws per rewire."""
    rng = np.random.default_rng(seed)
    half = k // 2
    neighbors = [{(i + d) % n for d in range(-half, half + 1) if d} for i in range(n)]
    for offset in range(1, half + 1):
        for i in range(n):
            j = (i + offset) % n
            if j not in neighbors[i]:
                continue
            if rng.random() >= rewire_p:
                continue
            if len(neighbors[i]) >= n - 1:
                continue
            m = int(rng.integers(n))
            while m == i or m in neighbors[i]:
                m = int(rng.integers(n))
            neighbors[i].discard(j)
            neighbors[j].discard(i)
            neighbors[i].add(m)
            neighbors[m].add(i)
    degree = [len(nb) for nb in neighbors]
    dst = np.array([j for nb in neighbors for j in sorted(nb)], dtype=np.int64)
    return np.repeat(np.arange(n), degree), dst


@st.composite
def small_worlds(draw):
    n = draw(st.integers(1, 300))
    k = 2 * draw(st.integers(0, (n - 1) // 2))
    rewire_p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return n, k, rewire_p, draw(st.integers(0, 2**32))


@settings(max_examples=200)
@given(small_worlds())
@example((1, 0, 1.0, 0))
@example((4, 2, 1.0, 3))
@example((7, 6, 1.0, 5))  # odd n, k = n - 1: every agent observes everyone, none rewires
@example((9, 8, 1.0, 8))
@example((257, 40, 0.5, 2))
def test_small_world_matches_reference(case):
    n, k, rewire_p, seed = case
    net = generate_network(NetworkSpec(NetworkKind.SMALL_WORLD, k=k, rewire_p=rewire_p), n, seed)
    src, dst = reference_small_world(n, k, rewire_p, seed)
    assert np.array_equal(net.src, src)
    assert np.array_equal(net.dst, dst)


@pytest.mark.parametrize("n, k, rewire_p", [(40, 6, 1.0), (41, 40, 1.0), (300, 10, 0.1), (5, 0, 0.5)])
def test_small_world_leaves_a_passed_generator_where_the_reference_does(n, k, rewire_p):
    """Same end position and the same buffered 32-bit half, so later draws continue alike."""
    spec = NetworkSpec(NetworkKind.SMALL_WORLD, k=k, rewire_p=rewire_p)
    for warm_up in (0, 1):  # 1: start with a 32-bit half already buffered
        ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
        for rng in (ours, theirs):
            rng.integers(1000, size=warm_up)
        generate_network(spec, n, ours)
        reference_small_world(n, k, rewire_p, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.integers(n, size=5).tolist() == theirs.integers(n, size=5).tolist()


def test_small_world_matches_reference_across_block_edges(monkeypatch):
    """Blocks of a few outputs put block edges inside the rewire target draws."""
    for block in (1, 2, 3, 5):
        monkeypatch.setattr(network._RawStream, "BLOCK", block)
        for n, k, rewire_p in ((4, 2, 1.0), (30, 28, 1.0), (50, 10, 1.0), (101, 20, 0.3)):
            net = generate_network(NetworkSpec(NetworkKind.SMALL_WORLD, k=k, rewire_p=rewire_p), n, 7)
            src, dst = reference_small_world(n, k, rewire_p, 7)
            assert np.array_equal(net.src, src) and np.array_equal(net.dst, dst)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64])
@pytest.mark.parametrize("n", [4, 1000, 3 * 2**30, 2**31 + 1, 2**32])
def test_raw_stream_decodes_interleaved_draws(bit_generator, n):
    """``integers(n)`` decoded from raw outputs, between ``random()`` calls, matches the
    Generator's own; the two n near 2**31 make Lemire's rule reject often."""
    ours = np.random.Generator(bit_generator(12))
    theirs = np.random.Generator(bit_generator(12))
    stream = network._RawStream(ours)
    calls = np.random.default_rng(n).integers(3, size=400).tolist()
    for call in calls:  # 0: random(), 1: integers(n), 2: both, as the rewire walk interleaves them
        if call != 1:
            x, stream.pos = int(stream.unread()[0]), stream.pos + 1
            assert (x >> 11) * 2.0**-53 == theirs.random()
        if call != 0:
            assert stream.integers(n) == theirs.integers(n)
    stream.close()
    assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)  # SFC64's holds an array


def test_raw_stream_refuses_32_bit_generators():
    with pytest.raises(InvalidParameterError):
        network._RawStream(np.random.Generator(np.random.MT19937(0)))

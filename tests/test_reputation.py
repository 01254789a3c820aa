"""Reputation is written once, over arrays; every entry point agrees with the dict loop.

The reference is the per-agent loop that computed reputation before the
array kernel existed: walk the agent's out-edges, skip exited neighbors,
weight each remaining one by 1, its edge weight, or its edge weight times its
influence score, and take the (centered) matching fraction.  The kernel
(:func:`reputation_terms`), the terms :func:`step` feeds the payoffs, and the
single-agent views :func:`reputation_fraction` / :func:`reputation_iterative`
must all equal it bit for bit, for every agent and stance.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from dissentsim import (
    IntegritySpec,
    Position,
    ReputationSpec,
    ReputationVariant,
    SimState,
    SocialNetwork,
    influence_scores,
    reputation_fraction,
    reputation_iterative,
    step,
)
from dissentsim import engine
from dissentsim.engine import Environment, ParamArrays
from dissentsim.network import observed_weights, reputation_terms

STANCES = (Position.NJ, Position.U, Position.R)


def reference(agent, position, network, publics, spec, scores=None) -> float:
    """``alpha`` times the (centered) weighted conforming fraction over the
    agent's non-exited out-neighbors; 0 when that total weight is 0."""
    total = 0.0
    matching = 0.0
    for j, w in network.out_edges(agent):
        y = publics.get(j)
        if y is None:  # exited agents drop out of the neighborhood entirely
            continue
        if spec.variant is ReputationVariant.UNWEIGHTED_FRACTION:
            w = 1.0
        elif scores is not None:
            w *= scores[j]
        total += w
        if y == position:
            matching += w
    if total == 0.0:  # no observed neighbors, or zero total weight
        return 0.0
    frac = matching / total
    return spec.alpha * (frac - 0.5) if spec.centered else spec.alpha * frac


def bits(value) -> int:
    return int(np.float64(value).view(np.int64))


weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 5.0))


@st.composite
def worlds(draw):
    """A random graph (zero weights, isolated agents), stances, and exits."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [(i, j, draw(weight)) for i, j in chosen]
    y = draw(st.lists(st.sampled_from(STANCES), min_size=n, max_size=n))
    exited = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    spec = ReputationSpec(
        draw(st.sampled_from(ReputationVariant)),
        alpha=draw(st.one_of(st.just(1.0), st.floats(0.0, 3.0))),
        centered=draw(st.booleans()),
    )
    return SocialNetwork(n, edges), np.array(y, dtype=np.int8), np.array(exited), spec


def step_terms(net, y, exited, spec):
    """The reputation terms :func:`step` passes to the three payoffs, by stance."""
    n = net.n
    state = SimState(
        t=0, env=Environment(), network=net,
        params=ParamArrays(
            **{name: np.zeros(n) for name in ("F", "S", "A_U", "A_R", "c", "C", "V_R", "V_U", "V_NJ")},
            p_base=np.full(n, 0.5), x_rebel=np.zeros(n, dtype=bool),
        ),
        y=y, d_falsify=np.zeros(n, dtype=np.int64), exited=exited,
        low_payoff_streak=np.zeros(n, dtype=np.int64),
    )
    scenario = SimpleNamespace(
        events=[], reputation=spec, exit=None,
        integrity=IntegritySpec(nu_match=0.0, nu0=0.0, kappa=0.0, cap=1.0),
    )
    seen = {}

    def spy(pos, payoff):
        def wrapped(*args):
            seen[pos] = args[-2].rep  # the SoftTerms argument
            return payoff(*args)
        return wrapped

    saved = engine.payoff_nojoin, engine.payoff_statusquo, engine.payoff_rebel
    engine.payoff_nojoin, engine.payoff_statusquo, engine.payoff_rebel = (
        spy(pos, fn) for pos, fn in zip(STANCES, saved)
    )
    try:
        step(state, scenario)
    finally:
        engine.payoff_nojoin, engine.payoff_statusquo, engine.payoff_rebel = saved
    return seen


@given(worlds())
@example((  # agent 0 observes a neighbor showing R and one that has exited
    SocialNetwork(3, [(0, 1, 1.0), (0, 2, 2.0)]), np.array([0, 2, 1], dtype=np.int8),
    np.array([False, False, True]), ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, 1.0, False),
))
def test_every_entry_point_matches_the_dict_loop(world):
    net, y, exited, spec = world
    iterative = spec.variant is ReputationVariant.ITERATIVE_INFLUENCE
    scores = influence_scores(net, spec.damping, spec.tol, spec.max_iters) if iterative else None
    publics = {i: Position(int(y[i])) for i in range(net.n) if not exited[i]}

    kernel = reputation_terms(
        spec, net.src, observed_weights(spec, net.w, net.dst, exited[net.dst], scores),
        y[net.dst], net.n,
    )
    stepped = step_terms(net, y, exited, spec) if not exited.all() else None
    view = reputation_iterative if iterative else reputation_fraction
    for i in range(net.n):
        for pos in STANCES:
            expected = bits(reference(i, pos, net, publics, spec, scores))
            assert bits(kernel[i, pos]) == expected
            assert bits(view(i, pos, net, publics, spec)) == expected
            if stepped is not None:
                assert bits(stepped[pos][i]) == expected

"""Reputation is written once, over arrays; every entry point agrees with the dict loop.

The reference is the per-agent loop that computed reputation before the
array kernel existed: walk the agent's out-edges, skip exited neighbors,
weight each remaining one by 1, its edge weight, or its edge weight times its
influence score, and take the (centered) matching fraction.  The kernel
(:func:`reputation_terms`), the terms :func:`step` feeds the payoffs, and the
single-agent views :func:`reputation_fraction` / :func:`reputation_iterative`
must all equal it bit for bit, for every agent and stance.

:func:`step` reuses the last step's whole-graph terms while the network,
the reputation spec, the previous stances and the exit flags are unchanged.
The reuse tests check that every step's terms equal the kernel run fresh on
that step's inputs, also after in-place edits and across specs, and that the
kernel runs exactly once per step whose inputs changed.  A step that reuses
its predecessor's whole decision computes no payoffs; its successor must
equal the one a step with nothing kept makes.
"""

import json
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from dissentsim import (
    ExitSpec,
    IntegritySpec,
    Position,
    ReputationSpec,
    ReputationVariant,
    SimState,
    SocialNetwork,
    influence_scores,
    parse_scenario,
    reputation_fraction,
    reputation_iterative,
    run,
    step,
)
from dissentsim import engine
from dissentsim.engine import FACTOR_NAMES, Environment, ParamArrays
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


def state_of(net, y, exited, params=None):
    n = net.n
    if params is None:  # no hard factors: the stance choice does not matter here
        params = ParamArrays(
            **{name: np.zeros(n) for name in FACTOR_NAMES if name != "p_base"},
            p_base=np.full(n, 0.5), x_rebel=np.zeros(n, dtype=bool),
        )
    return SimState(
        t=0, env=Environment(), network=net, params=params,
        y=y, d_falsify=np.zeros(n, dtype=np.int64), exited=exited,
        low_payoff_streak=np.zeros(n, dtype=np.int64),
    )


def scenario_of(spec, exit=None, integrity=None):
    return SimpleNamespace(
        events=[], reputation=spec, exit=exit,
        integrity=integrity or IntegritySpec(nu_match=0.0, nu0=0.0, kappa=0.0, cap=1.0),
    )


@contextmanager
def payoff_spy():
    """Yields a dict that the next steps fill with the reputation terms passed to each payoff
    kernel."""
    seen = {}

    def spy(pos, payoff):
        def wrapped(*args):
            seen[pos] = args[-3]  # the rep argument: (..., p, rep, integ, V)
            return payoff(*args)
        return wrapped

    saved = engine.nojoin_kernel, engine.statusquo_kernel, engine.rebel_kernel
    engine.nojoin_kernel, engine.statusquo_kernel, engine.rebel_kernel = (
        spy(pos, fn) for pos, fn in zip(STANCES, saved)
    )
    try:
        yield seen
    finally:
        engine.nojoin_kernel, engine.statusquo_kernel, engine.rebel_kernel = saved


def step_terms(net, y, exited, spec):
    """The reputation terms :func:`step` passes to the three payoffs, by stance."""
    with payoff_spy() as seen:
        step(state_of(net, y, exited), scenario_of(spec))
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


# ---------------------------------------------------------------- reuse across steps

def fresh_terms(net, y, exited, spec):
    """The kernel run on the whole graph for these stances and exits, as an (n, 3) array."""
    iterative = spec.variant is ReputationVariant.ITERATIVE_INFLUENCE
    scores = influence_scores(net, spec.damping, spec.tol, spec.max_iters) if iterative else None
    weight = observed_weights(spec, net.w, net.dst, exited[net.dst], scores)
    return reputation_terms(spec, net.src, weight, y[net.dst], net.n)


def stepped(state, scenario):
    """The successor state and the (n, 3) reputation terms the step used; None for the
    terms when the step reused its predecessor's whole decision and computed no payoffs."""
    with payoff_spy() as seen:
        new = step(state, scenario)
    return new, np.column_stack([seen[pos] for pos in STANCES]) if seen else None


def same_bits(a, b) -> bool:
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def same_state(a, b) -> bool:
    """Bit-equal public state, streaks, environment and perceived probabilities."""
    arrays = ("y", "d_falsify", "exited", "low_payoff_streak")
    return (a.t, a.env, a._last_events) == (b.t, b.env, b._last_events) and all(
        same_bits(getattr(a, name), getattr(b, name)) for name in arrays
    ) and same_bits(a._memo.p, b._memo.p)


factor = st.floats(0.0, 3.0)


@st.composite
def runs(draw):
    """A random world with random agents, an exit rule, and an edit (or none) before each step."""
    net, y, exited, spec = draw(worlds())
    n = net.n
    column = st.lists(factor, min_size=n, max_size=n).map(np.array)
    params = ParamArrays(
        **{name: draw(column) for name in FACTOR_NAMES if name != "p_base"},
        p_base=draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)),
        x_rebel=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )
    exit_rule = draw(st.one_of(
        st.none(), st.builds(ExitSpec, threshold=st.floats(-1.0, 2.0), patience=st.integers(1, 3))
    ))
    integrity = IntegritySpec(nu_match=draw(factor), nu0=0.1, kappa=draw(factor), cap=1.0)
    edit = st.one_of(  # (what, agent, stance shift): every edit changes something
        st.none(), st.none(),
        st.tuples(st.sampled_from(["y", "exited", "replace", "again"]), st.integers(0, n - 1),
                  st.integers(1, 2)),
    )
    edits = draw(st.lists(edit, min_size=1, max_size=12))
    return state_of(net, y, exited, params), scenario_of(spec, exit_rule, integrity), edits


@given(runs())
def test_every_step_uses_the_terms_of_its_own_inputs(world):
    state, scenario, edits = world
    last_input = state
    for edit in edits:
        if edit is not None:
            kind, i, shift = edit
            if kind == "again":  # step the last input again, after an in-place edit
                state = last_input
                state.y[i] = (state.y[i] + shift) % 3
            elif kind == "y":
                state.y[i] = (state.y[i] + shift) % 3  # in place: the array object stays
            elif kind == "exited":
                state.exited[i] = not state.exited[i]
            else:
                y = state.y.copy()
                y[i] = (y[i] + shift) % 3
                state = replace(state, y=y)
        if state.exited.all():
            break  # nobody left to decide: the step computes no payoffs
        expected = fresh_terms(state.network, state.y, state.exited, scenario.reputation)
        last_input = state
        state, terms = stepped(state, scenario)
        if terms is None:  # a reused decision: it must be the one a fresh step makes
            assert same_state(state, step(replace(last_input, _memo=None), scenario))
        else:
            assert same_bits(terms, expected)


def small_world():
    """Four agents with unequal edge weights, so every variant and stance gives distinct terms."""
    net = SocialNetwork(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 0.5), (1, 0, 1.0), (1, 2, 3.0),
                            (2, 3, 1.0), (3, 0, 2.0), (3, 1, 1.0)])
    y = np.array([Position.NJ, Position.R, Position.U, Position.R], dtype=np.int8)
    return state_of(net, y, np.zeros(4, dtype=bool))


WEIGHTED = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=0.5)


def test_in_place_edits_between_steps_are_seen():
    state = small_world()
    scenario = scenario_of(WEIGHTED)
    _, before = stepped(state, scenario)
    state.y[2] = Position.R
    _, after = stepped(state, scenario)
    assert not same_bits(after, before)
    assert same_bits(after, fresh_terms(state.network, state.y, state.exited, WEIGHTED))
    state.exited[1] = True
    _, after_exit = stepped(state, scenario)
    assert not same_bits(after_exit, after)
    assert same_bits(after_exit, fresh_terms(state.network, state.y, state.exited, WEIGHTED))


def test_replaced_stances_are_seen():
    state = small_world()
    scenario = scenario_of(WEIGHTED)
    _, before = stepped(state, scenario)
    y = state.y.copy()
    y[0] = Position.U
    _, after = stepped(replace(state, y=y), scenario)
    assert not same_bits(after, before)
    assert same_bits(after, fresh_terms(state.network, y, state.exited, WEIGHTED))
    _, again = stepped(state, scenario)  # the unedited state gets its own terms back
    assert same_bits(again, before)


def test_one_network_under_two_specs():
    state = small_world()
    specs = [
        WEIGHTED,
        replace(WEIGHTED, alpha=1.5),
        replace(WEIGHTED, variant=ReputationVariant.UNWEIGHTED_FRACTION),
        replace(WEIGHTED, variant=ReputationVariant.ITERATIVE_INFLUENCE),
        WEIGHTED,
    ]
    seen = []
    for spec in specs:
        _, terms = stepped(state, scenario_of(spec))
        assert same_bits(terms, fresh_terms(state.network, state.y, state.exited, spec))
        seen.append(terms.tobytes())
    assert len(set(seen)) == 4


def test_reputation_terms_run_once_per_step_whose_inputs_changed(monkeypatch):
    """During ``run``: one kernel call per step whose (y, exited) differs from the previous
    step's; the first step counts as changed."""
    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "donbass.json").read_text())
    for group, count in zip(doc["population"]["groups"], (30, 45, 225)):
        group["count"] = count
    doc["reputation"] = {"variant": "iterative_influence", "alpha": 0.5}
    doc["exit"] = {"threshold": 1.0, "patience": 20}
    doc["horizon"] = 240
    scenario = parse_scenario(json.dumps(doc))

    inputs, calls = [], []
    real_step, real_terms = engine.step, engine.reputation_terms

    def recording_step(state, scenario):
        inputs.append((state.y.copy(), state.exited.copy()))
        return real_step(state, scenario)

    def counting_terms(*args):
        calls.append(args)
        return real_terms(*args)

    monkeypatch.setattr(engine, "step", recording_step)
    monkeypatch.setattr(engine, "reputation_terms", counting_terms)
    run(scenario)
    changed = 1 + sum(
        not (np.array_equal(y, y0) and np.array_equal(e, e0))
        for (y0, e0), (y, e) in zip(inputs, inputs[1:])
    )
    assert len(inputs) == 240
    assert len(calls) == changed < 240

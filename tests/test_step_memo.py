"""A step repeats its predecessor's decision only when every input of it is unchanged.

:func:`step` keeps its inputs and its decision (perceived probability, new
stances and the masks of the streak updates) on the state it returns, and the next step
reuses them when the network, the specs, the parameters, the environment
after events, the stances, the exit flags and the falsification penalties
all match; :func:`run` reuses the previous record when a step changed
nothing the record reads.  The reference everywhere is the same step with
the memo cleared, which computes everything afresh: results must be bit-equal.
"""

import json
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dissentsim import (
    Event,
    ExitSpec,
    IntegritySpec,
    InvalidParameterError,
    Position,
    ReputationSpec,
    ReputationVariant,
    SimState,
    SocialNetwork,
    parse_scenario,
    run,
    step,
)
from dissentsim import engine
from dissentsim.engine import DELTA_FIELDS, FACTOR_NAMES, Environment, ParamArrays

DONBASS_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "donbass.json"


def bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def state_bits(state: SimState):
    arrays = (state.y, state.d_falsify, state.exited, state.low_payoff_streak)
    p = None if state._memo is None else bits(state._memo.p)
    return (state.t, state.env, state._last_events, p, *(bits(a) for a in arrays))


def record_bits(record):
    floats = (record.share_R, record.share_U, record.share_NJ, record.mean_p)
    return (record.t, record.n_exited, record.n_falsifying, record.events,
            *(np.float64(x).tobytes() for x in floats))


def fresh_step(state, scenario):
    """The step with nothing kept from the one before."""
    return step(replace(state, _memo=None), scenario)


def fresh_run(scenario, state):
    """``run`` as a loop of fresh steps: every step and record computed from scratch."""
    records = []
    for _ in range(scenario.horizon):
        state = fresh_step(state, scenario)
        records.append(engine._record_from(state))
    return records, state


@contextmanager
def counting(name):
    """Counts calls of the engine's module-level function ``name``; yields the list of calls."""
    calls, real = [], getattr(engine, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    setattr(engine, name, counted)
    try:
        yield calls
    finally:
        setattr(engine, name, real)


@contextmanager
def last_state():
    """Yields a list that holds the state the latest ``engine.step`` call returned."""
    seen, real = [None], engine.step

    def recording(state, scenario):
        seen[0] = real(state, scenario)
        return seen[0]

    engine.step = recording
    try:
        yield seen
    finally:
        engine.step = real


def checked_run(scenario, state):
    """``run`` from ``state``, checked bit for bit against :func:`fresh_run`; returns the
    records and how many steps chose stances afresh."""
    with counting("choose_positions") as calls, last_state() as seen:
        records = run(scenario, state)
    expected, expected_state = fresh_run(scenario, state)
    assert [record_bits(r) for r in records] == [record_bits(r) for r in expected]
    assert state_bits(seen[0]) == state_bits(expected_state)
    return records, len(calls)


def make_state(net, params, y, d_falsify=None, exited=None, env=None):
    n = net.n
    return SimState(
        t=0, env=Environment(beta_share=0.5) if env is None else env, network=net, params=params,
        y=np.asarray(y, dtype=np.int8),
        d_falsify=np.zeros(n, dtype=np.int64) if d_falsify is None else np.asarray(d_falsify),
        exited=np.zeros(n, dtype=bool) if exited is None else np.asarray(exited),
        low_payoff_streak=np.zeros(n, dtype=np.int64),
    )


def make_scenario(horizon, integrity, exit=None, events=(), spec=None):
    return SimpleNamespace(
        horizon=horizon, events=list(events), exit=exit, integrity=integrity,
        reputation=spec or ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=0.5),
    )


# ---------------------------------------------------------------- differential test

coarse = st.sampled_from([0.0, 0.5, 1.0])  # tie-prone: payoffs often coincide exactly
factor = st.one_of(coarse, coarse, st.floats(0.0, 2.0))
# Zeros of both signs: numpy keeps the sign of a zero through np.maximum and np.clip, so an
# environment that differs from another only there must not share its decision.
signed = st.sampled_from([0.0, -0.0, 0.25, -0.5])


@st.composite
def worlds(draw):
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    net = SocialNetwork(n, [(i, j, draw(st.sampled_from([0.0, 1.0, 2.0]))) for i, j in chosen])
    column = st.lists(factor, min_size=n, max_size=n).map(np.array)
    params = ParamArrays(
        **{name: draw(column) for name in FACTOR_NAMES if name != "p_base"},
        p_base=draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n)
                    .map(np.array)),
        x_rebel=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
    )
    # kappa 0 never moves the penalty; 0.2 saturates it after two steps, 0.05 after eight.
    integrity = IntegritySpec(nu_match=draw(coarse), nu0=0.1,
                              kappa=draw(st.sampled_from([0.0, 0.05, 0.2])), cap=0.5)
    horizon = draw(st.integers(1, 25))
    deltas = st.dictionaries(st.sampled_from(DELTA_FIELDS), st.one_of(signed, st.just(0.5)),
                             max_size=3)  # may be empty or zero: an event that shifts nothing
    events = [
        Event(step=s, label=f"e{k}", deltas=d)
        for k, (s, d) in enumerate(sorted(draw(st.lists(
            st.tuples(st.integers(0, horizon - 1), deltas), max_size=4)), key=lambda e: e[0]))
    ]
    exit_rule = draw(st.one_of(
        st.none(),
        st.builds(ExitSpec, threshold=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                  patience=st.integers(1, 3)),
    ))
    spec = ReputationSpec(draw(st.sampled_from(ReputationVariant)), alpha=draw(coarse),
                          centered=draw(st.booleans()))
    env = Environment(beta_share=draw(st.sampled_from([0.5, 0.0, -0.0])),
                      **draw(st.dictionaries(st.sampled_from(DELTA_FIELDS), signed, max_size=3)))
    state = make_state(
        net, params,
        y=draw(st.lists(st.sampled_from(list(Position)), min_size=n, max_size=n)),
        d_falsify=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        exited=draw(st.one_of(
            st.lists(st.sampled_from([False, False, False, True]), min_size=n, max_size=n),
            st.just([True] * n),  # nobody left to decide
        )),
        env=env,
    )
    return make_scenario(horizon, integrity, exit_rule, events, spec), state


@given(worlds())
def test_run_equals_fresh_steps(world):
    scenario, state = world
    checked_run(scenario, state)


# ---------------------------------------------------------------- the events index

@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(DELTA_FIELDS),
                          st.sampled_from([-0.5, 0.25, 1.0, 0.1])), max_size=10))
def test_the_events_index_equals_the_scan(drawn):
    """Each step's events, looked up in the index, are the full scan's in list order, and a
    step folds and labels them so: for a tuple of unsorted events and for a list."""
    events = [Event(step=s, label=f"e{k}", deltas={name: delta})
              for k, (s, name, delta) in enumerate(drawn)]
    start, scenario = still_world()
    for held in (tuple(events), events):
        scenario.events = held
        state = start
        for t in range(6):
            fired = [ev for ev in events if ev.step == t]
            assert list(engine._index_events(held, state._schedule)[1].get(t, ())) == fired
            new = step(state, scenario)
            assert new.env == engine.apply_events(state.env, events, t)
            assert new._last_events == tuple(ev.label for ev in fired)
            state = new


def test_an_events_list_edited_between_steps_is_seen():
    """Only a tuple's index is kept: a list may have changed in place since the last step."""
    state, scenario = still_world()
    state = step(state, scenario)
    scenario.events.append(Event(step=1, label="late", deltas={"dp": 0.25}))
    new = step(state, scenario)
    assert new._last_events == ("late",) and new.env.dp == 0.25


def test_a_scenario_with_unsorted_events_runs_them_in_list_order():
    """The committed timeline reversed, with two more events at step 0 whose sum depends on
    the order: ``run`` calls ``apply_events`` once per step and labels and folds each
    step's events in list order."""
    doc = json.loads(DONBASS_PATH.read_text(encoding="utf-8"))
    for group in doc["population"]["groups"]:
        group["count"] = 10
    doc["horizon"] = 20
    doc["events"] = [e for e in doc["events"] if e["step"] < 20]
    scenario = parse_scenario(json.dumps(doc))
    calm = tuple(Event(step=0, label="calm", deltas={"dC": dC}) for dC in (0.1, 0.2))
    events = (*reversed(scenario.events), *calm)
    scenario = replace(scenario, events=events)
    with counting("apply_events") as calls, last_state() as seen:
        records = run(scenario)
    assert [t for _, _, t in calls] == list(range(20))
    assert [r.events for r in records] == [
        tuple(ev.label for ev in events if ev.step == t) for t in range(20)
    ]
    env = Environment(beta_share=scenario.beta_share)
    for t in range(20):
        env = engine.apply_events(env, events, t)
    assert seen[0].env == env


# ---------------------------------------------------------------- explicit cases

def still_world(kappa=0.0, nu0=0.6, d_falsify=(0, 0, 0), exit=None, horizon=6, weight=1.0):
    """Three agents who all keep showing NJ.  Agents 0 and 1 prefer U and do best at 0.65
    (penalty 0.6), agent 2 prefers R and does best at 4.65; all three falsify, so their
    penalties move while ``kappa > 0`` and the penalty is below its cap of 1.  The ring's
    edges all weigh ``weight``: the default is integral, so the weighted reputation comes
    from maintained counts; 0.5 takes the keyed pass over every edge."""
    net = SocialNetwork(3, [(0, 1, weight), (1, 2, weight), (2, 0, weight)])
    n = 3
    params = ParamArrays(
        **{name: np.zeros(n) for name in FACTOR_NAMES if name not in ("p_base", "V_NJ")},
        V_NJ=np.array([1.0, 1.0, 5.0]), p_base=np.full(n, 0.5),
        x_rebel=np.array([False, False, True]),
    )
    integrity = IntegritySpec(nu_match=0.0, nu0=nu0, kappa=kappa, cap=1.0)
    state = make_state(net, params, y=[Position.NJ] * n, d_falsify=np.array(d_falsify))
    return state, make_scenario(horizon, integrity, exit)


def choices(state, scenario) -> int:
    """How many times one step from ``state`` calls ``choose_positions``."""
    with counting("choose_positions") as calls:
        step(state, scenario)
    return len(calls)


def test_still_steps_reuse_the_decision():
    state, scenario = still_world(horizon=4)
    _, computed = checked_run(scenario, state)
    assert computed == 1


def test_exit_fires_on_a_reused_step():
    state, scenario = still_world(exit=ExitSpec(threshold=1.0, patience=3), horizon=3)
    records, computed = checked_run(scenario, state)
    assert computed == 1  # steps 2 and 3 repeat step 1's decision
    assert [r.n_exited for r in records] == [0, 0, 2]


def test_unsaturated_falsifier_recomputes_every_step():
    state, scenario = still_world(kappa=0.1, nu0=0.2)  # penalties 0.2, 0.3, ... below the cap
    _, computed = checked_run(scenario, state)
    assert computed == scenario.horizon


def test_in_place_falsification_edit_is_seen():
    state, scenario = still_world(kappa=0.1, nu0=0.2, d_falsify=(10, 10, 10))  # at the cap
    state = step(state, scenario)
    assert choices(state, scenario) == 0
    state.d_falsify[2] = 0  # in place: agent 2's penalty drops back to nu0
    assert choices(state, scenario) == 1
    assert state_bits(step(state, scenario)) == state_bits(fresh_step(state, scenario))


def test_edits_through_shared_arrays_are_seen():
    """A step without an exit rule hands its input's exit flags on as they are, and a caller
    may keep the input's stances: the memo must hold its own copies of both."""
    state, scenario = still_world()
    state.y[0] = Position.U  # agent 0 goes back to NJ on the first step
    new = step(state, scenario)
    assert new.y.tolist() == [Position.NJ] * 3 and new.exited is state.exited
    state.y[0] = Position.NJ  # the input now equals the successor, but the step read U
    assert choices(new, scenario) == 1

    state, scenario = still_world()
    new = step(state, scenario)
    assert choices(new, scenario) == 0
    new.exited[1] = True  # also the input's flags, which the step read as all False
    assert choices(new, scenario) == 1
    assert state_bits(step(new, scenario)) == state_bits(fresh_step(new, scenario))


def test_replaced_exit_spec_recomputes_the_masks():
    """The exit rule joins the decision's key: the kept masks of the low-payoff streaks
    belong to the rule they were made for."""
    state, scenario = still_world(exit=ExitSpec(threshold=1.0, patience=5))
    state = step(state, scenario)
    assert choices(state, scenario) == 0
    for rule in (ExitSpec(threshold=0.5, patience=5), ExitSpec(threshold=1.0, patience=2), None):
        changed = SimpleNamespace(**{**vars(scenario), "exit": rule})
        assert choices(state, changed) == 1
        new = step(state, changed)
        assert state_bits(new) == state_bits(fresh_step(state, changed))
        assert state_bits(step(new, changed)) == state_bits(fresh_step(new, changed))


def test_in_place_streak_edits_below_and_above_the_steady_streak_are_seen():
    """Penalties 0.2 + 0.1 d reach the cap of 1 at d = 8, so streaks from 8 on share a key:
    an edit among them repeats the decision, an edit below 8 recomputes it."""
    state, scenario = still_world(kappa=0.1, nu0=0.2, d_falsify=(10, 10, 10))
    assert engine._steady_streak(scenario.integrity) == 8
    state = step(state, scenario)
    for edit, recomputed in ((8, 0), (10**12, 0), (7, 1), (0, 1)):
        state.d_falsify[1] = edit
        assert choices(state, scenario) == recomputed
        assert state_bits(step(state, scenario)) == state_bits(fresh_step(state, scenario))
        state = step(state, scenario)


def test_a_still_step_hands_out_arrays_of_its_own():
    """Editing the arrays of a state made by a still step changes neither the kept memo nor
    the state it was stepped from."""
    for weight in (1.0, 0.5):  # counts, and the keyed pass
        state, scenario = still_world(exit=ExitSpec(threshold=1.0, patience=5), weight=weight)
        state = step(state, scenario)
        new = step(state, scenario)
        assert new._memo is state._memo
        arrays = ("y", "d_falsify", "exited", "low_payoff_streak")
        kept = [bits(getattr(state, name)) for name in arrays]
        masks = (new._memo.y, new._memo.exited, new._memo.streaks, new._memo.y_next, new._memo.grow,
                 new._memo.keep, new._memo.low, new._memo.hold)
        before = memo_bits(new._memo), [bits(a) for a in masks]
        new.y[:] = Position.R
        new.d_falsify[:] = 99
        new.exited[:] = True
        new.low_payoff_streak[:] = 4
        assert [bits(getattr(state, name)) for name in arrays] == kept
        assert (memo_bits(new._memo), [bits(a) for a in masks]) == before
        assert state_bits(step(state, scenario)) == state_bits(fresh_step(state, scenario))


def test_replaced_environment_is_seen():
    state, scenario = still_world()
    state = step(state, scenario)
    assert choices(state, scenario) == 0
    shocked = replace(state, env=replace(state.env, dp=0.25))
    assert choices(shocked, scenario) == 1
    new = step(shocked, scenario)
    assert state_bits(new) == state_bits(fresh_step(shocked, scenario))
    assert new._memo.p.tolist() == [0.75] * 3  # 0.5 + 0.25; nobody showed R


def test_an_environment_that_differs_only_in_the_sign_of_a_zero_is_seen():
    """``-0.0 == 0.0``, but with ``p_base``, ``beta_share`` and ``dp`` all ``-0.0`` the
    perceived probability is ``-0.0``: an event of ``dp: 0.0`` makes it ``0.0``, so the
    environments must be compared bit for bit."""
    state, scenario = still_world()
    state = replace(state, env=Environment(beta_share=-0.0, dp=-0.0),
                    params=replace(state.params, p_base=np.full(state.n, -0.0)))
    scenario.events = [Event(step=1, label="zero", deltas={"dp": 0.0})]
    state = step(state, scenario)
    assert bits(state._memo.p) == bits(np.full(state.n, -0.0))
    assert choices(state, scenario) == 1
    new = step(state, scenario)
    assert new.env == state.env and state_bits(new) == state_bits(fresh_step(state, scenario))
    assert bits(new._memo.p) == bits(np.zeros(state.n))


def test_replaced_params_are_seen():
    state, scenario = still_world()
    state = step(state, scenario)
    other = replace(state, params=replace(state.params, p_base=np.full(state.n, 0.75)))
    assert choices(other, scenario) == 1
    new = step(other, scenario)
    assert state_bits(new) == state_bits(fresh_step(other, scenario))
    assert new._memo.p.tolist() == [0.75] * 3


def test_changed_network_and_specs_are_seen():
    """A new network, a new reputation spec, or an integrity spec that differs only in
    ``nu_match`` (so every penalty stays as it was), between manual steps."""
    state, scenario = still_world()
    state = step(state, scenario)
    reversed_ring = replace(state, network=SocialNetwork(3, [(0, 2, 1.0), (1, 0, 1.0), (2, 1, 2.0)]))
    for new_state, field, spec in (
        (reversed_ring, "reputation", scenario.reputation),
        (state, "reputation", replace(scenario.reputation, alpha=1.5)),
        (state, "integrity", replace(scenario.integrity, nu_match=0.5)),
    ):
        changed = SimpleNamespace(**{**vars(scenario), field: spec})
        assert choices(new_state, changed) == 1
        assert state_bits(step(new_state, changed)) == state_bits(fresh_step(new_state, changed))


def memo_bits(memo):
    """Every array a step keeps, level by level, as bytes: the keyed pass's per-edge arrays
    or the stance counts, then the totals, the terms and the decision."""
    edges = () if memo.edges is None else (memo.edges[0], memo.edges[1], memo.edges[3])
    counts = () if memo.num is None else (memo.num,)
    levels = (*edges, *counts, memo.denom, memo.rep, memo.p, memo.y_next, memo.grow, memo.keep)
    return tuple(bits(a) for a in levels)


@contextmanager
def counting_levels():
    """Counts, per step, the calls that recompute each memo level: the network level
    (``edge_weights``), the exit level (``observed_weights``) and the stance level
    (``reputation_terms``); yields a function that returns and resets the three counts."""
    with counting("edge_weights") as base, counting("observed_weights") as weights, \
            counting("reputation_terms") as terms:
        def taken():
            counts = (len(base), len(weights), len(terms))
            for calls in (base, weights, terms):
                calls.clear()
            return counts
        yield taken


def test_in_place_edits_invalidate_only_their_levels():
    """An exit edited in place recomputes the observed weights and everything below them; a
    stance edited in place recomputes the reputation terms alone; either way the kept arrays
    equal those of a step that keeps nothing.  Non-integral weights take the keyed pass."""
    state, scenario = still_world(weight=0.5)
    state = step(state, scenario)
    assert state._memo.edges is not None and state._memo.num is None
    with counting_levels() as taken:
        step(state, scenario)
        assert taken() == (0, 0, 0)
        state.y[0] = Position.U
        new = step(state, scenario)
        assert taken() == (0, 0, 1)
        assert memo_bits(new._memo) == memo_bits(fresh_step(state, scenario)._memo)
        taken()  # not the fresh step's calls
        state.exited[1] = True
        new = step(state, scenario)
        assert taken() == (0, 1, 1)
        assert memo_bits(new._memo) == memo_bits(fresh_step(state, scenario)._memo)
        taken()
        state.exited[1] = False  # also ``new``'s flags (no exit rule), which its step read as True
        step(new, scenario)
        assert taken() == (0, 1, 1)


def test_in_place_edits_on_the_counts_path_invalidate_only_their_levels():
    """On integral weights a stance edited in place walks the changed agent's audience from
    the kept counts and keeps the totals; an exit edited in place also changes the totals.
    No keyed pass runs, and the kept arrays equal those of a step that keeps nothing."""
    state, scenario = still_world()
    state = step(state, scenario)
    assert state._memo.edges is None
    with counting("stance_counts") as counts, counting_levels() as taken:
        step(state, scenario)
        assert (len(counts), taken()) == (0, (0, 0, 0))
        state.y[0] = Position.U
        new = step(state, scenario)
        assert (len(counts), taken()) == (1, (0, 0, 0))
        assert counts.pop()[4] is not None  # brought up to date from the kept counts
        assert new._memo.denom is state._memo.denom
        assert memo_bits(new._memo) == memo_bits(fresh_step(state, scenario)._memo)
        counts.clear()
        state.exited[1] = True
        new = step(state, scenario)
        assert (len(counts), taken()) == (1, (0, 0, 0))
        assert bits(new._memo.denom) != bits(state._memo.denom)
        assert memo_bits(new._memo) == memo_bits(fresh_step(state, scenario)._memo)
        counts.clear()
        state.exited[1] = False  # also ``new``'s flags (no exit rule), which its step read as True
        again = step(new, scenario)
        assert (len(counts), taken()) == (1, (0, 0, 0))
        assert bits(again._memo.denom) == bits(state._memo.denom)


def test_replaced_network_or_spec_rebuilds_the_base_weights():
    state, scenario = still_world()
    spec = replace(scenario.reputation, variant=ReputationVariant.ITERATIVE_INFLUENCE)
    scenario = SimpleNamespace(**{**vars(scenario), "reputation": spec})
    state = step(state, scenario)
    reversed_ring = replace(state, network=SocialNetwork(3, [(0, 2, 1.0), (1, 0, 1.0), (2, 1, 2.0)]))
    rescaled = SimpleNamespace(**{**vars(scenario), "reputation": replace(spec, alpha=1.5)})
    with counting("influence_scores") as scores, counting_levels() as taken:
        step(state, scenario)
        assert (len(scores), taken()) == (0, (0, 0, 0))
        for new_state, new_scenario in ((reversed_ring, scenario), (state, rescaled)):
            new = step(new_state, new_scenario)
            assert (len(scores), taken()) == (1, (1, 1, 1))
            assert memo_bits(new._memo) == memo_bits(fresh_step(new_state, new_scenario)._memo)
            scores.clear()
            taken()  # not the fresh step's calls


def test_the_edge_buffer_is_kept_with_the_network():
    """The writable per-edge buffer is made once per network and spec; the observer totals
    and reputation terms made through it equal the public kernels'.  Non-integral weights
    take the keyed pass."""
    state, scenario = still_world(weight=0.5)
    first = step(state, scenario)
    first.y[0] = Position.U
    first.exited[2] = True
    second = step(first, scenario)
    (_, _, scratch, kept), net, spec = second._memo.edges, first.network, scenario.reputation
    assert scratch is first._memo.edges[2] and scratch.flags.writeable
    weight = engine.observed_weights(spec, net.w, net.dst, first.exited[net.dst])
    assert bits(kept) == bits(weight)
    assert bits(second._memo.denom) == bits(engine.observer_totals(net.src, weight, net.n))
    expected = engine.reputation_terms(spec, net.src, weight, first.y[net.dst], net.n)
    assert bits(second._memo.rep) == bits(expected)


def test_negative_falsification_streak_still_raises():
    """With kappa 0 a negative streak leaves the penalty as it was, but the check still fires."""
    state, scenario = still_world(kappa=0.0)
    state = step(state, scenario)
    state.d_falsify[0] = -3
    with pytest.raises(InvalidParameterError, match="d_falsify must be >= 0"):
        step(state, scenario)


def test_parameter_columns_are_read_only():
    state, _ = still_world()
    with pytest.raises(ValueError, match="read-only"):
        state.params.F[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.params.x_rebel[0] = True


# ---------------------------------------------------------------- counts during run

def iterative_exits_scenario():
    """The committed baseline at 300 agents with iterative reputation, exits and 240 steps."""
    doc = json.loads(DONBASS_PATH.read_text(encoding="utf-8"))
    for group, count in zip(doc["population"]["groups"], (30, 45, 225)):
        group["count"] = count
    doc["reputation"] = {"variant": "iterative_influence", "alpha": 0.5}
    doc["exit"] = {"threshold": 1.0, "patience": 20}
    doc["horizon"] = 240
    return parse_scenario(json.dumps(doc))


def test_choice_runs_once_per_step_whose_decision_inputs_changed():
    """One ``choose_positions`` call per step whose stances, exits or penalties differ from the
    previous step's, or at which an event fires; the first step counts as changed."""
    scenario = iterative_exits_scenario()
    spec = scenario.integrity
    inputs, real_step = [], engine.step

    def recording_step(state, scenario):
        penalty = np.minimum(spec.cap, spec.nu0 + spec.kappa * state.d_falsify)
        fired = any(ev.step == state.t for ev in scenario.events)
        inputs.append((state.y.copy(), state.exited.copy(), penalty, fired))
        return real_step(state, scenario)

    engine.step = recording_step
    try:
        with counting("choose_positions") as calls, counting("rebel_kernel") as rebel:
            run(scenario)
    finally:
        engine.step = real_step
    changed = 1 + sum(
        fired or not all(map(np.array_equal, (y, e, d), (y0, e0, d0)))
        for (y0, e0, d0, _), (y, e, d, fired) in zip(inputs, inputs[1:])
    )
    assert len(inputs) == 240
    assert len(calls) == len(rebel) == changed < 240


def environments(scenario):
    """The environment each step of ``scenario`` decides under, after its events."""
    envs, env = [], Environment(beta_share=scenario.beta_share)
    for t in range(scenario.horizon):
        env = engine.apply_events(env, scenario.events, t)
        envs.append(env)
    return envs


def test_effective_factors_are_made_once_per_environment():
    """``effective_params`` runs on the first step and at each event that changes the
    environment, not on the other steps whose decision is recomputed.  The baseline's
    ``tv_ban`` shifts nothing, so it is an event that fires and changes nothing."""
    scenario = iterative_exits_scenario()
    with counting("effective_params") as calls, counting("choose_positions") as chosen:
        run(scenario)
    envs = environments(scenario)
    changes = sum(env != last for last, env in zip(envs, envs[1:]))
    fired = {ev.step for ev in scenario.events if 0 < ev.step < scenario.horizon}
    assert changes < len(fired)
    assert len(calls) == 1 + changes < len(chosen)


def test_marker_events_recompute_nothing():
    """With an event of no offsets at every step, ``choose_positions`` runs once per step
    whose stances, exits, penalties or environment changed, and ``effective_params`` once
    per step whose environment changed; the first step counts as changed.  The records are
    the run's without the markers, but for the events' labels."""
    scenario = iterative_exits_scenario()
    markers = tuple(Event(step=t, label="mark", deltas={}) for t in range(scenario.horizon))
    marked = replace(scenario, events=(*scenario.events, *markers))
    spec, inputs, real_step = scenario.integrity, [], engine.step

    def recording_step(state, scenario):
        penalty = engine.falsification_penalty(spec, state.d_falsify)
        inputs.append((state.y.copy(), state.exited.copy(), penalty))
        return real_step(state, scenario)

    engine.step = recording_step
    try:
        with counting("choose_positions") as calls, counting("effective_params") as factors:
            records = run(marked)
    finally:
        engine.step = real_step
    envs = environments(marked)
    assert envs == environments(scenario)
    new_env = [env != last for last, env in zip(envs, envs[1:])]
    changed = 1 + sum(
        moved or not all(map(np.array_equal, now, before))
        for before, now, moved in zip(inputs, inputs[1:], new_env)
    )
    assert len(calls) == changed < scenario.horizon
    assert len(factors) == 1 + sum(new_env)
    unlabelled = [record_bits(replace(r, events=())) for r in run(scenario)]
    assert [record_bits(replace(r, events=())) for r in records] == unlabelled


def test_observed_weights_run_once_per_step_whose_exits_changed():
    """One ``observed_weights`` call per step whose exit flags differ from the previous step's,
    and one influence solve for the whole run; the first step counts as changed."""
    scenario = iterative_exits_scenario()
    exits, real_step = [], engine.step

    def recording_step(state, scenario):
        exits.append(state.exited.copy())
        return real_step(state, scenario)

    engine.step = recording_step
    try:
        with counting("observed_weights") as calls, counting("influence_scores") as scores:
            run(scenario)
    finally:
        engine.step = real_step
    changed = 1 + sum(not np.array_equal(e, e0) for e0, e in zip(exits, exits[1:]))
    assert len(exits) == 240
    assert len(calls) == changed and 1 < changed < 240
    assert len(scores) == 1

"""A step repeats its predecessor's decision only when every input of it is unchanged.

:func:`step` keeps its inputs and its decision (perceived probability, new
stances and the masks of the streak updates) on the state it returns, and the next step
reuses them when the network, the specs, the parameters, the environment
after events, the stances, the exit flags and the falsification penalties
all match; :func:`run` reuses the previous record when a step changed
nothing the record reads.  The reference everywhere is the same step with
the memo cleared, which computes everything afresh: results must be bit-equal.
"""

import io
import json
import tracemalloc
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
    influence_scores,
    parse_scenario,
    run,
    step,
)
from dissentsim import engine
from dissentsim.engine import DELTA_FIELDS, FACTOR_NAMES, Environment, ParamArrays
from dissentsim.network import observed_weights, observer_totals, reputation_terms, terms_from_counts
from dissentsim.scenario import write_csv

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
    edges all weigh ``weight``: the default is 1, so the weighted reputation comes from
    maintained counts; 0.5 takes the keyed pass over every edge."""
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
        masks = (new._memo.seen.y, new._memo.seen.exited, new._memo.streaks, new._memo.y_next,
                 new._memo.grow, new._memo.keep, new._memo.low, new._memo.hold)
        before = memo_bits(new._memo, state, scenario), [bits(a) for a in masks]
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


def seen_kept(memo, state, scenario):
    """Checks that the step that made ``memo`` from ``state`` kept the reputation record of
    the step that made ``state`` exactly while the network, the reputation spec, the stances
    and the exits are unchanged."""
    last = None if state._memo is None else state._memo.seen
    same = (last is not None and last.network is state.network
            and last.reputation == scenario.reputation
            and np.array_equal(last.y, state.y) and np.array_equal(last.exited, state.exited))
    assert (last is not None and memo.seen is last) is same


def memo_bits(memo, state=None, scenario=None):
    """Every array a step keeps, as bytes: the stance counts, the totals, the terms and the
    decision.  Given the ``state`` and ``scenario`` the step read, also checks
    :func:`seen_kept`."""
    if state is not None:
        seen_kept(memo, state, scenario)
    seen = memo.seen
    rep = terms_from_counts(seen.reputation, seen.num, seen.denom)
    levels = (seen.num, seen.denom, rep, memo.p, memo.y_next, memo.grow, memo.keep)
    return tuple(bits(a) for a in levels)


@contextmanager
def counting_levels():
    """Counts, per step, the calls that recompute each memo level below the network: the exit
    level (``observed_weights``) and the stance level (``terms_from_counts``, made for each
    stance's payoff, so three calls per decision made); yields a function that returns and
    resets the two counts."""
    with counting("observed_weights") as weights, counting("terms_from_counts") as terms:
        def taken():
            counts = (len(weights), len(terms))
            for calls in (weights, terms):
                calls.clear()
            return counts
        yield taken


def test_in_place_edits_invalidate_only_their_levels():
    """Weights other than 1 take the keyed pass.  A stance or an exit edited in place remakes
    the observed weights of the edited agent's observers alone, over their out-edges, while
    they are at most half the rows, and of every row otherwise, and the terms of each stance
    once; either
    way the kept arrays equal those of a step that keeps nothing.  On the ring
    0 -> 1 -> 2 -> 0 agent 0's one observer is 2, whose one edge goes to 0, and agent 1's
    is 0, whose one edge goes to 1."""
    state, scenario = still_world(weight=0.5)
    state = step(state, scenario)
    with counting("observed_weights") as weights, counting("terms_from_counts") as terms:
        def taken():
            counts = ([call[2].tolist() for call in weights], len(terms))
            weights.clear()
            terms.clear()
            return counts

        step(state, scenario)
        assert taken() == ([], 0)
        state.y[0] = Position.U
        new = step(state, scenario)
        assert taken() == ([[0]], 3)  # row 2 alone: its one edge, to 0
        assert memo_bits(new._memo, state, scenario) == memo_bits(fresh_step(state, scenario)._memo)
        taken()  # not the fresh step's calls
        state.exited[1] = True
        new = step(state, scenario)
        assert taken() == ([[1, 2, 0]], 3)  # rows 0 and 2 (agent 0's stance is still edited): every row
        assert memo_bits(new._memo, state, scenario) == memo_bits(fresh_step(state, scenario)._memo)
        taken()
        state.exited[1] = False  # also ``new``'s flags (no exit rule), which its step read as True
        again = step(new, scenario)
        assert taken() == ([[1, 2, 0]], 3)  # agent 0 back at NJ, agent 1 visible again: rows 0 and 2
        assert memo_bits(again._memo, new, scenario) == memo_bits(fresh_step(new, scenario)._memo)


def test_in_place_edits_on_the_counts_path_invalidate_only_their_levels():
    """On unit weights a stance edited in place walks the changed agent's audience from
    the kept counts and keeps the totals; an exit edited in place also changes the totals.
    A changed step makes exactly two walks, from the one changed-agent mask: off the changed
    agents visible before, at their old stances, and onto those visible now, at their new
    ones.  No keyed pass runs, the terms of each stance are made once per changed step, and
    the kept arrays
    equal those of a step that keeps nothing."""
    def walks(state):
        """The masks of the two walks a changed step from ``state`` makes."""
        last = state._memo.seen
        changed = (state.y != last.y) | (state.exited != last.exited)
        return [(changed & ~last.exited).tolist(), (changed & ~state.exited).tolist()]

    state, scenario = still_world()
    assert engine.counted(scenario.reputation, state.network)
    with counting("audience_counts") as counts, counting_levels() as taken:
        state = step(state, scenario)
        assert [call[1].tolist() for call in counts] == [(~state.exited).tolist()]
        counts.clear()
        taken()
        step(state, scenario)
        assert (len(counts), taken()) == (0, (0, 0))
        state.y[0] = Position.U
        new = step(state, scenario)
        assert ([call[1].tolist() for call in counts], taken()) == (walks(state), (0, 3))
        assert new._memo.seen.denom is state._memo.seen.denom
        assert memo_bits(new._memo, state, scenario) == memo_bits(fresh_step(state, scenario)._memo)
        counts.clear()
        taken()  # not the fresh step's calls
        state.exited[1] = True
        new = step(state, scenario)
        assert ([call[1].tolist() for call in counts], taken()) == (walks(state), (0, 3))
        assert bits(new._memo.seen.denom) != bits(state._memo.seen.denom)
        assert memo_bits(new._memo, state, scenario) == memo_bits(fresh_step(state, scenario)._memo)
        counts.clear()
        taken()  # not the fresh step's calls
        state.exited[1] = False  # also ``new``'s flags (no exit rule), which its step read as True
        again = step(new, scenario)
        assert ([call[1].tolist() for call in counts], taken()) == (walks(new), (0, 3))
        assert bits(again._memo.seen.denom) == bits(state._memo.seen.denom)


def test_replaced_network_or_spec_rebuilds_the_base_weights():
    """A new network or reputation spec makes the observed weights anew from the influence
    scores, which each network solves once: a later ``influence_scores`` call for the same
    solver controls is a hit of the network's memo."""
    state, scenario = still_world()
    spec = replace(scenario.reputation, variant=ReputationVariant.ITERATIVE_INFLUENCE)
    scenario = SimpleNamespace(**{**vars(scenario), "reputation": spec})
    state = step(state, scenario)
    reversed_ring = replace(state, network=SocialNetwork(3, [(0, 2, 1.0), (1, 0, 1.0), (2, 1, 2.0)]))
    rescaled = SimpleNamespace(**{**vars(scenario), "reputation": replace(spec, alpha=1.5)})
    assert (len(state.network._influence_memo), len(reversed_ring.network._influence_memo)) == (1, 0)
    with counting("influence_scores") as scores, counting_levels() as taken:
        step(state, scenario)
        assert (len(scores), taken()) == (0, (0, 0))
        for new_state, new_scenario in ((reversed_ring, scenario), (state, rescaled)):
            new = step(new_state, new_scenario)
            assert (len(scores), taken()) == (1, (1, 3))
            assert len(new_state.network._influence_memo) == 1  # solved once per network
            new_bits = memo_bits(new._memo, new_state, new_scenario)
            assert new_bits == memo_bits(fresh_step(new_state, new_scenario)._memo)
            scores.clear()
            taken()  # not the fresh step's calls


def walked_edges(net, changed):
    """The targets, in stored order, of the out-edges of every observer of an agent in the set
    ``changed``: the edges a keyed step over the kept record's network and spec walks."""
    watching = {i for i, j, _ in net.edges if j in changed}
    return [j for i, j, _ in net.edges if i in watching]


def keyed_step(state, scenario, real_step=step):
    """One step that takes the keyed pass, with its record checked: kept exactly as
    :func:`seen_kept` says; no kept array with an entry per edge, the effective factors in
    the parameters' slot included; ``observed_weights`` called over every edge when the
    record before is over another network or spec, and otherwise over the out-edges of the
    observers of the agents whose stance or exit changed, in stored order, while those
    observers are at most half the rows, over every edge when they are more, or not at all
    when no agent changed; read-only counts, totals and factors, and counts, totals and
    terms equal to a fresh keyed pass over every edge, bit for bit; and no kept array whose
    base holds more elements than it does (the totals are not a view of the 3n bins).
    Returns the new state and how many edges the step walked."""
    with counting("observed_weights") as calls:
        new = real_step(state, scenario)
    seen_kept(new._memo, state, scenario)
    memo, net, spec = new._memo, state.network, scenario.reputation
    last = None if state._memo is None else state._memo.seen
    m = net.src.size
    factors = [getattr(new.params._effective[1], name) for name in FACTOR_NAMES]
    kept = [*memo, *memo.seen] + factors
    assert m not in (net.n, 3 * net.n)
    assert all(a.size != m for a in kept if isinstance(a, np.ndarray))
    if last is None or last.network is not net or last.reputation != spec:
        walked = [net.dst.tolist()]
    else:
        changed = set(np.flatnonzero((state.y != last.y) | (state.exited != last.exited)).tolist())
        rows = {i for i, j, _ in net.edges if j in changed}
        walked = [net.dst.tolist() if 2 * len(rows) > net.n else walked_edges(net, changed)]
        walked = walked if changed else []
    assert [call[2].tolist() for call in calls] == walked
    iterative = spec.variant is ReputationVariant.ITERATIVE_INFLUENCE
    scores = influence_scores(net, spec.damping, spec.tol, spec.max_iters) if iterative else None
    hidden, stance = state.exited[net.dst], state.y[net.dst]
    weight = observed_weights(spec, net.w, net.dst, hidden, scores)
    num = np.bincount(3 * net.src + stance, weights=weight, minlength=3 * net.n).reshape(-1, 3)
    expected = (num, observer_totals(net.src, weight, net.n),
                reputation_terms(spec, net.src, weight, stance, net.n))
    assert not any(a.flags.writeable for a in (memo.seen.num, memo.seen.denom, *factors))
    seen = memo.seen
    record = (seen.num, seen.denom, terms_from_counts(seen.reputation, seen.num, seen.denom))
    assert [bits(a) for a in record] == [bits(a) for a in expected]
    arrays = [a for a in memo.seen if isinstance(a, np.ndarray)]
    assert all(a.base is None or a.base.size <= a.size for a in arrays)
    return new, sum(map(len, walked))


def test_the_keyed_pass_keeps_no_per_edge_array():
    """Weights other than 1 take the keyed pass: a still step, a stance and an exit edited in
    place, and the exit undone.  A fourth edge makes the edges more than the agents.  The
    first step walks all four edges; agent 0's stance, seen by 2, walks row 2; its return to
    NJ with 2's exit walks every row, as 2 is seen by 0 and 1; the exit undone, rows 0 and 1,
    more than half the rows, so every edge."""
    state, scenario = still_world(weight=0.5)
    state = replace(state, network=SocialNetwork(3, [*state.network.edges, (0, 2, 0.5)]))
    walked = []
    for edit in (None, None, ("y", 0, Position.U), ("exited", 2, True), ("exited", 2, False)):
        if edit is not None:
            getattr(state, edit[0])[edit[1]] = edit[2]
        state, edges = keyed_step(state, scenario)
        walked.append(edges)
    assert walked == [4, 0, 1, 4, 4]


def test_the_keyed_pass_keeps_no_per_edge_array_through_an_iterative_run(monkeypatch):
    """Every step of a run with iterative reputation and exits.  After the first step, which
    walks every edge, a step walks only the changed agents' observers' rows: some steps
    walk none, and others fewer than every edge."""
    walked, sizes, real_step = [], set(), engine.step

    def checked(state, scenario):
        new, edges = keyed_step(state, scenario, real_step)
        walked.append(edges)
        sizes.add(state.network.src.size)
        return new

    monkeypatch.setattr(engine, "step", checked)
    run(iterative_exits_scenario())
    (m,) = sizes
    assert len(walked) == 240 and walked[0] == m
    assert 0 in walked and any(0 < edges < m for edges in walked[1:])


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


def csv_bytes(records) -> bytes:
    sink = io.BytesIO()
    write_csv(records, sink)
    return sink.getvalue()


def test_the_factor_slot_is_never_stale(monkeypatch):
    """The effective factors live in one slot of their ``ParamArrays``, keyed by the
    environment's bits.  One ``ParamArrays`` run under two environments in alternation, and
    a ``replace``d one with equal content, writes the CSV bytes of runs on a fresh copy, and
    its slot then holds the read-only factors ``effective_params`` makes under the run's
    environment.  ``A_R`` is -0.0 everywhere: an offset ``dA_R`` of -0.0 keeps that sign and
    one of 0.0 does not, so a slot keyed by ``==`` alone would hand out stale factors.  The
    slot is empty whenever a new set is made: the old set is not alive beside it."""
    made, slots = engine.effective_params, []
    monkeypatch.setattr(engine, "effective_params",
                        lambda pa, env: slots.append(pa._effective) or made(pa, env))
    scenario = replace(iterative_exits_scenario(), events=(), horizon=30)
    start = engine.init_state(scenario)
    params = replace(start.params, A_R=np.full(start.n, -0.0))
    twin = replace(params)
    plain, shocked = start.env, replace(start.env, dC=0.5)
    signed = replace(plain, dA_R=-0.0)
    assert signed == plain and not engine._same_env(signed, plain)
    assert bits(made(params, signed).A_R) != bits(made(params, plain).A_R)
    for pa, env in ((params, plain), (params, signed), (params, shocked), (twin, signed),
                    (params, signed), (params, plain), (twin, plain), (params, shocked),
                    (twin, shocked), (params, signed)):
        records = run(scenario, replace(start, params=pa, env=env))
        assert csv_bytes(records) == csv_bytes(run(scenario, replace(start, params=replace(pa), env=env)))
        factors, expected = pa._effective[1], made(pa, env)
        assert [bits(getattr(factors, name)) for name in FACTOR_NAMES] == [
            bits(getattr(expected, name)) for name in FACTOR_NAMES]
        assert not any(getattr(factors, name).flags.writeable for name in FACTOR_NAMES)
    assert len(slots) > 10 and not any(slots)


def test_the_steps_keep_one_generation_at_two_hundred_thousand_agents():
    """The baseline at 2 * 10**5 agents, over 5 steps with the events before step 5.  What
    the steps leave alive is one generation, about 116 bytes an agent: the six effective
    factors (48), the counts and totals (32), ``p``, the clipped streaks and the one mask
    while nobody has exited (24), the state's falsification streaks (8), and the stances and
    exit flags (4).  No step holds two sets of factors, or the terms, or a second mask, so
    the steps peak below 240 bytes an agent above the state they start from."""
    doc = json.loads(DONBASS_PATH.read_text(encoding="utf-8"))
    groups, n = doc["population"]["groups"], 2 * 10**5
    total = sum(group["count"] for group in groups)
    for group in groups:
        group["count"] = group["count"] * n // total
    doc.update(horizon=5, events=[ev for ev in doc["events"] if ev["step"] < 5])
    scenario = parse_scenario(json.dumps(doc))
    state = engine.init_state(scenario)
    tracemalloc.start()
    try:
        for _ in range(scenario.horizon):
            state = step(state, scenario)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 120 * state.n, kept / state.n
    assert peak <= 240 * state.n, peak / state.n


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


def test_observed_weights_run_once_per_changed_step_over_the_changed_rows():
    """One ``observed_weights`` call per step whose stances or exit flags differ from the
    previous step's, each reading the influence scores, and one influence solve for the
    whole run; the first step counts as changed and walks every edge.  The later calls walk
    only the changed agents' observers' rows: fewer edges, all told, than a pass over every
    edge at each of those steps."""
    scenario = iterative_exits_scenario()
    inputs, networks, real_step = [], set(), engine.step

    def recording_step(state, scenario):
        inputs.append((state.y.copy(), state.exited.copy()))
        networks.add(state.network)
        return real_step(state, scenario)

    engine.step = recording_step
    try:
        with counting("observed_weights") as calls, counting("influence_scores") as scores:
            run(scenario)
    finally:
        engine.step = real_step
    moved = [not all(map(np.array_equal, now, before)) for before, now in zip(inputs, inputs[1:])]
    exits = sum(not np.array_equal(now[1], before[1]) for before, now in zip(inputs, inputs[1:]))
    changed = 1 + sum(moved)
    assert len(inputs) == 240
    assert len(calls) == len(scores) == changed and 1 + exits < changed < 240
    (network,) = networks
    m = network.src.size
    walked = [call[1].size for call in calls]
    assert walked[0] == m and sum(walked[1:]) < m * (changed - 1)
    assert len(network._influence_memo) == 1

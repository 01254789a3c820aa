"""The step kernels in mask arithmetic against the per-element selects they replace.

``choose_positions``, ``exit_update``, ``observed_weights``, ``consistent``
and the tail of :func:`step` (new stances, falsification streaks, low-payoff
streaks and exits) are written as arithmetic on masks, which does not branch
per element.  The ``np.where`` forms they replace are kept here as
references, and every result must match its reference bit for bit, with the
same dtype and the same number of dimensions: on 0-d scalars, on previous
codes outside 0..2, on stances that are not int8, on exits with a ``-inf``
threshold and on integrity penalties that saturate.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dissentsim import (
    ExitSpec,
    IntegritySpec,
    InvalidParameterError,
    Position,
    PrivateType,
    ReputationSpec,
    ReputationVariant,
    SimState,
    SocialNetwork,
    choose_positions,
    consistent,
    step,
)
from dissentsim.engine import FACTOR_NAMES, Environment, ParamArrays, exit_update, falsification_penalty
from dissentsim.model import TIE_EPS
from dissentsim.network import edge_weights, observed_weights

# ---------------------------------------------------------------- references


def reference_choose_positions(e_nj, e_u, e_r, previous):
    e_nj = np.asarray(e_nj, dtype=np.float64)
    e_u = np.asarray(e_u, dtype=np.float64)
    e_r = np.asarray(e_r, dtype=np.float64)
    prev = np.asarray(previous, dtype=np.int8)
    best = np.maximum(np.maximum(e_nj, e_u), e_r)
    tied_nj = e_nj >= best - TIE_EPS
    tied_u = e_u >= best - TIE_EPS
    tied_r = e_r >= best - TIE_EPS
    out = np.where(
        tied_nj, np.int8(Position.NJ), np.where(tied_u, np.int8(Position.U), np.int8(Position.R)),
    ).astype(np.int8)
    prev_tied = np.where(
        prev == Position.NJ, tied_nj, np.where(prev == Position.U, tied_u, tied_r)
    )
    return np.where(prev_tied, prev, out).astype(np.int8)


def reference_exit_update(streak, exited, best_payoff, exit_threshold, exit_patience):
    streak = np.where(best_payoff < exit_threshold, streak + 1, 0)
    return streak, exited | (streak >= exit_patience)


def reference_observed_weights(spec, w, dst, hidden, scores=None):
    if spec.variant is ReputationVariant.UNWEIGHTED_FRACTION:
        w = np.ones_like(w)
    elif spec.variant is ReputationVariant.ITERATIVE_INFLUENCE:
        w = w * scores[dst]
    return np.where(hidden, 0.0, w)


def reference_consistent(y, x_rebel):
    return y == Position.U + np.asarray(x_rebel)


def reference_tail(state, chosen, best, exit_rule):
    """The successor's (y, d_falsify, exited, low_payoff_streak) as :func:`step` computed
    them from the chosen stances and the best payoffs before the mask arithmetic."""
    active = ~state.exited
    y_new = np.where(active, chosen, state.y).astype(np.int8)
    d_new = np.where(
        active, np.where(reference_consistent(y_new, state.params.x_rebel), 0, state.d_falsify + 1),
        state.d_falsify,
    )
    exited_new, streak_new = state.exited, state.low_payoff_streak
    if exit_rule is not None:
        streak, exited_new = reference_exit_update(
            state.low_payoff_streak, state.exited, best, exit_rule.threshold, exit_rule.patience,
        )
        streak_new = np.where(active, streak, state.low_payoff_streak)
    return y_new, d_new, exited_new, streak_new


def assert_same(new, old):
    """Bit-equal, with the same dtype and the same number of dimensions."""
    new, old = np.asarray(new), np.asarray(old)
    assert (new.dtype, new.ndim, new.shape) == (old.dtype, old.ndim, old.shape)
    assert new.tobytes() == old.tobytes()


# ---------------------------------------------------------------- strategies

# Tie-prone payoffs: equal values, gaps of exactly TIE_EPS and just past it, and infinities.
payoff = st.one_of(
    st.sampled_from([0.0, -0.0, TIE_EPS, 2 * TIE_EPS, 1.0, 1.0 + TIE_EPS, -1.0, math.inf, -math.inf]),
    st.floats(-5.0, 5.0),
    st.floats(allow_nan=True),
)
code = st.one_of(st.sampled_from(list(Position)), st.integers(-128, 127))  # int8 codes, most out of 0..2


@st.composite
def payoff_rows(draw):
    """Three payoff arrays and previous codes, or all four as 0-d scalars."""
    if draw(st.booleans()):
        return draw(payoff), draw(payoff), draw(payoff), draw(code)
    n = draw(st.integers(0, 12))
    column = st.lists(payoff, min_size=n, max_size=n).map(np.array)
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int64]))
    previous = np.array(draw(st.lists(code, min_size=n, max_size=n)), dtype=np.int64).astype(dtype)
    return draw(column), draw(column), draw(column), previous


@given(payoff_rows())
@example((1.0, 1.0, 1.0, 7))  # everything tied: an unknown previous code is kept, as R would be
@example((1.0, 1.0, 0.0, -3))  # R not tied: the earliest tied stance, NJ
@example((np.array([0.0, 0.0]), np.array([TIE_EPS, 0.5]), np.array([0.0, 0.5]), np.array([1, 2])))
def test_choose_positions_matches_the_selects(rows):
    assert_same(choose_positions(*rows), reference_choose_positions(*rows))


@st.composite
def exit_inputs(draw):
    threshold = draw(st.one_of(st.sampled_from([-math.inf, 0.0, 1.0]), st.floats(-2.0, 2.0)))
    patience = draw(st.integers(1, 3))
    best = st.one_of(st.sampled_from([-math.inf, math.inf, math.nan, 0.0, 1.0]), st.floats(-3.0, 3.0))
    if draw(st.booleans()):  # one agent, as check_exit passes it
        return draw(st.integers(0, 4)), draw(st.booleans()), draw(best), threshold, patience
    n = draw(st.integers(0, 12))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.int8]))
    streak = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=dtype)
    exited = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    best = np.array(draw(st.lists(best, min_size=n, max_size=n)), dtype=np.float64)
    return streak, exited, best, threshold, patience


@given(exit_inputs())
@example((np.array([2, 0]), np.array([False, True]), np.array([-1e9, 5.0]), -math.inf, 1))
def test_exit_update_matches_the_selects(inputs):
    new, old = exit_update(*inputs), reference_exit_update(*inputs)
    assert_same(new[0], old[0])
    assert_same(new[1], old[1])


@st.composite
def edge_inputs(draw):
    m = draw(st.integers(0, 12))
    n = draw(st.integers(1, 5))
    w = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 1e300)),
                               min_size=m, max_size=m)), dtype=np.float64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64)
    hidden = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    scores = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    spec = ReputationSpec(draw(st.sampled_from(ReputationVariant)), alpha=0.5)
    return spec, w, dst, hidden, scores


@given(edge_inputs())
def test_observed_weights_match_the_selects(inputs):
    spec, w, dst, hidden, scores = inputs
    old = reference_observed_weights(spec, w, dst, hidden, scores)
    assert_same(observed_weights(spec, w, dst, hidden, scores), old)
    base = edge_weights(spec, w, dst, scores)
    assert_same(observed_weights(spec, w, dst, hidden, base=base), old)


def test_a_network_stores_no_negative_zero_weight():
    """Hiding by multiplication matches the select only for weights without a sign bit."""
    net = SocialNetwork(2, [(0, 1, -0.0), (1, 0, 0.0)])
    assert net.w.tobytes() == np.zeros(2).tobytes()
    spec = ReputationSpec(ReputationVariant.WEIGHTED_FRACTION, alpha=0.5)
    hidden = np.array([True, False])
    assert_same(observed_weights(spec, net.w, net.dst, hidden),
                reference_observed_weights(spec, net.w, net.dst, hidden))


@given(st.one_of(
    st.tuples(st.sampled_from(list(Position)), st.sampled_from(list(PrivateType))),
    st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-128, 127), min_size=n, max_size=n).map(np.array),
        st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
    )),
))
def test_consistent_matches_the_int64_codes(inputs):
    y, x = inputs
    x_rebel = x is PrivateType.PRO_REBELLION if isinstance(x, PrivateType) else x
    assert_same(consistent(y, x), reference_consistent(y, x_rebel))


def test_falsification_penalty_rejects_a_negative_streak_in_any_shape():
    spec = IntegritySpec(nu_match=0.0, nu0=0.1, kappa=0.2, cap=0.5)
    assert_same(falsification_penalty(spec, np.array([0, 1, 9])), np.array([0.1, 0.30000000000000004, 0.5]))
    assert_same(falsification_penalty(spec, np.zeros(0, dtype=np.int64)), np.zeros(0))
    assert_same(falsification_penalty(spec, 2), np.float64(0.5))
    for bad in (np.array([0, -1, 3]), -1, np.array([[2], [-4]])):
        with pytest.raises(InvalidParameterError, match="d_falsify must be >= 0"):
            falsification_penalty(spec, bad)


# ---------------------------------------------------------------- the step tail

coarse = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def stepping(draw):
    """A small world whose stances may be stored in any integer dtype, stepped several times."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    net = SocialNetwork(n, [(i, j, draw(st.sampled_from([0.0, 1.0, 2.0]))) for i, j in chosen])
    column = st.lists(st.one_of(coarse, st.floats(0.0, 2.0)), min_size=n, max_size=n).map(np.array)
    params = ParamArrays(
        **{name: draw(column) for name in FACTOR_NAMES if name != "p_base"},
        p_base=draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n).map(np.array)),
        x_rebel=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
    )
    # kappa 0.2 saturates the penalty at its cap after two falsifying steps.
    integrity = IntegritySpec(nu_match=draw(coarse), nu0=0.1,
                              kappa=draw(st.sampled_from([0.0, 0.2])), cap=0.5)
    exit_rule = draw(st.one_of(st.none(), st.builds(
        ExitSpec, threshold=st.sampled_from([-math.inf, 0.0, 0.5, 2.0]), patience=st.integers(1, 3),
    )))
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int64, np.uint8]))
    state = SimState(
        t=0, env=Environment(beta_share=0.5), network=net, params=params,
        y=np.array(draw(st.lists(st.sampled_from(list(Position)), min_size=n, max_size=n))).astype(dtype),
        d_falsify=np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64),
        exited=np.array(draw(st.lists(st.sampled_from([False, False, True]), min_size=n, max_size=n))),
        low_payoff_streak=np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                                   dtype=np.int64),
    )
    scenario = SimpleNamespace(
        events=[], exit=exit_rule, integrity=integrity,
        reputation=ReputationSpec(draw(st.sampled_from(ReputationVariant)), alpha=draw(coarse)),
    )
    return state, scenario, draw(st.integers(1, 6))


@given(stepping())
def test_step_tail_matches_the_selects(world):
    state, scenario, steps = world
    for _ in range(steps):
        if state.exited.all():
            break  # nobody decides: the step keeps every array as it is
        new = step(state, scenario)
        expected = reference_tail(state, new._memo.chosen, new._memo.best, scenario.exit)
        for got, want in zip((new.y, new.d_falsify, new.exited, new.low_payoff_streak), expected):
            assert_same(got, want)
        state = new

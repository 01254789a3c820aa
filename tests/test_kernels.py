"""The step kernels in mask arithmetic against the per-element selects they replace.

``choose_positions``, ``exit_update``, ``observed_weights``, ``consistent``
and the tail of :func:`step` (new stances, falsification streaks, low-payoff
streaks and exits) are written as arithmetic on masks, which does not branch
per element.  The ``np.where`` forms they replace are kept here as
references, and every result must match its reference bit for bit, with the
same dtype and the same number of dimensions: on 0-d scalars, on previous
codes outside 0..2, on stances that are not int8, on exits with a ``-inf``
threshold and on integrity penalties that saturate.  The totals the keyed pass takes
from its keys are checked against ``observer_totals`` in the same way.
"""

import math
from contextlib import contextmanager
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
from dissentsim import engine
from dissentsim.engine import (
    FACTOR_NAMES,
    Environment,
    ParamArrays,
    _steady_streak,
    exit_update,
    falsification_penalty,
)
from dissentsim.model import (
    TIE_EPS,
    SoftTerms,
    nojoin_kernel,
    payoff_nojoin,
    payoff_rebel,
    payoff_statusquo,
    rebel_kernel,
    statusquo_kernel,
)
from dissentsim.network import keyed_counts, observed_weights, observer_totals

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


def reference_payoffs(v):
    """The rebel, status quo and abstain payoffs, in the order of operations of the formulas
    the engine evaluated before it called the kernels."""
    F, S, A_U, A_R, c, C, p, rep, integ = (v[k] for k in ("F", "S", "A_U", "A_R", "c", "C", "p",
                                                           "rep", "integ"))
    return (p * F - (1.0 - p) * A_U + rep + integ + v["V_R"],
            S * (1.0 - p) - A_R * p - C + rep + integ + v["V_U"],
            S * (1.0 - p) - c + rep + integ + v["V_NJ"])


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


@st.composite
def keyed_inputs(draw):
    """Edges of up to 6 observers in any order, some observers with none, with zero weights
    among them, weights whose sums depend on their order and weights large enough that a
    total overflows."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 16))
    row = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64)
    weights = st.one_of(st.sampled_from([0.0, 2.0**-53, 0.5, 1.0]), st.floats(0.0, 1e308))
    weight = np.array(draw(st.lists(weights, min_size=m, max_size=m)), dtype=np.float64)
    stance = np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)), dtype=np.int8)
    return row, weight, stance, n


@given(keyed_inputs())
@example((np.array([0, 2, 2]), np.array([0.0, 0.5, 0.0]), np.array([1, 0, 2], np.int8), 4))
@example((np.array([1, 1]), np.array([1e308, 1e308]), np.array([0, 0], np.int8), 2))
@example((np.zeros(3, np.int64), np.array([1.0, 2.0**-53, 2.0**-53]), np.array([0, 1, 1], np.int8),
          1))  # the total is 1.0; the stance sums add up to 1 + 2**-52
def test_keyed_counts_totals_are_the_observer_totals(inputs):
    """The totals a keyed pass takes from its keys are ``observer_totals`` over the observers'
    ids, bit for bit, and refused as they are when one is not finite; the per-stance sums
    are the keyed bincount's.  The ids are read-only, as a network's are."""
    row, weight, stance, n = inputs
    row.setflags(write=False)
    try:
        expected = observer_totals(row, weight, n)
    except InvalidParameterError:
        with pytest.raises(InvalidParameterError,
                           match="an observer's total observed weight must be finite"):
            keyed_counts(row, weight, stance, n)
        return
    num, denom = keyed_counts(row, weight, stance, n)
    assert_same(denom, expected)
    assert_same(num, np.bincount(3 * row + stance, weights=weight, minlength=3 * n).reshape(n, 3))


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


def test_exit_update_shows_a_patience_past_the_digit_limit_by_its_size():
    with pytest.raises(InvalidParameterError, match=r"^exit patience must be >= 1, got ~-1e\+5000$"):
        exit_update(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool), np.zeros(1), 0.0, -10**5000)


INT64_MAX = int(np.iinfo(np.int64).max)


@st.composite
def integrity_specs(draw):
    """Caps and slopes that saturate early, late, at the int64 maximum or never: kappa 0,
    nu0 at the cap, subnormal slopes, and (cap - nu0) / kappa far past the int64 range."""
    cap = draw(st.one_of(st.sampled_from([0.6, 1.0, 1e-300, 1e300]), st.floats(1e-6, 1e6)))
    nu0 = draw(st.one_of(st.just(cap), st.just(0.0), st.floats(0.0, cap)))
    kappa = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 1e-13, 0.02]),
                           st.floats(0.0, 10.0)))
    return IntegritySpec(nu_match=0.0, nu0=nu0, kappa=kappa, cap=cap)


@given(integrity_specs(), st.lists(st.integers(0, INT64_MAX), max_size=4))
@example(IntegritySpec(nu_match=0.0, nu0=0.4, kappa=0.0, cap=0.6), [])
@example(IntegritySpec(nu_match=0.0, nu0=0.6, kappa=0.02, cap=0.6), [])
@example(IntegritySpec(nu_match=0.0, nu0=0.4, kappa=0.02, cap=0.6), [])  # 0.4 + 0.02 * 10 rounds
@example(IntegritySpec(nu_match=0.0, nu0=0.0, kappa=5e-324, cap=1.0), [2**53, 2**53 + 1])
@example(IntegritySpec(nu_match=0.0, nu0=0.5, kappa=1e-300, cap=1e300), [])  # never moves
@example(IntegritySpec(nu_match=0.0, nu0=1.0 - 2**-53, kappa=1e-30, cap=1.0), [])  # one ulp
def test_the_steady_streak_bounds_where_the_penalty_changes(spec, more):
    """The penalty is the same for every streak from the steady one on and differs below it;
    it is at the cap exactly from there on whenever any int64 streak reaches the cap; and
    streaks equal once clipped there have bit-equal penalties."""
    steady = _steady_streak(spec)
    assert 0 <= steady <= INT64_MAX
    if spec.kappa == 0.0:
        assert steady == 0
    probes = {0, 1, 2, steady, INT64_MAX, *more}
    probes |= {d for d in (steady - 1, steady + 1) if 0 <= d <= INT64_MAX}
    streaks = np.array(sorted(probes), dtype=np.int64)
    penalty = falsification_penalty(spec, streaks)
    last = penalty[-1]
    assert ((penalty == last) == (streaks >= steady)).all()
    if last == spec.cap:
        assert ((penalty == spec.cap) == (streaks >= steady)).all()
    keys = np.minimum(streaks, steady)
    for key in np.unique(keys):
        same = penalty[keys == key]
        assert len({x.tobytes() for x in same}) == 1


# ---------------------------------------------------------------- payoff kernels

factor = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(-1e6, 1e6))
probability = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


@st.composite
def payoff_inputs(draw):
    """The payoffs' factors, p and soft terms: 0-d scalars or arrays of one length."""
    names = ("F", "S", "A_U", "A_R", "c", "C", "V_R", "V_U", "V_NJ", "rep", "integ")
    if draw(st.booleans()):
        return {**{name: draw(factor) for name in names}, "p": draw(probability)}
    n = draw(st.integers(0, 10))
    column = st.lists(factor, min_size=n, max_size=n).map(np.array)
    return {**{name: draw(column) for name in names},
            "p": draw(st.lists(probability, min_size=n, max_size=n).map(np.array))}


TIED = dict(F=1.0, S=1.0, A_U=0.0, A_R=0.0, c=0.0, C=0.0, V_R=0.0, V_U=0.0, V_NJ=0.0, rep=0.0,
            integ=0.0)  # at p = 0.5 every stance pays 0.5


# Decimal fractions round differently under any other order or grouping of the operations.
ROUNDING = dict(F=0.7, S=0.3, A_U=1.0, A_R=0.5, c=0.9, C=0.8, V_R=0.4, V_U=0.8, V_NJ=0.4, rep=0.3,
                integ=0.1, p=0.3)


@given(payoff_inputs())
@example(ROUNDING)
@example({**TIED, "p": 0.5})
@example({**{k: np.array([v, -0.0]) for k, v in TIED.items()}, "p": np.array([0.5, 1.0])})
@example({**{k: -0.0 for k in TIED}, "p": 0.0})
def test_the_engine_payoff_kernels_are_the_public_payoffs(v):
    """Bit for bit, and both equal the reference formulas, so the engine, which calls the
    kernels unchecked, decides as the public payoffs would."""
    soft = SoftTerms(v["rep"], v["integ"])
    terms = (v["p"], v["rep"], v["integ"])
    rebel, statusquo, nojoin = reference_payoffs(v)
    assert_same(rebel_kernel(v["F"], v["A_U"], *terms, v["V_R"]), rebel)
    assert_same(payoff_rebel(v["F"], v["A_U"], v["p"], soft, v["V_R"]), rebel)
    assert_same(statusquo_kernel(v["S"], v["A_R"], v["C"], *terms, v["V_U"]), statusquo)
    assert_same(payoff_statusquo(v["S"], v["A_R"], v["C"], v["p"], soft, v["V_U"]), statusquo)
    assert_same(nojoin_kernel(v["S"], v["c"], *terms, v["V_NJ"]), nojoin)
    assert_same(payoff_nojoin(v["S"], v["c"], v["p"], soft, v["V_NJ"]), nojoin)


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


@contextmanager
def choices_seen():
    """Yields a dict that holds the stances and the best payoffs of the latest
    ``engine.choose_positions`` call."""
    seen, real = {}, engine.choose_positions

    def spy(e_nj, e_u, e_r, previous):
        seen["chosen"] = real(e_nj, e_u, e_r, previous)
        seen["best"] = np.maximum(np.maximum(e_nj, e_u), e_r)
        return seen["chosen"]

    engine.choose_positions = spy
    try:
        yield seen
    finally:
        engine.choose_positions = real


@given(stepping())
def test_step_tail_matches_the_selects(world):
    """Also once every agent has exited.  A step that reuses its predecessor's decision
    reads the same inputs, so the latest choice made is the one it repeats."""
    state, scenario, steps = world
    with choices_seen() as seen:
        for _ in range(steps):
            new = step(state, scenario)
            expected = reference_tail(state, seen["chosen"], seen["best"], scenario.exit)
            for got, want in zip((new.y, new.d_falsify, new.exited, new.low_payoff_streak),
                                 expected):
                assert_same(got, want)
            state = new

"""Decision-model tests: payoff arithmetic, tie rule, closed-form thresholds.

Expected values were computed by hand (exact arithmetic) before implementation
and are frozen as literals.
"""

import math
import warnings

import numpy as np
import pytest

from dissentsim import (
    TIE_EPS,
    AgentParams,
    InvalidParameterError,
    Position,
    PrivateType,
    SoftTerms,
    choose_positions,
    decide,
    payoff_nojoin,
    payoff_rebel,
    payoff_statusquo,
    threshold_nj_over_u,
    threshold_r_over_nj,
)

Z = SoftTerms(0.0, 0.0)


def params(**kw) -> AgentParams:
    base = dict(
        F=0.0, S=0.0, A_U=0.0, A_R=0.0, c=0.0, C=0.0,
        V_R=0.0, V_U=0.0, V_NJ=0.0,
        x=PrivateType.PRO_REBELLION, p_base=0.5,
    )
    base.update(kw)
    return AgentParams(**base)


def zero_soft():
    return {Position.NJ: Z, Position.U: Z, Position.R: Z}


# ---------------------------------------------------------------- payoffs

def test_payoff_rebel_certain_success():
    assert payoff_rebel(10.0, 5.0, 1.0, Z, 0.0) == 10.0


def test_payoff_rebel_certain_failure():
    assert payoff_rebel(10.0, 5.0, 0.0, Z, 0.0) == -5.0


def test_payoff_rebel_mixed():
    # 6 - 2 + 2 - 1 + 0.5
    assert payoff_rebel(10.0, 5.0, 0.6, SoftTerms(2.0, -1.0), 0.5) == pytest.approx(5.5, abs=1e-12)


def test_payoff_statusquo_p_zero():
    assert payoff_statusquo(8.0, 6.0, 3.0, 0.0, Z, 0.0) == 5.0


def test_payoff_statusquo_p_one():
    assert payoff_statusquo(8.0, 6.0, 3.0, 1.0, Z, 0.0) == -9.0


def test_payoff_statusquo_mixed():
    # 4 - 3 - 3 + 1 + 2 - 1
    assert payoff_statusquo(8.0, 6.0, 3.0, 0.5, SoftTerms(1.0, 2.0), -1.0) == pytest.approx(0.0, abs=1e-12)


def test_payoff_nojoin_p_zero():
    assert payoff_nojoin(8.0, 1.0, 0.0, Z, 0.0) == 7.0


def test_payoff_nojoin_p_one():
    assert payoff_nojoin(8.0, 1.0, 1.0, Z, 0.0) == -1.0


def test_payoff_nojoin_mixed():
    # 6 - 1 + 0.5 - 2 + 1
    assert payoff_nojoin(8.0, 1.0, 0.25, SoftTerms(0.5, -2.0), 1.0) == pytest.approx(4.5, abs=1e-12)


def test_payoffs_accept_arrays():
    p = np.array([0.0, 0.5, 1.0])
    out = payoff_rebel(2.0, 1.0, p, Z, 0.0)
    assert np.allclose(out, [-1.0, 0.5, 2.0])


@pytest.mark.parametrize("bad_p", [-0.1, 1.1, float("nan"), float("inf")])
def test_payoffs_reject_bad_probability(bad_p):
    with pytest.raises(InvalidParameterError):
        payoff_rebel(1.0, 0.0, bad_p, Z, 0.0)
    with pytest.raises(InvalidParameterError):
        payoff_statusquo(1.0, 0.0, 0.0, bad_p, Z, 0.0)
    with pytest.raises(InvalidParameterError):
        payoff_nojoin(1.0, 0.0, bad_p, Z, 0.0)


def test_payoffs_reject_nonfinite_inputs():
    with pytest.raises(InvalidParameterError):
        payoff_rebel(float("inf"), 0.0, 0.5, Z, 0.0)
    with pytest.raises(InvalidParameterError):
        payoff_statusquo(1.0, float("nan"), 0.0, 0.5, Z, 0.0)
    with pytest.raises(InvalidParameterError):
        payoff_nojoin(1.0, 0.0, 0.5, Z, float("-inf"))
    with pytest.raises(InvalidParameterError):
        SoftTerms(float("nan"), 0.0)


# ---------------------------------------------------------------- decide / ties

def test_decide_prefers_rebel_on_sure_win():
    assert decide(params(F=1.0), 1.0, zero_soft()) is Position.R


def test_decide_three_way_tie_keeps_previous():
    agent = params()
    assert decide(agent, 0.0, zero_soft(), previous=Position.NJ) is Position.NJ
    assert decide(agent, 0.0, zero_soft(), previous=Position.U) is Position.U
    assert decide(agent, 0.0, zero_soft(), previous=Position.R) is Position.R


def test_decide_strict_ordering_ignores_previous():
    # E(NJ)=1 > E(U)=0.5 > E(R)=0
    agent = params(F=0.0, S=1.0, C=0.5)
    assert decide(agent, 0.0, zero_soft(), previous=Position.U) is Position.NJ


def test_decide_tie_order_when_previous_not_tied():
    # E(U) == E(R) = 1 strictly above E(NJ) = 0; previous NJ is not tied,
    # so the earliest tied stance in (NJ, U, R) order wins: U.
    soft = {
        Position.NJ: Z,
        Position.U: SoftTerms(1.0, 0.0),
        Position.R: SoftTerms(1.0, 0.0),
    }
    assert decide(params(), 0.0, soft, previous=Position.NJ) is Position.U


def test_decide_tie_epsilon_boundary():
    # A gap of exactly TIE_EPS still counts as tied: previous position sticks.
    soft = {
        Position.NJ: Z,
        Position.U: SoftTerms(TIE_EPS, 0.0),
        Position.R: Z,
    }
    assert decide(params(), 0.0, soft, previous=Position.NJ) is Position.NJ
    # A gap of 10x TIE_EPS is a strict win for U.
    soft_big = {
        Position.NJ: Z,
        Position.U: SoftTerms(10 * TIE_EPS, 0.0),
        Position.R: Z,
    }
    assert decide(params(), 0.0, soft_big, previous=Position.NJ) is Position.U


def test_choose_positions_matches_decide_on_batches():
    rng = np.random.default_rng(20240531)
    for _ in range(200):
        e = rng.uniform(-5, 5, size=3)
        prev = Position(int(rng.integers(3)))
        soft = {
            Position.NJ: SoftTerms(float(e[0]), 0.0),
            Position.U: SoftTerms(float(e[1]), 0.0),
            Position.R: SoftTerms(float(e[2]), 0.0),
        }
        scalar = decide(params(), 0.0, soft, previous=prev)
        vec = choose_positions(
            np.asarray([e[0]]), np.asarray([e[1]]), np.asarray([e[2]]),
            np.asarray([int(prev)], dtype=np.int8),
        )[0]
        assert Position(int(vec)) is scalar


# ---------------------------------------------------------------- thresholds

def test_threshold_nj_over_u_negative():
    # (1 - 3) / 4 = -0.5: abstaining dominates supporting for every p.
    agent = params(c=1.0, C=3.0, A_R=4.0)
    assert threshold_nj_over_u(agent, Z, Z) == pytest.approx(-0.5, abs=1e-12)


def test_threshold_nj_over_u_integrity_holds_supporter():
    # (0 - 0 - 0 + 0 - (-1) + 2) / 6 = 0.5
    agent = params(c=0.0, C=0.0, A_R=6.0, x=PrivateType.PRO_STATUS_QUO)
    thr = threshold_nj_over_u(agent, SoftTerms(0.0, -1.0), SoftTerms(0.0, 2.0))
    assert thr == pytest.approx(0.5, abs=1e-12)


def test_threshold_nj_over_u_degenerate_denominator():
    assert threshold_nj_over_u(params(A_R=0.0, c=1.0, C=0.0), Z, Z) == math.inf
    assert threshold_nj_over_u(params(A_R=0.0, c=0.0, C=1.0), Z, Z) == -math.inf
    # numerator exactly zero: abstaining weakly dominates at every p
    assert threshold_nj_over_u(params(A_R=0.0), Z, Z) == -math.inf


def test_threshold_r_over_nj_zero_with_only_F():
    assert threshold_r_over_nj(params(F=1.0), Z, Z) == 0.0


def test_threshold_r_over_nj_example_and_crossing():
    # (4 - 0 + 2) / (4 + 4 + 2) = 0.6; both payoffs equal 1.6 at the threshold.
    agent = params(S=4.0, c=0.0, A_U=2.0, F=4.0)
    thr = threshold_r_over_nj(agent, Z, Z)
    assert thr == pytest.approx(0.6, abs=1e-12)
    e_r = payoff_rebel(agent.F, agent.A_U, 0.6, Z, agent.V_R)
    e_nj = payoff_nojoin(agent.S, agent.c, 0.6, Z, agent.V_NJ)
    assert e_r == pytest.approx(1.6, abs=1e-12)
    assert e_nj == pytest.approx(1.6, abs=1e-12)


def test_threshold_r_over_nj_zero_numerator():
    assert threshold_r_over_nj(params(S=1.0, c=1.0, A_U=0.0, F=1.0), Z, Z) == 0.0


def test_threshold_r_over_nj_degenerate_denominator():
    # F = S = A_U = 0 collapses the denominator.
    assert threshold_r_over_nj(params(c=1.0), Z, Z) == -math.inf  # numerator -1
    assert threshold_r_over_nj(params(), SoftTerms(0.0, 0.0), SoftTerms(0.0, 1.0)) == math.inf
    assert threshold_r_over_nj(params(), Z, Z) == -math.inf  # numerator 0


def _random_agent(rng):
    f, s, a_u, a_r, v1, v2 = rng.uniform(0, 10, size=6)
    lo, hi = np.sort(rng.uniform(0, 10, size=2))
    return params(
        F=f, S=s, A_U=a_u, A_R=a_r, c=float(lo), C=float(hi),
        V_R=float(rng.uniform(-3, 3)), V_U=float(rng.uniform(-3, 3)),
        V_NJ=float(rng.uniform(-3, 3)),
    )


def _random_soft(rng):
    return SoftTerms(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))


def test_threshold_argmax_equivalence_sampled():
    """For p strictly past a finite threshold, the pairwise comparison agrees."""
    rng = np.random.default_rng(612)
    eps = 1e-6
    checked = 0
    for _ in range(2000):
        agent = _random_agent(rng)
        soft_nj, soft_u, soft_r = _random_soft(rng), _random_soft(rng), _random_soft(rng)

        thr = threshold_nj_over_u(agent, soft_nj, soft_u)
        if math.isfinite(thr):
            for p, nj_should_win in ((thr + eps, True), (thr - eps, False)):
                if 0.0 <= p <= 1.0:
                    e_nj = payoff_nojoin(agent.S, agent.c, p, soft_nj, agent.V_NJ)
                    e_u = payoff_statusquo(agent.S, agent.A_R, agent.C, p, soft_u, agent.V_U)
                    assert (e_nj > e_u) == nj_should_win
                    checked += 1

        thr = threshold_r_over_nj(agent, soft_r, soft_nj)
        if math.isfinite(thr):
            for p, r_should_win in ((thr + eps, True), (thr - eps, False)):
                if 0.0 <= p <= 1.0:
                    e_r = payoff_rebel(agent.F, agent.A_U, p, soft_r, agent.V_R)
                    e_nj = payoff_nojoin(agent.S, agent.c, p, soft_nj, agent.V_NJ)
                    assert (e_r > e_nj) == r_should_win
                    checked += 1
    assert checked > 1000  # the sample must actually exercise the property


def test_crossing_identity_sampled():
    rng = np.random.default_rng(613)
    for _ in range(2000):
        agent = _random_agent(rng)
        soft_nj, soft_u, soft_r = _random_soft(rng), _random_soft(rng), _random_soft(rng)
        thr = threshold_nj_over_u(agent, soft_nj, soft_u)
        if math.isfinite(thr) and 0.0 <= thr <= 1.0:
            e_nj = payoff_nojoin(agent.S, agent.c, thr, soft_nj, agent.V_NJ)
            e_u = payoff_statusquo(agent.S, agent.A_R, agent.C, thr, soft_u, agent.V_U)
            assert abs(e_nj - e_u) <= 1e-9 * max(1.0, abs(e_nj))
        thr = threshold_r_over_nj(agent, soft_r, soft_nj)
        if math.isfinite(thr) and 0.0 <= thr <= 1.0:
            e_r = payoff_rebel(agent.F, agent.A_U, thr, soft_r, agent.V_R)
            e_nj = payoff_nojoin(agent.S, agent.c, thr, soft_nj, agent.V_NJ)
            assert abs(e_r - e_nj) <= 1e-9 * max(1.0, abs(e_r))


def test_nojoin_dominates_statusquo_under_zero_soft():
    rng = np.random.default_rng(614)
    for _ in range(500):
        agent = _random_agent(rng)
        agent = params(
            F=agent.F, S=agent.S, A_U=agent.A_U, A_R=agent.A_R, c=agent.c, C=agent.C,
        )
        for p in np.linspace(0.0, 1.0, 11):
            e_nj = payoff_nojoin(agent.S, agent.c, p, Z, 0.0)
            e_u = payoff_statusquo(agent.S, agent.A_R, agent.C, p, Z, 0.0)
            assert e_nj >= e_u
            if agent.C > agent.c or agent.A_R * p > 0:
                assert e_nj > e_u
            assert decide(agent, float(p), zero_soft()) is not Position.U


def test_payoff_monotonicities():
    rng = np.random.default_rng(615)
    for _ in range(300):
        agent = _random_agent(rng)
        p1, p2 = np.sort(rng.uniform(0, 1, size=2))
        d = float(rng.uniform(0.01, 2.0))
        # rebel: non-decreasing in p and F, non-increasing in A_U
        assert payoff_rebel(agent.F, agent.A_U, p2, Z, 0.0) >= payoff_rebel(agent.F, agent.A_U, p1, Z, 0.0)
        assert payoff_rebel(agent.F + d, agent.A_U, p1, Z, 0.0) >= payoff_rebel(agent.F, agent.A_U, p1, Z, 0.0)
        assert payoff_rebel(agent.F, agent.A_U + d, p1, Z, 0.0) <= payoff_rebel(agent.F, agent.A_U, p1, Z, 0.0)
        # status quo: non-increasing in p, C, A_R
        assert payoff_statusquo(agent.S, agent.A_R, agent.C, p2, Z, 0.0) <= payoff_statusquo(agent.S, agent.A_R, agent.C, p1, Z, 0.0)
        assert payoff_statusquo(agent.S, agent.A_R, agent.C + d, p1, Z, 0.0) <= payoff_statusquo(agent.S, agent.A_R, agent.C, p1, Z, 0.0)
        assert payoff_statusquo(agent.S, agent.A_R + d, agent.C, p1, Z, 0.0) <= payoff_statusquo(agent.S, agent.A_R, agent.C, p1, Z, 0.0)
        # abstain: non-increasing in p and c
        assert payoff_nojoin(agent.S, agent.c, p2, Z, 0.0) <= payoff_nojoin(agent.S, agent.c, p1, Z, 0.0)
        assert payoff_nojoin(agent.S, agent.c + d, p1, Z, 0.0) <= payoff_nojoin(agent.S, agent.c, p1, Z, 0.0)


def test_threshold_r_over_nj_comparative_statics():
    """With zero soft/violence terms and c <= S, the rebellion threshold is
    non-increasing in F (the numerator is >= 0 in this regime, so growing the
    denominator can only lower the ratio), non-increasing in c (c appears
    negatively in the numerator only), and non-decreasing in S (the numerator
    and denominator grow together, and denominator - numerator = F + c >= 0).
    """
    rng = np.random.default_rng(616)
    for _ in range(300):
        f, s, a_u = rng.uniform(0.1, 10, size=3)
        c = float(rng.uniform(0, s))  # keeps the numerator S - c + A_U >= 0
        C = float(c + rng.uniform(0, 5))
        agent = params(F=float(f), S=float(s), A_U=float(a_u), c=c, C=C)
        d = float(rng.uniform(0.01, 2.0))
        base = threshold_r_over_nj(agent, Z, Z)
        more_f = threshold_r_over_nj(params(F=float(f + d), S=float(s), A_U=float(a_u), c=c, C=C), Z, Z)
        assert more_f <= base + 1e-12
        more_c = threshold_r_over_nj(params(F=float(f), S=float(s), A_U=float(a_u), c=min(c + d, s), C=C + d), Z, Z)
        assert more_c <= base + 1e-12
        more_s = threshold_r_over_nj(params(F=float(f), S=float(s + d), A_U=float(a_u), c=c, C=C), Z, Z)
        assert more_s >= base - 1e-12


# ---------------------------------------------------------------- params validation

def test_agent_params_validation():
    with pytest.raises(InvalidParameterError):
        params(F=-1.0).validate()
    with pytest.raises(InvalidParameterError):
        params(p_base=1.5).validate()
    with pytest.raises(InvalidParameterError):
        params(c=2.0, C=1.0).validate()
    with pytest.raises(InvalidParameterError):
        params(S=float("nan")).validate()
    with pytest.raises(InvalidParameterError, match="x must be a PrivateType, got 'pro_rebellion'"):
        params(x="pro_rebellion", C=1.0).validate()
    params(c=1.0, C=2.0).validate()  # fine


def test_agent_params_warns_on_equal_costs():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params(c=1.0, C=1.0).validate()
    assert any("C" in str(w.message) for w in caught)

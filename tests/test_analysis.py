"""Cascade analysis, first movers, threshold inversion, and SVG rendering tests."""

import math
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dissentsim import (
    AgentParams,
    Environment,
    IntegritySpec,
    InvalidParameterError,
    Position,
    PrivateType,
    RenderOptions,
    StepRecord,
    cascade_equilibria,
    cascade_trajectory,
    falsification_series,
    first_movers,
    parse_scenario,
    perceived_probability,
    rebellion_thresholds_zero_support,
    render_svg,
    run,
    share_space_thresholds,
    zero_support_soft_terms,
)
from test_golden import SVG_OPTIONS, svg_cases


def params(**kw) -> AgentParams:
    base = dict(
        F=0.0, S=0.0, A_U=0.0, A_R=0.0, c=0.0, C=0.0,
        V_R=0.0, V_U=0.0, V_NJ=0.0,
        x=PrivateType.PRO_REBELLION, p_base=0.5,
    )
    base.update(kw)
    return AgentParams(**base)


IDENTITY = lambda s: s  # noqa: E731 - the canonical share->p map for lattice tests


# ---------------------------------------------------------------- cascade

def test_all_half_thresholds_two_equilibria_and_tipping_six():
    report = cascade_equilibria([0.5] * 10, IDENTITY)
    assert report.equilibria == (0.0, 1.0)
    assert report.tipping_seed == 6  # 0.6 is the first share strictly above every threshold


def test_everybody_already_over_threshold():
    report = cascade_equilibria([-math.inf] * 4, IDENTITY)
    assert report.equilibria == (1.0,)
    assert report.tipping_seed == 0


def test_strict_rule_freezes_the_domino_ladder():
    # With a strict comparison every lattice point of {0.0,...,0.9} is a fixed
    # point: exactly k thresholds lie strictly below k/10 for each k.
    thresholds = [k / 10 for k in range(10)]
    report = cascade_equilibria(thresholds, IDENTITY)
    assert report.equilibria == tuple(k / 10 for k in range(11))
    assert cascade_trajectory(thresholds, IDENTITY, 0.0) == [0.0]


@pytest.mark.xfail(
    strict=True,
    reason="the movers rule counts thresholds strictly below p, so the "
    "zero-threshold agent never self-starts; a weak inequality would walk "
    "the ladder 0.0 -> 0.1 -> ... -> 1.0 in ten steps",
)
def test_domino_ladder_cascades_from_zero():
    trajectory = cascade_trajectory([k / 10 for k in range(10)], IDENTITY, 0.0)
    assert trajectory[-1] == 1.0
    assert len(trajectory) == 11


def test_removing_the_sparkplug_kills_the_cascade():
    # Drop the 0.0 threshold from the ladder: nothing moves from zero support.
    trajectory = cascade_trajectory([k / 10 for k in range(1, 10)], IDENTITY, 0.0)
    assert trajectory == [0.0]
    report = cascade_equilibria([k / 10 for k in range(1, 10)], IDENTITY)
    assert 0.0 in report.equilibria


def test_trajectory_starts_at_s0_and_ends_fixed():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        thresholds = rng.uniform(-0.2, 1.2, size=n).tolist()
        a, b = sorted(rng.uniform(0.0, 1.0, size=2))
        p_map = lambda s, a=a, b=b: a + (b - a) * s  # monotone affine map
        s0 = float(rng.integers(0, n + 1)) / n
        traj = cascade_trajectory(thresholds, p_map, s0)
        assert traj[0] == s0
        sorted_thr = np.sort(thresholds)
        last = traj[-1]
        assert int(np.searchsorted(sorted_thr, p_map(last), side="left")) == round(last * n)


def test_equilibria_are_fixed_points_and_tipping_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 16))
        thresholds = rng.uniform(0.0, 1.0, size=n).tolist()
        beta = float(rng.uniform(0.0, 1.0))
        base = float(rng.uniform(0.0, 1.0))
        p_map = lambda s, b=beta, p0=base: min(1.0, p0 + b * s)
        report = cascade_equilibria(thresholds, p_map)
        sorted_thr = np.sort(thresholds)
        for e in report.equilibria:
            assert int(np.searchsorted(sorted_thr, p_map(e), side="left")) == round(e * n)
        assert report.equilibria  # a monotone map on the lattice always has one
        largest = report.equilibria[-1]
        brute = min(
            k for k in range(n + 1)
            if cascade_trajectory(thresholds, p_map, k / n)[-1] == largest
        )
        assert report.tipping_seed == brute


def reference_report(thresholds, p_of_share):
    """The cascade report as first written: one ``searchsorted`` per lattice share, and a
    tipping search whose every trajectory re-lists, re-checks and re-sorts the thresholds."""
    def clean(values):
        arr = np.asarray(list(values), dtype=np.float64)
        assert arr.size and not np.isnan(arr).any()
        return np.sort(arr)

    def movers(sorted_thr, p):
        return int(np.searchsorted(sorted_thr, p, side="left"))

    def last_share(values, s):
        sorted_thr = clean(values)
        for _ in range(len(sorted_thr) + 3):
            s_next = movers(sorted_thr, p_of_share(s)) / len(sorted_thr)
            if s_next == s:
                return s
            s = s_next
        raise AssertionError("a monotone map reaches a fixed point")

    sorted_thr = clean(thresholds)
    n = len(sorted_thr)
    equilibria = tuple(k / n for k in range(n + 1) if movers(sorted_thr, p_of_share(k / n)) == k)
    if not equilibria:
        return tuple(sorted_thr), (), None
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if last_share(sorted_thr, mid / n) == equilibria[-1]:
            hi = mid
        else:
            lo = mid + 1
    return tuple(sorted_thr), equilibria, lo


threshold = st.one_of(st.sampled_from([-math.inf, math.inf, 0.0, 0.25, 0.5, 1.0]),
                      st.floats(-0.5, 1.5))


@st.composite
def monotone_maps(draw):
    """A non-decreasing share->p map: clamped or unclamped affine, a step, or a power."""
    a, b = draw(st.floats(-0.5, 1.0)), draw(st.floats(0.0, 3.0))
    return draw(st.sampled_from([
        lambda s: min(1.0, a + b * s),
        lambda s: a + b * s,
        lambda s: 1.0 if s >= a else 0.0,
        lambda s: s ** (1.0 + b),
    ]))


@given(st.lists(threshold, min_size=1, max_size=40), monotone_maps())
@example([0.5], IDENTITY)
@example([math.inf], lambda s: 0.5)
@example([-math.inf, -math.inf, 0.5, 0.5], lambda s: 0.5 + s / 2)
def test_lattice_scan_in_one_pass_matches_the_scalar_scan(thresholds, p_of_share):
    """Same report, from one call of ``p_of_share`` per lattice share, in ascending order."""
    calls = []
    report = cascade_equilibria(thresholds, lambda s: calls.append(s) or p_of_share(s))
    assert (report.sorted_thresholds, report.equilibria, report.tipping_seed) == (
        reference_report(thresholds, p_of_share))
    n = len(thresholds)
    assert calls == [k / n for k in range(n + 1)]


def test_the_riot_ladder_tips_from_no_leader_in_one_scan():
    """Granovetter's riot ladder: each share moves one more agent, so the one fixed point is
    everybody and no leader is needed.  A trajectory from any share would walk the ladder;
    the report calls ``p_of_share`` once per lattice share and no more."""
    n = 10**5
    calls = []
    report = cascade_equilibria([(k - 1) / n for k in range(n)],
                                lambda s: calls.append(s) or s)
    assert report.equilibria == (1.0,) and report.tipping_seed == 0
    assert len(calls) == n + 1


def test_cascade_input_validation():
    with pytest.raises(InvalidParameterError):
        cascade_trajectory([], IDENTITY)
    with pytest.raises(InvalidParameterError):
        cascade_trajectory([0.5, float("nan")], IDENTITY)
    with pytest.raises(InvalidParameterError):
        cascade_trajectory([0.5], IDENTITY, s0=1.5)
    with pytest.raises(InvalidParameterError, match="monotone"):
        cascade_trajectory([0.25, 0.75], lambda s: 1.0 - s, 0.0)  # 2-cycle, no fixed point


def test_a_map_with_no_fixed_point_has_no_equilibrium_and_no_tipping_seed():
    report = cascade_equilibria([0.5], lambda s: 1.0 - s)  # 0 -> 1 -> 0
    assert report.equilibria == () and report.tipping_seed is None


# ---------------------------------------------------------------- first movers

FIRST_MOVER_INTEGRITY = IntegritySpec(nu_match=1.0, nu0=0.0, kappa=0.0, cap=1.0)


def test_first_mover_example_included():
    # E(rebel) = 0.1*2 - 0.9*5 + match-bonus 1 + 5 = 1.7 beats both
    # alternatives at 0.9, so this agent moves alone.
    agent = params(F=2.0, S=1.0, A_U=5.0, V_R=5.0, p_base=0.1)
    assert first_movers([agent], Environment(), FIRST_MOVER_INTEGRITY) == [0]


def test_first_mover_example_excluded_without_private_payoff():
    agent = params(F=2.0, S=1.0, A_U=5.0, V_R=0.0, p_base=0.1)  # E(rebel) = -3.3
    assert first_movers([agent], Environment(), FIRST_MOVER_INTEGRITY) == []


def test_first_movers_empty_population():
    assert first_movers([], Environment(), FIRST_MOVER_INTEGRITY) == []


def test_first_movers_indices_in_order():
    mover = params(F=2.0, S=1.0, A_U=5.0, V_R=5.0, p_base=0.1)
    stayer = params(F=2.0, S=1.0, A_U=5.0, V_R=0.0, p_base=0.1)
    agents = [stayer, mover, stayer, mover]
    assert first_movers(agents, Environment(), FIRST_MOVER_INTEGRITY) == [1, 3]


def test_first_movers_see_step_zero_environment():
    agent = params(F=2.0, S=1.0, A_U=5.0, V_R=0.0, p_base=0.1)
    # Zeroing out the expected punishment at t=0 flips the decision:
    # E(rebel) becomes 0.2 + 1.0 = 1.2 against 0.9 for staying quiet.
    assert first_movers([agent], Environment(dA_U=-5.0), FIRST_MOVER_INTEGRITY) == [0]


def test_first_movers_match_zero_support_thresholds():
    """For populations where abstaining weakly dominates supporting, the
    decision at zero support reduces to the closed-form rebellion threshold."""
    rng = np.random.default_rng(6)
    integrity = IntegritySpec(nu_match=0.4, nu0=0.2, kappa=0.1, cap=0.5)
    env = Environment(dp=0.05)
    agents = []
    for _ in range(400):
        f, s, a_u = rng.uniform(0, 3, size=3)
        c = float(rng.uniform(0, 0.5))
        agents.append(params(
            F=float(f), S=float(s), A_U=float(a_u),
            c=c, C=c + float(rng.uniform(0, 1.0)),      # C >= c
            V_R=float(rng.uniform(0, 1)),
            V_NJ=float(rng.uniform(0, 0.3)), V_U=0.0,   # V_U <= V_NJ
            p_base=float(rng.uniform(0, 0.9)),
        ))
    thresholds = rebellion_thresholds_zero_support(agents, env, integrity)
    movers = set(first_movers(agents, env, integrity))
    checked = 0
    for i, (agent, thr) in enumerate(zip(agents, thresholds)):
        p0 = perceived_probability(agent, 0.0, env)
        if abs(p0 - thr) < 1e-7:
            continue  # too close to the indifference point for float certainty
        checked += 1
        assert (i in movers) == (p0 > thr)
    assert checked > 350


def test_zero_support_soft_terms():
    integrity = IntegritySpec(nu_match=0.7, nu0=0.2, kappa=0.1, cap=0.5)
    terms = zero_support_soft_terms(integrity, PrivateType.PRO_REBELLION)
    assert all(t.rep == 0.0 for t in terms.values())
    assert terms[Position.R].integ == 0.7
    assert terms[Position.U].integ == terms[Position.NJ].integ == -0.2


def test_rebellion_threshold_zero_support_hand_value():
    agent = params(F=2.0, S=1.0, A_U=1.0, c=0.5)
    integrity = IntegritySpec(nu_match=1.0, nu0=0.3, kappa=0.0, cap=1.0)
    [thr] = rebellion_thresholds_zero_support([agent], Environment(), integrity)
    # (S - c + A_U + integ_NJ - integ_R) / (F + S + A_U) = (1.5 - 1.3) / 4
    assert thr == pytest.approx(0.05, abs=1e-12)


# ---------------------------------------------------------------- share space

def test_share_space_threshold_branches():
    integrity = IntegritySpec(nu_match=0.0, nu0=0.0, kappa=0.0, cap=1.0)
    env = Environment(beta_share=0.5, dp=0.1)
    already_over = params(F=10.0, S=0.1, A_U=0.0, p_base=0.8)
    unreachable = params(F=1.0, S=1.0, A_U=0.0, V_NJ=5.0, p_base=0.1)
    regular = params(F=1.0, S=1.0, A_U=0.0, p_base=0.1)
    out = share_space_thresholds([already_over, unreachable, regular], env, integrity)
    assert out[0] == -math.inf
    assert out[1] == math.inf
    assert out[2] == pytest.approx((0.5 - 0.2) / 0.5, abs=1e-12)  # = 0.6


def test_share_space_threshold_no_feedback():
    integrity = IntegritySpec(nu_match=0.0, nu0=0.0, kappa=0.0, cap=1.0)
    regular = params(F=1.0, S=1.0, A_U=0.0, p_base=0.1)
    [out] = share_space_thresholds([regular], Environment(beta_share=0.0), integrity)
    assert out == math.inf


# ---------------------------------------------------------------- engine cross-check

UNIFORM_CASCADE_DOC = """
{"name": "uniform-ladder", "horizon": 10, "beta_share": 1.0,
 "population": {"groups": [%s]},
 "network": {"kind": "complete"},
 "reputation": {"variant": "unweighted_fraction", "alpha": 0.0},
 "integrity": {"nu_match": 0.0, "nu0": 0.0, "kappa": 0.0, "cap": 1.0}}
""" % ",".join(
    '{"label": "rung%d", "count": 1, "private_type": "pro_rebellion",'
    ' "factors": {"S": {"dist": "constant", "value": %.1f},'
    ' "F": {"dist": "constant", "value": %.1f},'
    ' "C": {"dist": "constant", "value": 0.01},'
    ' "p_base": {"dist": "constant", "value": 0.05}}}' % (i, i / 10, 1 - i / 10)
    for i in range(10)
)


def test_engine_realizes_the_ladder_cascade():
    """Ten agents whose rebel-vs-abstain thresholds sit at 0.0, 0.1, ..., 0.9
    recruit one another through the share feedback, one per day."""
    scenario = parse_scenario(UNIFORM_CASCADE_DOC)
    records = run(scenario)
    assert [r.share_R for r in records] == pytest.approx([(k + 1) / 10 for k in range(10)])
    assert records[9].share_R == 1.0
    assert [r.n_falsifying for r in records] == [9 - k for k in range(10)]


def test_share_space_cascade_predicts_the_engine():
    scenario = parse_scenario(UNIFORM_CASCADE_DOC)
    from dissentsim import generate_population

    agents = generate_population(scenario.population, 0)
    env0 = Environment(beta_share=scenario.beta_share)
    share_thr = share_space_thresholds(agents, env0, scenario.integrity)
    assert share_thr[0] == -math.inf  # the zero-threshold agent needs no support
    trajectory = cascade_trajectory(share_thr, IDENTITY, 0.0)
    assert trajectory == pytest.approx([k / 10 for k in range(11)])
    records = run(scenario)
    assert [r.share_R for r in records] == pytest.approx(trajectory[1:])
    report = cascade_equilibria(share_thr, IDENTITY)
    assert report.equilibria == (1.0,)
    assert report.tipping_seed == 0
    assert first_movers(agents, env0, scenario.integrity) == [0]


def test_falsification_series():
    records = run(parse_scenario(UNIFORM_CASCADE_DOC))
    assert falsification_series(records) == [(k, 9 - k) for k in range(10)]
    assert falsification_series([]) == []


# ---------------------------------------------------------------- SVG

def _records():
    return run(parse_scenario(UNIFORM_CASCADE_DOC))


def test_svg_is_deterministic_and_self_contained():
    a = render_svg(_records())
    b = render_svg(_records())
    assert a == b
    assert a.startswith("<svg")
    assert a.endswith("</svg>\n")
    assert "http://www.w3.org/2000/svg" in a
    assert "href" not in a  # no external references


def test_svg_series_and_legend():
    svg = render_svg(_records())
    for label in ("rebel", "support", "abstain", "exited"):
        assert label in svg
    assert svg.count("<polyline") >= 4


def test_svg_single_record_uses_points():
    rec = StepRecord(
        t=0, share_R=0.5, share_U=0.25, share_NJ=0.25,
        n_exited=1, n_falsifying=0, mean_p=0.5, events=(),
    )
    svg = render_svg([rec])
    assert svg.count("<circle") == 4
    assert "<polyline" not in svg


def test_svg_event_markers():
    rec0 = StepRecord(
        t=0, share_R=0.0, share_U=1.0, share_NJ=0.0,
        n_exited=0, n_falsifying=0, mean_p=0.5, events=("crackdown", "rally"),
    )
    rec1 = StepRecord(
        t=1, share_R=1.0, share_U=0.0, share_NJ=0.0,
        n_exited=0, n_falsifying=0, mean_p=0.5, events=(),
    )
    svg = render_svg([rec0, rec1])
    assert "crackdown;rally" in svg
    assert "#b8860b" in svg  # the marker color


def test_svg_empty_records_rejected():
    with pytest.raises(InvalidParameterError):
        render_svg([])


def test_render_options_validation():
    with pytest.raises(InvalidParameterError):
        RenderOptions(width=50, height=480)
    with pytest.raises(InvalidParameterError):
        RenderOptions(width=800, height=99)
    for width, height in ((float("nan"), 480), (800, float("inf")), ("800", 480), (800, None)):
        with pytest.raises(InvalidParameterError, match="SVG canvas must be finite"):
            RenderOptions(width=width, height=height)
    for title in (5, b"x", ["a"]):
        with pytest.raises(InvalidParameterError, match="SVG title must be a string or None"):
            RenderOptions(title=title)


def test_svg_title_is_escaped():
    svg = render_svg(_records(), RenderOptions(title='a<b & "c"'))
    assert "a&lt;b &amp; &quot;c&quot;" in svg
    assert 'a<b & "c"' not in svg


def test_svg_is_well_formed_xml():
    """The pinned charts parse as SVG, and the title and event labels read back as given."""
    ns = "{http://www.w3.org/2000/svg}"
    for records in svg_cases().values():
        root = ElementTree.fromstring(render_svg(records, SVG_OPTIONS))
        assert root.tag == f"{ns}svg"
        texts = root.findall(f"{ns}text")
        assert texts[0].text == SVG_OPTIONS.title
        events = [text.text for text in texts if "transform" in text.attrib]
        assert events == [";".join(r.events) for r in records if r.events] != []

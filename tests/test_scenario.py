"""Scenario I/O tests: strict parsing, defaults, round-trip, CSV bytes, sampling."""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dissentsim import (
    Constant,
    GenerationError,
    Group,
    InvalidParameterError,
    NetworkKind,
    PopulationSpec,
    PrivateType,
    ReputationVariant,
    ScenarioParseError,
    ScenarioValidationError,
    StepRecord,
    TruncNormal,
    Uniform,
    donbass_baseline,
    generate_population,
    parse_scenario,
    run,
    serialize_scenario,
    write_csv,
)

MINIMAL_DOC = """
{"horizon": 3,
 "population": {"groups": [
    {"label": "only", "count": 2, "private_type": "pro_rebellion",
     "factors": {"C": {"dist": "constant", "value": 0.5}}}]},
 "network": {"kind": "complete"}}
"""


# ---------------------------------------------------------------- defaults

def test_minimal_doc_defaults():
    sc = parse_scenario(MINIMAL_DOC)
    assert sc.name == "unnamed"
    assert sc.seed == 0
    assert sc.beta_share == 0.0
    assert sc.update == "synchronous"
    assert sc.exit is None
    assert sc.events == ()
    assert sc.reputation.variant is ReputationVariant.UNWEIGHTED_FRACTION
    assert sc.reputation.alpha == 1.0
    assert sc.reputation.centered is True
    assert (sc.integrity.nu_match, sc.integrity.nu0, sc.integrity.kappa, sc.integrity.cap) == (
        0.0, 0.0, 0.0, 1.0,
    )
    assert sc.n_total == 2


def test_iterative_reputation_defaults():
    doc = MINIMAL_DOC.replace(
        '"network": {"kind": "complete"}}',
        '"network": {"kind": "complete"},'
        ' "reputation": {"variant": "iterative_influence", "alpha": 0.5}}',
    )
    sc = parse_scenario(doc)
    assert sc.reputation.damping == 0.85
    assert sc.reputation.tol == 1e-12
    assert sc.reputation.max_iters == 200


def test_fraction_variant_rejects_solver_keys():
    doc = MINIMAL_DOC.replace(
        '"network": {"kind": "complete"}}',
        '"network": {"kind": "complete"},'
        ' "reputation": {"variant": "unweighted_fraction", "alpha": 0.5, "damping": 0.9}}',
    )
    with pytest.raises(ScenarioValidationError, match="damping"):
        parse_scenario(doc)


# ---------------------------------------------------------------- violations

def _doc(**overrides) -> str:
    base = json.loads(MINIMAL_DOC)
    base.update(overrides)
    return json.dumps(base)


def test_malformed_json_reports_line_and_column():
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario('{"horizon": 3,\n  "oops": }')
    assert excinfo.value.line == 2
    assert excinfo.value.column == 11
    assert "line 2" in str(excinfo.value)


def test_validation_collects_multiple_violations():
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(_doc(horizon=-1, seed=-3, beta_share=-0.5))
    text = str(excinfo.value)
    assert "horizon" in text and "seed" in text and "beta_share" in text
    assert len(excinfo.value.violations) >= 3


@pytest.mark.parametrize(
    "mutation, needle",
    [
        ({"horizon": 2.5}, "horizon"),
        ({"horizon": True}, "horizon"),          # bools are not integers here
        ({"seed": 1.0}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"update": "asynchronous"}, "update"),
        ({"beta_share": float("nan")}, "beta_share"),
        ({"bogus_key": 1}, "bogus_key"),
    ],
)
def test_top_level_violations(mutation, needle):
    doc = json.loads(MINIMAL_DOC)
    doc.update(mutation)
    with pytest.raises(ScenarioValidationError, match=needle):
        parse_scenario(json.dumps(doc, allow_nan=True))


def test_unknown_keys_rejected_at_every_level():
    cases = [
        ("population", {"groups": [], "extra": 1}),
        ("network", {"kind": "complete", "p_edge": 0.5}),  # key from another kind
        ("reputation", {"variant": "unweighted_fraction", "alpha": 1.0, "extra": 1}),
        ("integrity", {"nu_match": 0.0, "extra": 1}),
        ("exit", {"threshold": 0.0, "patience": 1, "extra": 1}),
        ("events", [{"step": 0, "label": "x", "deltas": {}, "extra": 1}]),
    ]
    for key, value in cases:
        with pytest.raises(ScenarioValidationError, match="extra|p_edge"):
            parse_scenario(_doc(**{key: value}))


@pytest.mark.filterwarnings("ignore:.*C == c.*")
def test_group_level_violations():
    bad_groups = [
        ({"label": "", "count": 1, "private_type": "pro_rebellion", "factors": {}}, "label"),
        ({"label": "g", "count": -1, "private_type": "pro_rebellion", "factors": {}}, "count"),
        ({"label": "g", "count": 1, "private_type": "maybe", "factors": {}}, "private_type"),
        ({"label": "g", "count": 1, "private_type": "pro_rebellion",
          "factors": {"Z": {"dist": "constant", "value": 1}}}, "Z"),
        ({"label": "g", "count": 1, "private_type": "pro_rebellion",
          "factors": {"F": {"dist": "gauss", "value": 1}}}, "dist"),
        ({"label": "g", "count": 1, "private_type": "pro_rebellion",
          "factors": {"F": {"dist": "uniform", "lo": 2.0, "hi": 1.0}}}, "lo"),
        ({"label": "g", "count": 1, "private_type": "pro_rebellion",
          "factors": {"F": {"dist": "constant", "value": -1.0}}}, "F"),
        ({"label": "g", "count": 1, "private_type": "pro_rebellion",
          "factors": {"p_base": {"dist": "uniform", "lo": 0.5, "hi": 1.5}}}, "p_base"),
    ]
    for group, needle in bad_groups:
        with pytest.raises(ScenarioValidationError, match=needle):
            parse_scenario(_doc(population={"groups": [group]}))


def test_cost_supports_must_overlap():
    group = {
        "label": "impossible", "count": 1, "private_type": "pro_rebellion",
        "factors": {
            "c": {"dist": "constant", "value": 2.0},
            "C": {"dist": "uniform", "lo": 0.0, "hi": 1.0},
        },
    }
    with pytest.raises(ScenarioValidationError, match="C >= c violated"):
        parse_scenario(_doc(population={"groups": [group]}))


def test_empty_population_rejected():
    with pytest.raises(ScenarioValidationError, match="population"):
        parse_scenario(_doc(population={"groups": []}))


def test_event_ordering_and_horizon():
    events = [
        {"step": 2, "label": "b", "deltas": {}},
        {"step": 1, "label": "a", "deltas": {}},
    ]
    with pytest.raises(ScenarioValidationError, match="sorted"):
        parse_scenario(_doc(events=events))
    with pytest.raises(ScenarioValidationError, match="horizon"):
        parse_scenario(_doc(events=[{"step": 99, "label": "late", "deltas": {}}]))


def test_event_at_horizon_rejected():
    """Steps run 0..horizon-1, so an event at step == horizon would never fire."""
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(_doc(events=[{"step": 3, "label": "late", "deltas": {"dC": 1.0}}]))
    assert excinfo.value.violations == ["events[0].step: must be < horizon (3), got 3"]
    last = parse_scenario(_doc(events=[{"step": 2, "label": "last", "deltas": {"dC": 1.0}}]))
    assert [r.events for r in run(last)] == [(), (), ("last",)]


def test_small_world_k_must_fit_population():
    with pytest.raises(ScenarioValidationError, match="network.k"):
        parse_scenario(_doc(network={"kind": "small_world", "k": 2, "rewire_p": 0.0}))


def test_network_over_edge_budget_rejected():
    """Counted from the spec alone: 10^5 agents parse without building any network."""
    crowd = {"groups": [{"label": "crowd", "count": 100_000, "private_type": "pro_rebellion",
                         "factors": {"C": {"dist": "constant", "value": 0.5}}}]}
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(_doc(population=crowd))
    assert excinfo.value.violations == [
        "network: complete over 100000 agents has 1e+10 edges, more than the budget of 5e+07"
    ]
    parse_scenario(_doc(population=crowd, network={"kind": "erdos_renyi", "p_edge": 0.004}))
    with pytest.raises(ScenarioValidationError, match="^network: erdos_renyi"):
        parse_scenario(_doc(population=crowd, network={"kind": "erdos_renyi", "p_edge": 0.006}))
    parse_scenario(_doc(population=crowd, network={"kind": "small_world", "k": 500, "rewire_p": 0.1}))
    with pytest.raises(ScenarioValidationError, match="^network: small_world"):
        parse_scenario(_doc(population=crowd, network={"kind": "small_world", "k": 502, "rewire_p": 0.1}))


def test_network_kind_violations():
    with pytest.raises(ScenarioValidationError, match="kind"):
        parse_scenario(_doc(network={"kind": "lattice"}))
    with pytest.raises(ScenarioValidationError, match="p_edge"):
        parse_scenario(_doc(network={"kind": "erdos_renyi", "p_edge": 1.5}))
    with pytest.raises(ScenarioValidationError, match="p_edge"):
        parse_scenario(_doc(network={"kind": "erdos_renyi"}))


def test_exit_violations():
    with pytest.raises(ScenarioValidationError, match="patience"):
        parse_scenario(_doc(exit={"threshold": 0.0, "patience": 0}))
    with pytest.raises(ScenarioValidationError, match="threshold"):
        parse_scenario(_doc(exit={"threshold": float("inf"), "patience": 1}))


def test_delta_violations():
    with pytest.raises(ScenarioValidationError, match="dZ"):
        parse_scenario(_doc(events=[{"step": 0, "label": "x", "deltas": {"dZ": 1.0}}]))
    with pytest.raises(ScenarioValidationError, match="dC"):
        parse_scenario(_doc(events=[{"step": 0, "label": "x", "deltas": {"dC": True}}]))


# ---------------------------------------------------------------- round trip

def test_round_trip_minimal():
    sc = parse_scenario(MINIMAL_DOC)
    text = serialize_scenario(sc)
    again = parse_scenario(text)
    assert again == sc
    assert serialize_scenario(again) == text


def test_round_trip_baseline():
    sc = donbass_baseline()
    text = serialize_scenario(sc)
    assert parse_scenario(text) == sc


def test_serialize_solver_keys_only_for_iterative():
    fraction = json.loads(serialize_scenario(parse_scenario(MINIMAL_DOC)))
    assert "damping" not in fraction["reputation"]
    iterative_doc = MINIMAL_DOC.replace(
        '"network": {"kind": "complete"}}',
        '"network": {"kind": "complete"},'
        ' "reputation": {"variant": "iterative_influence", "alpha": 0.5}}',
    )
    iterative = json.loads(serialize_scenario(parse_scenario(iterative_doc)))
    assert iterative["reputation"]["damping"] == 0.85
    assert iterative["reputation"]["tol"] == 1e-12
    assert iterative["reputation"]["max_iters"] == 200


def test_trunc_normal_unbounded_hi_round_trips():
    doc = _doc(population={"groups": [
        {"label": "g", "count": 1, "private_type": "pro_rebellion",
         "factors": {
             "C": {"dist": "constant", "value": 0.5},
             "F": {"dist": "trunc_normal", "mean": 1.0, "sd": 0.5, "lo": 0.0, "hi": None},
         }},
    ]})
    sc = parse_scenario(doc)
    dist = sc.population.groups[0].factors["F"]
    assert isinstance(dist, TruncNormal) and math.isinf(dist.hi)
    assert parse_scenario(serialize_scenario(sc)) == sc


# ---------------------------------------------------------------- CSV bytes

def test_write_csv_empty():
    sink = io.BytesIO()
    write_csv([], sink)
    assert sink.getvalue() == b"t,share_R,share_U,share_NJ,n_exited,n_falsifying,mean_p,events\n"


def test_write_csv_single_row_exact():
    rec = StepRecord(
        t=0, share_R=0.0, share_U=0.0, share_NJ=1.0,
        n_exited=0, n_falsifying=0, mean_p=0.25, events=(),
    )
    sink = io.BytesIO()
    write_csv([rec], sink)
    assert sink.getvalue().splitlines()[1] == b"0,0.000000,0.000000,1.000000,0,0,0.250000,"


def test_write_csv_joins_event_labels():
    rec = StepRecord(
        t=3, share_R=1 / 3, share_U=1 / 3, share_NJ=1 / 3,
        n_exited=2, n_falsifying=5, mean_p=0.5, events=("a", "b"),
    )
    sink = io.BytesIO()
    write_csv([rec], sink)
    assert sink.getvalue().splitlines()[1] == b"3,0.333333,0.333333,0.333333,2,5,0.500000,a;b"


# ---------------------------------------------------------------- sampling

def test_generate_population_constant_exact():
    spec = PopulationSpec([
        Group("g", 3, PrivateType.PRO_REBELLION,
              {"F": Constant(2.5), "C": Constant(1.0), "c": Constant(0.25)}),
    ])
    for seed in (0, 1, 12345):
        pop = generate_population(spec, seed)
        assert [a.F for a in pop] == [2.5, 2.5, 2.5]
        assert [a.c for a in pop] == [0.25, 0.25, 0.25]
        assert all(a.S == 0.0 and a.V_R == 0.0 for a in pop)  # omitted -> 0


def test_generate_population_degenerate_uniform():
    spec = PopulationSpec([
        Group("g", 5, PrivateType.PRO_STATUS_QUO,
              {"S": Uniform(1.0, 1.0), "C": Constant(0.5)}),
    ])
    assert all(a.S == 1.0 for a in generate_population(spec, 9))


def test_generate_population_trunc_normal_respects_bounds():
    spec = PopulationSpec([
        Group("g", 10_000, PrivateType.PRO_REBELLION,
              {"F": TruncNormal(0.0, 1.0, 0.0, math.inf), "C": Constant(0.5)}),
    ])
    values = np.array([a.F for a in generate_population(spec, 3)])
    assert (values >= 0.0).all()
    assert values.std() > 0.1  # actually random, not clamped to a point


def test_generate_population_deterministic_and_ordered():
    spec = PopulationSpec([
        Group("first", 4, PrivateType.PRO_REBELLION,
              {"F": Uniform(0.0, 1.0), "C": Constant(0.5)}),
        Group("second", 3, PrivateType.PRO_STATUS_QUO,
              {"S": Uniform(0.0, 1.0), "C": Constant(0.5)}),
    ])
    a = generate_population(spec, 77)
    b = generate_population(spec, 77)
    assert a == b
    assert [x.x for x in a] == [PrivateType.PRO_REBELLION] * 4 + [PrivateType.PRO_STATUS_QUO] * 3
    c = generate_population(spec, 78)
    assert a != c


def test_generate_population_enforces_cost_order():
    spec = PopulationSpec([
        Group("g", 500, PrivateType.PRO_REBELLION,
              {"c": Uniform(0.0, 1.0), "C": Uniform(0.0, 1.0)}),
    ])
    pop = generate_population(spec, 4)
    assert all(a.C >= a.c for a in pop)


def test_generate_population_checks_the_drawn_columns():
    spec = PopulationSpec([
        Group("fine", 2, PrivateType.PRO_STATUS_QUO, {"C": Constant(0.5)}),
        Group("negative", 3, PrivateType.PRO_REBELLION, {"F": Constant(-1.0), "C": Constant(0.5)}),
    ])
    with pytest.raises(InvalidParameterError, match="F must be >= 0, got F=-1.0"):
        generate_population(spec, 0)


def test_generate_population_rejection_cap_names_group():
    # C's support is a single point at 0 while c is almost surely positive:
    # every redraw round keeps failing until the cap trips.
    spec = PopulationSpec([
        Group("doomed", 8, PrivateType.PRO_REBELLION,
              {"c": Uniform(0.0, 1.0), "C": Constant(0.0)}),
    ])
    with pytest.raises(GenerationError, match="doomed"):
        generate_population(spec, 0)


# ---------------------------------------------------------------- baseline

def test_baseline_shape():
    sc = donbass_baseline()
    assert sc.n_total == 10_000
    assert sc.horizon == 120
    assert sc.seed == 20140301
    assert sc.exit is None
    assert sc.network.kind is NetworkKind.SMALL_WORLD
    labels = [g.label for g in sc.population.groups]
    assert labels == ["rebel_core", "status_quo_activists", "ambivalent_majority"]
    assert [g.count for g in sc.population.groups] == [1000, 1500, 7500]
    assert sc.population.groups[0].x is PrivateType.PRO_REBELLION
    assert sc.population.groups[1].x is PrivateType.PRO_STATUS_QUO


def test_baseline_event_timeline():
    sc = donbass_baseline()
    days = [e.step for e in sc.events]
    assert days == [0, 3, 8, 12, 13, 15, 17, 18, 23, 24, 36] + list(range(45, 91, 5))
    by_day = {}
    for e in sc.events:
        by_day.setdefault(e.step, []).append(e)
    assert by_day[0][0].deltas["dC"] > 0          # violence raises support cost
    assert by_day[17][0].deltas["dA_U"] < 0       # protection pledge lowers it
    assert all(e.deltas.get("dp", 0) >= 0 for e in sc.events)
    assert by_day[24][0].deltas == {}             # pure marker event


def test_baseline_serializes_and_validates():
    sc = donbass_baseline()
    text = serialize_scenario(sc)
    assert parse_scenario(text) == sc  # passes the strict validator end to end


def test_shipped_baseline_file_matches_builtin():
    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "donbass.json"
    assert parse_scenario(shipped.read_text()) == donbass_baseline()

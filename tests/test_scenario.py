"""Scenario I/O tests: strict parsing, defaults, round-trip, CSV bytes, sampling."""

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dissentsim import (
    Constant,
    Environment,
    Event,
    ExitSpec,
    GenerationError,
    Group,
    IntegritySpec,
    InvalidParameterError,
    NetworkKind,
    PopulationSpec,
    PrivateType,
    ReputationSpec,
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
from dissentsim.network import AGENT_BUDGET
from dissentsim.scenario import HORIZON_BUDGET

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


def test_population_over_agent_budget_rejected():
    """Counted from the spec alone; neither size is sampled here."""
    def crowd(n):
        return _doc(population={"groups": [
            {"label": "crowd", "count": n, "private_type": "pro_rebellion",
             "factors": {"C": {"dist": "constant", "value": 0.5}}}]},
            network={"kind": "small_world", "k": 0, "rewire_p": 0.0})

    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(crowd(AGENT_BUDGET + 1))
    assert excinfo.value.violations == [
        "population: has 10000001 agents, more than the budget of 1e+07"
    ]
    assert parse_scenario(crowd(AGENT_BUDGET)).n_total == 10_000_000


def test_horizon_over_budget_rejected():
    """A run keeps one record per step: a horizon past the budget is refused before any step."""
    assert parse_scenario(_doc(horizon=HORIZON_BUDGET)).horizon == 1_000_000
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(_doc(horizon=HORIZON_BUDGET + 1))
    assert excinfo.value.violations == ["horizon: has 1000001 steps, more than the budget of 1e+06"]
    with pytest.raises(ScenarioValidationError, match="^horizon: has 10{300} steps"):
        parse_scenario(_doc(horizon=10**300))


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


# ---------------------------------------------------------------- violation corpus
#
# Every violation message, its field path and the order of the list are part
# of the validator's contract; each document below pins one exact list.

_NAN, _INF = float("nan"), float("inf")
_DROP = object()  # an override that removes the key


def _top(**overrides) -> dict:
    base = json.loads(MINIMAL_DOC)
    base.update(overrides)
    return {key: value for key, value in base.items() if value is not _DROP}


def _group(**overrides) -> dict:
    group = {"label": "g", "count": 1, "private_type": "pro_rebellion",
             "factors": {"C": {"dist": "constant", "value": 0.5}}}
    group.update(overrides)
    return _top(population={"groups": [
        {key: value for key, value in group.items() if value is not _DROP}]})


def _factor(name: str, dist) -> dict:
    return _group(factors={"C": {"dist": "constant", "value": 0.5}, name: dist})


def _crowd(n: int, network: dict) -> dict:
    return _top(network=network, population={"groups": [
        {"label": "crowd", "count": n, "private_type": "pro_rebellion",
         "factors": {"C": {"dist": "constant", "value": 0.5}}}]})


def _rep(**fields) -> dict:
    return _top(reputation=fields)


def _events(*events) -> dict:
    return _top(events=list(events))


VIOLATION_CORPUS = [
    ('top-array', [],
     ['document: expected a top-level object']),
    ('top-missing-and-unknown', _top(horizon=_DROP, name=3, bogus=1),
     [
         'bogus: unknown field',
         'name: expected a string',
         'horizon: required field is missing',
     ]),
    ('top-ranges', _top(horizon=-1, seed=-3, beta_share=-0.5),
     [
         'seed: must be a 64-bit unsigned integer, got -3',
         'horizon: must be >= 0, got -1',
         'beta_share: must be finite and >= 0, got -0.5',
     ]),
    ('top-seed-2^64-update', _top(seed=2**64, update="asynchronous"),
     [
         'seed: must be a 64-bit unsigned integer, got 18446744073709551616',
         "update: only 'synchronous' is supported, got 'asynchronous'",
     ]),
    ('top-types', _top(horizon=2.5, seed=1.0, beta_share="x", update=3),
     [
         'seed: expected an integer',
         'horizon: expected an integer',
         'beta_share: expected a number',
         'update: expected a string',
     ]),
    ('top-bool-horizon', _top(horizon=True),
     ['horizon: expected an integer']),
    ('top-nan-beta', _top(beta_share=_NAN),
     ['beta_share: must be finite and >= 0, got nan']),
    ('top-missing-sections', _top(population=_DROP, network=_DROP),
     [
         'population: required field is missing',
         'network: required field is missing',
     ]),
    ('top-section-types',
     _top(population=[], network="complete", reputation=1, integrity=[], events={}),
     [
         'population: expected an object',
         'network: expected an object',
         'reputation: expected an object',
         'integrity: expected an object',
         'events: expected an array',
     ]),
    ('top-exit-type', _top(exit=5),
     ['exit: expected an object or null']),
    ('pop-unknown-empty', _top(population={"groups": [], "extra": 1}),
     [
         'population.extra: unknown field',
         'population: total agent count must be >= 1',
     ]),
    ('pop-groups-missing', _top(population={}),
     ['population.groups: required field is missing']),
    ('pop-groups-type', _top(population={"groups": {}}),
     ['population.groups: expected an array']),
    ('group-not-object', _top(population={"groups": [5]}),
     [
         'population.groups[0]: expected an object',
         'population: total agent count must be >= 1',
     ]),
    ('group-label-count', _group(label="", count=-1),
     [
         'population.groups[0]: group label must be non-empty',
         'population: total agent count must be >= 1',
     ]),
    ('group-missing-unknown', _group(label=_DROP, count=_DROP, private_type=_DROP, extra=1),
     [
         'population.groups[0].extra: unknown field',
         'population.groups[0].label: required field is missing',
         'population.groups[0].count: required field is missing',
         'population.groups[0].private_type: required field is missing',
         'population: total agent count must be >= 1',
     ]),
    ('group-type-and-factor',
     _group(private_type="maybe", factors={"Z": {"dist": "constant", "value": 1}}),
     [
         "population.groups[0].private_type: must be one of ['pro_rebellion', 'pro_status_quo'], got 'maybe'",
         'population.groups[0].factors.Z: unknown factor',
         'population: total agent count must be >= 1',
     ]),
    ('group-type-and-support',
     _group(private_type="maybe", factors={"F": {"dist": "constant", "value": -1.0}}),
     [
         "population.groups[0].private_type: must be one of ['pro_rebellion', 'pro_status_quo'], got 'maybe'",
         'population.groups[0].factors.F: F must be >= 0 over the whole support, found lo=-1.0',
         'population: total agent count must be >= 1',
     ]),
    ('group-field-types', _group(label=3, count=1.5, private_type=3, factors=[]),
     [
         'population.groups[0].label: expected a string',
         'population.groups[0].count: expected an integer',
         'population.groups[0].private_type: expected a string',
         'population.groups[0].factors: expected an object',
         'population: total agent count must be >= 1',
     ]),
    ('factor-not-object', _factor("F", 1),
     ['population.groups[0].factors.F: expected an object']),
    ('dist-missing', _factor("F", {"value": 1}),
     ['population.groups[0].factors.F.dist: required field is missing']),
    ('dist-unknown', _factor("F", {"dist": "gauss", "value": 1}),
     ["population.groups[0].factors.F.dist: unknown distribution kind 'gauss'"]),
    ('dist-type', _factor("F", {"dist": 3}),
     ['population.groups[0].factors.F.dist: expected a string']),
    ('constant-nan', _factor("F", {"dist": "constant", "value": _NAN}),
     ['population.groups[0].factors.F.value: must be finite']),
    ('constant-inf', _factor("V_R", {"dist": "constant", "value": _INF}),
     ['population.groups[0].factors.V_R.value: must be finite']),
    ('constant-missing-unknown', _factor("F", {"dist": "constant", "lo": 1}),
     [
         'population.groups[0].factors.F.lo: unknown field',
         'population.groups[0].factors.F.value: required field is missing',
     ]),
    ('constant-type', _factor("F", {"dist": "constant", "value": "x"}),
     ['population.groups[0].factors.F.value: expected a number']),
    ('constant-negative', _factor("F", {"dist": "constant", "value": -1.0}),
     [
         'population.groups[0].factors.F: F must be >= 0 over the whole support, found lo=-1.0',
     ]),
    ('uniform-lo-gt-hi', _factor("F", {"dist": "uniform", "lo": 2.0, "hi": 1.0}),
     [
         'population.groups[0].factors.F: uniform bounds need finite lo <= hi, got [2.0, 1.0]',
     ]),
    ('uniform-missing-type', _factor("F", {"dist": "uniform", "lo": "a"}),
     [
         'population.groups[0].factors.F.lo: expected a number',
         'population.groups[0].factors.F.hi: required field is missing',
     ]),
    ('uniform-nan', _factor("S", {"dist": "uniform", "lo": _NAN, "hi": 1.0}),
     [
         'population.groups[0].factors.S: uniform bounds need finite lo <= hi, got [nan, 1.0]',
     ]),
    ('uniform-p-base', _factor("p_base", {"dist": "uniform", "lo": 0.5, "hi": 1.5}),
     [
         'population.groups[0].factors.p_base: p_base support must lie within [0, 1], found [0.5, 1.5]',
     ]),
    ('uniform-negative-both', _factor("p_base", {"dist": "uniform", "lo": -0.5, "hi": 0.5}),
     [
         'population.groups[0].factors.p_base: p_base support must lie within [0, 1], found [-0.5, 0.5]',
     ]),
    ('tn-hi-true',
     _factor("F", {"dist": "trunc_normal", "mean": 1.0, "sd": 0.5, "lo": 0.0, "hi": True}),
     ['population.groups[0].factors.F.hi: expected a number or null']),
    ('tn-hi-string',
     _factor("F", {"dist": "trunc_normal", "mean": 1.0, "sd": 0.5, "lo": 0.0, "hi": "x"}),
     ['population.groups[0].factors.F.hi: expected a number or null']),
    ('tn-hi-string-mean-missing',
     _factor("F", {"dist": "trunc_normal", "sd": 0.5, "lo": 0.0, "hi": "x"}),
     [
         'population.groups[0].factors.F.mean: required field is missing',
         'population.groups[0].factors.F.hi: expected a number or null',
     ]),
    ('tn-sd-negative', _factor("F", {"dist": "trunc_normal", "mean": 1.0, "sd": -1.0, "lo": 0.0}),
     [
         'population.groups[0].factors.F: trunc_normal needs finite mean and sd >= 0, got mean=1.0, sd=-1.0',
     ]),
    ('tn-lo-neg-inf', _factor("V_U", {"dist": "trunc_normal", "mean": 1.0, "sd": 1.0, "lo": -_INF}),
     ['population.groups[0].factors.V_U: trunc_normal lo must be finite']),
    ('tn-lo-gt-hi',
     _factor("F", {"dist": "trunc_normal", "mean": 1.0, "sd": 1.0, "lo": 2.0, "hi": 1.0}),
     [
         'population.groups[0].factors.F: trunc_normal bounds need lo <= hi, got [2.0, 1.0]',
     ]),
    ('tn-missing-unknown', _factor("F", {"dist": "trunc_normal", "sd": "x", "lo": 0.0, "width": 1}),
     [
         'population.groups[0].factors.F.width: unknown field',
         'population.groups[0].factors.F.mean: required field is missing',
         'population.groups[0].factors.F.sd: expected a number',
     ]),
    ('cost-order',
     _group(factors={"c": {"dist": "constant", "value": 2.0},
                     "C": {"dist": "uniform", "lo": 0.0, "hi": 1.0}}),
     [
         'population.groups[0].factors: C >= c violated: C support lies entirely below c support',
     ]),
    ('net-kind-unknown', _top(network={"kind": "lattice"}),
     [
         "network.kind: must be one of ['complete', 'erdos_renyi', 'small_world'], got 'lattice'",
     ]),
    ('net-kind-missing', _top(network={"k": 2}),
     ['network.kind: required field is missing']),
    ('net-kind-type', _top(network={"kind": 5}),
     ['network.kind: expected a string']),
    ('net-complete-foreign-key', _top(network={"kind": "complete", "p_edge": 0.5}),
     ['network.p_edge: unknown field']),
    ('net-er-missing', _top(network={"kind": "erdos_renyi"}),
     ['network.p_edge: required field is missing']),
    ('net-er-range', _top(network={"kind": "erdos_renyi", "p_edge": 1.5}),
     ['network: p_edge must lie in [0, 1], got 1.5']),
    ('net-er-type-foreign', _top(network={"kind": "erdos_renyi", "p_edge": "x", "k": 2}),
     [
         'network.k: unknown field',
         'network.p_edge: expected a number',
     ]),
    ('net-sw-odd-k', _crowd(10, {"kind": "small_world", "k": 3, "rewire_p": 0.1}),
     ['network: k must be a non-negative even integer, got 3']),
    ('net-sw-k-ge-n', _top(network={"kind": "small_world", "k": 2, "rewire_p": 0.0}),
     ['network.k: must be < total population, got k=2, n=2']),
    ('net-sw-types', _top(network={"kind": "small_world", "k": 1.5}),
     [
         'network.k: expected an integer',
         'network.rewire_p: required field is missing',
     ]),
    ('net-sw-rewire', _crowd(10, {"kind": "small_world", "k": 2, "rewire_p": 2.0}),
     ['network: rewire_p must lie in [0, 1], got 2.0']),
    ('net-edge-budget', _crowd(100_000, {"kind": "complete"}),
     [
         'network: complete over 100000 agents has 1e+10 edges, more than the budget of 5e+07',
     ]),
    ('net-draw-budget', _crowd(1_000_000, {"kind": "erdos_renyi", "p_edge": 1e-5}),
     [
         'network: erdos_renyi over 1000000 agents draws 1e+12 uniforms, more than the budget of 1e+11',
     ]),
    ('rep-variant-unknown', _rep(variant="x", alpha=1.0),
     [
         "reputation.variant: must be one of ['unweighted_fraction', 'weighted_fraction', 'iterative_influence'], got 'x'",
     ]),
    ('rep-missing', _rep(),
     ['reputation.variant: required field is missing']),
    ('rep-variant-type', _rep(variant=1, alpha="x"),
     ['reputation.variant: expected a string']),
    ('rep-unweighted-solver-key', _rep(variant="unweighted_fraction", alpha=0.5, damping=0.9),
     ['reputation.damping: unknown field']),
    ('rep-weighted-ranges', _rep(variant="weighted_fraction", alpha=-1.0, centered="yes"),
     [
         'reputation.centered: expected a boolean',
         'reputation: alpha must be finite and >= 0, got -1.0',
     ]),
    ('rep-weighted-solver-keys',
     _rep(variant="weighted_fraction", alpha=0.5, tol=1e-9, max_iters=5, extra=1),
     [
         'reputation.tol: unknown field',
         'reputation.max_iters: unknown field',
         'reputation.extra: unknown field',
     ]),
    ('rep-iter-damping', _rep(variant="iterative_influence", alpha=0.5, damping=1.0),
     ['reputation: damping must lie in (0, 1), got 1.0']),
    ('rep-iter-tol-iters', _rep(variant="iterative_influence", alpha=0.5, tol=0.0, max_iters=0),
     ['reputation: tol must be > 0, got 0.0']),
    ('rep-iter-types', _rep(variant="iterative_influence", damping="x", tol=True, max_iters=2.5),
     [
         'reputation.alpha: required field is missing',
         'reputation.damping: expected a number',
         'reputation.tol: expected a number',
         'reputation.max_iters: expected an integer',
     ]),
    ('rep-iter-alpha-nan', _rep(variant="iterative_influence", alpha=_NAN),
     ['reputation: alpha must be finite and >= 0, got nan']),
    ('integ-unknown-type', _top(integrity={"nu_match": "x", "extra": 1}),
     [
         'integrity.extra: unknown field',
         'integrity.nu_match: expected a number',
     ]),
    ('integ-nu0-gt-cap', _top(integrity={"nu0": 0.8, "cap": 0.5}),
     ['integrity: nu0 must not exceed cap, got nu0=0.8 > cap=0.5']),
    ('integ-cap-zero', _top(integrity={"cap": 0.0}),
     ['integrity: cap must be > 0, got 0.0']),
    ('integ-kappa-negative', _top(integrity={"kappa": -1.0, "nu_match": _NAN}),
     ['integrity: nu_match must be finite and >= 0, got nan']),
    ('exit-patience', _top(exit={"threshold": 0.0, "patience": 0}),
     ['exit: exit patience must be >= 1, got 0']),
    ('exit-threshold-inf', _top(exit={"threshold": _INF, "patience": 1}),
     ['exit.threshold: must be finite']),
    ('exit-threshold-neg-inf', _top(exit={"threshold": -_INF, "patience": 1}),
     ['exit.threshold: must be finite']),
    ('exit-threshold-nan', _top(exit={"threshold": _NAN, "patience": 1}),
     ['exit.threshold: must be finite']),
    ('exit-missing-unknown', _top(exit={"patience": 1.5, "extra": 1}),
     [
         'exit.extra: unknown field',
         'exit.threshold: required field is missing',
         'exit.patience: expected an integer',
     ]),
    ('event-not-object', _events(5),
     ['events[0]: expected an object']),
    ('event-missing-unknown', _events({"deltas": {}, "extra": 1}),
     [
         'events[0].extra: unknown field',
         'events[0].step: required field is missing',
         'events[0].label: required field is missing',
     ]),
    ('event-step-negative', _events({"step": -1, "label": "x"}),
     ['events[0]: event step must be >= 0, got -1']),
    ('event-label-unsafe', _events({"step": 0, "label": "a,b", "deltas": {}}),
     [
         "events[0]: event label 'a,b' must be non-empty and use only letters, digits, '_', '-', '.', or spaces",
     ]),
    ('event-field-types', _events({"step": 0.5, "label": 3, "deltas": []}),
     [
         'events[0].step: expected an integer',
         'events[0].label: expected a string',
         'events[0].deltas: expected an object',
     ]),
    ('delta-unknown-and-bool',
     _events({"step": 0, "label": "x", "deltas": {"dZ": 1.0, "dC": True}}),
     [
         "events[0].deltas.dZ: unknown delta; expected one of ['dF', 'dS', 'dC', 'dc', 'dA_U', 'dA_R', 'dp']",
         'events[0].deltas.dC: expected a number',
     ]),
    ('delta-nan', _events({"step": 0, "label": "x", "deltas": {"dC": _NAN}}),
     ['events[0]: event delta dC must be finite, got nan']),
    ('events-unsorted', _events({"step": 2, "label": "b"}, {"step": 1, "label": "a"}),
     ['events: must be sorted by step (ascending)']),
    ('events-at-horizon', _events({"step": 3, "label": "late", "deltas": {"dC": 1.0}}),
     ['events[0].step: must be < horizon (3), got 3']),
    ('events-beyond-and-unsorted',
     _events({"step": 9, "label": "b"}, {"step": 1, "label": "a"}, {"step": 0, "label": "bad;"}),
     [
         "events[2]: event label 'bad;' must be non-empty and use only letters, digits, '_', '-', '.', or spaces",
         'events[0].step: must be < horizon (3), got 9',
         'events: must be sorted by step (ascending)',
     ]),
    ('top-type-before-range', _top(seed=-3, horizon="x", population=[]),
     [
         'horizon: expected an integer',
         'seed: must be a 64-bit unsigned integer, got -3',
         'population: expected an object',
     ]),
    ('group-factors-type-before-private-type', _group(private_type="maybe", factors=[]),
     [
         'population.groups[0].factors: expected an object',
         "population.groups[0].private_type: must be one of ['pro_rebellion', 'pro_status_quo'], got 'maybe'",
         'population: total agent count must be >= 1',
     ]),
    ('group-missing-label-factor-still-read',
     _group(label=_DROP, factors={"F": {"dist": "uniform", "lo": 1}}),
     [
         'population.groups[0].label: required field is missing',
         'population.groups[0].factors.F.hi: required field is missing',
         'population: total agent count must be >= 1',
     ]),
    ('rep-iter-bad-default-then-build',
     _rep(variant="iterative_influence", alpha=0.5, damping="x", tol=0.0),
     [
         'reputation.damping: expected a number',
         'reputation: tol must be > 0, got 0.0',
     ]),
    ('exit-nan-and-type', _top(exit={"threshold": _NAN, "patience": "x"}),
     ['exit.patience: expected an integer']),
    ('tn-hi-bad-skips-support',
     _factor("F", {"dist": "trunc_normal", "mean": 1.0, "sd": 0.5, "lo": -1.0, "hi": True}),
     ['population.groups[0].factors.F.hi: expected a number or null']),
    ('tn-hi-null-support',
     _factor("F", {"dist": "trunc_normal", "mean": 1.0, "sd": 0.5, "lo": -1.0, "hi": None}),
     [
         'population.groups[0].factors.F: F must be >= 0 over the whole support, found lo=-1.0',
     ]),
    # Integers of 2**64 or more are read as floats; one too large for a float is not finite.
    ('constant-minus-2^64', _factor("F", {"dist": "constant", "value": -2**64}),
     [
         'population.groups[0].factors.F: F must be >= 0 over the whole support, '
         'found lo=-1.8446744073709552e+19',
     ]),
    ('constant-past-float', _factor("F", {"dist": "constant", "value": 10**400}),
     ['population.groups[0].factors.F.value: must be finite']),
    ('uniform-past-float', _factor("F", {"dist": "uniform", "lo": 0, "hi": 10**400}),
     ['population.groups[0].factors.F: uniform bounds need finite lo <= hi, got [0.0, inf]']),
    ('exit-threshold-past-float', _top(exit={"threshold": -10**400, "patience": 1}),
     ['exit.threshold: must be finite']),
    ('exit-threshold-2^64-patience', _top(exit={"threshold": 2**64, "patience": 0}),
     ['exit: exit patience must be >= 1, got 0']),
    ('top-beta-minus-2^64', _top(beta_share=-2**64),
     ['beta_share: must be finite and >= 0, got -18446744073709551616']),
    ('top-beta-past-float', _top(beta_share=10**400),
     [f'beta_share: must be finite and >= 0, got {10**400}']),
    ('delta-past-float', _events({"step": 0, "label": "x", "deltas": {"dC": 10**400}}),
     ['events[0]: event delta dC must be finite, got inf']),
]


@pytest.mark.filterwarnings("ignore:.*C == c.*")
@pytest.mark.parametrize(
    "doc, expected", [case[1:] for case in VIOLATION_CORPUS],
    ids=[case[0] for case in VIOLATION_CORPUS],
)
def test_violation_corpus(doc, expected):
    with pytest.raises(ScenarioValidationError) as excinfo:
        parse_scenario(json.dumps(doc, allow_nan=True))
    assert excinfo.value.violations == expected


def test_integers_past_2_64_read_as_floats():
    doc = _factor("F", {"dist": "constant", "value": 2**64})
    doc.update(beta_share=2**64, exit={"threshold": -2**64, "patience": 1})
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.beta_share == 2.0**64 and scenario.exit.threshold == -(2.0**64)
    assert scenario.population.groups[0].factors["F"].value == 2.0**64


@pytest.mark.parametrize("make, needle", [
    (lambda: ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha=10**400), "alpha"),
    (lambda: Environment(dF=10**400), "dF"),
    (lambda: IntegritySpec(1, 10**400, 0, 1), "nu0"),
    (lambda: Event(0, "shock", {"dp": -10**400}), "dp"),
    (lambda: Uniform(0.0, 10**400), "uniform"),
    (lambda: TruncNormal(0.0, 1.0, lo=10**400, hi=math.inf), "lo must be finite"),
    (lambda: ExitSpec(threshold=10**400, patience=1), "exit threshold"),
    (lambda: ReputationSpec(ReputationVariant.UNWEIGHTED_FRACTION, alpha="1"), "alpha"),
])
def test_spec_checks_refuse_integers_past_float_range(make, needle):
    """Built directly (the parser reads such integers as +-inf), a spec refuses an integer
    too large for a float, or a value that is no number, with its own error."""
    with pytest.raises(InvalidParameterError, match=needle):
        make()


def test_equal_costs_warning_names_the_caller():
    doc = _group(factors={"c": {"dist": "constant", "value": 0.5},
                          "C": {"dist": "constant", "value": 0.5}})
    with pytest.warns(UserWarning, match="C == c") as caught:
        parse_scenario(json.dumps(doc))
    assert [w.filename for w in caught] == [__file__]


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


_PINNED_DOC = {
    "name": "pinned-serializer", "seed": 7, "horizon": 5, "beta_share": 1,
    "population": {"groups": [
        {"label": "a", "count": 3, "private_type": "pro_rebellion", "factors": {
            "p_base": {"dist": "uniform", "lo": 0, "hi": 0.5},
            "F": {"dist": "trunc_normal", "mean": 1, "sd": 0.5, "lo": 0},
            "C": {"dist": "trunc_normal", "mean": 2, "sd": 0.5, "lo": 1, "hi": 3},
            "V_R": {"dist": "constant", "value": -1}}},
        {"label": "b", "count": 2, "private_type": "pro_status_quo"}]},
    "network": {"kind": "erdos_renyi", "p_edge": 0.5},
    "reputation": {"variant": "iterative_influence", "alpha": 2, "centered": False, "max_iters": 50},
    "integrity": {"nu0": 0.25, "cap": 0.5},
    "exit": {"threshold": -1, "patience": 2},
    "events": [{"step": 1, "label": "shock", "deltas": {"dp": 0.1, "dC": -1}},
               {"step": 4, "label": "marker"}],
}


@pytest.mark.filterwarnings("ignore:.*C == c.*")
def test_serialized_bytes_are_pinned():
    """The canonical form, byte for byte: the shipped baseline file is its own serialization,
    and a document using every other section kind hashes to a recorded digest."""
    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "donbass.json"
    assert serialize_scenario(donbass_baseline()) == shipped.read_text(encoding="utf-8")
    text = serialize_scenario(parse_scenario(json.dumps(_PINNED_DOC)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "474780ad0d00a307922a7124a296109a3fde179cf615b3b8b9a8a3bc03504022"
    )


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

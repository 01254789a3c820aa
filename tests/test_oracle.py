"""``run`` against a reference written from the schema alone (``tests/oracle.py``).

The other differential tests compare the engine with itself: the memo against fresh
steps, the counts path against the keyed pass, a run against its relabeling.  A sub-step
order or a share rule that both sides got wrong would pass them all.  Here the reference
is a per-agent loop over the public one-agent functions, and every record of ``run``
must equal the oracle's: ``mean_p`` after the same summation, and every field bit for bit.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dissentsim import parse_scenario, run
from oracle import oracle_run

VARIANTS = ("unweighted_fraction", "weighted_fraction", "iterative_influence")
FACTORS = ("F", "S", "A_U", "A_R", "V_R", "V_U", "V_NJ", "p_base")
LABELS = ("rally", "crackdown", "pledge")


def group(label, count, private_type, **factors):
    """A group document; each factor a constant, or a uniform given as ``(lo, hi)``."""
    return {"label": label, "count": count, "private_type": private_type, "factors": {
        name: {"dist": "uniform", "lo": v[0], "hi": v[1]} if isinstance(v, tuple)
        else {"dist": "constant", "value": v} for name, v in factors.items()}}


def spread(lo, hi, width):
    """``lo`` when ``width`` is 0, else ``(lo, lo + width)`` clipped at ``hi``."""
    top = min(lo + width, hi)
    return lo if top == lo else (lo, top)


@st.composite
def groups(draw, index, count):
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
    widths = st.sampled_from([0.0, 0.0, 0.5, 1.0])
    factors = {}
    for name in FACTORS:
        if draw(st.booleans()):  # an omitted factor is the constant 0
            lo = draw(values) - (1.0 if name.startswith("V_") else 0.0)
            top = 1.0 if name == "p_base" else 5.0
            factors[name] = spread(min(lo, top), top, draw(widths))
    c = draw(st.sampled_from([0.0, 0.1, 0.3]))
    gap = draw(st.sampled_from([0.05, 0.2, 0.6]))  # C's support starts above c's: no C == c warning
    factors["c"] = spread(c, 5.0, draw(widths))
    factors["C"] = spread(c + gap, 5.0, draw(widths))
    return group(f"g{index}", count, draw(st.sampled_from(["pro_rebellion", "pro_status_quo"])),
                 **factors)


@st.composite
def scenarios(draw):
    """Up to 12 agents and 8 steps: every network kind and reputation variant, exits on
    and off, events at step 0 and later with repeated labels."""
    counts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3).filter(lambda c: 1 <= sum(c) <= 12))
    n, horizon = sum(counts), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["complete", "erdos_renyi", "small_world"]))
    if kind == "complete":
        network = {"kind": kind}
    elif kind == "erdos_renyi":
        network = {"kind": kind, "p_edge": draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))}
    else:
        k = draw(st.sampled_from([k for k in range(0, n, 2)]))
        network = {"kind": kind, "k": k, "rewire_p": draw(st.sampled_from([0.0, 0.3, 1.0]))}
    reputation = {"variant": draw(st.sampled_from(VARIANTS)), "centered": draw(st.booleans()),
                  "alpha": draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))}
    if reputation["variant"] == "iterative_influence":
        reputation["damping"] = draw(st.sampled_from([0.5, 0.85]))
    cap = draw(st.sampled_from([0.3, 1.0]))
    integrity = {"nu_match": draw(st.sampled_from([0.0, 0.2, 1.0])),
                 "nu0": draw(st.sampled_from([0.0, cap / 2, cap])),
                 "kappa": draw(st.sampled_from([0.0, 0.05, 0.3])), "cap": cap}
    exit_rule = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "threshold": st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0]), "patience": st.integers(1, 3)})))
    delta = st.sampled_from([-1.0, -0.3, 0.2, 0.5, 1.5])
    events = sorted(draw(st.lists(st.fixed_dictionaries({
        "step": st.integers(0, horizon - 1),
        "label": st.sampled_from(LABELS),
        "deltas": st.dictionaries(st.sampled_from(["dF", "dS", "dC", "dc", "dA_U", "dA_R", "dp"]),
                                  delta, max_size=3),
    }), max_size=4)), key=lambda event: event["step"])
    return {
        "name": "oracle", "seed": draw(st.integers(0, 2**64 - 1)), "horizon": horizon,
        "beta_share": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "population": {"groups": [draw(groups(i, count)) for i, count in enumerate(counts)]},
        "network": network, "reputation": reputation, "integrity": integrity,
        "exit": exit_rule, "events": events,
    }


def fields(records):
    """Each record's fields, the floats by their bits (``float.hex`` keeps the sign of 0)."""
    return [tuple(value.hex() if isinstance(value, float) else value for value in vars(r).values())
            for r in records]


def case(groups, horizon, reputation, exit_rule=None, events=(), **more):
    """A scenario document with integrity off unless ``more`` sets it."""
    return {"name": "case", "seed": 7, "horizon": horizon, "population": {"groups": groups},
            "network": {"kind": "complete"}, "reputation": reputation,
            "integrity": {"nu_match": 0.0, "nu0": 0.0, "kappa": 0.0, "cap": 1.0},
            "exit": exit_rule, "events": list(events), **more}


#: Everything on: a small world under iterative influence, with exits and events at step 0
#: and later, two of them under one label.
COVERING = case(
    [group("core", 4, "pro_rebellion", F=(0.5, 2.0), S=1.0, A_U=0.5, c=0.1, C=0.6, p_base=(0.1, 0.6)),
     group("rest", 8, "pro_status_quo", S=(0.0, 1.0), A_R=0.5, c=(0.0, 0.3), C=(0.3, 0.9),
           V_U=(-0.5, 0.5), p_base=(0.0, 0.5))],
    8, {"variant": "iterative_influence", "alpha": 1.0}, {"threshold": 0.5, "patience": 2},
    [{"step": 0, "label": "rally", "deltas": {"dp": 0.2}},
     {"step": 0, "label": "crackdown", "deltas": {"dC": 0.5, "dA_U": -0.3}},
     {"step": 3, "label": "rally", "deltas": {"dp": 0.3, "dF": 1.0}}],
    beta_share=0.3, network={"kind": "small_world", "k": 4, "rewire_p": 0.3},
    integrity={"nu_match": 0.2, "nu0": 0.1, "kappa": 0.05, "cap": 0.4})

#: A tie kept: F's offset rises at step 0, so everyone rebels (0.5 against 0 for NJ), and
#: falls at step 2, where R and NJ tie at 0 and the previous stance, R, is kept.
STICKY_TIE = case(
    [group("rebels", 3, "pro_rebellion", C=0.05, p_base=0.5)], 4,
    {"variant": "unweighted_fraction", "alpha": 0.0},
    events=[{"step": 0, "label": "arms", "deltas": {"dF": 1.0}},
            {"step": 2, "label": "arms", "deltas": {"dF": -1.0}}])

#: Exits unseen: two agents rebel at step 0 (best payoff -2.5) and leave; the three others
#: abstain (2.5, with the centred reputation of a silent audience) and would rebel at step
#: 1 (1.2 against 1.0) if they still saw the two rebels.
EXITS_UNSEEN = case(
    [group("leavers", 2, "pro_rebellion", C=0.05, V_R=-1.0, V_U=-10.0, V_NJ=-10.0),
     group("stayers", 3, "pro_status_quo", C=0.05, V_R=1.2, V_U=1.0, V_NJ=1.0)], 3,
    {"variant": "iterative_influence", "alpha": 3.0}, {"threshold": 0.5, "patience": 1})


@settings(max_examples=200)
@given(scenarios())
@example(COVERING)
@example(STICKY_TIE)
@example(EXITS_UNSEEN)
@example({**EXITS_UNSEEN, "reputation": {"variant": "unweighted_fraction", "alpha": 3.0}})
def test_run_equals_the_oracle_record_by_record(doc):
    scenario = parse_scenario(json.dumps(doc))
    assert fields(run(scenario)) == fields(oracle_run(scenario))

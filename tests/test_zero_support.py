"""The zero-support analysis over arrays agrees exactly with the per-agent loop.

The reference is the per-agent loop the analysis used before it ran over
``ParamArrays``: ``effective_params``, ``perceived_probability``,
``zero_support_soft_terms``, ``decide`` and the ``threshold_*`` functions
called on one ``AgentParams`` at a time.  The array pass must reproduce it
bit for bit: mover ids, both thresholds, p0 and the share-space thresholds,
with infinities and the sign of zero compared too.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dissentsim import (
    AgentParams,
    Environment,
    IntegritySpec,
    Position,
    PrivateType,
    effective_params,
    first_movers,
    integrity_value,
    perceived_probability,
    rebellion_thresholds_zero_support,
    share_space_thresholds,
    zero_support_soft_terms,
)
from dissentsim.engine import ParamArrays
from dissentsim.model import decide, threshold_nj_over_u, threshold_r_over_nj

R, U, NJ = Position.R, Position.U, Position.NJ

factor = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 4.0))
taste = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
probability = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
offset = st.one_of(st.sampled_from([0.0, -1.0]), st.floats(-3.0, 1.0))


@st.composite
def agents(draw):
    c = draw(factor)
    return AgentParams(
        F=draw(factor), S=draw(factor), A_U=draw(factor), A_R=draw(factor),
        c=c, C=c + draw(factor),
        V_R=draw(taste), V_U=draw(taste), V_NJ=draw(taste),
        x=draw(st.sampled_from(PrivateType)), p_base=draw(probability),
    )


@st.composite
def environments(draw):
    return Environment(
        dF=draw(offset), dS=draw(offset), dC=draw(offset), dc=draw(offset),
        dA_U=draw(offset), dA_R=draw(offset), dp=draw(st.floats(-0.5, 0.5)),
        beta_share=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
    )


@st.composite
def integrities(draw):
    cap = draw(st.floats(0.01, 2.0))
    return IntegritySpec(
        nu_match=draw(st.floats(0.0, 2.0)), nu0=draw(st.one_of(st.just(0.0), st.floats(0.0, cap))),
        kappa=draw(st.floats(0.0, 1.0)), cap=cap,
    )


def _agent(**kw) -> AgentParams:
    base = dict(
        F=1.0, S=1.0, A_U=1.0, A_R=1.0, c=0.2, C=0.5, V_R=0.0, V_U=0.0, V_NJ=0.0,
        x=PrivateType.PRO_REBELLION, p_base=0.5,
    )
    base.update(kw)
    return AgentParams(**base)


# Appended to every population so each example covers these cases.
EDGE_AGENTS = [
    _agent(F=0.0, S=0.0, A_U=0.0, A_R=0.0),  # both threshold denominators are zero
    _agent(V_NJ=100.0),                      # rebel-over-abstain threshold >= 1
    _agent(V_R=100.0),                       # p0 above the threshold: rebels unsupported
    _agent(F=0.1, S=0.1, A_U=0.1, A_R=0.1, c=0.05, C=0.1),  # floored by offsets <= -0.1
]


def reference(population, env0, integrity):
    """The per-agent loop: one scalar evaluation per AgentParams."""
    movers, thr_r, thr_nj, p0s, share = [], [], [], [], []
    for i, agent in enumerate(population):
        eff = effective_params(agent, env0)
        p0 = perceived_probability(agent, 0.0, env0)
        soft = zero_support_soft_terms(integrity, agent.x)
        for pos in (NJ, U, R):  # numpy scalars, bit for bit the public rule's
            assert soft[pos].rep == 0.0 and type(soft[pos].integ) is np.float64
            assert bits(soft[pos].integ) == bits(integrity_value(integrity, pos, agent.x, 0))
        if decide(eff, p0, soft, previous=NJ) is R:
            movers.append(i)
        r = threshold_r_over_nj(eff, soft[R], soft[NJ])
        thr_r.append(r)
        thr_nj.append(threshold_nj_over_u(eff, soft[NJ], soft[U]))
        p0s.append(p0)
        if p0 > r:
            share.append(-math.inf)
        elif r >= 1.0 or env0.beta_share == 0.0:
            share.append(math.inf)
        else:
            with np.errstate(over="ignore"):  # a tiny beta_share overflows to inf: unreachable
                share.append((r - (agent.p_base + env0.dp)) / env0.beta_share)
    return movers, thr_r, thr_nj, p0s, share


def bits(values) -> list[int]:
    """IEEE-754 bit patterns: equal only when values, infinities and zero signs match."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=150, deadline=None)
@given(
    population=st.lists(agents(), min_size=0, max_size=25),
    env0=environments(),
    integrity=integrities(),
)
@example(
    population=[], env0=Environment(beta_share=0.0),
    integrity=IntegritySpec(nu_match=0.0, nu0=0.0, kappa=0.0, cap=1.0),
)
@example(
    population=[_agent(c=0.3, C=0.3, p_base=1.0)],
    env0=Environment(dF=-5.0, dS=-5.0, dC=-5.0, dc=-5.0, dA_U=-5.0, dA_R=-5.0, beta_share=0.5),
    integrity=IntegritySpec(nu_match=1.0, nu0=0.5, kappa=0.0, cap=0.5),
)
def test_array_pass_matches_per_agent_loop(population, env0, integrity):
    population = population + EDGE_AGENTS
    movers, thr_r, thr_nj, p0, share = reference(population, env0, integrity)

    pa = ParamArrays.from_params(population)
    eff = effective_params(pa, env0)
    soft = zero_support_soft_terms(integrity, pa.x_rebel)
    for pos in (NJ, U, R):  # one array per stance, bit for bit the public rule's
        assert type(soft[pos].integ) is np.ndarray and soft[pos].integ.shape == pa.x_rebel.shape
        assert bits(soft[pos].integ) == bits(integrity_value(integrity, pos, pa.x_rebel, 0))
    assert first_movers(pa, env0, integrity) == movers
    assert bits(rebellion_thresholds_zero_support(pa, env0, integrity)) == bits(thr_r)
    assert bits(threshold_nj_over_u(eff, soft[NJ], soft[U])) == bits(thr_nj)
    assert bits(perceived_probability(pa, 0.0, env0)) == bits(p0)
    assert bits(share_space_thresholds(pa, env0, integrity)) == bits(share)
    # The list-of-AgentParams entry points are views over the same pass.
    assert first_movers(population, env0, integrity) == movers
    assert bits(share_space_thresholds(population, env0, integrity)) == bits(share)

    edge_share = share[-len(EDGE_AGENTS):]
    assert edge_share[1] == math.inf and edge_share[2] == -math.inf

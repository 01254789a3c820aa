"""A whole-run reference for :func:`dissentsim.run`, written from the scenario schema.

``docs/scenario-schema.md`` and :func:`dissentsim.step`'s docstring define one step,
in this order:

1. every event scheduled at step t adds its deltas to the environment, in list order,
   and the offsets stay in force;
2. the previous rebel share is the share of R among the agents that have not exited;
3. each agent that has not exited takes its effective factors (offsets added, floored
   at 0) and its perceived win probability ``clip(p_base + beta_share * share + dp)``;
4. its soft terms for each stance: reputation from the stances its observed neighbours
   showed at the previous step, exited neighbours unseen, and integrity from its
   falsification streak as the step starts;
5. it chooses the stance with the best payoff, keeping its previous stance when that one
   is tied;
6. its falsification streak grows while the chosen stance is not its preferred one (R
   for a rebel at heart, U for a loyalist; abstaining falsifies both) and is 0 otherwise;
7. with an exit rule, its low-payoff streak grows while its best payoff is below the
   threshold and resets otherwise, and it leaves for good once the streak reaches the
   patience.

Exited agents keep their stance and streaks.  A step's record counts the agents that
have not exited after the step: the stance shares, the falsifying count, the exits and
the mean of the win probabilities their decisions used, summed over them in id order.

This module follows those rules one agent at a time, over a dict of agents, calling only
the public one-agent functions: ``effective_params``, ``perceived_probability``,
``reputation_fraction`` or ``reputation_iterative``, ``integrity_value``, the three
payoffs (for the best one), ``decide`` and ``check_exit``.  The population and network
come from ``init_state``, as the dynamics draw no random numbers.
"""

from dataclasses import replace

import numpy as np

from dissentsim import (
    Position,
    PrivateType,
    ReputationVariant,
    SoftTerms,
    StepRecord,
    check_exit,
    decide,
    effective_params,
    init_state,
    integrity_value,
    payoff_nojoin,
    payoff_rebel,
    payoff_statusquo,
    perceived_probability,
    reputation_fraction,
    reputation_iterative,
)


def honest(agent) -> bool:
    """Whether the agent shows its private preference."""
    preferred = Position.R if agent.params.x is PrivateType.PRO_REBELLION else Position.U
    return agent.y == preferred


def oracle_run(scenario) -> list[StepRecord]:
    """One :class:`StepRecord` per step of ``scenario``, from the rules above."""
    start = init_state(scenario)
    agents = {agent.id: agent for agent in start.agents}
    network, env = start.network, start.env
    iterative = scenario.reputation.variant is ReputationVariant.ITERATIVE_INFLUENCE
    reputation = reputation_iterative if iterative else reputation_fraction
    records = []
    for t in range(scenario.horizon):
        fired = [event for event in scenario.events if event.step == t]
        for event in fired:
            env = replace(env, **{name: getattr(env, name) + delta
                                  for name, delta in event.deltas.items()})
        publics = {i: agent.y for i, agent in agents.items() if not agent.exited}
        share = sum(y == Position.R for y in publics.values()) / max(len(publics), 1)
        p, after = {}, dict(agents)
        for i in publics:
            agent = agents[i]
            eff = effective_params(agent.params, env)
            p[i] = perceived_probability(agent.params, share, env)
            soft = {pos: SoftTerms(reputation(i, pos, network, publics, scenario.reputation),
                                   integrity_value(scenario.integrity, pos, agent.params.x,
                                                   agent.d_falsify))
                    for pos in Position}
            best = max(payoff_nojoin(eff.S, eff.c, p[i], soft[Position.NJ], eff.V_NJ),
                       payoff_statusquo(eff.S, eff.A_R, eff.C, p[i], soft[Position.U], eff.V_U),
                       payoff_rebel(eff.F, eff.A_U, p[i], soft[Position.R], eff.V_R))
            agent = replace(agent, y=decide(eff, p[i], soft, previous=agent.y))
            agent = replace(agent, d_falsify=0 if honest(agent) else agent.d_falsify + 1)
            if scenario.exit is not None:
                agent = check_exit(agent, best, scenario.exit.threshold, scenario.exit.patience)
            after[i] = agent
        agents = after
        present = [agent for agent in agents.values() if not agent.exited]
        per_active = max(len(present), 1)
        shown = [agent.y for agent in present]
        records.append(StepRecord(
            t=t,
            share_R=shown.count(Position.R) / per_active,
            share_U=shown.count(Position.U) / per_active,
            share_NJ=shown.count(Position.NJ) / per_active,
            n_exited=len(agents) - len(present),
            n_falsifying=sum(not honest(agent) for agent in present),
            mean_p=float(np.array([p[agent.id] for agent in present], dtype=np.float64).sum()
                         / per_active),
            events=tuple(event.label for event in fired),
        ))
    return records

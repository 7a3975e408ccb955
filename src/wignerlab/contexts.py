"""Decoherence environments and which records they can hold together.

An environment is the set of agents whose records it stably holds; its
region of spacetime is their measurement events.  Records can share an
environment only if their observables pairwise commute, so an agent's
record is held consistently by exactly those environments that contain
its primary context and keep all of their records pairwise commuting.
Incompatible records (a sealed lab's pointer reading versus the
conjugated x-observable of the same lab) can never share an environment:
the maximal contexts take one or the other for each lab.

Environment ids are stable: ``E_`` plus the event letters of the recorded
agents in alphabetical order (A, B, C, U, V, W), so the environment holding
the records of Bob, Charlie, and Eugene is ``E_BCU``.
"""

from __future__ import annotations

import itertools

from . import spacetime
from ._record import record
from .scenario import (
    AGENTS,
    EVENT_OF_AGENT,
    PROTOCOL_CONTEXTS,
    ScenarioModel,
)


@record
class DecoherenceEnvironment:
    """The agents whose outcome records have decohered into one environment."""

    agents: frozenset[str]

    @property
    def id(self) -> str:
        return "E_" + "".join(sorted(EVENT_OF_AGENT[a] for a in self.agents))


def primary_context(agent: str) -> DecoherenceEnvironment:
    """Smallest environment holding one agent's outcome record."""
    return DecoherenceEnvironment(frozenset({agent}))


def _records_commute(model: ScenarioModel, agents) -> bool:
    return all(model.observables_commute(a, b)
               for a, b in itertools.combinations(agents, 2))


def _union(environments) -> DecoherenceEnvironment:
    return DecoherenceEnvironment(frozenset().union(*(env.agents for env in environments)))


def common_extension(model: ScenarioModel, environments) -> DecoherenceEnvironment | None:
    """Union environment, or None when any two records fail to commute."""
    env = _union(environments)
    return env if _records_commute(model, env.agents) else None


def incompatibility_graph(model: ScenarioModel) -> tuple[tuple[str, str], ...]:
    """Event-letter pairs whose record observables do not commute."""
    bad = [tuple(sorted((EVENT_OF_AGENT[x], EVENT_OF_AGENT[y])))
           for x, y in itertools.combinations(AGENTS, 2)
           if not model.observables_commute(x, y)]
    return tuple(sorted(bad))


# Both homogeneous triples and the three with one lab measurement substituted in.
NAMED_CONTEXT_IDS = frozenset(DecoherenceEnvironment(frozenset(agents)).id
                               for agents in PROTOCOL_CONTEXTS)


@record
class ContextReport:
    """One maximal joint context, its environment, and its frame status;
    it is one of the protocol's own when its environment's id is in
    ``NAMED_CONTEXT_IDS``."""

    environment: DecoherenceEnvironment
    frame: spacetime.FrameSolution


def maximal_contexts(model: ScenarioModel,
                     geometry: dict[str, tuple]) -> tuple[ContextReport, ...]:
    """All maximal sets of agents with pairwise-commuting records.

    Each context also carries the simultaneity-frame certificate of its
    events in ``geometry``, a dict from event letter to event.
    """
    cliques = []
    for size in range(len(AGENTS), 0, -1):
        for subset in itertools.combinations(AGENTS, size):
            if (_records_commute(model, subset)
                    and not any(set(subset) < set(c) for c in cliques)):
                cliques.append(subset)
    reports = []
    for clique in cliques:
        # Every pair in the clique commutes, so the union is consistent.
        env = _union(primary_context(a) for a in clique)
        frame = spacetime.frame_for_events([geometry[EVENT_OF_AGENT[a]] for a in clique])
        reports.append(ContextReport(env, frame))
    return tuple(sorted(reports, key=lambda r: r.environment.id))

"""Decoherence environments and what they can assess.

An environment is the set of agents whose records it stably holds; its
region of spacetime is their measurement events.  One agent's record is
assessable from an environment only if that environment compatibly extends
the agent's primary context: it must hold the agent and keep all of its
records pairwise commuting.  Incompatible records (a sealed lab's pointer
reading versus the conjugated x-observable of the same lab) can never share
an environment, which is where the assessment algebra gets its structure.

Environment ids are stable: ``E_`` plus the event letters of the recorded
agents in alphabetical order (A, B, C, U, V, W), so the environment holding
the records of Bob, Charlie, and Eugene is ``E_BCU``.
"""

from __future__ import annotations

import enum
import itertools

from . import spacetime
from ._record import record
from .errors import RecordContextMismatchError, UnknownAgentError
from .scenario import (
    AGENTS,
    EVENT_OF_AGENT,
    PROTOCOL_CONTEXTS,
    OutcomeRecord,
    ScenarioModel,
)


@record
class DecoherenceEnvironment:
    """The agents whose outcome records have decohered into one environment."""

    id: str
    agents: frozenset[str]


class Assessment(enum.Enum):
    TRUE = "TRUE"
    FALSE = "FALSE"
    NOT_ASSESSABLE = "NOT_ASSESSABLE"


@record
class Proposition:
    """Claim that an agent's outcome took the given value."""

    agent: str
    value: int

    def __post_init__(self) -> None:
        if self.agent not in AGENTS:
            raise UnknownAgentError(f"unknown agent {self.agent!r}")
        if self.value not in (1, -1):
            raise ValueError(f"outcome value must be +1 or -1, got {self.value!r}")


def _env_id(agents) -> str:
    return "E_" + "".join(sorted(EVENT_OF_AGENT[a] for a in agents))


def primary_context(agent: str) -> DecoherenceEnvironment:
    """Smallest environment holding one agent's outcome record."""
    if agent not in AGENTS:
        raise UnknownAgentError(f"unknown agent {agent!r}; expected one of {AGENTS}")
    return DecoherenceEnvironment(_env_id((agent,)), frozenset({agent}))


def _records_commute(model: ScenarioModel, agents) -> bool:
    return all(model.observables_commute(a, b)
               for a, b in itertools.combinations(agents, 2))


def compatibly_extends(model: ScenarioModel, extension: DecoherenceEnvironment,
                       base: DecoherenceEnvironment) -> bool:
    """Whether ``extension`` holds everything ``base`` does, consistently."""
    return base.agents <= extension.agents and _records_commute(model, extension.agents)


def _union(environments) -> DecoherenceEnvironment:
    agents = frozenset().union(*(env.agents for env in environments))
    return DecoherenceEnvironment(_env_id(agents), agents)


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
NAMED_CONTEXT_IDS = frozenset(_env_id(agents) for agents in PROTOCOL_CONTEXTS)


@record
class ContextReport:
    """One maximal joint context, its environment, and its frame status."""

    environment: DecoherenceEnvironment
    named: bool
    frame: spacetime.FrameSolution


def maximal_contexts(model: ScenarioModel,
                     geometry: spacetime.Geometry) -> tuple[ContextReport, ...]:
    """All maximal sets of agents with pairwise-commuting records.

    Each context also carries the simultaneity-frame certificate of its
    events in ``geometry``.
    """
    cliques = []
    for size in range(len(AGENTS), 0, -1):
        for subset in itertools.combinations(AGENTS, size):
            if all(model.observables_commute(x, y)
                   for x, y in itertools.combinations(subset, 2)):
                if not any(set(subset) < set(c) for c in cliques):
                    cliques.append(subset)
    reports = []
    for clique in cliques:
        # Every pair in the clique commutes, so the union is consistent.
        env = _union(primary_context(a) for a in clique)
        frame = spacetime.frame_for_events([geometry.events[EVENT_OF_AGENT[a]]
                                            for a in clique])
        reports.append(ContextReport(env, env.id in NAMED_CONTEXT_IDS, frame))
    return tuple(sorted(reports, key=lambda r: r.environment.id))


def assess(model: ScenarioModel, proposition: Proposition,
           environment: DecoherenceEnvironment, record: OutcomeRecord) -> Assessment:
    """Evaluate a single-outcome claim relative to an environment.

    Returns NOT_ASSESSABLE when the environment does not compatibly extend
    the claimed agent's primary context; otherwise compares the claim with
    the sampled record, which must cover all of the environment's agents.
    """
    primary = primary_context(proposition.agent)
    if not compatibly_extends(model, environment, primary):
        return Assessment.NOT_ASSESSABLE
    missing = environment.agents - set(record.values)
    if missing:
        raise RecordContextMismatchError(
            f"outcome record lacks agents {sorted(missing)} required by "
            f"{environment.id}"
        )
    claimed = record.values[proposition.agent]
    return Assessment.TRUE if claimed == proposition.value else Assessment.FALSE

"""Three atoms, three sealed labs, and six measuring agents.

Alice, Bob and Charlie each premeasure the z-spin of their atom with an
ideal von Neumann interaction that copies the value into their lab's
pointer register.  Eugene, Johnny and Daniel later address whole labs:
each measures the conjugated x-observable obtained by dressing the atom's
sigma_x with the friend's interaction, so it acts jointly on atom plus
pointer.  The module builds these observables over a labeled register
layout, applies each premeasurement as a pointer flip controlled by the
measured observable, and evaluates joint Born tables on the exact
post-premeasurement state.

Every scenario observable, the friend's sigma_z and the pointer flip are
an XOR mask plus a phase rule on the flat index: a record and sigma_z are
+-1 diagonals (mask 0), the conjugated x flips every bit of the joint
(atom, lab) index and the pointer flip every bit of the lab's.  Built in
``qcore``'s mask form, with phases read only at a state's entries, they
act on psi, a ``qcore.SparseState`` with 8 amplitudes at every lab width,
and ``qcore.commutes`` decides each overlapping pair from their phases:
nothing grows with the width.

Pointer registers have ``lab_width`` qubits each and are modeled as one
site of dimension 2**w.  A friend's record observable reads the pointer in
the computational basis and takes a majority vote across its qubits (ties
broken by the first qubit, which only matters off the reachable subspace).

Randomness: each sampled context draws from its own counter-based stream
(Salmon et al., SC'11), keyed by the caller's seed and the context's agent
names: draw k is a SHA-256 hash of (seed, names, k).  Contexts sampled
under one seed draw independently of each other, and the same seed
replays the same draws, which is what the reporting layer relies on for
byte-identical reruns.
"""

from __future__ import annotations

import hashlib
import itertools

from . import qcore, spacetime, stabilizer
from ._record import record
from .qcore import Operator, RegisterLayout

FRIENDS = ("Alice", "Bob", "Charlie")
WIGNERS = ("Eugene", "Johnny", "Daniel")
AGENTS = FRIENDS + WIGNERS

# Spacetime event label of each agent's measurement, and the agent's lab.
EVENT_OF_AGENT = dict(zip(AGENTS, spacetime.EVENT_LABELS))
LAB_INDEX = {agent: spacetime.EVENT_LAB[event] for agent, event in EVENT_OF_AGENT.items()}

# Parity variable letter for each agent's outcome: its event letter, lower case.
OUTCOME_VARIABLE = {agent: event.lower() for agent, event in EVENT_OF_AGENT.items()}

# The protocol's five contexts, agents in lab order, with the outcome product psi
# fixes: the friends' records (none), then the parity contexts in constraint order.
PROTOCOL_CONTEXTS = {
    FRIENDS: None,
    ("Eugene", "Bob", "Charlie"): 1,
    ("Alice", "Johnny", "Charlie"): 1,
    ("Alice", "Bob", "Daniel"): 1,
    WIGNERS: -1,
}

# Widest lab accepted; no array is sized by it.  decohere divides by 2**(3w+3)
# as a float, which overflows from w = 341, and the tests run widths up to 57.
MAX_LAB_WIDTH = 57


def atom_label(i: int) -> str:
    return f"a{i}"


def lab_label(i: int) -> str:
    return f"L{i}"


def probe_label(i: int) -> str:
    """External pointer register a lab-measuring agent writes to."""
    return f"e{i}"


def _flip(pointer: RegisterLayout) -> Operator:
    """X on every qubit of a pointer register: basis state p goes to p ^ (d - 1)."""
    return Operator.from_pauli_mask(pointer, pointer.total_dim - 1, lambda j: 1.0)


def _majority_diagonal(width: int):
    """The record's phase rule: +1 where most pointer qubits read 0.  A tie
    goes to the first qubit, the top bit of j, which adds a half vote."""
    half = 2 ** (width - 1)
    return lambda j: 1.0 if 2 * j.bit_count() + (j >= half) <= width else -1.0


@record
class MeasurementSpec:
    """One agent's measurement: what is measured, onto which pointer."""

    observable: Operator
    pointer: RegisterLayout

    def apply(self, state: qcore.SparseState) -> qcore.SparseState:
        """This premeasurement, P_plus + F P_minus with F the pointer flip,
        applied to a sparse state through ``qcore.apply_controlled``."""
        return qcore.apply_controlled(self.observable, _flip(self.pointer), state)


class ScenarioModel:
    """Registers, initial state and measurement specs for one lab width."""

    def __init__(self, lab_width: int = 1):
        self.lab_width = lab_width
        pdim = 2**lab_width
        atoms = [(atom_label(i), 2) for i in (1, 2, 3)]
        labs = [(lab_label(i), pdim) for i in (1, 2, 3)]
        self.layout = RegisterLayout(tuple(atoms + labs))
        self._atom_layouts = {i: self.layout.subset([atom_label(i)]) for i in (1, 2, 3)}
        self._lab_layouts = {i: self.layout.subset([lab_label(i)]) for i in (1, 2, 3)}
        self._observables = {
            agent: (self.record_observable if agent in FRIENDS
                    else self.lifted_x_observable)(agent)
            for agent in AGENTS
        }
        # Built on first use: only contexts reads the pair table, and only
        # paradox and decohere need psi.
        self._commuting: dict[frozenset[str], bool] | None = None
        self._post_premeasurement: qcore.SparseState | None = None

    def probe_layout(self, agent: str) -> RegisterLayout:
        return RegisterLayout(((probe_label(LAB_INDEX[agent]), 2**self.lab_width),))

    def friend_observable(self, agent: str) -> Operator:
        """sigma_z on the agent's atom; what the friend premeasures."""
        return Operator.from_pauli_mask(self._atom_layouts[LAB_INDEX[agent]], 0,
                                        (1.0, -1.0).__getitem__)

    def friend_spec(self, agent: str) -> MeasurementSpec:
        i = LAB_INDEX[agent]
        return MeasurementSpec(self.friend_observable(agent), self._lab_layouts[i])

    def wigner_spec(self, agent: str) -> MeasurementSpec:
        return MeasurementSpec(self.scenario_observable(agent), self.probe_layout(agent))

    def lifted_x_observable(self, agent: str) -> Operator:
        """The atom's sigma_x conjugated by the friend's premeasurement.

        Acts on the atom + lab block; equal to sigma_x on the atom tensored
        with a flip of every lab pointer qubit, which flips every bit of the
        joint (atom, lab) index: mask d - 1.
        """
        i = LAB_INDEX[agent]
        block = self._atom_layouts[i].concat(self._lab_layouts[i])
        return Operator.from_pauli_mask(block, block.total_dim - 1, lambda j: 1.0)

    def record_observable(self, agent: str) -> Operator:
        """Majority-vote pointer reading of a friend's lab."""
        i = LAB_INDEX[agent]
        return Operator.from_pauli_mask(self._lab_layouts[i], 0,
                                        _majority_diagonal(self.lab_width))

    def scenario_observable(self, agent: str) -> Operator:
        """The outcome-bearing observable: pointer record or conjugated x.

        Built once, with the model, and shared by every caller (operators
        are immutable); ``record_observable`` and ``lifted_x_observable``
        build a fresh one.
        """
        return self._observables[agent]

    def observables_commute(self, x: str, y: str) -> bool:
        """Whether two agents' scenario observables commute.

        The first call checks all 15 pairs with ``qcore.commutes``; every
        later call, from any caller, reads that table.  An observable
        commutes with itself.
        """
        if x == y:
            return True
        if self._commuting is None:
            self._commuting = {
                frozenset(pair): qcore.commutes(*(self._observables[a] for a in pair))
                for pair in itertools.combinations(AGENTS, 2)
            }
        return self._commuting[frozenset((x, y))]

    def post_premeasurement_state(self) -> qcore.SparseState:
        """psi: the state after all three friends' premeasurements, a ``SparseState``.

        Built once, on first use, by ``run_friend_stage`` in the default
        order, and shared by every caller (states are immutable).
        """
        if self._post_premeasurement is None:
            self._post_premeasurement = run_friend_stage(self)
        return self._post_premeasurement

    def initial_state(self) -> qcore.SparseState:
        """Stabilized atom triple, every lab pointer ready in all-zeros, held sparse."""
        ghz = stabilizer.ghz_scenario_state(labels=tuple(atom_label(i) for i in (1, 2, 3)))
        labs_layout = self.layout.subset([lab_label(i) for i in (1, 2, 3)])
        ready = qcore.SparseState(labs_layout, {0: 1.0})
        return qcore.tensor(ghz, ready)


def run_friend_stage(model: ScenarioModel, order=FRIENDS) -> qcore.SparseState:
    """Sparse state after all three premeasurements, applied in the given
    order, a permutation of ``FRIENDS``."""
    state = model.initial_state()
    for agent in order:
        state = model.friend_spec(agent).apply(state)
    return state


def extend_with_probe(model: ScenarioModel, state: qcore.SparseState,
                      agent: str) -> qcore.SparseState:
    """Adjoin the agent's external pointer register, ready in all-zeros."""
    return qcore.tensor(state, qcore.SparseState(model.probe_layout(agent), {0: 1.0}))


def scenario_context(model: ScenarioModel, agents) -> dict[str, Operator]:
    """Ordered agent -> observable map for a joint measurement context."""
    return {agent: model.scenario_observable(agent) for agent in agents}


def context_born_table(state, context: dict[str, Operator]) -> qcore.BornTable:
    """Joint Born table of a context, rows annotated with agent names."""
    return qcore.born_table(tuple(context.values()), state, names=tuple(context))


@record
class OutcomeRecord:
    """One sampled joint outcome of a measurement context.

    ``values`` maps each agent of the context, in the context's order, to
    the outcome drawn for it.
    """

    values: dict[str, int]
    probability: float


class _OutcomeStream:
    """Uniform floats in [0, 1): draw k is the top 53 bits of
    sha256(seed as 8 bytes, names, k as 8 bytes) over 2**53."""

    def __init__(self, key: bytes):
        self._key = key
        self._counter = 0

    def random(self) -> float:
        block = self._key + self._counter.to_bytes(8, "big")
        self._counter += 1
        return (int.from_bytes(hashlib.sha256(block).digest()[:8], "big") >> 11) / 2**53


def outcome_rng(seed: int, names) -> _OutcomeStream:
    """The counter-based stream of one context: keyed by the seed and the
    context's agent names, so every context sampled under one seed has its
    own stream, and the same (seed, names) replays the same draws."""
    return _OutcomeStream(seed.to_bytes(8, "big") + ",".join(names).encode("utf-8"))


def sample_outcomes(table: qcore.BornTable, seed: int) -> OutcomeRecord:
    """One joint outcome drawn from a context's table, on the stream of
    (seed, the table's names); names are the agents."""
    outcome = table.sample(outcome_rng(seed, table.names))
    return OutcomeRecord(dict(zip(table.names, outcome)), table.rows[outcome])


@record
class ErasureReport:
    """Pointer statistics after a lab measurement scrambles a friend's record.

    ``p_plus_given_plus``: probability Alice's pointer reads +1 after Eugene's
    premeasurement, given it read +1 before; likewise for the minus branch.
    """

    p_plus_given_plus: float
    p_plus_given_minus: float


def erasure_check(model: ScenarioModel) -> ErasureReport:
    """Condition on Alice's record, run Eugene's premeasurement, reread the record.

    Works on the sparse psi throughout: Eugene's premeasurement goes in as
    its four mask-form terms (``MeasurementSpec.apply``), and the reread is
    a one-observable Born table.
    """
    post = model.post_premeasurement_state()
    record = model.scenario_observable("Alice")
    probs = {}
    for branch in (1, -1):
        cond, _ = qcore.project(record, post, branch)
        work = model.wigner_spec("Eugene").apply(extend_with_probe(model, cond, "Eugene"))
        probs[branch] = qcore.born_table((record,), work).rows[(1,)]
    return ErasureReport(probs[1], probs[-1])

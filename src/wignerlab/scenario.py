"""Three atoms, three sealed labs, and six measuring agents.

Alice, Bob and Charlie each premeasure the z-spin of their atom with an
ideal von Neumann interaction that copies the value into their lab's
pointer register.  Eugene, Johnny and Daniel later address whole labs:
each measures the conjugated x-observable obtained by dressing the atom's
sigma_x with the friend's interaction, so it acts jointly on atom plus
pointer.  The module builds all of these as explicit unitaries and
observables over a labeled register layout and evaluates joint Born tables
on the exact post-premeasurement state.

Pointer registers have ``lab_width`` qubits each and are modeled as one
site of dimension 2**w.  A friend's record observable reads the pointer in
the computational basis and takes a majority vote across its qubits (ties
broken by the first qubit, which only matters off the reachable subspace).

Randomness: outcome sampling uses numpy's Philox counter-based generator,
keyed by the caller's seed.  Distinct seeds give independent streams and
the same seed replays the same draws, which is what the reporting layer
relies on for byte-identical reruns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import qcore, stabilizer
from .errors import UnknownAgentError, ZeroBranchError
from .qcore import Operator, QState, RegisterLayout

FRIENDS = ("Alice", "Bob", "Charlie")
WIGNERS = ("Eugene", "Johnny", "Daniel")
AGENTS = FRIENDS + WIGNERS

LAB_INDEX = {
    "Alice": 1, "Bob": 2, "Charlie": 3,
    "Eugene": 1, "Johnny": 2, "Daniel": 3,
}

# Parity variable letter for each agent's outcome.
OUTCOME_VARIABLE = {
    "Alice": "a", "Bob": "b", "Charlie": "c",
    "Eugene": "u", "Johnny": "v", "Daniel": "w",
}

# Spacetime event label of each agent's measurement.
EVENT_OF_AGENT = {
    "Alice": "A", "Bob": "B", "Charlie": "C",
    "Eugene": "U", "Johnny": "V", "Daniel": "W",
}

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def atom_label(i: int) -> str:
    return f"a{i}"


def lab_label(i: int) -> str:
    return f"L{i}"


def probe_label(i: int) -> str:
    """External pointer register a lab-measuring agent writes to."""
    return f"e{i}"


def _check_agent(agent: str) -> None:
    if agent not in AGENTS:
        raise UnknownAgentError(f"unknown agent {agent!r}; expected one of {AGENTS}")


def vn_unitary(observable: Operator, pointer: RegisterLayout) -> Operator:
    """Premeasurement unitary P_plus x I + P_minus x F for a +-1 observable.

    F flips every qubit of the pointer register, so a pointer prepared in
    all-zeros ends correlated with the observable's eigenvalue.
    """
    plus, minus = qcore.spectral_projectors(observable)
    dp = pointer.total_dim
    flip = np.eye(dp, dtype=np.complex128)[::-1]  # X on every pointer qubit
    mat = np.kron(plus.matrix, np.eye(dp)) + np.kron(minus.matrix, flip)
    return Operator(observable.layout.concat(pointer), mat, observable.tol)


def _majority_diagonal(width: int) -> np.ndarray:
    dim = 2**width
    diag = np.empty(dim)
    for idx in range(dim):
        ones = bin(idx).count("1")
        zeros = width - ones
        if ones == zeros:
            diag[idx] = 1.0 if idx < dim // 2 else -1.0  # tie: first qubit decides
        else:
            diag[idx] = 1.0 if zeros > ones else -1.0
    return diag


@dataclass(frozen=True)
class MeasurementSpec:
    """One agent's measurement: what is measured, onto which pointer."""

    agent: str
    stage: str  # "friend" | "wigner"
    observable: Operator = field(repr=False)
    pointer: RegisterLayout = field(repr=False)

    def unitary(self) -> Operator:
        return vn_unitary(self.observable, self.pointer)


class ScenarioModel:
    """Registers, initial state and measurement specs for one lab width."""

    def __init__(self, lab_width: int = 1, tol: float = qcore.STRUCTURAL_TOL):
        if not isinstance(lab_width, int) or lab_width < 1:
            raise ValueError(f"lab_width must be a positive integer, got {lab_width!r}")
        self.lab_width = lab_width
        self.tol = tol
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
        # Built on first use: only contexts reads the pair table, and contexts
        # never needs psi, which would take 2 GiB at lab_width 8.
        self._commuting: dict[frozenset[str], bool] | None = None
        self._post_premeasurement: QState | None = None

    def probe_layout(self, agent: str) -> RegisterLayout:
        _check_agent(agent)
        return RegisterLayout(((probe_label(LAB_INDEX[agent]), 2**self.lab_width),))

    def atom_observable(self, i: int, matrix: np.ndarray) -> Operator:
        return Operator(self._atom_layouts[i], matrix, self.tol)

    def friend_observable(self, agent: str) -> Operator:
        """sigma_z on the agent's atom; what the friend premeasures."""
        _check_agent(agent)
        if agent not in FRIENDS:
            raise UnknownAgentError(f"{agent} is not a friend agent")
        return self.atom_observable(LAB_INDEX[agent], _SIGMA_Z)

    def friend_spec(self, agent: str) -> MeasurementSpec:
        i = LAB_INDEX[agent]
        return MeasurementSpec(agent, "friend", self.friend_observable(agent),
                               self._lab_layouts[i])

    def wigner_spec(self, agent: str) -> MeasurementSpec:
        _check_agent(agent)
        if agent not in WIGNERS:
            raise UnknownAgentError(f"{agent} is not a lab-measuring agent")
        return MeasurementSpec(agent, "wigner", self.scenario_observable(agent),
                               self.probe_layout(agent))

    def lifted_x_observable(self, agent: str) -> Operator:
        """The atom's sigma_x conjugated by the friend's premeasurement.

        Acts on the atom + lab block; equal to sigma_x on the atom tensored
        with a flip of every lab pointer qubit.
        """
        _check_agent(agent)
        if agent not in WIGNERS:
            raise UnknownAgentError(f"{agent} is not a lab-measuring agent")
        i = LAB_INDEX[agent]
        flip = np.eye(2**self.lab_width, dtype=np.complex128)[::-1]
        return Operator(self._atom_layouts[i].concat(self._lab_layouts[i]),
                        np.kron(_SIGMA_X, flip), self.tol)

    def record_observable(self, agent: str) -> Operator:
        """Majority-vote pointer reading of a friend's lab."""
        _check_agent(agent)
        if agent not in FRIENDS:
            raise UnknownAgentError(
                f"{agent} keeps no lab record; record_observable is for friends"
            )
        i = LAB_INDEX[agent]
        return Operator(self._lab_layouts[i], np.diag(_majority_diagonal(self.lab_width)),
                        self.tol)

    def scenario_observable(self, agent: str) -> Operator:
        """The outcome-bearing observable: pointer record or conjugated x.

        Built once, with the model, and shared by every caller (operators
        are immutable); ``record_observable`` and ``lifted_x_observable``
        build a fresh one.
        """
        _check_agent(agent)
        return self._observables[agent]

    def observables_commute(self, x: str, y: str) -> bool:
        """Whether two agents' scenario observables commute.

        The first call checks all 15 pairs with ``qcore.commutes``; every
        later call, from any caller, reads that table.  An observable
        commutes with itself.
        """
        _check_agent(x)
        _check_agent(y)
        if x == y:
            return True
        if self._commuting is None:
            self._commuting = {
                frozenset(pair): qcore.commutes(*(self._observables[a] for a in pair))
                for pair in itertools.combinations(AGENTS, 2)
            }
        return self._commuting[frozenset((x, y))]

    def post_premeasurement_state(self) -> QState:
        """psi: the state after all three friends' premeasurements.

        Built once, on first use, by ``run_friend_stage`` in the default
        order, and shared by every caller (states are immutable).
        """
        if self._post_premeasurement is None:
            self._post_premeasurement = run_friend_stage(self)
        return self._post_premeasurement

    def initial_state(self) -> QState:
        """Stabilized atom triple, every lab pointer ready in all-zeros."""
        ghz = stabilizer.ghz_scenario_state(labels=tuple(atom_label(i) for i in (1, 2, 3)))
        pdim = 2**self.lab_width
        labs_layout = RegisterLayout(tuple((lab_label(i), pdim) for i in (1, 2, 3)))
        ready = qcore.basis_state(labs_layout, 0)
        return qcore.tensor(ghz, ready)


def build_scenario(lab_width: int = 1, tol: float = qcore.STRUCTURAL_TOL) -> ScenarioModel:
    return ScenarioModel(lab_width, tol)


def run_friend_stage(model: ScenarioModel, order=FRIENDS) -> QState:
    """State after all three premeasurements, applied in the given order."""
    order = tuple(order)
    if sorted(order) != sorted(FRIENDS):
        raise UnknownAgentError(f"friend order must permute {FRIENDS}, got {order}")
    state = model.initial_state()
    for agent in order:
        state = qcore.apply(model.friend_spec(agent).unitary(), state)
    return state


def extend_with_probe(model: ScenarioModel, state: QState, agent: str) -> QState:
    """Adjoin the agent's external pointer register, ready in all-zeros."""
    probe = model.probe_layout(agent)
    return qcore.tensor(state, qcore.basis_state(probe, 0))


def run_wigner_stage(model: ScenarioModel, state: QState, order=WIGNERS) -> QState:
    """Apply lab measurements for the given agents, adjoining probes as needed."""
    for agent in order:
        _check_agent(agent)
        if agent not in WIGNERS:
            raise UnknownAgentError(f"{agent} has no lab measurement")
        state = extend_with_probe(model, state, agent)
        state = qcore.apply(model.wigner_spec(agent).unitary(), state)
    return state


def scenario_context(model: ScenarioModel, agents) -> dict[str, Operator]:
    """Ordered agent -> observable map for a joint measurement context."""
    out: dict[str, Operator] = {}
    for agent in agents:
        _check_agent(agent)
        if agent in out:
            raise UnknownAgentError(f"agent {agent} listed twice")
        out[agent] = model.scenario_observable(agent)
    return out


def context_born_table(state: QState, context: dict[str, Operator],
                       tol: float = qcore.NUMERIC_TOL) -> qcore.BornTable:
    """Joint Born table of a context, rows annotated with agent names."""
    return qcore.born_table(tuple(context.values()), state,
                            names=tuple(context), tol=tol)


@dataclass(frozen=True)
class OutcomeRecord:
    """One sampled joint outcome of a measurement context."""

    values: dict[str, int]
    context: tuple[str, ...]
    probability: float


def outcome_rng(seed: int) -> np.random.Generator:
    """Philox counter-based stream for the given seed (splittable, stable)."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample_outcomes(table: qcore.BornTable, seed: int) -> OutcomeRecord:
    """One joint outcome drawn from a context's table; names are the agents."""
    outcome = table.sample(outcome_rng(seed))
    return OutcomeRecord(dict(zip(table.names, outcome)), table.names,
                         table.rows[outcome])


def conditional_state(state: QState, observable: Operator, value: int,
                      tol: float = qcore.NUMERIC_TOL) -> tuple[QState, float]:
    """Renormalized post-selection of a +-1 outcome; returns (state, probability)."""
    if value not in (1, -1):
        raise ValueError(f"outcome value must be +1 or -1, got {value!r}")
    plus, minus = qcore.spectral_projectors(observable)
    proj = plus if value == 1 else minus
    amp = qcore._apply_to_vector(proj.matrix, proj.layout, state)
    p = float(np.real(np.vdot(amp, amp)))
    if p <= tol:
        raise ZeroBranchError(f"outcome {value:+d} has probability {p}")
    return QState(state.layout, amp / np.sqrt(p), state.tol), p


@dataclass(frozen=True)
class ErasureReport:
    """Pointer statistics after a lab measurement scrambles a friend's record.

    ``p_plus_given_plus``: probability Alice's pointer reads +1 after Eugene's
    premeasurement, given it read +1 before; likewise for the minus branch.
    """

    p_plus_given_plus: float
    p_plus_given_minus: float


def erasure_check(model: ScenarioModel, apply_measurement: bool = True) -> ErasureReport:
    """Condition on Alice's record, run Eugene's premeasurement, reread the record."""
    post = model.post_premeasurement_state()
    record = model.scenario_observable("Alice")
    plus_proj, _ = qcore.spectral_projectors(record)
    probs = {}
    for branch in (1, -1):
        cond, _ = conditional_state(post, record, branch)
        work = extend_with_probe(model, cond, "Eugene")
        if apply_measurement:
            work = qcore.apply(model.wigner_spec("Eugene").unitary(), work)
        amp = qcore._apply_to_vector(plus_proj.matrix, plus_proj.layout, work)
        probs[branch] = float(np.real(np.vdot(amp, amp)))
    return ErasureReport(probs[1], probs[-1])

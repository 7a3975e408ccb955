"""Phased Pauli strings and joint eigenstate construction.

A ``PauliString`` is a phase in {+1, -1, +i, -i} times a word over
{I, X, Y, Z}.  Commutation is decided exactly, by counting the positions
where two strings anticommute; nothing here touches floating point until a
string is turned into an operator, which ``to_operator`` builds in
``qcore``'s mask form with its flags set at construction.

Serialized form is sign then letters (``+XZZ``, ``-XXX``); imaginary phases
spell ``+i`` / ``-i`` (``+iZY``).  ``parse_pauli`` inverts ``str()``
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import qcore
from .errors import (
    LengthMismatchError,
    NoncommutingGeneratorsError,
    NotHermitianError,
    RankNotOneError,
)

_LETTERS = "IXYZ"

_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PHASE_VAL = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@dataclass(frozen=True)
class PauliString:
    """Immutable phase * letters word; ``phase_exp`` is k in i**k."""

    phase_exp: int
    letters: str

    def __post_init__(self) -> None:
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError(f"phase exponent {self.phase_exp} not in 0..3")
        if not self.letters or any(c not in _LETTERS for c in self.letters):
            raise ValueError(f"letters {self.letters!r} must be nonempty over I/X/Y/Z")

    @property
    def phase(self) -> complex:
        return _PHASE_VAL[self.phase_exp]

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exp in (0, 2)

    def __str__(self) -> str:
        return _PHASE_STR[self.phase_exp] + self.letters

    def __len__(self) -> int:
        return len(self.letters)


def parse_pauli(text: str) -> PauliString:
    """Inverse of str(): '+XZZ', '-XXX', '+iXY', '-iZ', or bare 'XZZ' (phase +1)."""
    body = text.strip()
    exp = 0
    if body.startswith("+i") or body.startswith("-i"):
        exp = 1 if body[0] == "+" else 3
        body = body[2:]
    elif body.startswith("+") or body.startswith("-"):
        exp = 0 if body[0] == "+" else 2
        body = body[1:]
    return PauliString(exp, body)


def pauli_commutes(a: PauliString, b: PauliString) -> bool:
    """Exact commutation: even number of positions with distinct non-identity letters."""
    if len(a) != len(b):
        raise LengthMismatchError(f"length {len(a)} vs {len(b)}")
    anti = sum(
        1
        for la, lb in zip(a.letters, b.letters)
        if la != "I" and lb != "I" and la != lb
    )
    return anti % 2 == 0


def to_operator(p: PauliString, labels=None) -> qcore.Operator:
    """The string in mask form over a qubit layout (default labels q1..qn).

    Y|b> = i(-1)**b |1 - b> and Z|b> = (-1)**b |b>, first letter on the top
    bit: the mask holds the X and Y letters, and the phase rule phase(j) is
    the string's phase times i**(number of Y) times (-1)**popcount(j & Y-or-Z bits).
    """
    if labels is None:
        labels = tuple(f"q{i + 1}" for i in range(len(p)))
    labels = tuple(labels)
    if len(labels) != len(p):
        raise LengthMismatchError(f"{len(labels)} labels for {len(p)} letters")
    flips = reads = 0
    for letter in p.letters:
        flips = 2 * flips + (letter in "XY")
        reads = 2 * reads + (letter in "YZ")
    base = p.phase_exp + p.letters.count("Y")
    values = _PHASE_VAL if base % 2 else {0: 1.0, 2: -1.0}
    return qcore.Operator.from_pauli_mask(
        qcore.qubits(*labels), flips, lambda j: values[(base + 2 * (j & reads).bit_count()) % 4])


def joint_eigenstate(generators, labels=None) -> qcore.QState:
    """Unique joint +1 eigenstate of commuting hermitian Pauli generators.

    Builds the projector prod (I + G_i)/2 densely and requires it to have
    rank 1; the extracted state fixes its global phase by making the first
    nonzero amplitude real and positive.
    """
    gens = tuple(generators)
    if not gens:
        raise RankNotOneError("no generators given")
    n = len(gens[0])
    for g in gens:
        if len(g) != n:
            raise LengthMismatchError("generators of unequal length")
        if not g.is_hermitian:
            raise NotHermitianError(f"generator {g} has imaginary phase")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not pauli_commutes(gens[i], gens[j]):
                raise NoncommutingGeneratorsError(
                    f"generators {gens[i]} and {gens[j]} anticommute"
                )
    if labels is None:
        labels = tuple(f"q{i + 1}" for i in range(n))
    import numpy as np

    layout = qcore.qubits(*labels)
    d = layout.total_dim
    proj = np.eye(d, dtype=np.complex128)
    for g in gens:
        proj = proj @ (np.eye(d) + to_operator(g, labels).matrix) / 2.0
    rank = float(np.real(np.trace(proj)))
    if abs(rank - 1.0) > 1e-9:
        raise RankNotOneError(
            f"projector rank {rank:.6f}; generators dependent or contradictory"
        )
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    vec = proj[:, col]
    vec = vec / np.linalg.norm(vec)
    first = int(np.flatnonzero(np.abs(vec) > 1e-12)[0])
    vec = vec * (vec[first].conjugate() / abs(vec[first]))
    return qcore.QState(layout, vec)


SCENARIO_GENERATORS = (
    parse_pauli("+XZZ"),
    parse_pauli("+ZXZ"),
    parse_pauli("+ZZX"),
)


def ghz_scenario_state(labels=("q1", "q2", "q3")) -> qcore.QState:
    """Three-qubit state jointly stabilized by XZZ, ZXZ, ZZX."""
    return joint_eigenstate(SCENARIO_GENERATORS, labels)

"""Phased Pauli strings and joint eigenstate construction.

A ``PauliString`` is a phase in {+1, -1, +i, -i} times a word over
{I, X, Y, Z}.  Commutation is decided exactly, by counting the positions
where two strings anticommute; nothing here touches floating point until a
string is turned into an operator, which ``to_operator`` builds in
``qcore``'s mask form.
``joint_eigenstate`` builds a stabilizer state from those operators in
exact arithmetic, on ``qcore``'s sparse v + G v step: each column
prod (I + G_i)|x> holds Gaussian integers, the joint projector's rank is
the sum of their squared norms over 4**m, and the state is a
``qcore.SparseState`` of Gaussian integers over one square root, built
with no tolerance and no dense array.

Serialized form is sign then letters (``+XZZ``, ``-XXX``); imaginary phases
spell ``+i`` / ``-i`` (``+iZY``).  ``parse_pauli`` inverts ``str()``
bit-exactly.
"""

from __future__ import annotations

import math

from . import qcore
from ._record import record
from .errors import NoncommutingGeneratorsError, RankNotOneError

_LETTERS = "IXYZ"

_PHASE_STR = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PHASE_VAL = {0: 1 + 0j, 1: 1j, 2: -1 + 0j, 3: -1j}


@record
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
    """Exact commutation of strings of one length: even number of positions
    with distinct non-identity letters."""
    anti = sum(
        1
        for la, lb in zip(a.letters, b.letters)
        if la != "I" and lb != "I" and la != lb
    )
    return anti % 2 == 0


def to_operator(p: PauliString, labels=None) -> qcore.Operator:
    """The string in mask form over a qubit layout, one label per letter
    (default q1..qn).

    Y|b> = i(-1)**b |1 - b> and Z|b> = (-1)**b |b>, first letter on the top
    bit: the mask holds the X and Y letters, and the phase rule phase(j) is
    the string's phase times i**(number of Y) times (-1)**popcount(j & Y-or-Z bits).
    """
    if labels is None:
        labels = tuple(f"q{i + 1}" for i in range(len(p)))
    flips = reads = 0
    for letter in p.letters:
        flips = 2 * flips + (letter in "XY")
        reads = 2 * reads + (letter in "YZ")
    base = p.phase_exp + p.letters.count("Y")
    values = _PHASE_VAL if base % 2 else {0: 1.0, 2: -1.0}
    return qcore.Operator.from_pauli_mask(
        qcore.qubits(*labels), flips, lambda j: values[(base + 2 * (j & reads).bit_count()) % 4])


def commuting_hermitian(generators) -> tuple[PauliString, ...]:
    """The generators, nonempty, hermitian and of one length, as a tuple,
    checked pairwise commuting."""
    gens = tuple(generators)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not pauli_commutes(gens[i], gens[j]):
                raise NoncommutingGeneratorsError(
                    f"generators {gens[i]} and {gens[j]} anticommute"
                )
    return gens


def joint_eigenstate(generators, labels=None) -> qcore.SparseState:
    """Unique joint +1 eigenstate of commuting hermitian Pauli generators, built exactly.

    P = prod (I + G_i)/2 is the joint +1 projector.  Each v_x =
    prod (I + G_i)|x> is built from {x: 1} by ``qcore``'s v + G v step, the
    one ``born_table`` branches into; its amplitudes are Gaussian integers.
    The v_x are the columns of 2**m P, so sum_x ||v_x||**2 = 4**m Tr P, an
    exact integer, and rank 1 is decided with no tolerance.  The state is
    v / sqrt(||v||**2) for the first nonzero v = v_x: every earlier
    amplitude is 0 and <x|v> > 0, so the first nonzero amplitude is real
    and positive (Dehaene and De Moor, PRA 68, 042318 (2003), give the same
    state as a quadratic form over an affine subspace of GF(2)**n).
    """
    gens = commuting_hermitian(generators)
    n, m = len(gens[0]), len(gens)
    ops = [to_operator(g, labels) for g in gens]
    layout = ops[0].layout
    columns = []
    for x in range(2**n):
        v = {x: 1}
        for op in ops:
            v = qcore._sparse_children(op, layout, v)[0]
        columns.append(v)
    total = math.fsum(map(qcore._sparse_norm2, columns))
    if total != 4**m:
        raise RankNotOneError(f"projector rank {total / 4**m:g}; "
                              "generators dependent or contradictory")
    v = next(v for v in columns if v)
    norm = math.sqrt(qcore._sparse_norm2(v))
    return qcore.SparseState(layout, {j: complex(a) / norm for j, a in sorted(v.items())})


SCENARIO_GENERATORS = (
    parse_pauli("+XZZ"),
    parse_pauli("+ZXZ"),
    parse_pauli("+ZZX"),
)


def ghz_scenario_state(labels=("q1", "q2", "q3")) -> qcore.SparseState:
    """Three-qubit state jointly stabilized by XZZ, ZXZ, ZZX."""
    return joint_eigenstate(SCENARIO_GENERATORS, labels)

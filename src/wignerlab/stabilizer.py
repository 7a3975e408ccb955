"""Phased Pauli strings and joint eigenstate construction.

A ``PauliString`` is a phase in {+1, -1, +i, -i} times a word over
{I, X, Y, Z}.  Commutation is decided exactly, by counting the positions
where two strings anticommute; nothing here touches floating point until a
string is turned into an operator, which ``to_operator`` builds in
``qcore``'s mask form.
``joint_eigenstate`` builds a stabilizer state from those mask forms in
exact arithmetic: the joint projector's rank is a sum of Gaussian
integers, and the state is a ``qcore.SparseState`` of Gaussian integers
over one square root, built with no tolerance and no dense array.

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


def _trace(forms, d: int) -> complex:
    """Tr of the product of mask forms on dimension d: 0 unless their masks
    cancel, else the sum over j of the phases met from |j> back to |j>."""
    product_mask = 0
    for mask, _ in forms:
        product_mask ^= mask
    if product_mask:
        return 0
    trace = 0
    for j in range(d):
        amp, k = 1, j
        for mask, phase in forms:
            amp *= phase(k)
            k ^= mask
        trace += amp
    return trace


def _stabilized(forms, x: int) -> dict[int, complex]:
    """prod (I + G_i) |x> from the generators' mask forms, keyed by flat
    index, exact zeros dropped: every amplitude is a Gaussian integer."""
    v = {x: 1}
    for mask, phase in forms:
        out = dict(v)
        for j, a in v.items():
            out[j ^ mask] = out.get(j ^ mask, 0) + phase(j) * a
        v = {j: a for j, a in out.items() if a}
    return v


def joint_eigenstate(generators, labels=None) -> qcore.SparseState:
    """Unique joint +1 eigenstate of commuting hermitian Pauli generators, built exactly.

    P = prod (I + G_i)/2 is the joint +1 projector.  Its rank, Tr P, is
    2**-m times the sum over subsets S of the generators of Tr prod_S G_i,
    and only a product whose masks cancel to 0 has a nonzero trace; every
    trace is a Gaussian integer, so rank 1 is decided with no tolerance.
    The state is P|x>/||P|x>|| for the first basis index x with P|x> != 0:
    with v = prod (I + G_i)|x>, amplitude j is v_j / sqrt(||v||**2).  Every
    earlier amplitude is 0 and <x|v> > 0, so the first nonzero amplitude is
    real and positive (Dehaene and De Moor, PRA 68, 042318 (2003), give the
    same state as a quadratic form over an affine subspace of GF(2)**n).
    """
    gens = commuting_hermitian(generators)
    n, m = len(gens[0]), len(gens)
    if labels is None:
        labels = tuple(f"q{i + 1}" for i in range(n))
    forms = [to_operator(g, labels).mask_form for g in gens]
    trace = sum(_trace([f for i, f in enumerate(forms) if subset >> i & 1], 2**n)
                for subset in range(2**m))
    if trace != 2**m:
        raise RankNotOneError(f"projector rank {trace.real / 2**m:g}; "
                              "generators dependent or contradictory")
    for x in range(2**n):
        v = _stabilized(forms, x)
        if v:
            break
    norm = math.sqrt(math.fsum(a.real * a.real + a.imag * a.imag for a in v.values()))
    return qcore.SparseState(qcore.qubits(*labels),
                             {j: complex(a) / norm for j, a in sorted(v.items())})


SCENARIO_GENERATORS = (
    parse_pauli("+XZZ"),
    parse_pauli("+ZXZ"),
    parse_pauli("+ZZX"),
)


def ghz_scenario_state(labels=("q1", "q2", "q3")) -> qcore.SparseState:
    """Three-qubit state jointly stabilized by XZZ, ZXZ, ZZX."""
    return joint_eigenstate(SCENARIO_GENERATORS, labels)

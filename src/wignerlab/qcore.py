"""Linear algebra over small labeled quantum registers, dense or sparse.

States, operators and density matrices all carry a ``RegisterLayout`` naming
their subsystems.  An operator may be supported on a subset of a state's
registers; ``apply``, ``expectation`` and ``born_table`` embed it by tensor
contraction instead of materializing a full-space matrix, so wide scenarios
stay cheap as long as each operator's own support is small.

``QState``, ``DensityMatrix`` and a dense ``Operator`` are dense complex128.
An ``Operator`` on a layout of power-of-two dimension may instead be held
in mask form, O|j> = phase(j) |j XOR mask>: an XOR mask on the flat index
plus a phase rule, a function of j evaluated only where it is read, so it
holds nothing sized by the dimension, as for Pauli strings and the
scenario's observables (the Gottesman-Knill form: Aaronson and Gottesman,
PRA 70, 052328 (2004); an affine map over GF(2): Dehaene and De Moor, PRA
68, 042318 (2003)).  Its flags are set at construction (stated by
``from_pauli_mask``, computed by ``from_mask``), and its dense
``matrix`` is built only on first use.  A ``SparseState`` keeps only the
nonzero amplitudes of a pure state, keyed by one index per register.
``born_table``, ``expectation``, ``project`` (one +-1 outcome),
``apply_controlled`` (a unitary where a +-1 observable reads -1) and
``split_register`` (the branches on one register's basis states) move
each entry by the mask form, through a per-layout (axis, mask digit) plan
the operator caches, in plain Python with no numpy call; states stay
sparse, so the cost follows the number of entries, not the
dimension, and sums are correctly rounded ``math.fsum`` sums.
``product_expectation`` reads a product's expectation and its part
diagonal in one register's basis.  Sparse results, and ``support_state``'s
(each register shrunk to the index values in use), are adopted through
``SparseState._trusted``, as their indices and norm hold by construction.
``to_dense()`` gives the ``QState`` back where the dimension allows.
numpy is imported by the functions that build or read a dense array, not
by the module, so the mask-form paths run without loading it.

Commutation is locality-aware.  Operators on disjoint registers commute
exactly: every entry of (A x I)(I x B) and of (I x B)(A x I) is the same
single product a_ij * b_kl, so for finite matrices the dense commutator is
identically zero.  ``commutes`` returns True for such pairs without forming
it, and checks only overlapping pairs densely on the union layout.

``born_table`` walks the outcome tree depth first: each inner node applies
its observable once and branches into v + O v and v - O v, so k
observables cost 2**k - 1 contractions (7 for three) rather than one per
projector per row (24).  The factors 1/2 of the projectors are applied once
per row as an exact power-of-two rescale, 4**-k for a squared norm and
2**-k for a trace.  ``_contract`` returns C-contiguous arrays in layout
order, so the sums that follow each contraction and the next contraction
read memory in order.

Tolerances are fixed, not per object: ``STRUCTURAL_TOL`` (1e-10) guards
the operator flags, state norms and density-matrix checks; ``NUMERIC_TOL``
(1e-12) guards commutators, zero branches, nonreal expectation residues
and negative Born-table rows; ``BORN_SUM_TOL`` (1e-9) bounds how far a
Born table's rows may sum from 1.  The CLI's report assertions and the
``zero_tol`` support threshold it passes to ``BornTable.support`` and the
``paradox`` searches are one more fixed constant, ``cli.REPORT_TOL`` (1e-10).

All value types are immutable: arrays are copied on construction and marked
read-only (the trusted producers adopt their own fresh values instead), and
every operation returns a fresh object.  Instances are safe to share
across threads.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import (
    ContextIncompatibleError,
    LabelClashError,
    LayoutMismatchError,
    NonrealResultError,
    NotHermitianError,
    NotInvolutoryError,
    NotUnitaryError,
    UnknownLabelError,
    ZeroBranchError,
)

if TYPE_CHECKING:
    import numpy as np

# Operator flags (hermitian, unitary, involutory), state norms and the
# density-matrix checks.
STRUCTURAL_TOL = 1e-10
# Commutators, zero branches of ``project``, nonreal expectation residues
# and negative Born-table rows.
NUMERIC_TOL = 1e-12
# How far a Born table's rows may sum from 1.
BORN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered (label, dimension) register sites; labels, shape and axes built once."""

    sites: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = tuple(s[0] for s in self.sites)
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise LabelClashError(f"duplicate register labels: {dup}")
        for label, dim in self.sites:
            if not isinstance(dim, int) or dim < 1:
                raise ValueError(f"register {label!r} has invalid dimension {dim!r}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "shape", tuple(s[1] for s in self.sites))
        object.__setattr__(self, "_axes", {l: i for i, l in enumerate(labels)})

    @property
    def total_dim(self) -> int:
        return math.prod(self.shape)

    def axis(self, label: str) -> int:
        try:
            return self._axes[label]
        except KeyError:
            raise UnknownLabelError(f"no register labeled {label!r}") from None

    def dim(self, label: str) -> int:
        return self.sites[self.axis(label)][1]

    def subset(self, labels) -> "RegisterLayout":
        """Sub-layout of the given labels, in this layout's order."""
        want = set(labels)
        missing = want - set(self.labels)
        if missing:
            raise UnknownLabelError(f"no register labeled {sorted(missing)}")
        return RegisterLayout(tuple(s for s in self.sites if s[0] in want))

    def concat(self, other: "RegisterLayout") -> "RegisterLayout":
        return RegisterLayout(self.sites + other.sites)


def qubits(*labels: str) -> RegisterLayout:
    """Layout of dimension-2 sites."""
    return RegisterLayout(tuple((l, 2) for l in labels))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class QState:
    """Normalized pure state over a layout."""

    def __init__(self, layout: RegisterLayout, amplitudes):
        import numpy as np

        arr = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        if arr.size != layout.total_dim:
            raise LayoutMismatchError(
                f"amplitude vector of size {arr.size} does not fit layout of dimension "
                f"{layout.total_dim}"
            )
        _check_norm(float(np.linalg.norm(arr)))
        self.layout = layout
        self.amplitudes = _frozen(arr)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.layout.shape)

    def __repr__(self) -> str:
        return f"QState(dim={self.layout.total_dim}, labels={self.layout.labels})"


def _check_norm(norm: float) -> None:
    if abs(norm - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"state norm {norm} deviates from 1 beyond {STRUCTURAL_TOL}")


def basis_state(layout: RegisterLayout, index: int = 0) -> QState:
    import numpy as np

    amp = np.zeros(layout.total_dim, dtype=np.complex128)
    amp[index] = 1.0
    return QState(layout, amp)


class _Trusted:
    """A fresh value valid by construction, which ``_trusted`` on a class
    passes to its ``__init__``: every instance is built in that one place."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class SparseState:
    """Normalized pure state held as its nonzero amplitudes.

    ``entries`` maps index tuples, one index per register in layout order,
    to amplitudes; exact zeros are dropped.  Tuples rather than flat
    indices: a flat index over n qubits overflows int64 once n > 63, which
    the scenario reaches at lab_width 21.  The constructor checks every
    index and the norm, except for ``qcore``'s own producers (``_trusted``).
    """

    def __init__(self, layout: RegisterLayout, entries):
        self.layout = layout
        if isinstance(entries, _Trusted):
            self.entries = MappingProxyType(entries.value)
            return
        shape = layout.shape
        kept = {}
        for index, amp in dict(entries).items():
            index = tuple(int(i) for i in index)
            if len(index) != len(shape) or not all(0 <= i < d for i, d in zip(index, shape)):
                raise LayoutMismatchError(f"index {index} does not fit layout shape {shape}")
            if amp != 0:
                kept[index] = complex(amp)
        _check_norm(math.sqrt(_sparse_norm2(kept)))
        self.entries = MappingProxyType(kept)

    @classmethod
    def _trusted(cls, layout: RegisterLayout, entries: dict) -> "SparseState":
        """Adopt ``entries`` as they are: tuple indices that fit ``layout``,
        complex amplitudes, no exact zero, unit norm; the caller must hold no
        other reference."""
        return cls(layout, _Trusted(entries))

    @classmethod
    def from_dense(cls, state: QState) -> "SparseState":
        import numpy as np

        tens = state.tensor_view()
        return cls(state.layout,
                   {index: tens[index] for index in zip(*np.nonzero(tens))})

    def to_dense(self) -> QState:
        import numpy as np

        tens = np.zeros(self.layout.shape, dtype=np.complex128)
        for index, amp in self.entries.items():
            tens[index] = amp
        return QState(self.layout, tens)

    def nonzero(self) -> np.ndarray:
        """The nonzero amplitudes in flat-index order."""
        import numpy as np

        return np.array([self.entries[index] for index in sorted(self.entries)],
                        dtype=np.complex128)

    def __repr__(self) -> str:
        return f"SparseState(entries={len(self.entries)}, labels={self.layout.labels})"


def _sparse_norm2(entries) -> float:
    """Squared norm of sparse entries, one correctly rounded ``math.fsum``."""
    return math.fsum(a.real * a.real + a.imag * a.imag for a in entries.values())


def _plan(op: "Operator", layout: RegisterLayout) -> tuple:
    """(axis in ``layout``, mask digit, stride in ``op``'s flat index) per
    register of a mask-form ``op``, built once per layout."""
    if layout not in op._plans:
        dims = op.layout.shape
        strides = [math.prod(dims[r + 1:]) for r in range(len(dims))]
        op._plans[layout] = tuple(
            (ax, op.mask_form[0] // stride % dim, stride)
            for ax, dim, stride in zip(_check_sublayout(op.layout, layout), dims, strides))
    return op._plans[layout]


def _sparse_contract(op: "Operator", layout: RegisterLayout, entries) -> dict:
    """A mask-form operator applied to sparse entries: entry j moves to j ^ mask.

    Each register's dimension is a power of two, so that XOR is each
    register's index XORed with the mask's digit for that register.
    """
    if op.mask_form is None:
        raise TypeError("a sparse state takes only operators in mask form")
    plan = _plan(op, layout)
    phase = op.mask_form[1]
    out = {}
    for index, amp in entries.items():
        j = 0
        moved = list(index)
        for ax, digit, stride in plan:
            j += index[ax] * stride
            moved[ax] = index[ax] ^ digit
        out[tuple(moved)] = phase(j) * amp
    return out


def _sparse_children(op: "Operator", layout: RegisterLayout, node) -> tuple[dict, dict]:
    """(v + O v, v - O v) of sparse entries v, exact zeros dropped."""
    return _sparse_sums(node, _sparse_contract(op, layout, node))


def _sparse_sums(node, flipped) -> tuple[dict, dict]:
    """(node + flipped, node - flipped) of sparse entries, exact zeros dropped."""
    plus, minus = dict(node), dict(node)
    for index, amp in flipped.items():
        if index in node:
            plus[index] = node[index] + amp
            minus[index] = node[index] - amp
        else:
            plus[index] = amp
            minus[index] = -amp
    return ({i: a for i, a in plus.items() if a != 0},
            {i: a for i, a in minus.items() if a != 0})


class Operator:
    """Linear operator over a layout, with cached structural flags.

    ``mask_form`` is None for a dense operator, whose flags are computed on
    first use.  An operator in mask form holds ``(mask, phase)`` there
    instead, ``phase`` a rule on j, meaning O|j> = phase(j) |j ^ mask> on the
    layout's flat basis; its ``matrix`` is built on first use, and its flags
    at construction: ``from_pauli_mask`` reads them off one phase product,
    and ``from_mask`` computes them in O(d).
    """

    def __init__(self, layout: RegisterLayout, matrix):
        import numpy as np

        mat = np.array(matrix, dtype=np.complex128)
        d = layout.total_dim
        if mat.shape != (d, d):
            raise LayoutMismatchError(
                f"matrix of shape {mat.shape} does not fit layout of dimension {d}"
            )
        self.layout = layout
        self._matrix: np.ndarray | None = _frozen(mat)
        self.mask_form: tuple[int, Callable[[int], complex]] | None = None
        self._flags: dict[str, bool] = {}

    @classmethod
    def from_pauli_mask(cls, layout: RegisterLayout, mask: int, phase) -> "Operator":
        """``from_mask`` for a phase rule of unit phases with one product
        phase(j)*phase(j ^ mask) = c for all j, as in every Pauli word and the
        scenario's operators: O is unitary with O O = c I, so hermitian and
        involutory iff c = 1, which j = 0 decides.  Nothing else is checked."""
        op = cls._mask_op(layout, mask, phase)
        one = abs(phase(0) * phase(mask) - 1) <= STRUCTURAL_TOL
        op._flags = {"hermitian": one, "unitary": True, "involutory": one}
        return op

    @classmethod
    def from_mask(cls, layout: RegisterLayout, mask: int, phase) -> "Operator":
        """The operator sending basis state j to phase[j] times basis state
        j ^ mask, for a sequence of any d phases; its flags are read off the
        form in O(d) (the tests' oracle for ``from_pauli_mask``)."""
        import numpy as np

        phase = np.array(phase, dtype=np.complex128).reshape(-1)
        op = cls._mask_op(layout, mask, tuple(phase.tolist()).__getitem__)
        if phase.size != layout.total_dim:
            raise LayoutMismatchError(
                f"{phase.size} phases do not fit layout of dimension {layout.total_dim}")
        # XOR pairs j with j ^ mask both ways, so O - O^dagger and O O - I hold
        # one combined entry there, from phase[j] and its partner, and each
        # test takes the max over the entries the dense test can find nonzero.
        partner = phase[np.arange(phase.size) ^ mask]
        flags = [bool(np.max(np.abs(residual)) <= STRUCTURAL_TOL) for residual in
                 (phase - partner.conj(), phase * phase.conj() - 1.0, partner * phase - 1.0)]
        op._flags = dict(zip(("hermitian", "unitary", "involutory"), flags))
        return op

    @classmethod
    def _mask_op(cls, layout: RegisterLayout, mask: int, phase) -> "Operator":
        """The form, checked in O(1); the public constructors set its flags."""
        d = layout.total_dim
        if d & (d - 1):
            raise LayoutMismatchError(f"a mask form needs a power-of-two dimension, not {d}")
        if not 0 <= mask < d:
            raise ValueError(f"mask {mask} is outside 0..{d - 1}")
        op = cls.__new__(cls)
        op.layout, op._matrix, op.mask_form, op._plans = layout, None, (int(mask), phase), {}
        return op

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            import numpy as np

            mask, phase = self.mask_form
            cols = np.arange(self.layout.total_dim)
            mat = np.zeros((cols.size, cols.size), dtype=np.complex128)
            mat[cols ^ mask, cols] = [phase(j) for j in range(cols.size)]
            self._matrix = _frozen(mat)
        return self._matrix

    def _flag(self, name: str, residual) -> bool:
        """A dense operator's flag, on first use: max |residual(np, matrix)| is small."""
        if name not in self._flags:
            import numpy as np

            self._flags[name] = bool(
                np.max(np.abs(residual(np, self.matrix))) <= STRUCTURAL_TOL)
        return self._flags[name]

    @property
    def is_hermitian(self) -> bool:
        return self._flag("hermitian", lambda np, m: m - m.conj().T)

    @property
    def is_unitary(self) -> bool:
        return self._flag("unitary", lambda np, m: m @ m.conj().T - np.eye(m.shape[0]))

    @property
    def is_involutory(self) -> bool:
        return self._flag("involutory", lambda np, m: m @ m - np.eye(m.shape[0]))

    def __repr__(self) -> str:
        return f"Operator(dim={self.layout.total_dim}, labels={self.layout.labels})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a layout.

    The constructor copies the caller's matrix and checks all three
    properties, positivity by ``eigvalsh``.  ``_trusted`` adopts a fresh
    array without copy or checks; its only producers, and why each holds:

    - ``pure_density``: v v^dagger is Hermitian and PSD, with trace ||v||**2.
    - ``decoherence.dephase``: a real symmetric scale with unit diagonal
      treats rho_ij and rho_ji alike and leaves the diagonal, hence the
      trace, bitwise unchanged; rho and its pointer-block diagonal mix
      convexly, so PSD.
    """

    def __init__(self, layout: RegisterLayout, matrix):
        import numpy as np

        trusted = isinstance(matrix, _Trusted)
        mat = matrix.value if trusted else np.array(matrix, dtype=np.complex128)
        d = layout.total_dim
        if mat.shape != (d, d):
            raise LayoutMismatchError(
                f"matrix of shape {mat.shape} does not fit layout of dimension {d}"
            )
        if not trusted:
            herm = float(np.max(np.abs(mat - mat.conj().T)))
            if herm > STRUCTURAL_TOL:
                raise NotHermitianError(
                    f"density matrix asymmetry {herm} exceeds {STRUCTURAL_TOL}")
            tr = complex(np.trace(mat))
            if abs(tr - 1.0) > STRUCTURAL_TOL:
                raise ValueError(
                    f"density matrix trace {tr} deviates from 1 beyond {STRUCTURAL_TOL}")
            lo = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)))
            if lo < -STRUCTURAL_TOL:
                raise ValueError(
                    f"density matrix has eigenvalue {lo} below {-STRUCTURAL_TOL}")
        self.layout = layout
        self.matrix = _frozen(mat)

    @classmethod
    def _trusted(cls, layout: RegisterLayout, matrix: np.ndarray) -> DensityMatrix:
        """Adopt ``matrix`` in place, read-only; the caller must hold no other reference."""
        return cls(layout, _Trusted(matrix))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.layout.total_dim}, labels={self.layout.labels})"


def pure_density(state: QState) -> DensityMatrix:
    import numpy as np

    v = state.amplitudes
    return DensityMatrix._trusted(state.layout, np.outer(v, v.conj()))


def tensor(a, b):
    """Kronecker product of two states or two operators (left factor first)."""
    if isinstance(a, SparseState) and isinstance(b, SparseState):
        # Products of nonzero amplitudes; the norm is the product of norms.
        return SparseState._trusted(a.layout.concat(b.layout),
                                    {ia + ib: va * vb for ia, va in a.entries.items()
                                     for ib, vb in b.entries.items()})
    import numpy as np

    if isinstance(a, QState) and isinstance(b, QState):
        return QState(a.layout.concat(b.layout), np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(a.layout.concat(b.layout), np.kron(a.matrix, b.matrix))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def _check_sublayout(op_layout: RegisterLayout, layout: RegisterLayout) -> list[int]:
    """Axes of ``layout`` the operator acts on; dims must agree."""
    axes = []
    for label, dim in op_layout.sites:
        try:
            ax = layout.axis(label)
        except UnknownLabelError:
            raise LayoutMismatchError(
                f"operator register {label!r} is absent from the state layout"
            ) from None
        if layout.shape[ax] != dim:
            raise LayoutMismatchError(
                f"register {label!r}: operator dimension {dim} vs state dimension "
                f"{layout.shape[ax]}"
            )
        axes.append(ax)
    return axes


def _contract(matrix: np.ndarray, arr: np.ndarray, layout: RegisterLayout,
              axes: list[int]) -> np.ndarray:
    """Apply ``matrix`` to the given axes of ``arr`` (any trailing shape).

    The result is C-contiguous in ``arr``'s axis order, so callers can add
    to it, contract it again or flatten it without a strided copy.
    """
    import numpy as np

    k = len(axes)
    dims = [layout.shape[a] for a in axes]
    tens = matrix.reshape(dims + dims)
    out = np.tensordot(tens, arr, axes=(list(range(k, 2 * k)), axes))
    return np.ascontiguousarray(np.moveaxis(out, list(range(k)), axes))


def _apply_to_vector(matrix: np.ndarray, op_layout: RegisterLayout,
                     state: QState) -> np.ndarray:
    axes = _check_sublayout(op_layout, state.layout)
    tens = state.tensor_view()
    return _contract(matrix, tens, state.layout, axes).reshape(-1)


def apply(op: Operator, state):
    """Apply a unitary supported on a subset of a dense state's registers."""
    if not op.is_unitary:
        raise NotUnitaryError("apply() requires a unitary operator")
    if not isinstance(state, QState):
        raise TypeError(f"apply() got {type(state).__name__}")
    amp = _apply_to_vector(op.matrix, op.layout, state)
    return QState(state.layout, amp)


def _check_pm1(op: Operator, caller: str) -> None:
    if not (op.is_hermitian and op.is_involutory):
        raise NotInvolutoryError(f"{caller} needs a +-1 observable")


def project(op: Operator, state, value: int):
    """Renormalized P_value |state> and its probability, P_value = (I + value O)/2.

    ``op`` must be a +-1 observable.  A ``SparseState`` is projected as
    (v + value O v)/2, from the same two children ``born_table`` branches
    into; for a mask-form observable with +-1 entries that is exactly the
    dense projector's image.  Raises ``ZeroBranchError`` when the
    probability is at most ``NUMERIC_TOL``.
    """
    if value not in (1, -1):
        raise ValueError(f"outcome value must be +1 or -1, got {value!r}")
    if isinstance(state, SparseState):
        _check_pm1(op, "project()")
        kept = _sparse_children(op, state.layout, state.entries)[0 if value == 1 else 1]
        p = math.ldexp(_sparse_norm2(kept), -2)
        if p <= NUMERIC_TOL:
            raise ZeroBranchError(f"outcome {value:+d} has probability {p}")
        scale = 0.5 / math.sqrt(p)
        return SparseState._trusted(state.layout, {i: a * scale for i, a in kept.items()}), p
    if not isinstance(state, QState):
        raise TypeError(f"project() got {type(state).__name__}")
    import numpy as np

    plus, minus = spectral_projectors(op)
    proj = plus if value == 1 else minus
    amp = _apply_to_vector(proj.matrix, proj.layout, state)
    p = float(np.real(np.vdot(amp, amp)))
    if p <= NUMERIC_TOL:
        raise ZeroBranchError(f"outcome {value:+d} has probability {p}")
    return QState(state.layout, amp / np.sqrt(p)), p


def apply_controlled(control: Operator, unitary: Operator, state: SparseState) -> SparseState:
    """Apply P_plus + U P_minus: ``unitary`` where the +-1 ``control`` reads -1.

    ``control`` and ``unitary`` act on disjoint registers, so the sum is
    unitary; with U flipping a pointer it is a von Neumann premeasurement
    of the control.  On a sparse state it goes in as its four mask-form
    terms, (v + O v)/2 + U (v - O v)/2, and the state stays sparse.
    """
    if not isinstance(state, SparseState):
        raise TypeError(f"apply_controlled() got {type(state).__name__}")
    _check_pm1(control, "apply_controlled()")
    if not unitary.is_unitary:
        raise NotUnitaryError("apply_controlled() requires a unitary operator")
    shared = set(control.layout.labels) & set(unitary.layout.labels)
    if shared:
        raise LayoutMismatchError(f"control and unitary share registers {sorted(shared)}")
    plus, minus = _sparse_children(control, state.layout, state.entries)
    total, _ = _sparse_sums(plus, _sparse_contract(unitary, state.layout, minus))
    # P_plus + U P_minus is unitary, so the norm stays 1.
    return SparseState._trusted(state.layout, {i: 0.5 * a for i, a in total.items()})


def split_register(state: SparseState, label: str) -> list[tuple[float, SparseState]]:
    """(w_j, psi_j) for each basis state j of one register with w_j > 0.

    psi_j = P_j psi / sqrt(w_j) and w_j = ||P_j psi||**2, with P_j the
    projector onto |j> of that register; the branches come in index order.
    """
    if not isinstance(state, SparseState):
        raise TypeError(f"split_register() got {type(state).__name__}")
    ax = state.layout.axis(label)
    groups: dict[int, dict] = {}
    for index in sorted(state.entries):
        groups.setdefault(index[ax], {})[index] = state.entries[index]
    out = []
    for group in groups.values():
        weight = _sparse_norm2(group)
        scale = 1.0 / math.sqrt(weight)
        out.append((weight, SparseState._trusted(
            state.layout, {i: a * scale for i, a in group.items()})))
    return out


def support_state(state: SparseState) -> SparseState:
    """The state on its support layout: each register keeps only the index
    values the entries use, renumbered 0..n-1 in order.

    The renumbering is one-to-one and order-preserving on every register, so
    two entries share a value of a register here exactly when they share
    one in ``state``, and the amplitudes keep their flat-index order.
    """
    used = [sorted(set(column)) for column in zip(*state.entries)]
    rank = [{value: r for r, value in enumerate(values)} for values in used]
    layout = RegisterLayout(tuple((label, len(values))
                                  for label, values in zip(state.layout.labels, used)))
    return SparseState._trusted(layout, {tuple(r[i] for r, i in zip(rank, index)): amp
                                         for index, amp in state.entries.items()})


def embed(op: Operator, layout: RegisterLayout) -> Operator:
    """Dense embedding of ``op`` into a larger layout (identity elsewhere)."""
    import numpy as np

    axes = _check_sublayout(op.layout, layout)
    rest = [i for i in range(len(layout.sites)) if i not in axes]
    d_rest = 1
    for i in rest:
        d_rest *= layout.shape[i]
    big = np.kron(op.matrix, np.eye(d_rest, dtype=np.complex128))
    # big is ordered (op registers..., rest registers...); permute to layout order.
    order = axes + rest
    perm = [order.index(i) for i in range(len(layout.sites))]
    n = len(layout.sites)
    tens = big.reshape(tuple(layout.shape[i] for i in order) * 2)
    tens = np.transpose(tens, perm + [n + p for p in perm])
    d = layout.total_dim
    return Operator(layout, tens.reshape(d, d))


def _sparse_product(observables, state: SparseState) -> complex:
    """<psi|O_1 ... O_k|psi> for mask-form operators, which send each entry
    to one image: one ``math.fsum`` per part over the images."""
    image = state.entries
    for op in observables:
        image = _sparse_contract(op, state.layout, image)
    terms = [state.entries.get(index, 0.0).conjugate() * amp for index, amp in image.items()]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _real(val: complex) -> float:
    if abs(val.imag) > NUMERIC_TOL:
        raise NonrealResultError(f"imaginary residue {val.imag} exceeds {NUMERIC_TOL}")
    return float(val.real)


def expectation(op: Operator, state) -> float:
    """Real expectation value of a hermitian operator on a pure state.

    A ``SparseState`` is summed entry by entry for ``op`` in mask form and
    goes through ``to_dense()`` otherwise.
    """
    if not op.is_hermitian:
        raise NotHermitianError("expectation() requires a hermitian operator")
    if isinstance(state, SparseState):
        if op.mask_form is not None:
            return _real(_sparse_product((op,), state))
        state = state.to_dense()
    if not isinstance(state, QState):
        raise TypeError(f"expectation() got {type(state).__name__}")
    import numpy as np

    return _real(complex(np.vdot(state.amplitudes,
                                 _apply_to_vector(op.matrix, op.layout, state))))


def product_expectation(observables, state: SparseState, label: str) -> tuple[float, float]:
    """<psi|O|psi> for the product O of jointly measurable +-1 observables in
    mask form, and its part sum_j <psi|P_j O P_j|psi> over register
    ``label``'s basis projectors: all of it where the XOR of the masks keeps
    ``label``'s index, 0 where it moves it."""
    obs = _joint_observables(observables, "product_expectation()")
    value = _real(_sparse_product(obs, state))
    axis, digit = state.layout.axis(label), 0
    for op in obs:
        digit ^= sum(m for ax, m, _ in _plan(op, state.layout) if ax == axis)
    return value, 0.0 if digit else value


def partial_trace(state, keep) -> DensityMatrix:
    """Reduced density matrix over ``keep`` labels, in layout order.

    A ``SparseState`` goes through ``to_dense()``.
    """
    if isinstance(state, SparseState):
        state = state.to_dense()
    if isinstance(state, QState):
        layout = state.layout
        sub = layout.subset(keep)
        keep_axes = [layout.axis(l) for l in sub.labels]
        rest_axes = [i for i in range(len(layout.sites)) if i not in keep_axes]
        tens = state.tensor_view().transpose(keep_axes + rest_axes)
        dk = sub.total_dim
        a = tens.reshape(dk, -1)
        return DensityMatrix(sub, a @ a.conj().T)
    if isinstance(state, DensityMatrix):
        import numpy as np

        layout = state.layout
        sub = layout.subset(keep)
        keep_axes = [layout.axis(l) for l in sub.labels]
        rest_axes = [i for i in range(len(layout.sites)) if i not in keep_axes]
        n = len(layout.sites)
        tens = state.matrix.reshape(layout.shape * 2)
        perm = keep_axes + rest_axes + [n + a for a in keep_axes] + [n + a for a in rest_axes]
        tens = tens.transpose(perm)
        dk = sub.total_dim
        dr = layout.total_dim // dk
        tens = tens.reshape(dk, dr, dk, dr)
        return DensityMatrix(sub, np.einsum("iaja->ij", tens))
    raise TypeError(f"partial_trace() got {type(state).__name__}")


def _union_layout(a: RegisterLayout, b: RegisterLayout) -> RegisterLayout:
    sites = list(a.sites)
    have = dict(a.sites)
    for label, dim in b.sites:
        if label in have:
            if have[label] != dim:
                raise LayoutMismatchError(
                    f"register {label!r}: dimension {have[label]} vs {dim}"
                )
        else:
            sites.append((label, dim))
    return RegisterLayout(tuple(sites))


def commutes(a: Operator, b: Operator) -> bool:
    """Whether [a, b] vanishes on the union of their supports (max-norm <= NUMERIC_TOL).

    Operators on disjoint registers commute exactly: each entry of both
    products (A x I)(I x B) and (I x B)(A x I) is the same single product
    a_ij * b_kl, so for finite matrices the dense commutator is identically
    zero and is not formed.  Overlapping supports are checked densely on the
    union layout, which raises ``LayoutMismatchError`` for a label shared
    with different dimensions.
    """
    if not set(a.layout.labels) & set(b.layout.labels):
        return True
    import numpy as np

    common = _union_layout(a.layout, b.layout)
    am = embed(a, common).matrix
    bm = embed(b, common).matrix
    return bool(np.max(np.abs(am @ bm - bm @ am)) <= NUMERIC_TOL)


def spectral_projectors(op: Operator) -> tuple[Operator, Operator]:
    """(P_plus, P_minus) for an involutory hermitian operator."""
    if not op.is_hermitian:
        raise NotHermitianError("spectral_projectors() requires a hermitian operator")
    if not op.is_involutory:
        raise NotInvolutoryError("spectral_projectors() requires an involutory operator")
    import numpy as np

    d = op.layout.total_dim
    eye = np.eye(d, dtype=np.complex128)
    plus = Operator(op.layout, (eye + op.matrix) / 2.0)
    minus = Operator(op.layout, (eye - op.matrix) / 2.0)
    return plus, minus


@dataclass(frozen=True)
class BornTable:
    """Joint outcome distribution of commuting involutory observables.

    ``rows`` maps each outcome tuple in ``{+1, -1}**k`` (lexicographic, +1
    first) to its probability.  Zero rows are retained.  ``names`` labels the
    outcome slots.
    """

    names: tuple[str, ...]
    rows: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        total = 0.0
        for outcome, p in self.rows.items():
            if len(outcome) != len(self.names):
                raise ValueError(f"outcome {outcome} does not match {self.names}")
            if p < -NUMERIC_TOL:
                raise ValueError(f"negative probability {p} for outcome {outcome}")
            total += p
        if abs(total - 1.0) > BORN_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def expectation_product(self) -> float:
        """Expectation of the product of all outcomes."""
        out = 0.0
        for outcome, p in self.rows.items():
            sign = 1
            for s in outcome:
                sign *= s
            out += sign * p
        return out

    def support(self, zero_tol: float = 1e-10) -> tuple[tuple[int, ...], ...]:
        return tuple(o for o, p in self.rows.items() if p > zero_tol)

    def marginal(self, names) -> "BornTable":
        """Marginal table over a subset of outcome slots, keeping their order here."""
        idx = [self.names.index(n) for n in names]
        rows: dict[tuple[int, ...], float] = {}
        for outcome in itertools.product((1, -1), repeat=len(idx)):
            rows[outcome] = 0.0
        for outcome, p in self.rows.items():
            key = tuple(outcome[i] for i in idx)
            rows[key] += p
        return BornTable(tuple(self.names[i] for i in idx), rows)

    def with_names(self, names: tuple[str, ...]) -> "BornTable":
        if len(names) != len(self.names):
            raise ValueError("name tuple length mismatch")
        return BornTable(tuple(names), dict(self.rows))

    def sample(self, rng) -> tuple[int, ...]:
        """Draw one outcome tuple with one ``rng.random()`` in [0, 1), from any
        object that has that method.  The rows, negative ones read as 0, are
        normalized by their ``math.fsum``; row order is fixed, so the same
        draw gives the same outcome."""
        outcomes = list(self.rows)
        weights = [max(self.rows[o], 0.0) for o in outcomes]
        total = math.fsum(weights)
        u = rng.random()
        acc = 0.0
        for o, w in zip(outcomes, weights):
            acc += w / total
            if u < acc:
                return o
        return outcomes[-1]


def _joint_observables(observables, caller: str) -> tuple[Operator, ...]:
    """At least one observable, each hermitian and involutory, all commuting."""
    obs = tuple(observables)
    if not obs:
        raise ValueError(f"{caller} needs at least one observable")
    for o in obs:
        if not o.is_hermitian:
            raise NotHermitianError(f"{caller} observables must be hermitian")
        if not o.is_involutory:
            raise NotInvolutoryError(f"{caller} observables must be involutory")
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if not commutes(obs[i], obs[j]):
                raise ContextIncompatibleError(
                    f"observables {i} and {j} do not commute; no joint table exists"
                )
    return obs


def born_table(observables, state, names=None) -> BornTable:
    """Joint Born distribution of pairwise-commuting involutory observables.

    Probabilities are ||P_s1 ... P_sk |psi>||^2 with P_s = (I + s O)/2, or
    Tr(P_s1 ... P_sk rho) for a density matrix (the projectors commute, so
    their product P is a projector and Tr(P rho P) = Tr(P rho)).  Works for
    observables supported on arbitrary (possibly overlapping) subsets of the
    state's registers.

    The rows are the leaves of a depth-first walk of the outcome tree.  A
    node at depth j holds 2**j P_s1 ... P_sj applied to the state; it
    contracts O_(j+1) once, and its children are v + O v and v - O v.  That
    is 2**k - 1 contractions for k observables, where a projector chain per
    row would take k * 2**k.  Each leaf is rescaled once by the exact power
    of two 4**-k (a squared norm) or 2**-k (a trace), so the factors 1/2 are
    never applied on the way down.  For mask-form observables with entries
    in {0, +-1, +-i}, such as Pauli strings and the scenario's observables,
    v +- O v is exactly twice the dense (I +- O)/2 v in floating point, so
    the table is bitwise the one per-row projector chains give.  The walk
    keeps at most one pending sibling per level.

    The walk serves a ``QState``, a ``DensityMatrix`` or a ``SparseState``;
    each kind supplies its own root, children and leaf.  A sparse state
    needs observables in mask form; its leaves are ``math.fsum`` sums of
    the same nonzero terms as the dense ones, correctly rounded, so a row
    can differ from the dense ``vdot`` in the last bit.
    """
    obs = _joint_observables(observables, "born_table()")
    if names is None:
        names = tuple(f"O{i + 1}" for i in range(len(obs)))
    names = tuple(names)
    if len(names) != len(obs):
        raise ValueError("names length does not match observables")

    if not isinstance(state, (SparseState, QState, DensityMatrix)):
        raise TypeError(f"born_table() got {type(state).__name__}")
    k = len(obs)
    layout = state.layout
    # Per kind of state: the root node, the two children of a node at a
    # depth, and a leaf's probability.
    if isinstance(state, SparseState):
        root = state.entries

        def children(depth: int, node):
            return _sparse_children(obs[depth], layout, node)

        def leaf(node) -> float:
            return math.ldexp(_sparse_norm2(node), -2 * k)
    else:
        import numpy as np

        axes = [_check_sublayout(o.layout, layout) for o in obs]
        if isinstance(state, QState):
            root = state.tensor_view()

            def leaf(arr: np.ndarray) -> float:
                return math.ldexp(float(np.real(np.vdot(arr, arr))), -2 * k)
        else:
            d = state.layout.total_dim
            root = state.matrix.reshape(state.layout.shape + (d,))

            def leaf(arr: np.ndarray) -> float:
                return math.ldexp(float(np.real(np.trace(arr.reshape(d, d)))), -k)

        def children(depth: int, node: np.ndarray):
            flipped = _contract(obs[depth].matrix, node, layout, axes[depth])
            minus = node - flipped
            flipped += node  # the +1 child, in place; addition commutes exactly
            return flipped, minus

    rows: dict[tuple[int, ...], float] = {}
    # Popping the +1 child first visits the leaves in lexicographic order.
    pending = [((), root)]
    while pending:
        prefix, node = pending.pop()
        plus, minus = children(len(prefix), node)
        del node  # freed before the next contraction allocates
        if len(prefix) + 1 == k:
            rows[prefix + (1,)] = leaf(plus)
            rows[prefix + (-1,)] = leaf(minus)
        else:
            pending.append((prefix + (-1,), minus))
            pending.append((prefix + (1,), plus))
        del plus, minus
    return BornTable(names, rows)

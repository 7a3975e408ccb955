"""Linear algebra over small labeled quantum registers, dense or sparse.

States, operators and density matrices all carry a ``RegisterLayout`` naming
their subsystems.  An operator may be supported on a subset of a state's
registers; ``apply``, ``expectation`` and ``born_table`` embed it by tensor
contraction instead of materializing a full-space matrix, so wide scenarios
stay cheap as long as each operator's own support is small.

``QState``, ``DensityMatrix`` and a dense ``Operator`` are dense complex128.
An ``Operator`` on a layout of power-of-two dimension may instead be held
in mask form, O|j> = phase[j] |j XOR mask>: an XOR mask on the flat index
plus a phase per basis state, as for Pauli strings and the scenario's
observables (the Gottesman-Knill form: Aaronson and Gottesman, PRA 70,
052328 (2004); an affine map over GF(2): Dehaene and De Moor, PRA 68,
042318 (2003)).  Its flags come from that form in O(d), and its dense
``matrix`` is built only on first use.  A ``SparseState`` keeps only the
nonzero amplitudes of a pure state, keyed by one index per register.
``born_table``, ``project`` (one +-1 outcome), ``apply_controlled`` (a
unitary where a +-1 observable reads -1) and ``split_register`` (the
branches on one register's basis states) move each entry by the mask form
and keep their results sparse, so their cost follows the number of
entries, not the dimension, and callers never handle the entries.
``to_dense()`` gives the ``QState`` back where the dimension allows, and
``support_state`` shrinks each register to the index values in use.

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
Born table's rows may sum from 1.  The CLI's ``tolerance`` key moves none
of them: it feeds only report assertions and the ``zero_tol`` support
threshold of ``BornTable.support`` and the ``paradox`` searches.

All value types are immutable: arrays are copied on construction and marked
read-only (the two trusted ``DensityMatrix`` producers freeze their own
fresh arrays instead), and every operation returns a fresh object.
Instances are safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

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
    """Ordered sequence of (label, dimension) register sites."""

    sites: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = [s[0] for s in self.sites]
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise LabelClashError(f"duplicate register labels: {dup}")
        for label, dim in self.sites:
            if not isinstance(dim, int) or dim < 1:
                raise ValueError(f"register {label!r} has invalid dimension {dim!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s[0] for s in self.sites)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s[1] for s in self.sites)

    @property
    def total_dim(self) -> int:
        out = 1
        for _, d in self.sites:
            out *= d
        return out

    def axis(self, label: str) -> int:
        for i, (l, _) in enumerate(self.sites):
            if l == label:
                return i
        raise UnknownLabelError(f"no register labeled {label!r}")

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
    amp = np.zeros(layout.total_dim, dtype=np.complex128)
    amp[index] = 1.0
    return QState(layout, amp)


class SparseState:
    """Normalized pure state held as its nonzero amplitudes.

    ``entries`` maps index tuples, one index per register in layout order,
    to amplitudes; exact zeros are dropped.  Tuples rather than flat
    indices: a flat index over n qubits overflows int64 once n > 63, which
    the scenario reaches at lab_width 21.
    """

    def __init__(self, layout: RegisterLayout, entries):
        shape = layout.shape
        kept = {}
        for index, amp in dict(entries).items():
            index = tuple(int(i) for i in index)
            if len(index) != len(shape) or not all(0 <= i < d for i, d in zip(index, shape)):
                raise LayoutMismatchError(f"index {index} does not fit layout shape {shape}")
            if amp != 0:
                kept[index] = complex(amp)
        _check_norm(math.sqrt(_sparse_norm2(kept)))
        self.layout = layout
        self.entries = MappingProxyType(kept)

    @classmethod
    def from_dense(cls, state: QState) -> "SparseState":
        tens = state.tensor_view()
        return cls(state.layout,
                   {index: tens[index] for index in zip(*np.nonzero(tens))})

    def to_dense(self) -> QState:
        tens = np.zeros(self.layout.shape, dtype=np.complex128)
        for index, amp in self.entries.items():
            tens[index] = amp
        return QState(self.layout, tens)

    def nonzero(self) -> np.ndarray:
        """The nonzero amplitudes in flat-index order."""
        return _sparse_amplitudes(self.entries)

    def __repr__(self) -> str:
        return f"SparseState(entries={len(self.entries)}, labels={self.layout.labels})"


def _sparse_amplitudes(entries) -> np.ndarray:
    return np.array([entries[index] for index in sorted(entries)], dtype=np.complex128)


def _sparse_norm2(entries) -> float:
    """Squared norm of sparse entries, summed by ``vdot`` in flat-index order."""
    amps = _sparse_amplitudes(entries)
    return float(np.real(np.vdot(amps, amps)))


def _sparse_contract(op: "Operator", layout: RegisterLayout, entries) -> dict:
    """A mask-form operator applied to sparse entries: entry j moves to j ^ mask.

    Each register's dimension is a power of two, so that XOR is each
    register's index XORed with the mask's digits for that register.
    """
    if op.mask_form is None:
        raise TypeError("a sparse state takes only operators in mask form")
    axes = _check_sublayout(op.layout, layout)
    mask, phase = op.mask_form
    dims = op.layout.shape
    bits = [int(m) for m in np.unravel_index(mask, dims)]
    out = {}
    for index, amp in entries.items():
        j = 0
        moved = list(index)
        for ax, dim, m in zip(axes, dims, bits):
            j = j * dim + index[ax]
            moved[ax] = index[ax] ^ m
        out[tuple(moved)] = complex(phase[j]) * amp
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
    """Linear operator over a layout, with lazily cached structural flags.

    ``mask_form`` is None for a dense operator.  An operator built by
    ``from_mask`` holds ``(mask, phase)`` there instead, meaning
    O|j> = phase[j] |j ^ mask> on the layout's flat basis; its ``matrix`` is
    built on first use, and its flags are read off the form with the same
    floating-point operations the dense tests make on their nonzero entries.
    """

    def __init__(self, layout: RegisterLayout, matrix):
        mat = np.array(matrix, dtype=np.complex128)
        d = layout.total_dim
        if mat.shape != (d, d):
            raise LayoutMismatchError(
                f"matrix of shape {mat.shape} does not fit layout of dimension {d}"
            )
        self.layout = layout
        self._matrix: np.ndarray | None = _frozen(mat)
        self.mask_form: tuple[int, np.ndarray] | None = None
        self._flags: dict[str, bool] = {}

    @classmethod
    def from_mask(cls, layout: RegisterLayout, mask: int, phase) -> "Operator":
        """The operator sending basis state j to phase[j] times basis state j ^ mask."""
        d = layout.total_dim
        if d & (d - 1):
            raise LayoutMismatchError(f"a mask form needs a power-of-two dimension, not {d}")
        if not 0 <= mask < d:
            raise ValueError(f"mask {mask} is outside 0..{d - 1}")
        phase = np.array(phase, dtype=np.complex128).reshape(-1)
        if phase.shape != (d,):
            raise LayoutMismatchError(f"{phase.size} phases do not fit layout of dimension {d}")
        op = cls.__new__(cls)
        op.layout = layout
        op._matrix = None
        op.mask_form = (int(mask), _frozen(phase))
        op._flags = {}
        return op

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            mask, phase = self.mask_form
            cols = np.arange(phase.size)
            mat = np.zeros((phase.size, phase.size), dtype=np.complex128)
            mat[cols ^ mask, cols] = phase
            self._matrix = _frozen(mat)
        return self._matrix

    def _flag(self, name: str, test) -> bool:
        if name not in self._flags:
            self._flags[name] = bool(test())
        return self._flags[name]

    # XOR pairs j with j ^ mask both ways, so O - O^dagger and O O - I hold
    # one combined entry there, from phase[j] and its partner phase[j ^ mask],
    # and each mask-form test takes the max over the entries the dense test
    # can find nonzero.

    @property
    def is_hermitian(self) -> bool:
        def test():
            if self.mask_form is None:
                return np.max(np.abs(self.matrix - self.matrix.conj().T)) <= STRUCTURAL_TOL
            mask, phase = self.mask_form
            partner = phase[np.arange(phase.size) ^ mask]
            return np.max(np.abs(phase - partner.conj())) <= STRUCTURAL_TOL

        return self._flag("hermitian", test)

    @property
    def is_unitary(self) -> bool:
        def test():
            if self.mask_form is None:
                d = self.matrix.shape[0]
                resid = np.abs(self.matrix @ self.matrix.conj().T - np.eye(d))
                return np.max(resid) <= STRUCTURAL_TOL
            _, phase = self.mask_form
            return np.max(np.abs(phase * phase.conj() - 1.0)) <= STRUCTURAL_TOL

        return self._flag("unitary", test)

    @property
    def is_involutory(self) -> bool:
        def test():
            if self.mask_form is None:
                d = self.matrix.shape[0]
                return np.max(np.abs(self.matrix @ self.matrix - np.eye(d))) <= STRUCTURAL_TOL
            mask, phase = self.mask_form
            partner = phase[np.arange(phase.size) ^ mask]
            return np.max(np.abs(partner * phase - 1.0)) <= STRUCTURAL_TOL

        return self._flag("involutory", test)

    def __repr__(self) -> str:
        return f"Operator(dim={self.layout.total_dim}, labels={self.layout.labels})"


class _TrustedMatrix:
    """A fresh d x d complex128 array that is a density matrix by construction.

    ``DensityMatrix._trusted`` passes it to ``DensityMatrix.__init__``, so
    every instance, trusted or checked, is built in that one place.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


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
        trusted = isinstance(matrix, _TrustedMatrix)
        mat = matrix.array if trusted else np.array(matrix, dtype=np.complex128)
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
        return cls(layout, _TrustedMatrix(matrix))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.layout.total_dim}, labels={self.layout.labels})"


def pure_density(state: QState) -> DensityMatrix:
    v = state.amplitudes
    return DensityMatrix._trusted(state.layout, np.outer(v, v.conj()))


def tensor(a, b):
    """Kronecker product of two states or two operators (left factor first)."""
    if isinstance(a, SparseState) and isinstance(b, SparseState):
        return SparseState(a.layout.concat(b.layout),
                           {ia + ib: va * vb for ia, va in a.entries.items()
                            for ib, vb in b.entries.items()})
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
        amps = np.array(list(kept.values())) * 0.5 / np.sqrt(p)
        return SparseState(state.layout, dict(zip(kept, amps.tolist()))), p
    if not isinstance(state, QState):
        raise TypeError(f"project() got {type(state).__name__}")
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
    return SparseState(state.layout, {i: 0.5 * a for i, a in total.items()})


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
        amps = np.array(list(group.values())) / np.sqrt(weight)
        out.append((weight, SparseState(state.layout, dict(zip(group, amps.tolist())))))
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
    return SparseState(layout, {tuple(r[i] for r, i in zip(rank, index)): amp
                                for index, amp in state.entries.items()})


def embed(op: Operator, layout: RegisterLayout) -> Operator:
    """Dense embedding of ``op`` into a larger layout (identity elsewhere)."""
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


def expectation(op: Operator, state) -> float:
    """Real expectation value of a hermitian operator on a pure state.

    A ``SparseState`` goes through ``to_dense()``.
    """
    if not op.is_hermitian:
        raise NotHermitianError("expectation() requires a hermitian operator")
    if isinstance(state, SparseState):
        state = state.to_dense()
    if not isinstance(state, QState):
        raise TypeError(f"expectation() got {type(state).__name__}")
    val = complex(np.vdot(state.amplitudes, _apply_to_vector(op.matrix, op.layout, state)))
    if abs(val.imag) > NUMERIC_TOL:
        raise NonrealResultError(f"imaginary residue {val.imag} exceeds {NUMERIC_TOL}")
    return float(val.real)


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
    zero and is not formed.  The union layout is still built first, so a
    label shared with different dimensions raises ``LayoutMismatchError``.
    Overlapping supports are checked densely on the union layout.
    """
    common = _union_layout(a.layout, b.layout)
    if not set(a.layout.labels) & set(b.layout.labels):
        return True
    am = embed(a, common).matrix
    bm = embed(b, common).matrix
    return bool(np.max(np.abs(am @ bm - bm @ am)) <= NUMERIC_TOL)


def spectral_projectors(op: Operator) -> tuple[Operator, Operator]:
    """(P_plus, P_minus) for an involutory hermitian operator."""
    if not op.is_hermitian:
        raise NotHermitianError("spectral_projectors() requires a hermitian operator")
    if not op.is_involutory:
        raise NotInvolutoryError("spectral_projectors() requires an involutory operator")
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

    def sample(self, rng: np.random.Generator) -> tuple[int, ...]:
        """Draw one outcome tuple; row order is fixed, so draws are reproducible."""
        outcomes = list(self.rows)
        probs = np.array([max(self.rows[o], 0.0) for o in outcomes])
        probs = probs / probs.sum()
        u = rng.random()
        acc = 0.0
        for o, p in zip(outcomes, probs):
            acc += p
            if u < acc:
                return o
        return outcomes[-1]


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
    needs observables in mask form; its leaves sum the same nonzero
    terms as the dense ones, in flat-index order, so a row can differ from
    the dense one in the last bit, where ``vdot`` over the full vector
    groups the terms otherwise.
    """
    obs = tuple(observables)
    if not obs:
        raise ValueError("born_table() needs at least one observable")
    for o in obs:
        if not o.is_hermitian:
            raise NotHermitianError("born_table() observables must be hermitian")
        if not o.is_involutory:
            raise NotInvolutoryError("born_table() observables must be involutory")
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if not commutes(obs[i], obs[j]):
                raise ContextIncompatibleError(
                    f"observables {i} and {j} do not commute; no joint table exists"
                )
    if names is None:
        names = tuple(f"O{i + 1}" for i in range(len(obs)))
    names = tuple(names)
    if len(names) != len(obs):
        raise ValueError("names length does not match observables")

    if not isinstance(state, (SparseState, QState, DensityMatrix)):
        raise TypeError(f"born_table() got {type(state).__name__}")
    k = len(obs)
    layout = state.layout
    axes = [_check_sublayout(o.layout, layout) for o in obs]
    # Per kind of state: the root node, the two children of a node at a
    # depth, and a leaf's probability.
    if isinstance(state, SparseState):
        root = state.entries

        def children(depth: int, node):
            return _sparse_children(obs[depth], layout, node)

        def leaf(node) -> float:
            return math.ldexp(_sparse_norm2(node), -2 * k)
    else:
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

"""Linear algebra over small labeled quantum registers, held sparse.

States, operators and density matrices all carry a ``RegisterLayout`` naming
their subsystems.  An operator may be supported on a subset of a state's
registers, and each operation reads only the operator's own registers.

Every register's dimension is a power of two, checked when its layout is
built, so a register is a bit field: a basis state of a layout is one int,
its flat index j, whose most significant bits hold the first register's
index, and register r's index is j >> shift & (dim - 1), shift the bit
count of the later registers (``RegisterLayout.digit``).  States, density
matrices and operators all key on that j.

An ``Operator`` is held in mask form, O|j> = phase(j) |j XOR mask>: an XOR
mask on j, which XORs each register's index with its own bits of the
mask, plus a phase rule, a function of j evaluated only where it is read,
so it holds nothing sized by the dimension, as for Pauli strings and the
scenario's observables
(the Gottesman-Knill form: Aaronson and Gottesman, PRA 70, 052328 (2004);
an affine map over GF(2): Dehaene and De Moor, PRA 68, 042318 (2003)).
``matrix`` gives its dense array to the tests' oracle.  A ``SparseState``
keeps only the nonzero amplitudes of a pure state, keyed by j.  ``born_table``,
``project`` (one +-1 outcome) and ``apply_controlled`` (a unitary where a
+-1 observable reads -1) move each entry by the mask form, lifted once
per state layout, in plain Python; states stay sparse, so the cost
follows the number of entries, not the dimension, and sums are correctly
rounded ``math.fsum`` sums.
The three share one step, v +- O v (``_sparse_children``), as does
``stabilizer.joint_eigenstate``'s build of each prod (I + G_i)|x>.
``product_expectation`` reads a product's expectation and its part
diagonal in one register's basis.  Sparse results are adopted through
``SparseState._trusted``, as their indices and norm hold by
construction.  ``pure_density`` gives a ``DensityMatrix``, its nonzero
entries over supp(psi) x supp(psi).  No function here imports numpy but
``Operator.matrix``.

Commutation is locality-aware.  Operators on disjoint registers commute
exactly: every entry of (A x I)(I x B) and of (I x B)(A x I) is the same
single product a_ij * b_kl, so the commutator is identically zero.
``commutes`` returns True for such pairs without forming it.  Overlapping
pairs are embedded on the union layout, where mask forms stay mask forms,
and each column of their commutator has one entry, read from two phases
each: a sweep over the columns stops at the first that is not zero.

``born_table`` walks the outcome tree depth first: each inner node applies
its observable once and branches into v + O v and v - O v, so k
observables cost 2**k - 1 contractions (7 for three) rather than one per
projector per row (24).  The factors 1/2 of the projectors are applied once
per row as an exact power-of-two rescale, 4**-k for a squared norm.

Tolerances are fixed, not per object: ``STRUCTURAL_TOL`` (1e-10) guards
state norms only; ``NUMERIC_TOL`` (1e-12) guards commutators, negative
Born-table rows and ``paradox``'s shared marginals; ``BORN_SUM_TOL``
(1e-9) bounds how far a Born table's rows may sum from 1; ``SUPPORT_TOL``
(1e-10) is the one rule for a table's support, the rows above it, which
``BornTable.support`` and every ``paradox`` search read.  The CLI's report
assertions use one more fixed constant, ``cli.REPORT_TOL`` (1e-10).

Every operation returns a fresh object, and states and density matrices
expose their entries read-only.
"""

from __future__ import annotations

import itertools
import math
import operator
from types import MappingProxyType
from typing import TYPE_CHECKING

from ._record import record
from .errors import (
    ContextIncompatibleError,
    LabelClashError,
    LayoutMismatchError,
    UnknownLabelError,
)

if TYPE_CHECKING:
    import numpy as np

# State norms.
STRUCTURAL_TOL = 1e-10
# Commutators, negative Born-table rows and shared marginals.
NUMERIC_TOL = 1e-12
# How far a Born table's rows may sum from 1.
BORN_SUM_TOL = 1e-9
# Born-table rows above this are in the table's support.
SUPPORT_TOL = 1e-10


@record
class RegisterLayout:
    """Ordered (label, dimension) register sites, each dimension a power of
    two; labels, shape, axes and bit shifts built once."""

    sites: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        labels = tuple(s[0] for s in self.sites)
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise LabelClashError(f"duplicate register labels: {dup}")
        for label, dim in self.sites:
            if not isinstance(dim, int) or dim < 1 or dim & (dim - 1):
                raise ValueError(f"register {label!r} has invalid dimension {dim!r}, "
                                 "not a power of two")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "shape", tuple(s[1] for s in self.sites))
        object.__setattr__(self, "_axes", {l: i for i, l in enumerate(labels)})
        object.__setattr__(self, "_shifts", tuple(
            sum(d.bit_length() - 1 for d in self.shape[ax + 1:]) for ax in range(len(labels))))

    @property
    def total_dim(self) -> int:
        return math.prod(self.shape)

    def digit(self, label: str):
        """Register ``label``'s index as a function of the flat basis index j."""
        ax = self.axis(label)
        shift, bits = self._shifts[ax], self.shape[ax] - 1
        return lambda j: j >> shift & bits

    def axis(self, label: str) -> int:
        try:
            return self._axes[label]
        except KeyError:
            raise UnknownLabelError(f"no register labeled {label!r}") from None

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


class SparseState:
    """Normalized pure state held as its nonzero amplitudes.

    ``entries`` maps flat basis indices j, plain ints, to amplitudes; exact
    zeros are dropped.  The constructor checks every index and the norm,
    except for ``qcore``'s own producers (``_trusted``).
    """

    def __init__(self, layout: RegisterLayout, entries):
        self.layout = layout
        d = layout.total_dim
        kept = {}
        for index, amp in dict(entries).items():
            j = operator.index(index) if hasattr(index, "__index__") else -1
            if not 0 <= j < d:
                raise LayoutMismatchError(f"index {index!r} is not an integer in 0..{d - 1}")
            if amp != 0:
                kept[j] = complex(amp)
        norm = math.sqrt(_sparse_norm2(kept))
        if abs(norm - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {STRUCTURAL_TOL}")
        self.entries = MappingProxyType(kept)

    @classmethod
    def _trusted(cls, layout: RegisterLayout, entries: dict) -> "SparseState":
        """Adopt ``entries`` as they are: int indices in 0..d-1 of ``layout``,
        complex amplitudes, no exact zero, unit norm; the caller must hold no
        other reference."""
        state = cls.__new__(cls)
        state.layout, state.entries = layout, MappingProxyType(entries)
        return state

    def __repr__(self) -> str:
        return f"SparseState(entries={len(self.entries)}, labels={self.layout.labels})"


def _sparse_norm2(entries) -> float:
    """Squared norm of sparse entries, one correctly rounded ``math.fsum``."""
    return math.fsum(a.real * a.real + a.imag * a.imag for a in entries.values())


def _lift(op: "Operator", layout: RegisterLayout) -> tuple:
    """``op``'s (mask, phase) on ``layout``, the identity on its other
    registers, built once per layout; on op's own layout, its mask form.

    Each register's bits of the mask move to its shift in ``layout``, and
    the phase rule reads op's own registers' bits of j, moved back.
    """
    if layout not in op._lifts:
        reads = [(layout._shifts[ax], dim - 1, own) for ax, dim, own in zip(
            _check_sublayout(op.layout, layout), op.layout.shape, op.layout._shifts)]
        mask, phase = op.mask_form
        op._lifts[layout] = (
            sum((mask >> own & bits) << shift for shift, bits, own in reads),
            lambda j: phase(sum((j >> shift & bits) << own for shift, bits, own in reads)))
    return op._lifts[layout]


def _sparse_contract(op: "Operator", layout: RegisterLayout, entries) -> dict:
    """A mask-form operator applied to sparse entries: entry j moves to j ^ mask."""
    mask, phase = _lift(op, layout)
    return {j ^ mask: phase(j) * a for j, a in entries.items()}


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
    """Unitary operator over a layout in mask form.

    ``mask_form`` holds ``(mask, phase)``, ``phase`` a rule on j, meaning
    O|j> = phase(j) |j ^ mask> on the layout's flat basis; ``matrix``
    builds the dense array on each read.
    """

    @classmethod
    def from_pauli_mask(cls, layout: RegisterLayout, mask: int, phase) -> "Operator":
        """The operator sending basis state j to phase(j) times basis state
        j ^ mask, for a phase rule of unit phases.  The mask must be an
        integer in 0..d-1; nothing else is checked."""
        d = layout.total_dim
        m = operator.index(mask) if hasattr(mask, "__index__") else -1
        if not 0 <= m < d:
            raise ValueError(f"mask {mask!r} is not an integer in 0..{d - 1}")
        op = cls.__new__(cls)
        op.layout, op.mask_form, op._lifts = layout, (m, phase), {layout: (m, phase)}
        return op

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d array, built afresh: read by the tests' oracle and
        the benchmark's tracer, never by a report."""
        import numpy as np

        mask, phase = self.mask_form
        cols = np.arange(self.layout.total_dim)
        mat = np.zeros((cols.size, cols.size), dtype=np.complex128)
        mat[cols ^ mask, cols] = [phase(j) for j in range(cols.size)]
        return mat

    def __repr__(self) -> str:
        return f"Operator(dim={self.layout.total_dim}, labels={self.layout.labels})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a layout,
    held as its entries.

    ``entries`` maps (row, column) pairs of flat basis indices, ints as in
    ``SparseState``, to the nonzero entries, so it holds nothing sized by
    the dimension.  The constructor adopts the caller's dict without copy
    or checks; the caller must hold no other reference.
    The producers, and why each value is a density matrix:

    - ``pure_density``: v v^dagger is Hermitian and PSD, with trace ||v||**2,
      and a ``SparseState`` gives the entries a_i conj(a_j) over its support.
    - ``decoherence.dephase``: a real symmetric scale with unit diagonal
      treats rho_ij and rho_ji alike and leaves the diagonal, hence the
      trace, bitwise unchanged; rho and its pointer-block diagonal mix
      convexly, so PSD.
    """

    def __init__(self, layout: RegisterLayout, entries: dict):
        self.layout = layout
        self.entries = MappingProxyType(entries)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.layout.total_dim}, labels={self.layout.labels})"


def pure_density(state: SparseState) -> DensityMatrix:
    """|psi><psi| in entries form, over supp(psi) x supp(psi)."""
    items = state.entries.items()
    return DensityMatrix(state.layout, {(i, j): a * b.conjugate()
                                        for i, a in items for j, b in items})


def tensor(a: SparseState, b: SparseState) -> SparseState:
    """Kronecker product of two sparse states (left factor first)."""
    # Products of nonzero amplitudes; the norm is the product of norms.
    d_b = b.layout.total_dim
    return SparseState._trusted(a.layout.concat(b.layout),
                                {ia * d_b + ib: va * vb for ia, va in a.entries.items()
                                 for ib, vb in b.entries.items()})


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


def project(op: Operator, state: SparseState, value: int):
    """Renormalized P_value |state> and its probability, P_value = (I + value O)/2.

    ``op`` must be a +-1 observable, ``value`` +1 or -1, and the branch's
    probability nonzero.  The state is projected as (v + value O v)/2,
    from the same two children ``born_table`` branches into.
    """
    kept = _sparse_children(op, state.layout, state.entries)[0 if value == 1 else 1]
    p = math.ldexp(_sparse_norm2(kept), -2)
    scale = 0.5 / math.sqrt(p)
    return SparseState._trusted(state.layout, {i: a * scale for i, a in kept.items()}), p


def apply_controlled(control: Operator, unitary: Operator, state: SparseState) -> SparseState:
    """Apply P_plus + U P_minus: ``unitary`` where the +-1 ``control`` reads -1.

    ``control`` and ``unitary`` act on disjoint registers, so the sum is
    unitary; with U flipping a pointer it is a von Neumann premeasurement
    of the control.  It goes in as its four mask-form terms,
    (v + O v)/2 + U (v - O v)/2, and the state stays sparse.
    """
    plus, minus = _sparse_children(control, state.layout, state.entries)
    total, _ = _sparse_sums(plus, _sparse_contract(unitary, state.layout, minus))
    # P_plus + U P_minus is unitary, so the norm stays 1.
    return SparseState._trusted(state.layout, {i: 0.5 * a for i, a in total.items()})


def embed(op: Operator, layout: RegisterLayout) -> Operator:
    """``op`` on a larger layout, the identity on the other registers: its lift."""
    return Operator.from_pauli_mask(layout, *_lift(op, layout))


def _sparse_product(observables, state: SparseState) -> complex:
    """<psi|O_1 ... O_k|psi> for mask-form operators, which send each entry
    to one image: one ``math.fsum`` per part over the images."""
    image = state.entries
    for op in observables:
        image = _sparse_contract(op, state.layout, image)
    terms = [state.entries.get(index, 0.0).conjugate() * amp for index, amp in image.items()]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def product_expectation(observables, state: SparseState, label: str) -> tuple[float, float]:
    """<psi|O|psi> for the product O of jointly measurable +-1 observables in
    mask form, and its part sum_j <psi|P_j O P_j|psi> over register
    ``label``'s basis projectors: all of it where the XOR of the masks keeps
    ``label``'s index, 0 where it moves it."""
    obs = _joint_observables(observables)
    value = _sparse_product(obs, state).real
    mask = 0
    for op in obs:
        mask ^= _lift(op, state.layout)[0]
    return value, 0.0 if state.layout.digit(label)(mask) else value


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
    a_ij * b_kl, so the commutator is identically zero and is not formed.
    Overlapping operators are embedded on the union layout, which raises
    ``LayoutMismatchError`` for a label shared with different dimensions.
    There column j of AB - BA has one entry,
    phase_b(j) phase_a(j ^ m_b) - phase_a(j) phase_b(j ^ m_a), in row
    j ^ m_a ^ m_b, so the max-norm test is a sweep over j that stops at the
    first entry above ``NUMERIC_TOL``.
    """
    if not set(a.layout.labels) & set(b.layout.labels):
        return True
    common = _union_layout(a.layout, b.layout)
    (mask_a, phase_a), (mask_b, phase_b) = embed(a, common).mask_form, embed(b, common).mask_form
    return all(abs(phase_b(j) * phase_a(j ^ mask_b) - phase_a(j) * phase_b(j ^ mask_a))
               <= NUMERIC_TOL for j in range(common.total_dim))


@record
class BornTable:
    """Joint outcome distribution of commuting involutory observables.

    ``rows`` maps each outcome tuple in ``{+1, -1}**k`` (lexicographic, +1
    first) to its probability.  Zero rows are retained.  ``names`` labels the
    outcome slots, one distinct name each.
    """

    names: tuple[str, ...]
    rows: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        total = 0.0
        for outcome, p in self.rows.items():
            if p < -NUMERIC_TOL:
                raise ValueError(f"negative probability {p} for outcome {outcome}")
            total += p
        if abs(total - 1.0) > BORN_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def support(self) -> tuple[tuple[int, ...], ...]:
        """The outcomes whose probability exceeds ``SUPPORT_TOL``, in row order."""
        return tuple(o for o, p in self.rows.items() if p > SUPPORT_TOL)

    def marginal_rows(self, names) -> dict[tuple[int, ...], float]:
        """Rows of the marginal over a subset of outcome slots, in the order given."""
        idx = [self.names.index(n) for n in names]
        rows = dict.fromkeys(itertools.product((1, -1), repeat=len(idx)), 0.0)
        for outcome, p in self.rows.items():
            rows[tuple(outcome[i] for i in idx)] += p
        return rows

    def with_names(self, names: tuple[str, ...]) -> "BornTable":
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
        # Rounding can leave the sum below u: take the last row of positive weight.
        return [o for o, w in zip(outcomes, weights) if w > 0][-1]


def _joint_observables(observables) -> tuple[Operator, ...]:
    """The observables as a tuple, checked pairwise commuting."""
    obs = tuple(observables)
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if not commutes(obs[i], obs[j]):
                raise ContextIncompatibleError(
                    f"observables {i} and {j} do not commute; no joint table exists"
                )
    return obs


def born_table(observables, state: SparseState, names=None) -> BornTable:
    """Joint Born distribution of pairwise-commuting involutory observables.

    Probabilities are ||P_s1 ... P_sk |psi>||^2 with P_s = (I + s O)/2, for
    observables supported on arbitrary (possibly overlapping) subsets of the
    state's registers.

    The rows are the leaves of a depth-first walk of the outcome tree.  A
    node at depth j holds 2**j P_s1 ... P_sj applied to the state; it
    applies O_(j+1) once, and its children are v + O v and v - O v.  That
    is 2**k - 1 contractions for k observables, where a projector chain per
    row would take k * 2**k.  Each leaf's squared norm, a correctly rounded
    ``math.fsum``, is rescaled once by the exact power of two 4**-k, so the
    factors 1/2 are never applied on the way down.  The walk keeps at most
    one pending sibling per level.
    """
    obs = _joint_observables(observables)
    if names is None:
        names = tuple(f"O{i + 1}" for i in range(len(obs)))
    k = len(obs)
    rows: dict[tuple[int, ...], float] = {}
    # Popping the +1 child first visits the leaves in lexicographic order.
    pending = [((), state.entries)]
    while pending:
        prefix, node = pending.pop()
        plus, minus = _sparse_children(obs[len(prefix)], state.layout, node)
        if len(prefix) + 1 == k:
            rows[prefix + (1,)] = math.ldexp(_sparse_norm2(plus), -2 * k)
            rows[prefix + (-1,)] = math.ldexp(_sparse_norm2(minus), -2 * k)
        else:
            pending.append((prefix + (-1,), minus))
            pending.append((prefix + (1,), plus))
    return BornTable(tuple(names), rows)

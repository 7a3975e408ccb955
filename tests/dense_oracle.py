"""Dense numpy builds that the library's sparse and mask-form paths are checked against.

A pure state is a complex tensor with one axis per register of its layout,
and a density matrix is a d x d array.  An operator enters through its
dense ``matrix`` only and acts on its own registers alone, by
``np.tensordot`` on the state tensor: no full-space matrix is built for a
state, so the scenario's psi at lab width 4 (d = 32768) stays cheap.
Nothing here reads a mask form, a phase rule or a sparse walk.

``joint_eigenstate`` is the oracle of ``stabilizer.joint_eigenstate``'s exact
build: it multiplies the 2**n-square projectors (I + G_i)/2, reads the
rank off a float trace and takes a normalized column.
"""

import itertools
import math

import numpy as np

from wignerlab import qcore
from wignerlab.errors import RankNotOneError
from wignerlab.stabilizer import commuting_hermitian, to_operator

TOL = 1e-10


def tensor(state) -> np.ndarray:
    """A ``SparseState``'s amplitudes as a tensor shaped like its layout."""
    out = np.zeros(state.layout.total_dim, dtype=np.complex128)
    for j, amp in state.entries.items():
        out[j] = amp
    return out.reshape(state.layout.shape)


def sparse(layout, tens) -> qcore.SparseState:
    """The nonzero entries of a normalized tensor, as a checked ``SparseState``."""
    flat = np.asarray(tens).reshape(layout.total_dim)
    return qcore.SparseState(layout, {j: flat[j] for j in np.flatnonzero(flat)})


def matrix(rho) -> np.ndarray:
    """A ``DensityMatrix``'s entries as a d x d array."""
    out = np.zeros((rho.layout.total_dim,) * 2, dtype=np.complex128)
    for (row, col), value in rho.entries.items():
        out[row, col] = value
    return out


def density(layout, mat) -> qcore.DensityMatrix:
    """A ``DensityMatrix`` holding the nonzero entries of a d x d array."""
    return qcore.DensityMatrix(layout, {(int(r), int(c)): complex(mat[r, c])
                                        for r, c in zip(*np.nonzero(mat))})


def act(mat, op_layout, tens, layout) -> np.ndarray:
    """``mat``, an operator on ``op_layout``'s registers, applied to their axes
    of ``tens``; axes past the layout's (a density matrix's columns) ride along."""
    axes = [layout.axis(label) for label in op_layout.labels]
    k = len(axes)
    out = np.tensordot(mat.reshape(op_layout.shape * 2), tens,
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def full(op, layout) -> np.ndarray:
    """``op`` on all of ``layout``, the identity elsewhere: only for small layouts."""
    d = layout.total_dim
    eye = np.eye(d, dtype=np.complex128).reshape(layout.shape + (d,))
    return act(op.matrix, op.layout, eye, layout).reshape(d, d)


def flags(op) -> tuple[bool, bool, bool]:
    """(hermitian, unitary, involutory), each a max-norm residual at most TOL."""
    m = op.matrix
    eye = np.eye(len(m))
    return tuple(bool(np.max(np.abs(r)) <= TOL)
                 for r in (m - m.conj().T, m @ m.conj().T - eye, m @ m - eye))


def monomial_flags(layout, mask, phases) -> tuple[bool, bool, bool]:
    """``flags`` of the operator sending |j> to phases[j] |j ^ mask>, in O(d):
    XOR pairs j with j ^ mask both ways, so O - O^dagger, O O^dagger - I and
    O O - I each hold one entry per column, from phases[j] and its partner."""
    phases = np.asarray(phases, dtype=np.complex128).reshape(layout.total_dim)
    partner = phases[np.arange(phases.size) ^ mask]
    return tuple(bool(np.max(np.abs(r)) <= TOL) for r in (
        phases - partner.conj(), phases * phases.conj() - 1.0, partner * phases - 1.0))


def union(a, b) -> qcore.RegisterLayout:
    return qcore.RegisterLayout(a.layout.sites + tuple(s for s in b.layout.sites
                                                       if s not in a.layout.sites))


def commutes(a, b) -> bool:
    """The commutator on the union layout, max-norm at most 1e-12."""
    am, bm = full(a, union(a, b)), full(b, union(a, b))
    return bool(np.max(np.abs(am @ bm - bm @ am)) <= 1e-12)


def expectation(op, tens, layout) -> float:
    return float(np.vdot(tens, act(op.matrix, op.layout, tens, layout)).real)


def project(op, tens, layout, value):
    """(renormalized (I + value O)/2 |tens>, its probability)."""
    kept = (tens + value * act(op.matrix, op.layout, tens, layout)) / 2
    p = float(np.vdot(kept, kept).real)
    return kept / np.sqrt(p), p


def premeasure(control, pointer, tens, layout) -> np.ndarray:
    """P_plus x I + P_minus x F: every qubit of ``pointer`` flipped where the
    +-1 ``control`` reads -1, the von Neumann premeasurement of ``control``."""
    flip = np.eye(pointer.total_dim)[::-1]
    minus = (tens - act(control.matrix, control.layout, tens, layout)) / 2
    return tens - minus + act(flip, pointer, minus, layout)


def born_rows(observables, state, layout) -> dict:
    """One projector chain per row, k * 2**k contractions: ||P v||**2 for a
    state tensor, Tr(P rho) for a d x d density matrix, each summed
    correctly rounded by ``math.fsum``."""
    d = layout.total_dim
    mixed = np.ndim(state) == 2 and state.shape == (d, d)
    if mixed:
        # Only rho's nonzero columns can add to the trace.
        cols = np.flatnonzero(np.any(state != 0, axis=0))
        arr = state[:, cols].reshape(layout.shape + (cols.size,))
    else:
        arr = state.reshape(layout.shape)
    rows = {}
    for outcome in itertools.product((1, -1), repeat=len(observables)):
        v = arr
        for o, s in zip(observables, outcome):
            v = (v + s * act(o.matrix, o.layout, v, layout)) / 2
        terms = (v.reshape(d, -1)[cols, np.arange(cols.size)].real if mixed
                 else v.real ** 2 + v.imag ** 2)
        rows[outcome] = math.fsum(terms.ravel().tolist())
    return rows


def _same_block(layout, target) -> np.ndarray:
    """d x d booleans: row and column agree on ``target``'s index."""
    ax = layout.axis(target)
    index = np.arange(layout.total_dim) // math.prod(layout.shape[ax + 1:]) % layout.shape[ax]
    return index[:, None] == index[None, :]


def dephase(mat, layout, target, strength) -> np.ndarray:
    """Every entry whose row and column differ on ``target`` scaled by 1 - strength."""
    return mat * np.where(_same_block(layout, target), 1.0, 1.0 - strength)


def pointer_diagonality(mat, layout, target) -> float:
    """Summed magnitudes of the entries off ``target``'s diagonal blocks, over d."""
    return float(np.sum(np.abs(mat) * ~_same_block(layout, target)) / layout.total_dim)


def partial_trace(mat, layout, keep) -> np.ndarray:
    """The reduced d_keep x d_keep matrix over the ``keep`` labels, in layout order."""
    n = len(layout.shape)
    kept = [layout.axis(label) for label in layout.labels if label in keep]
    rest = [ax for ax in range(n) if ax not in kept]
    tens = mat.reshape(layout.shape * 2).transpose(
        kept + rest + [n + ax for ax in kept] + [n + ax for ax in rest])
    dk = int(np.prod([layout.shape[ax] for ax in kept]))
    dr = layout.total_dim // dk
    return np.einsum("iaja->ij", tens.reshape(dk, dr, dk, dr))


def joint_eigenstate(generators, labels=None) -> np.ndarray:
    """Unique joint +1 eigenstate of commuting hermitian Pauli generators, densely.

    Requires the projector prod (I + G_i)/2 to have rank 1 within 1e-9; the
    state's global phase makes its first nonzero amplitude real and positive.
    Returns the flat amplitude vector.
    """
    gens = commuting_hermitian(generators)
    if labels is None:
        labels = tuple(f"q{i + 1}" for i in range(len(gens[0])))
    d = 2 ** len(gens[0])
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
    return vec * (vec[first].conjugate() / abs(vec[first]))

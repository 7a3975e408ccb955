"""Pointer-basis dephasing and what it does to the protocol's statistics.

Repeatedly coupling a lab to an unmodeled environment suppresses the
off-diagonal blocks of the state in that lab's pointer basis by a factor
of (1 - strength) per step.  Diagonal blocks never move, so any statistic
that reads the lab through its pointer record survives unchanged, while
statistics that interfere the lab's branches (the conjugated x-type
observables an outside observer would need) decay geometrically.  Once
the residual coherence stays under a threshold for good, undoing the
measurement is no longer an available operation in practice.

One step is D = (1 - lam)*id + lam*Delta, where Delta removes every
coherence between pointer states.  Delta is idempotent, so with q = 1 - lam
the k-th power is exactly D**k = q**k*id + (1 - q**k)*Delta (pointer-basis
dephasing as in Zurek, Rev. Mod. Phys. 75, 715 (2003)).  Every series here
is therefore read off the pure post-premeasurement state psi, without a
d x d density matrix (in O(d) memory for a dense psi, and from its nonzero
entries for the sparse one the scenario builds): an expectation after k
steps is
q**k*<psi|O|psi> + (1 - q**k)*sum_j w_j*<psi_j|O|psi_j> over the pointer
branches psi_j = P_j psi / sqrt(w_j), w_j = ||P_j psi||**2, and the
residual coherence is q**k times that of psi.  ``dephase`` and
``dephased_states`` keep the iterated dense channel as the reference: the
``decohere`` subcommand checks the diagonality series against it up to
lab_width 2 (d = 512), and the tests check every series at widths 1 and 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .errors import (
    BadStrengthError,
    DimensionMismatchError,
    NotUnitaryError,
)
from .scenario import (
    WIGNERS,
    ScenarioModel,
    lab_label,
    scenario_context,
)


@dataclass(frozen=True)
class DephasingChannel:
    """One dephasing step on a named register.

    ``basis`` optionally gives the pointer basis as a unitary whose columns
    are the pointer states; None means the computational basis.
    """

    target: str
    strength: float
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.strength <= 1.0:
            raise BadStrengthError(
                f"dephasing strength must lie in [0, 1], got {self.strength!r}"
            )
        if self.basis is not None:
            mat = np.asarray(self.basis, dtype=np.complex128)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise DimensionMismatchError(
                    f"pointer basis must be a square matrix, got shape {mat.shape}"
                )
            eye = np.eye(mat.shape[0])
            if np.max(np.abs(mat @ mat.conj().T - eye)) > qcore.STRUCTURAL_TOL:
                raise NotUnitaryError("pointer basis must be unitary")
            object.__setattr__(self, "basis", mat)


def _rotate_axis(arr: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(mat, arr, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def _as_density(state) -> qcore.DensityMatrix:
    if isinstance(state, qcore.SparseState):
        state = state.to_dense()
    if isinstance(state, qcore.QState):
        return qcore.pure_density(state)
    if isinstance(state, qcore.DensityMatrix):
        return state
    raise TypeError(
        f"expected QState, SparseState or DensityMatrix, got {type(state).__name__}")


def _target_axis(layout: qcore.RegisterLayout, target: str,
                 basis: np.ndarray | None) -> tuple[int, int]:
    ax = layout.axis(target)
    dim = layout.shape[ax]
    if basis is not None and basis.shape[0] != dim:
        raise DimensionMismatchError(
            f"pointer basis dimension {basis.shape[0]} vs register "
            f"{target!r} dimension {dim}"
        )
    return ax, dim


def dephase(state, channel: DephasingChannel) -> qcore.DensityMatrix:
    """One application of the channel; accepts a pure state or a density matrix."""
    rho = _as_density(state)
    ax, dim = _target_axis(rho.layout, channel.target, channel.basis)
    n = len(rho.layout.sites)
    arr = rho.matrix.reshape(rho.layout.shape + rho.layout.shape)
    if channel.basis is not None:
        arr = _rotate_axis(arr, channel.basis.conj().T, ax)
        arr = _rotate_axis(arr, channel.basis.T, n + ax)
    scale = np.full((dim, dim), 1.0 - channel.strength)
    np.fill_diagonal(scale, 1.0)
    shape = [1] * (2 * n)
    shape[ax] = dim
    shape[n + ax] = dim
    arr = arr * scale.reshape(shape)
    if channel.basis is not None:
        arr = _rotate_axis(arr, channel.basis, ax)
        arr = _rotate_axis(arr, channel.basis.conj(), n + ax)
    d = rho.layout.total_dim
    # A convex mix of rho and its pointer-block diagonal is PSD whenever rho is.
    return qcore.DensityMatrix(rho.layout, arr.reshape(d, d), rho.tol,
                               _known_psd=True)


def dephased_states(state, channel: DephasingChannel, steps: int):
    """The iterated dense reference: rho, D(rho), ..., D**steps(rho), lazily.

    Each step holds a d x d density matrix, so this is for small registers
    and for checking the closed forms above against the channel itself.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    return itertools.accumulate(range(steps), lambda rho, _: dephase(rho, channel),
                                initial=_as_density(state))


def _pointer_tensor(state: qcore.QState, target: str,
                    basis: np.ndarray | None) -> tuple[np.ndarray, int]:
    """Amplitude tensor with the target axis in the pointer basis, and that axis."""
    ax, _ = _target_axis(state.layout, target, basis)
    tens = state.tensor_view()
    if basis is not None:
        tens = _rotate_axis(tens, basis.conj().T, ax)
    return tens, ax


def pointer_diagonality(state, target: str,
                        basis: np.ndarray | None = None) -> float:
    """Mean residual coherence of the target register.

    Sum of the magnitudes of all entries whose row and column disagree on
    the target register, divided by the total dimension.  Zero exactly
    when the state is block-diagonal in the target's pointer basis.  For a
    pure state the entries are |c_a||c_b|, so with m_j the summed
    magnitudes of pointer branch j the value is ((sum m_j)**2 - sum m_j**2)/d,
    taken in O(d) without forming the density matrix, and from the nonzero
    entries alone for a ``SparseState`` in the computational basis.
    """
    if isinstance(state, qcore.SparseState):
        if basis is None:
            m = np.array([math.sqrt(w) * np.sum(np.abs(branch.nonzero()))
                          for w, branch in qcore.split_register(state, target)])
            return float((m.sum() ** 2 - np.dot(m, m)) / state.layout.total_dim)
        state = state.to_dense()
    if isinstance(state, qcore.QState):
        tens, ax = _pointer_tensor(state, target, basis)
        m = np.moveaxis(np.abs(tens), ax, 0).reshape(tens.shape[ax], -1).sum(axis=1)
        return float((m.sum() ** 2 - np.dot(m, m)) / state.layout.total_dim)
    rho = _as_density(state)
    ax, dim = _target_axis(rho.layout, target, basis)
    n = len(rho.layout.sites)
    arr = rho.matrix.reshape(rho.layout.shape + rho.layout.shape)
    if basis is not None:
        arr = _rotate_axis(arr, basis.conj().T, ax)
        arr = _rotate_axis(arr, basis.T, n + ax)
    mask = 1.0 - np.eye(dim)
    shape = [1] * (2 * n)
    shape[ax] = dim
    shape[n + ax] = dim
    return float(np.sum(np.abs(arr) * mask.reshape(shape)) / rho.layout.total_dim)


@dataclass(frozen=True)
class DiagonalityTrajectory:
    """Residual coherence after 0, 1, ... applications of one channel."""

    target: str
    strength: float
    values: tuple[float, ...]


def diagonality_trajectory(state, channel: DephasingChannel,
                           steps: int) -> DiagonalityTrajectory:
    """Residual coherence after k steps: q**k times that of ``state``.

    With q = 1 - strength, D**k scales every entry between distinct pointer
    states by q**k and keeps the rest, so the series needs one
    ``pointer_diagonality``; for a dense pure state that costs O(d), for a
    sparse one O(entries).  The dense check iterates ``dephase`` through
    ``dephased_states`` and reads ``pointer_diagonality`` at every step; the
    ``decohere`` subcommand runs it up to lab_width 2.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    start = pointer_diagonality(state, channel.target, channel.basis)
    q = 1.0 - channel.strength
    values = tuple(q ** k * start for k in range(steps + 1))
    return DiagonalityTrajectory(channel.target, channel.strength, values)


def onset_step(trajectory: DiagonalityTrajectory, tol: float) -> int | None:
    """First step from which the coherence stays at or under ``tol`` for good."""
    onset = None
    for k in reversed(range(len(trajectory.values))):
        if trajectory.values[k] > tol:
            break
        onset = k
    return onset


def _pointer_branches(state, channel: DephasingChannel):
    """(w_j, psi_j) for every pointer state j of the target with w_j > 0.

    A ``SparseState`` in the computational basis splits into sparse
    branches; with a custom basis it is made dense first.
    """
    if isinstance(state, qcore.SparseState):
        if channel.basis is None:
            return qcore.split_register(state, channel.target)
        state = state.to_dense()
    tens, ax = _pointer_tensor(state, channel.target, channel.basis)
    out = []
    for j in range(tens.shape[ax]):
        index = (slice(None),) * ax + (j,)
        branch = np.zeros_like(tens)
        branch[index] = tens[index]
        weight = float(np.vdot(branch, branch).real)
        if weight > 0.0:
            if channel.basis is not None:
                branch = _rotate_axis(branch, channel.basis, ax)
            out.append((weight, qcore.QState(state.layout, branch / np.sqrt(weight),
                                             state.tol)))
    return out


def expectation_trajectory(model: ScenarioModel, channel: DephasingChannel,
                           agents, steps: int) -> tuple[float, ...]:
    """Product expectation of a joint context under repeated dephasing.

    Reads the product of the named agents' protocol observables after k
    applications of the channel to the post-premeasurement state psi, for
    each k from 0 through ``steps``.  With q = 1 - strength the value is
    q**k*E(psi) + (1 - q**k)*sum_j w_j*E(psi_j) over the target's pointer
    branches, from 1 + (number of branches) Born tables on pure states.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    context = scenario_context(model, agents)
    observables, names = tuple(context.values()), tuple(context)

    def product(state: qcore.QState) -> float:
        return qcore.born_table(observables, state, names=names).expectation_product()

    psi = model.post_premeasurement_state()
    coherent = product(psi)
    recorded = sum(w * product(branch) for w, branch in _pointer_branches(psi, channel))
    q = 1.0 - channel.strength
    return tuple(q ** k * coherent + (1.0 - q ** k) * recorded
                 for k in range(steps + 1))


def correlation_decay(model: ScenarioModel, channel: DephasingChannel,
                      steps: int) -> tuple[float, ...]:
    """Decay of the three outside observers' joint x-type correlation.

    The channel must target one lab's pointer in its record basis.  The
    closed form of ``expectation_trajectory`` gives q**k*E(psi) plus
    (1 - q**k) times the branch average; the Born tables make the first
    -1 and the second 0, so the value at step k is -(1 - strength)**k, the
    delicate minus-one correlation washing out while every record stays put.
    No density matrix is formed; the tests compare the series with Born
    tables on ``dephased_states`` at lab_width 1 and 2.
    """
    labs = {lab_label(i) for i in (1, 2, 3)}
    if channel.target not in labs:
        raise ValueError(
            f"channel must target one lab pointer {sorted(labs)}, "
            f"got {channel.target!r}"
        )
    if channel.basis is not None:
        raise ValueError("channel must dephase in the record basis")
    return expectation_trajectory(model, channel, WIGNERS, steps)

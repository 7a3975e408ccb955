"""Pointer-basis dephasing and what it does to the protocol's statistics.

Repeatedly coupling a lab to an unmodeled environment suppresses the
off-diagonal blocks of the state in that lab's pointer basis by a factor
of (1 - strength) per step.  Diagonal blocks never move, so any statistic
that reads the lab through its pointer record survives unchanged, while
statistics that interfere the lab's branches (the conjugated x-type
observables an outside observer would need) decay geometrically.  Once
the residual coherence stays under a threshold for good, undoing the
measurement is no longer an available operation in practice.
"""

from __future__ import annotations

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
    run_friend_stage,
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
    if isinstance(state, qcore.QState):
        return qcore.pure_density(state)
    if isinstance(state, qcore.DensityMatrix):
        return state
    raise TypeError(f"expected QState or DensityMatrix, got {type(state).__name__}")


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
    return qcore.DensityMatrix(rho.layout, arr.reshape(d, d), rho.tol)


def pointer_diagonality(state, target: str,
                        basis: np.ndarray | None = None) -> float:
    """Mean residual coherence of the target register.

    Sum of the magnitudes of all entries whose row and column disagree on
    the target register, divided by the total dimension.  Zero exactly
    when the state is block-diagonal in the target's pointer basis.
    """
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
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    rho = _as_density(state)
    values = [pointer_diagonality(rho, channel.target, channel.basis)]
    for _ in range(steps):
        rho = dephase(rho, channel)
        values.append(pointer_diagonality(rho, channel.target, channel.basis))
    return DiagonalityTrajectory(channel.target, channel.strength, tuple(values))


def onset_step(trajectory: DiagonalityTrajectory, tol: float) -> int | None:
    """First step from which the coherence stays at or under ``tol`` for good."""
    onset = None
    for k in reversed(range(len(trajectory.values))):
        if trajectory.values[k] > tol:
            break
        onset = k
    return onset


def expectation_trajectory(model: ScenarioModel, channel: DephasingChannel,
                           agents, steps: int) -> tuple[float, ...]:
    """Product expectation of a joint context under repeated dephasing.

    Starts from the post-premeasurement state, applies the channel k times,
    and reads off the product of the named agents' protocol observables for
    each k from 0 through ``steps``.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    context = scenario_context(model, agents)
    rho = qcore.pure_density(run_friend_stage(model))
    out = []
    for k in range(steps + 1):
        if k:
            rho = dephase(rho, channel)
        table = qcore.born_table(tuple(context.values()), rho,
                                 names=tuple(context))
        out.append(table.expectation_product())
    return tuple(out)


def correlation_decay(model: ScenarioModel, channel: DephasingChannel,
                      steps: int) -> tuple[float, ...]:
    """Decay of the three outside observers' joint x-type correlation.

    The channel must target one lab's pointer in its record basis; the
    value at step k then follows -(1 - strength)**k exactly, the delicate
    minus-one correlation washing out while every record stays put.
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

"""Record-basis dephasing and what it does to the protocol's statistics.

Repeatedly coupling a lab to an unmodeled environment suppresses the
off-diagonal blocks of the state in that lab's pointer basis, the
computational basis its record is written in, by a factor of
(1 - strength) per step.  Diagonal blocks never move, so any statistic
that reads the lab through its pointer record survives unchanged, while
statistics that interfere the lab's branches (the conjugated x-type
observables an outside observer would need) decay geometrically.  Once
the residual coherence stays under a threshold for good, undoing the
measurement is no longer an available operation in practice.

One step is D = (1 - lam)*id + lam*Delta, where Delta removes every
coherence between pointer states.  Delta is idempotent, so with q = 1 - lam
the k-th power is exactly D**k = q**k*id + (1 - q**k)*Delta (pointer-basis
dephasing as in Zurek, Rev. Mod. Phys. 75, 715 (2003)).  Every series here
is therefore read off the nonzero entries of the sparse post-premeasurement
state psi, without a d x d density matrix: an expectation after k steps is
q**k*<psi|O|psi> + (1 - q**k)*sum_j w_j*<psi_j|O|psi_j> over the pointer
branches psi_j = P_j psi / sqrt(w_j), w_j = ||P_j psi||**2, and the
residual coherence is q**k times that of psi, one ``math.fsum`` over the
64 entries of |psi><psi|.  ``dephase`` and ``dephased_states`` keep the
iterated channel as the reference.  It scales each entry of the density
matrix on its own, so an entry outside supp(psi) x supp(psi) is zero at
every step, and it runs on the entries of ``qcore.DensityMatrix``, a dict
of psi's 64 entries, each register's index read off the bits of the flat
j.  At every lab_width the ``decohere`` subcommand iterates it on psi's
own layout and checks the diagonality series against it; the tests check
every series against the full d x d iterate of their dense oracle at
widths 1 and 2.
"""

from __future__ import annotations

import itertools
import math

from . import qcore
from ._record import record
from .scenario import (
    WIGNERS,
    ScenarioModel,
    scenario_context,
)


@record
class DephasingChannel:
    """One dephasing step on a named register, in its computational basis."""

    target: str
    strength: float  # in [0, 1]


def _as_density(state) -> qcore.DensityMatrix:
    return qcore.pure_density(state) if isinstance(state, qcore.SparseState) else state


def dephase(rho: qcore.DensityMatrix, channel: DephasingChannel) -> qcore.DensityMatrix:
    """One application of the channel to a density matrix.

    Every entry whose row and column differ on the target register is
    scaled by 1 - strength.
    """
    digit = rho.layout.digit(channel.target)
    q = 1.0 - channel.strength
    # Hermitian, unit-trace and PSD whenever rho is: see qcore.DensityMatrix.
    return qcore.DensityMatrix(rho.layout, {
        (i, j): v if digit(i) == digit(j) else v * q for (i, j), v in rho.entries.items()})


def dephased_states(state, channel: DephasingChannel, steps: int):
    """The iterated reference channel: rho, D(rho), ..., D**steps(rho), lazily.

    A ``SparseState`` starts an entries form over supp(psi) x supp(psi),
    which every step keeps, so ``decohere`` runs it on psi at every
    lab_width; the tests also read each step densely through their oracle
    at lab_width 1 and 2.
    """
    return itertools.accumulate(range(steps), lambda rho, _: dephase(rho, channel),
                                initial=_as_density(state))


def pointer_diagonality(state, target: str) -> float:
    """Mean residual coherence of the target register.

    Sum of the magnitudes of all entries whose row and column disagree on
    the target register, divided by the total dimension.  Zero exactly
    when the state is block-diagonal in the target's pointer basis.  A pure
    state is read as its ``pure_density``, so the sum is one ``math.fsum``
    over the entries either way.
    """
    rho = _as_density(state)
    digit = rho.layout.digit(target)
    return math.fsum(abs(v) for (i, j), v in rho.entries.items()
                     if digit(i) != digit(j)) / rho.layout.total_dim


def diagonality_trajectory(state, channel: DephasingChannel,
                           steps: int) -> tuple[float, ...]:
    """Residual coherence after k steps: q**k times that of ``state``.

    With q = 1 - strength, D**k scales every entry between distinct pointer
    states by q**k and keeps the rest, so the series needs one
    ``pointer_diagonality``, which for a pure state costs O(entries**2).  The
    reference check iterates ``dephase`` through ``dephased_states`` and
    reads ``pointer_diagonality`` at every step; the ``decohere`` subcommand
    runs it on psi at every lab_width.
    """
    start = pointer_diagonality(state, channel.target)
    q = 1.0 - channel.strength
    return tuple(q ** k * start for k in range(steps + 1))


def onset_step(trajectory: tuple[float, ...], tol: float) -> int | None:
    """First step from which the coherence stays at or under ``tol`` for good."""
    onset = None
    for k in reversed(range(len(trajectory))):
        if trajectory[k] > tol:
            break
        onset = k
    return onset


def expectation_trajectory(model: ScenarioModel, channel: DephasingChannel,
                           agents, steps: int) -> tuple[float, ...]:
    """Product expectation of a joint context under repeated dephasing.

    Reads the product O of the named agents' protocol observables after k
    applications of the channel to the post-premeasurement state psi, for
    each k from 0 through ``steps``.  With q = 1 - strength the value is
    q**k*<psi|O|psi> + (1 - q**k)*sum_j <psi|P_j O P_j|psi> over the target's
    pointer projectors P_j, both read by ``qcore.product_expectation``.
    """
    context = scenario_context(model, agents)
    coherent, recorded = qcore.product_expectation(
        context.values(), model.post_premeasurement_state(), channel.target)
    q = 1.0 - channel.strength
    return tuple(q ** k * coherent + (1.0 - q ** k) * recorded
                 for k in range(steps + 1))


def correlation_decay(model: ScenarioModel, channel: DephasingChannel,
                      steps: int) -> tuple[float, ...]:
    """Decay of the three outside observers' joint x-type correlation.

    The channel must target one lab's pointer register.  In the closed form
    of ``expectation_trajectory`` psi gives -1 and the branch part 0, as each
    lifted x moves its lab's pointer, so the value at step k is
    -(1 - strength)**k: the delicate minus-one correlation washes out while
    every record stays put.  No density matrix or Born table is formed; the
    tests compare the series with Born tables on ``dephased_states`` at
    lab_width 1 and 2.
    """
    return expectation_trajectory(model, channel, WIGNERS, steps)

"""Flat-spacetime events, pure boosts, and simultaneity frames.

Metric signature (+, -, -, -), units with c = 1.  A simultaneity frame for
a set of events exists exactly when the span of their difference vectors
is spacelike, i.e. the Gram matrix of an independent subset of them is
negative definite.  Among all admissible frames the one returned moves
slowest: its normal is the Minkowski-orthogonal projection of (1, 0, 0, 0)
onto the span's orthogonal complement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SuperluminalError


@dataclass(frozen=True)
class Event4:
    """Labeled spacetime point."""

    label: str
    t: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z], dtype=float)


def minkowski_dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])


def interval(e1: Event4, e2: Event4) -> float:
    """Squared invariant interval; positive timelike, negative spacelike."""
    d = e2.as_array() - e1.as_array()
    return minkowski_dot(d, d)


def is_spacelike(e1: Event4, e2: Event4) -> bool:
    return interval(e1, e2) < 0.0


def is_timelike(e1: Event4, e2: Event4) -> bool:
    return interval(e1, e2) > 0.0


@dataclass(frozen=True)
class BoostVelocity:
    vx: float
    vy: float
    vz: float

    def __post_init__(self) -> None:
        if self.speed >= 1.0:
            raise SuperluminalError(f"boost speed {self.speed} is not below 1")

    @property
    def speed(self) -> float:
        return float(np.sqrt(self.vx**2 + self.vy**2 + self.vz**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.vx, self.vy, self.vz], dtype=float)


def boost(event: Event4, velocity: BoostVelocity) -> Event4:
    """Coordinates of the event in the frame moving at ``velocity``."""
    v = velocity.as_array()
    v2 = float(v @ v)
    r = event.as_array()[1:]
    t = event.t
    if v2 == 0.0:
        return event
    gamma = 1.0 / np.sqrt(1.0 - v2)
    t_new = gamma * (t - float(v @ r))
    r_new = r + ((gamma - 1.0) * float(v @ r) / v2 - gamma * t) * v
    return Event4(event.label, float(t_new), *map(float, r_new))


@dataclass(frozen=True)
class FrameSolution:
    """Outcome of a simultaneity-frame search.

    ``gram`` is the Minkowski Gram matrix of the independent difference
    vectors; its eigenvalues certify the verdict (all negative means the
    spanned plane is spacelike and a frame exists).  ``residual`` is the
    largest pairwise boosted-time difference, None when no frame exists.
    """

    exists: bool
    velocity: BoostVelocity | None
    gram: tuple[tuple[float, ...], ...]
    gram_eigenvalues: tuple[float, ...]
    residual: float | None


def _solve_plane(diffs):
    """Minimal-speed frame normal for the span of the difference vectors."""
    if not diffs:
        return True, BoostVelocity(0.0, 0.0, 0.0), (), ()
    gram = np.array([[minkowski_dot(a, b) for b in diffs] for a in diffs])
    eigs = np.linalg.eigvalsh(gram)
    gram_t = tuple(tuple(float(x) for x in row) for row in gram)
    eig_t = tuple(float(x) for x in eigs)
    if eigs[-1] >= 0.0:
        return False, None, gram_t, eig_t
    # Normal = (1,0,0,0) minus its Minkowski projection onto the plane.
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    coeff = np.linalg.solve(gram, np.array([d[0] for d in diffs]))
    normal = e0.copy()
    for c, d in zip(coeff, diffs):
        normal -= c * d
    vel = BoostVelocity(*(normal[1:] / normal[0]))
    return True, vel, gram_t, eig_t


def _max_time_spread(events, vel: BoostVelocity) -> float:
    times = [boost(e, vel).t for e in events]
    return float(max(times) - min(times))


def frame_for_events(events) -> FrameSolution:
    """Simultaneity frame for any event collection, degeneracy-tolerant.

    Affinely dependent collections are reduced to an independent subset of
    difference vectors first, so collinear-but-simultaneous triples come
    back with the rest frame instead of an error.
    """
    events = tuple(events)
    if not events:
        raise ValueError("frame_for_events() needs at least one event")
    base = events[0].as_array()
    independent: list[np.ndarray] = []
    for e in events[1:]:
        d = e.as_array() - base
        trial = np.stack(independent + [d]) if independent else d[None, :]
        if np.linalg.matrix_rank(trial, tol=1e-12) > len(independent):
            independent.append(d)
    exists, vel, gram_t, eig_t = _solve_plane(independent)
    if not exists:
        return FrameSolution(False, None, gram_t, eig_t, None)
    residual = _max_time_spread(events, vel)
    if residual > 1e-9:
        # Reduced span admits a frame but the full collection does not
        # (dependent event sitting off the simultaneity slice).
        return FrameSolution(False, None, gram_t, eig_t, None)
    return FrameSolution(True, vel, gram_t, eig_t, residual)


# Each lab's early (t = 1) and late (t = 2) event letters, lab 1 first.
EARLY, LATE = "ABC", "UVW"
EVENT_LABELS = tuple(EARLY + LATE)
EVENT_LAB = {letter: i % 3 + 1 for i, letter in enumerate(EVENT_LABELS)}

# One lab's two events: timelike.  One stage, or two labs' late and early: spacelike.
TIMELIKE_PAIRS = tuple(zip(EARLY, LATE))
SPACELIKE_PAIRS = (*itertools.combinations(EARLY, 2), *itertools.combinations(LATE, 2),
                   *((late, early) for late in LATE for early in EARLY
                     if EVENT_LAB[late] != EVENT_LAB[early]))


@dataclass(frozen=True)
class Geometry:
    """Scenario event placement: one early and one late event per lab."""

    events: dict[str, Event4]

    def __post_init__(self) -> None:
        missing = [l for l in EVENT_LABELS if l not in self.events]
        if missing:
            raise ValueError(f"geometry is missing events {missing}")


def _placed(positions) -> Geometry:
    """Each lab's events at its (x, y, z): the early one at t=1, the late one at t=2."""
    return Geometry({letter: Event4(letter, 1.0 if letter in EARLY else 2.0,
                                    *positions[EVENT_LAB[letter]])
                     for letter in EVENT_LABELS})


def default_geometry() -> Geometry:
    """Labs on a right triangle of legs 5; early events at t=1, late at t=2."""
    return _placed({1: (0.0, 0.0, 0.0), 2: (5.0, 0.0, 0.0), 3: (0.0, 5.0, 0.0)})


def collinear_geometry() -> Geometry:
    """Labs 5 apart on a line; mixed early/late triples then span timelike planes."""
    return _placed({1: (0.0, 0.0, 0.0), 2: (5.0, 0.0, 0.0), 3: (10.0, 0.0, 0.0)})


def separation_violations(geometry: Geometry) -> list[str]:
    """Pairs whose causal character differs from the required pattern."""
    bad = []
    for a, b in SPACELIKE_PAIRS:
        if not is_spacelike(geometry.events[a], geometry.events[b]):
            bad.append(f"{a}-{b} must be spacelike")
    for a, b in TIMELIKE_PAIRS:
        if not is_timelike(geometry.events[a], geometry.events[b]):
            bad.append(f"{a}-{b} must be timelike")
    return bad

"""Flat-spacetime events, boost velocities, and simultaneity frames.

Metric signature (+, -, -, -), units with c = 1.  A simultaneity frame for
a set of events exists exactly when the span of their difference vectors
is spacelike, i.e. the Gram matrix of an independent subset of them is
negative definite.  Among all admissible frames the one returned moves
slowest: its normal is the Minkowski-orthogonal projection of (1, 0, 0, 0)
onto the span's orthogonal complement.

The frame search is exact arithmetic on the coordinates as given: each
coordinate (a float, or a ``Fraction`` where a config wrote a decimal) is
an integer over one common denominator, the rank, the definiteness test
and the normal are computed on those integers, and no step has a
tolerance.  Floats enter only in the returned velocity (one
correctly rounded division per component) and in the Gram certificate.
"""

from __future__ import annotations

import itertools
import math
import sys

from ._record import record
from .errors import SuperluminalError


@record
class Event4:
    """Labeled spacetime point; a coordinate is a float, or a ``Fraction``
    where a config wrote an exact decimal."""

    label: str
    t: float
    x: float
    y: float
    z: float

    def as_array(self) -> tuple[float, float, float, float]:
        return (self.t, self.x, self.y, self.z)


def minkowski_dot(u, v):
    """Minkowski product; exact for integer vectors, a float for float ones."""
    return u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3]


def interval(e1: Event4, e2: Event4) -> float:
    """Squared invariant interval; positive timelike, negative spacelike."""
    d = [b - a for a, b in zip(e1.as_array(), e2.as_array())]
    return minkowski_dot(d, d)


def is_spacelike(e1: Event4, e2: Event4) -> bool:
    return interval(e1, e2) < 0.0


def is_timelike(e1: Event4, e2: Event4) -> bool:
    return interval(e1, e2) > 0.0


@record
class BoostVelocity:
    vx: float
    vy: float
    vz: float

    def __post_init__(self) -> None:
        if self.speed >= 1.0:
            raise SuperluminalError(f"boost speed {self.speed} is not below 1")

    @property
    def speed(self) -> float:
        return math.sqrt(self.vx**2 + self.vy**2 + self.vz**2)

    def as_array(self) -> tuple[float, float, float]:
        return (self.vx, self.vy, self.vz)


@record
class FrameSolution:
    """Outcome of a simultaneity-frame search.

    ``gram`` is the Minkowski Gram matrix of the independent difference
    vectors; its eigenvalues certify the verdict (all negative means the
    spanned plane is spacelike and a frame exists).  ``residual`` is the
    largest pairwise difference of the events' times in the returned frame:
    0.0, since the frame is solved exactly; None when no frame exists.  A
    frame whose exact velocity rounds to a float speed of 1 counts as none.
    """

    exists: bool
    velocity: BoostVelocity | None
    gram: tuple[tuple[float, ...], ...]
    gram_eigenvalues: tuple[float, ...]
    residual: float | None


def _scaled_differences(events) -> tuple[list[tuple[int, ...]], int]:
    """Each event minus the first, as integers over one common denominator
    ``scale``, the lcm of the coordinates' denominators: every float is an
    exact dyadic rational, and a ``Fraction`` any rational."""
    ratios = [c.as_integer_ratio() for e in events for c in e.as_array()]
    scale = math.lcm(*(den for _, den in ratios))
    flat = [num * (scale // den) for num, den in ratios]
    base = flat[:4]
    return [tuple(a - b for a, b in zip(flat[i:i + 4], base))
            for i in range(4, len(flat), 4)], scale


def _independent(diffs):
    """The differences that raise the span's rank, by exact elimination."""
    kept, echelon = [], []  # echelon rows as (pivot column, row)
    for d in diffs:
        row = d
        for col, pivot_row in echelon:
            if row[col]:
                row = tuple(pivot_row[col] * a - row[col] * b for a, b in zip(row, pivot_row))
        if any(row):
            kept.append(d)
            echelon.append((next(i for i, a in enumerate(row) if a), row))
    return kept


def _solve_negated(gram, rhs):
    """Bareiss elimination of -G x = -b, with Sylvester's criterion on -G.

    Returns (det(-G), det(-G) * x) with integer entries when every leading
    minor of -G is positive (G negative definite), else None.  Without row
    exchanges each pivot is the next leading minor, and every division is
    exact.
    """
    k = len(gram)
    m = [[-g for g in row] + [-b] for row, b in zip(gram, rhs)]
    previous = 1
    for p in range(k):
        pivot = m[p][p]
        if pivot <= 0:
            return None
        for i in range(p + 1, k):
            for j in range(p + 1, k + 1):
                m[i][j] = (m[i][j] * pivot - m[i][p] * m[p][j]) // previous
        previous = pivot
    det = previous
    scaled = [0] * k
    for i in range(k - 1, -1, -1):
        numerator = det * m[i][k] - sum(m[i][j] * scaled[j] for j in range(i + 1, k))
        scaled[i] = numerator // m[i][i]
    return det, scaled


def _gram_eigenvalues(gram, exact, square) -> tuple[float, ...]:
    """Ascending eigenvalues of the float Gram matrix ``gram``, at most
    2 x 2, which is the integer matrix ``exact`` over ``square``.  With
    every entry at most ``_GRAM_LIMIT`` no step overflows, and a root that
    underflows to 0.0 leaves the other at 0.0 too."""
    if len(gram) <= 1:
        return tuple(row[0] for row in gram)
    (a, b), (_, c) = exact
    half_trace = (a + c) / (2 * square)
    radius = math.hypot((a - c) / (2 * square), gram[0][1])
    # The larger-magnitude root, then the other from the exact
    # determinant, so neither loses digits to cancellation.
    large = half_trace - radius if half_trace < 0 else half_trace + radius
    det = a * c - b * b
    num, den = large.as_integer_ratio()
    small = det * den / (square * square * num) if det and num else 0.0
    return tuple(sorted((large, small)))


def frame_for_events(events) -> FrameSolution:
    """Simultaneity frame for one to three events, decided exactly.

    Three events are all a report asks about: ``frames`` takes triples,
    and every maximal context has three agents.  Affinely dependent
    collections are reduced to an independent subset of difference vectors
    first, so collinear-but-simultaneous triples come back with the rest
    frame instead of an error.  Rank, definiteness and
    the frame's normal are exact integer arithmetic on the coordinates as
    given, with no tolerance: every difference lies exactly in the span the
    frame is orthogonal to, so an admissible frame's residual is 0.0.
    """
    differences, scale = _scaled_differences(events)
    diffs = _independent(differences)
    exact = [[minkowski_dot(a, b) for b in diffs] for a in diffs]
    square = scale * scale
    gram = tuple(tuple(g / square for g in row) for row in exact)
    eigenvalues = _gram_eigenvalues(gram, exact, square)
    solved = _solve_negated(exact, [d[0] for d in diffs])
    if solved is None:
        return FrameSolution(False, None, gram, eigenvalues, None)
    # det * ((1, 0, 0, 0) - sum_j x_j d_j), with det > 0.
    det, scaled = solved
    normal = (det, 0, 0, 0)
    for x, d in zip(scaled, diffs):
        normal = [n - x * c for n, c in zip(normal, d)]
    t = normal[0]
    try:
        velocity = BoostVelocity(normal[1] / t, normal[2] / t, normal[3] / t)
    except SuperluminalError:
        # The exact frame moves slower than light by less than the float
        # spacing below 1, so no float velocity reaches it.
        return FrameSolution(False, None, gram, eigenvalues, None)
    return FrameSolution(True, velocity, gram, eigenvalues, 0.0)


# Each lab's early (t = 1) and late (t = 2) event letters, lab 1 first.
EARLY, LATE = "ABC", "UVW"
EVENT_LABELS = tuple(EARLY + LATE)
EVENT_LAB = {letter: i % 3 + 1 for i, letter in enumerate(EVENT_LABELS)}

# One lab's two events: timelike.  One stage, or two labs' late and early: spacelike.
TIMELIKE_PAIRS = tuple(zip(EARLY, LATE))
SPACELIKE_PAIRS = (*itertools.combinations(EARLY, 2), *itertools.combinations(LATE, 2),
                   *((late, early) for late in LATE for early in EARLY
                     if EVENT_LAB[late] != EVENT_LAB[early]))


@record
class Geometry:
    """Scenario event placement: one early and one late event per lab."""

    events: dict[str, Event4]


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


# The largest Gram entry a frame search may form, a quarter of the largest
# float: then the Gram matrix and its eigenvalues are finite floats.
_GRAM_LIMIT = sys.float_info.max / 4


def separation_violations(geometry: Geometry) -> list[str]:
    """Pairs whose causal character differs from the required pattern, and
    events so far apart that a frame search's Gram entry, the product
    <e_j - e_i, e_k - e_i> of two differences, exceeds ``_GRAM_LIMIT``."""
    bad = []
    for a, b in SPACELIKE_PAIRS:
        if not is_spacelike(geometry.events[a], geometry.events[b]):
            bad.append(f"{a}-{b} must be spacelike")
    for a, b in TIMELIKE_PAIRS:
        if not is_timelike(geometry.events[a], geometry.events[b]):
            bad.append(f"{a}-{b} must be timelike")
    differences, scale = _scaled_differences([geometry.events[l] for l in EVENT_LABELS])
    points = [(0, 0, 0, 0), *differences]
    limit = int(_GRAM_LIMIT) * scale * scale
    if any(abs(minkowski_dot([x - o for x, o in zip(u, origin)],
                             [y - o for y, o in zip(v, origin)])) > limit
           for origin in points for u in points for v in points):
        bad.append(f"events too far apart: a Gram entry exceeds {_GRAM_LIMIT:.6g}")
    return bad

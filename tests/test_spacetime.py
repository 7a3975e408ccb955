import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from wignerlab.errors import SuperluminalError
from wignerlab.spacetime import (
    EVENT_LAB,
    EVENT_LABELS,
    SPACELIKE_PAIRS,
    TIMELIKE_PAIRS,
    BoostVelocity,
    Event4,
    FrameSolution,
    Geometry,
    collinear_geometry,
    default_geometry,
    frame_for_events,
    interval,
    is_spacelike,
    is_timelike,
    separation_violations,
)


def test_interval_signs():
    o = Event4("o", 0, 0, 0, 0)
    assert interval(o, Event4("t", 2, 1, 0, 0)) > 0
    assert interval(o, Event4("s", 1, 2, 0, 0)) < 0
    assert interval(o, Event4("n", 1, 1, 0, 0)) == 0


def test_spacelike_and_timelike_predicates():
    o = Event4("o", 0, 0, 0, 0)
    assert is_spacelike(o, Event4("s", 0, 3, 0, 0))
    assert not is_spacelike(o, o)
    assert is_timelike(o, Event4("t", 3, 0, 0, 0))


def test_boost_velocity_guard():
    with pytest.raises(SuperluminalError):
        BoostVelocity(1.0, 0.0, 0.0)
    with pytest.raises(SuperluminalError):
        BoostVelocity(0.8, 0.8, 0.0)
    assert BoostVelocity(0.0, 0.0, 0.0).speed == 0.0


def test_boost_zero_velocity_is_identity():
    e = Event4("e", 1.5, 2.0, -3.0, 0.5)
    assert _np_boost(e, BoostVelocity(0.0, 0.0, 0.0)) == e


def test_boost_standard_x_configuration():
    # Textbook check: event at rest at origin, viewed from frame at 0.6c.
    e = Event4("e", 1.0, 0.0, 0.0, 0.0)
    b = _np_boost(e, BoostVelocity(0.6, 0.0, 0.0))
    gamma = 1.25
    assert abs(b.t - gamma * 1.0) <= 1e-12
    assert abs(b.x - (-gamma * 0.6)) <= 1e-12


def test_boost_preserves_interval():
    rng = np.random.default_rng(13)
    for _ in range(200):
        v = rng.uniform(-0.55, 0.55, size=3)  # speed below 0.96
        vel = BoostVelocity(*v)
        e1 = Event4("p", *rng.uniform(-5, 5, size=4))
        e2 = Event4("q", *rng.uniform(-5, 5, size=4))
        before = interval(e1, e2)
        after = interval(_np_boost(e1, vel), _np_boost(e2, vel))
        assert abs(before - after) <= 1e-9


def test_simultaneity_frame_already_simultaneous():
    es = [Event4(l, 1.0, x, y, 0.0) for l, x, y in (("A", 0, 0), ("B", 5, 0), ("C", 0, 5))]
    v = frame_for_events(es).velocity
    assert v is not None and v.speed <= 1e-12


def test_simultaneity_frame_worked_example():
    # Frozen expected velocity; verified against the orthogonality equations
    # v . dx = dt solved independently (minimum-norm via pseudoinverse).
    u = Event4("U", 2.0, 0.0, 0.0, 0.0)
    b = Event4("B", 1.0, 5.0, 0.0, 0.0)
    c = Event4("C", 1.0, 0.0, 5.0, 0.0)
    v = frame_for_events((u, b, c)).velocity
    assert v is not None
    assert np.max(np.abs(v.as_array() - np.array([-0.2, -0.2, 0.0]))) <= 1e-12
    assert abs(v.speed - 0.2 * np.sqrt(2)) <= 1e-12
    a_mat = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    b_vec = np.array([-1.0, -1.0])
    oracle = np.linalg.pinv(a_mat) @ b_vec
    assert np.max(np.abs(v.as_array() - oracle)) <= 1e-12
    boosted = [_np_boost(e, v) for e in (u, b, c)]
    assert abs(boosted[0].t - boosted[1].t) <= 1e-9
    assert abs(boosted[0].t - boosted[2].t) <= 1e-9


def test_simultaneity_frame_collinear_counterexample():
    u = Event4("U", 2.0, 0.0, 0.0, 0.0)
    b = Event4("B", 1.0, 5.0, 0.0, 0.0)
    c = Event4("C", 1.0, 10.0, 0.0, 0.0)
    cert = frame_for_events((u, b, c))
    assert not cert.exists and cert.velocity is None and cert.residual is None
    gram = np.array(cert.gram)
    assert np.max(np.abs(gram - np.array([[-24.0, -49.0], [-49.0, -99.0]]))) <= 1e-12
    assert max(cert.gram_eigenvalues) > 0  # certificate: plane is not spacelike
    assert abs(np.linalg.det(gram) - (-25.0)) <= 1e-9


def test_frame_velocity_is_minimal_speed():
    # Any other admissible frame for the same triple is at least as fast.
    rng = np.random.default_rng(19)
    u = Event4("U", 2.0, 0.0, 0.0, 0.0)
    b = Event4("B", 1.0, 5.0, 0.0, 0.0)
    c = Event4("C", 1.0, 0.0, 5.0, 0.0)
    v = frame_for_events((u, b, c)).velocity.as_array()
    a_mat = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    b_vec = np.array([-1.0, -1.0])
    # Solutions form a line v + t * kernel; sample along it.
    kernel = np.array([0.0, 0.0, 1.0])
    for _ in range(50):
        t = rng.uniform(-0.5, 0.5)
        other = v + t * kernel
        assert np.max(np.abs(a_mat @ other - b_vec)) <= 1e-12
        assert np.linalg.norm(other) >= np.linalg.norm(v) - 1e-12


def test_event_tables_derived_from_the_lab_map_are_the_written_out_ones():
    # Written out here, so a change to the map or to a derivation fails
    # this test; the pair order fixes the order of violation messages.
    assert EVENT_LAB == {"A": 1, "B": 2, "C": 3, "U": 1, "V": 2, "W": 3}
    assert TIMELIKE_PAIRS == (("A", "U"), ("B", "V"), ("C", "W"))
    assert SPACELIKE_PAIRS == (
        ("A", "B"), ("A", "C"), ("B", "C"),
        ("U", "V"), ("U", "W"), ("V", "W"),
        ("U", "B"), ("U", "C"), ("V", "A"), ("V", "C"), ("W", "A"), ("W", "B"),
    )
    for geometry, places in ((default_geometry(), {1: (0.0, 0.0), 2: (5.0, 0.0),
                                                   3: (0.0, 5.0)}),
                             (collinear_geometry(), {1: (0.0, 0.0), 2: (5.0, 0.0),
                                                     3: (10.0, 0.0)})):
        written = [Event4(letter, t, *places[lab], 0.0)
                   for t, letters in ((1.0, "ABC"), (2.0, "UVW"))
                   for letter, lab in zip(letters, (1, 2, 3))]
        assert list(geometry.events.values()) == written
        assert list(geometry.events) == [e.label for e in written]


def test_default_geometry_separation_pattern():
    geo = default_geometry()
    assert separation_violations(geo) == []


def test_collinear_geometry_keeps_separation_pattern():
    assert separation_violations(collinear_geometry()) == []


def scaled(geometry, s):
    """``geometry`` with every coordinate multiplied by ``s``, each read
    exactly as its shortest decimal, as a config's numbers are."""
    return Geometry({label: Event4(label, *(Fraction(repr(c * s)) for c in e.as_array()))
                     for label, e in geometry.events.items()})


@pytest.mark.parametrize("s", [1e154, 1e200])
def test_geometry_too_large_for_float_gram_entries_is_a_violation(s):
    # Gram entries of the default geometry's differences are up to 50 s**2.
    assert separation_violations(scaled(default_geometry(), s)) == [
        "events too far apart: a Gram entry exceeds 4.49423e+307"]


@pytest.mark.parametrize("s", [1e77, 1e152, 1e-165, 1e-200])
def test_frames_of_a_scaled_geometry_are_finite(s):
    # At s = 1e77 the eigenvalues' intermediate s**4 overflowed; at 1e-165
    # the larger root underflowed to 0.0 and was divided by.
    unit, geo = default_geometry(), scaled(default_geometry(), s)
    assert separation_violations(geo) == []
    for triple in itertools.combinations(EVENT_LABELS, 3):
        cert = frame_for_events([geo.events[k] for k in triple])
        expected = frame_for_events([unit.events[k] for k in triple])
        assert cert.exists == expected.exists
        assert all(map(math.isfinite, (*cert.gram_eigenvalues, *itertools.chain(*cert.gram))))
        if cert.exists:
            assert cert.velocity.as_array() == pytest.approx(expected.velocity.as_array())
        elif s > 1:
            assert cert.gram_eigenvalues == pytest.approx(
                [v * s * s for v in expected.gram_eigenvalues], rel=1e-12)


@pytest.mark.parametrize(
    "labels,expected",
    [
        (("A", "B", "C"), (0.0, 0.0, 0.0)),
        (("U", "V", "W"), (0.0, 0.0, 0.0)),
        (("U", "B", "C"), (-0.2, -0.2, 0.0)),
        (("A", "V", "C"), (0.2, 0.0, 0.0)),
        (("A", "B", "W"), (0.0, 0.2, 0.0)),
    ],
)
def test_frame_admissible_default_geometry(labels, expected):
    geo = default_geometry()
    cert = frame_for_events([geo.events[k] for k in labels])
    assert cert.exists
    assert np.max(np.abs(cert.velocity.as_array() - np.array(expected))) <= 1e-12
    assert cert.velocity.speed < 1.0
    assert cert.residual <= 1e-9


def test_frame_admissible_collinear_mixed_triples_fail():
    geo = collinear_geometry()
    for labels in (("U", "B", "C"), ("A", "V", "C"), ("A", "B", "W")):
        cert = frame_for_events([geo.events[k] for k in labels])
        assert not cert.exists
        assert max(cert.gram_eigenvalues) > 0
    # Same-stage triples collapse onto one line: one independent difference
    # vector, spacelike, so the rest frame serves.
    for labels in (("A", "B", "C"), ("U", "V", "W")):
        cert = frame_for_events([geo.events[k] for k in labels])
        assert cert.exists and len(cert.gram) == 1


def test_frame_for_events_collinear_simultaneous_rest_frame():
    geo = collinear_geometry()
    cert = frame_for_events([geo.events[k] for k in ("A", "B", "C")])
    assert cert.exists
    assert cert.velocity.speed == 0.0
    assert cert.residual <= 1e-12


def test_frame_for_events_matches_certificate_on_independent_triple():
    # Independent triple: the 2x2 Gram matrix of the difference vectors
    # certifies the frame, and the velocity is the minimum-norm solution
    # of v . dx = dt for both differences.
    geo = default_geometry()
    triple = [geo.events[k] for k in ("U", "B", "C")]
    cert = frame_for_events(triple)
    assert cert.exists
    assert len(cert.gram) == 2 and max(cert.gram_eigenvalues) < 0
    diffs = [np.subtract(e.as_array(), triple[0].as_array()) for e in triple[1:]]
    a_mat = np.array([d[1:] for d in diffs])
    oracle = np.linalg.pinv(a_mat) @ np.array([d[0] for d in diffs])
    assert np.max(np.abs(cert.velocity.as_array() - oracle)) <= 1e-12


def test_frame_for_events_rejects_timelike_pair():
    geo = default_geometry()
    cert = frame_for_events([geo.events["A"], geo.events["U"]])
    assert not cert.exists
    assert max(cert.gram_eigenvalues) >= 0


def test_frame_for_events_single_event_and_empty():
    geo = default_geometry()
    cert = frame_for_events([geo.events["A"]])
    assert cert.exists
    assert cert.velocity.speed == 0.0
    assert cert.gram == ()


def test_frame_for_events_four_events_with_timelike_pair():
    # A timelike pair among three events: no frame.
    geo = default_geometry()
    assert not frame_for_events([geo.events[k] for k in ("A", "B", "U")]).exists


# The numpy solver that frame_for_events replaced, kept verbatim (its
# numpy event and velocity arrays written out) as an oracle: SVD rank test
# with tolerance 1e-12, eigvalsh, solve, then a 1e-9 residual check.

def _np_event(e):
    return np.array([e.t, e.x, e.y, e.z], dtype=float)


def _np_minkowski_dot(u, v):
    return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])


def _np_boost(event, velocity):
    v = np.array([velocity.vx, velocity.vy, velocity.vz], dtype=float)
    v2 = float(v @ v)
    r = _np_event(event)[1:]
    t = event.t
    if v2 == 0.0:
        return event
    gamma = 1.0 / np.sqrt(1.0 - v2)
    t_new = gamma * (t - float(v @ r))
    r_new = r + ((gamma - 1.0) * float(v @ r) / v2 - gamma * t) * v
    return Event4(event.label, float(t_new), *map(float, r_new))


def _np_solve_plane(diffs):
    if not diffs:
        return True, BoostVelocity(0.0, 0.0, 0.0), (), ()
    gram = np.array([[_np_minkowski_dot(a, b) for b in diffs] for a in diffs])
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


def _np_max_time_spread(events, vel):
    times = [_np_boost(e, vel).t for e in events]
    return float(max(times) - min(times))


def _numpy_frame_for_events(events):
    events = tuple(events)
    if not events:
        raise ValueError("frame_for_events() needs at least one event")
    base = _np_event(events[0])
    independent = []
    for e in events[1:]:
        d = _np_event(e) - base
        trial = np.stack(independent + [d]) if independent else d[None, :]
        if np.linalg.matrix_rank(trial, tol=1e-12) > len(independent):
            independent.append(d)
    exists, vel, gram_t, eig_t = _np_solve_plane(independent)
    if not exists:
        return FrameSolution(False, None, gram_t, eig_t, None)
    residual = _np_max_time_spread(events, vel)
    if residual > 1e-9:
        return FrameSolution(False, None, gram_t, eig_t, None)
    return FrameSolution(True, vel, gram_t, eig_t, residual)


def _fraction_frame(events):
    """Exact oracle in Fractions: (rank, exists, lightlike, rounded velocity).

    Gauss elimination finds the rank and the independent differences; the
    frame exists when det of every leading block of -G is positive; the
    velocity is the exact one, each component rounded to the nearest float.
    ``lightlike``: G is singular, or the frame's speed is within 1e-9 of 1.
    """
    points = [[Fraction(c) for c in e.as_array()] for e in events]
    basis, echelon = [], []
    for p in points[1:]:
        d = [a - b for a, b in zip(p, points[0])]
        row = d
        for col, pivot in echelon:
            row = [a - row[col] / pivot[col] * b for a, b in zip(row, pivot)]
        if any(row):
            basis.append(d)
            echelon.append((next(i for i, a in enumerate(row) if a), row))
    gram = [[a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3] for b in basis]
            for a in basis]

    def det(m):
        m, out = [row[:] for row in m], Fraction(1)
        for p in range(len(m)):
            pivot = next((r for r in range(p, len(m)) if m[r][p]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != p:
                m[p], m[pivot], out = m[pivot], m[p], -out
            out *= m[p][p]
            for r in range(p + 1, len(m)):
                m[r] = [a - m[r][p] / m[p][p] * b for a, b in zip(m[r], m[p])]
        return out

    if any(det([[-g for g in row[:k]] for row in gram[:k]]) <= 0
           for k in range(1, len(gram) + 1)):
        return len(basis), False, det(gram) == 0, None
    # Cramer's rule for G c = (d_i[0]); normal = e0 - sum_j c_j d_j.
    full = det(gram)
    coeffs = [det([row[:j] + [d[0]] + row[j + 1:] for row, d in zip(gram, basis)]) / full
              for j in range(len(basis))]
    normal = [Fraction(i == 0) - sum(c * d[i] for c, d in zip(coeffs, basis))
              for i in range(4)]
    velocity = [n / normal[0] for n in normal[1:]]
    return (len(basis), True, 1 - sum(v * v for v in velocity) <= 1e-9,
            tuple(float(v) for v in velocity))


_COORDINATES = {
    "integer": lambda rng: float(rng.randint(-4, 4)),
    "tenths": lambda rng: rng.randint(-40, 40) / 10,
    "thirds": lambda rng: rng.randint(-12, 12) / 3,
}


def _random_events(rng, kinds):
    return [Event4(str(i), *(_COORDINATES[rng.choice(kinds)](rng) for _ in range(4)))
            for i in range(rng.randint(1, 3))]


def _check_exact(events, cert):
    """The verdict, velocity and residual equal the Fraction oracle's."""
    rank, exists, lightlike, velocity = _fraction_frame(events)
    assert len(cert.gram) == len(cert.gram_eigenvalues) == rank
    if exists:
        try:
            BoostVelocity(*velocity)
        except SuperluminalError:  # exact speed rounds to 1
            exists = False
    assert cert.exists is exists
    if not exists:
        assert cert.velocity is None and cert.residual is None
        return rank, lightlike
    # Correctly rounded, with zeros +0.0.
    assert [str(v) for v in cert.velocity.as_array()] == [str(v) for v in velocity]
    assert cert.residual == 0.0
    times = [_np_boost(e, cert.velocity).t for e in events]
    assert max(times) - min(times) <= 1e-9
    return rank, lightlike


def _check_against_numpy(events, cert, oracle):
    assert cert.exists is oracle.exists
    assert len(cert.gram) == len(oracle.gram)
    assert np.max(np.abs(np.array(cert.gram) - np.array(oracle.gram)), initial=0.0) <= 1e-9
    assert np.max(np.abs(np.subtract(cert.gram_eigenvalues, oracle.gram_eigenvalues)),
                  initial=0.0) <= 1e-9
    if cert.exists:
        assert np.max(np.abs(np.subtract(cert.velocity.as_array(),
                                         oracle.velocity.as_array()))) <= 1e-12


@pytest.mark.parametrize("kinds", [("integer",), ("tenths",), ("thirds",),
                                   ("integer", "tenths", "thirds")], ids="+".join)
def test_exact_frames_match_the_numpy_oracle_on_random_geometries(kinds):
    """Same verdict, velocity within 1e-12, eigenvalues within 1e-9.

    Where the numpy solver's tolerances decide (it raises on a lightlike
    span, its rank test drops a difference that is independent in the
    floats, or the span is within 1e-9 of lightlike) the two may differ,
    and there the Fraction oracle alone is the reference.
    """
    rng = random.Random("".join(kinds))
    compared = 0
    for _ in range(600):
        events = _random_events(rng, kinds)
        cert = frame_for_events(events)
        rank, lightlike = _check_exact(events, cert)
        try:
            oracle = _numpy_frame_for_events(events)
        except (np.linalg.LinAlgError, SuperluminalError):
            continue
        if len(oracle.gram) != rank or lightlike:
            continue
        _check_against_numpy(events, cert, oracle)
        compared += 1
    assert compared >= 590


@pytest.mark.parametrize("geometry", [default_geometry(), collinear_geometry()],
                         ids=["default", "collinear"])
def test_exact_frames_match_the_numpy_oracle_on_built_in_geometries(geometry):
    # Every ordered choice of one to three of the event letters.
    for size in range(1, 4):
        for labels in itertools.permutations(EVENT_LABELS, size):
            events = [geometry.events[k] for k in labels]
            cert = frame_for_events(events)
            _check_exact(events, cert)
            _check_against_numpy(events, cert, _numpy_frame_for_events(events))


def test_numpy_oracle_raised_where_the_exact_solver_answers():
    # Lightlike pair: eigvalsh gives 0 and the old solver said "no frame";
    # lightlike plane of integer differences: its solve raised.
    o = Event4("o", 0.0, 0.0, 0.0, 0.0)
    assert not frame_for_events([o, Event4("n", 1.0, 1.0, 0.0, 0.0)]).exists
    events = [Event4("a", 1.0, 1.0, -1.0, 3.0), Event4("b", -3.0, 3.0, -3.0, 0.0),
              Event4("c", 4.0, -3.0, -2.0, 4.0)]
    with pytest.raises(np.linalg.LinAlgError):
        _numpy_frame_for_events(events)
    cert = frame_for_events(events)
    assert not cert.exists
    _check_exact(events, cert)


def test_frame_whose_speed_rounds_to_light_is_no_frame():
    # In the reals the two events are lightlike apart (dt = -3, dx = -1, 2,
    # -2).  As floats they are spacelike by about 1e-16, so a frame exists,
    # but its velocity rounded to floats has speed 1 and no boost reaches it.
    events = [Event4("p", 2.0, 1 / 3, -1 / 3, 2.0), Event4("q", -1.0, -2 / 3, 5 / 3, 0.0)]
    _, exists, lightlike, velocity = _fraction_frame(events)
    assert exists and lightlike
    with pytest.raises(SuperluminalError):
        BoostVelocity(*velocity)
    cert = frame_for_events(events)
    assert not cert.exists and cert.velocity is None and cert.residual is None
    assert max(cert.gram_eigenvalues) < 0


def test_rank_is_decided_on_the_floats_as_given():
    # In the reals these three events lie on one spacelike line, and the
    # numpy solver's rank tolerance treated them so.  As floats 0.3 is not
    # three times 0.1, so the differences span the timelike (t, x) plane
    # and no frame exists.  Dyadic coordinates keep the line exact.
    def line(step, far):
        return [Event4("p", 0.0, 0.0, 0.0, 0.0), Event4("q", step, 1.0, 0.0, 0.0),
                Event4("r", far, 3.0, 0.0, 0.0)]
    assert 0.3 != 3 * 0.1
    assert _numpy_frame_for_events(line(0.1, 0.3)).exists
    cert = frame_for_events(line(0.1, 0.3))
    assert not cert.exists and len(cert.gram) == 2
    assert max(cert.gram_eigenvalues) > 0
    cert = frame_for_events(line(0.25, 0.75))
    assert cert.exists and len(cert.gram) == 1
    assert cert.velocity.as_array() == (0.25, 0.0, 0.0) and cert.residual == 0.0


def test_fraction_coordinates_share_the_lcm_of_their_denominators():
    # 1/4 = 5/2 * 1/10 exactly.  The common denominator is 20, the lcm of
    # 10, 4 and 2; the largest denominator, 10, is not a multiple of 4.
    line = [Event4("p", Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
            Event4("q", Fraction(1, 10), Fraction(1), Fraction(0), Fraction(0)),
            Event4("r", Fraction(1, 4), Fraction(5, 2), Fraction(0), Fraction(0))]
    cert = frame_for_events(line)
    assert cert.exists and len(cert.gram) == 1
    assert cert.velocity.as_array() == (0.1, 0.0, 0.0) and cert.residual == 0.0
    assert not frame_for_events([Event4(e.label, *map(float, e.as_array()))
                                 for e in line]).exists

import numpy as np
import pytest

from wignerlab.errors import SuperluminalError
from wignerlab.spacetime import (
    EVENT_LAB,
    SPACELIKE_PAIRS,
    TIMELIKE_PAIRS,
    BoostVelocity,
    Event4,
    Geometry,
    boost,
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
    assert boost(e, BoostVelocity(0.0, 0.0, 0.0)) == e


def test_boost_standard_x_configuration():
    # Textbook check: event at rest at origin, viewed from frame at 0.6c.
    e = Event4("e", 1.0, 0.0, 0.0, 0.0)
    b = boost(e, BoostVelocity(0.6, 0.0, 0.0))
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
        after = interval(boost(e1, vel), boost(e2, vel))
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
    boosted = [boost(e, v) for e in (u, b, c)]
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


def test_geometry_requires_all_events():
    with pytest.raises(ValueError):
        Geometry({"A": Event4("A", 1, 0, 0, 0)})


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
    diffs = [e.as_array() - triple[0].as_array() for e in triple[1:]]
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
    with pytest.raises(ValueError):
        frame_for_events([])


def test_frame_for_events_four_events_with_timelike_pair():
    geo = default_geometry()
    cert = frame_for_events([geo.events[k] for k in ("A", "B", "C", "U")])
    assert not cert.exists

import math

import numpy as np
import pytest

from anglelab.errors import (
    DegenerateVector,
    DimensionMismatch,
    EmptyCloud,
    InvalidDimension,
    InvalidWindow,
    TooFewPoints,
)
from anglelab.geom import (
    AngleInterval,
    PointCloud,
    TripleWitness,
    angle_at,
    angle_spectrum,
    line_pair_angle,
    regular_simplex,
    spectrum_hits,
)


def test_angle_at_right_angle():
    assert angle_at((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == 90.0


def test_angle_at_45():
    assert abs(angle_at((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)) - 45.0) < 1e-12


def test_angle_at_straight_and_zero():
    assert angle_at((0.0, 0.0), (1.0, 0.0), (-2.0, 0.0)) == 180.0
    assert angle_at((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)) == 0.0


def test_angle_at_degenerate_arm():
    with pytest.raises(DegenerateVector):
        angle_at((1.0, 1.0), (1.0, 1.0), (0.0, 0.0))


def test_angle_at_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        angle_at((0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0))


def test_angle_at_exact_arm_swap():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        a, p, q = rng.normal(size=(3, d))
        assert angle_at(a, p, q) == angle_at(a, q, p)


def test_angle_at_similarity_invariance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, p, q = rng.normal(size=(3, 2))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        scale = float(rng.uniform(0.1, 10.0))
        shift = rng.normal(size=2)
        before = angle_at(a, p, q)
        after = angle_at(
            scale * rot @ a + shift, scale * rot @ p + shift, scale * rot @ q + shift
        )
        assert abs(before - after) < 1e-9


def test_line_pair_angle_range_and_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b, c, d = rng.normal(size=(4, 3))
        t = line_pair_angle(a, b, c, d)
        assert 0.0 <= t <= 90.0
        assert t == line_pair_angle(b, a, c, d)
        assert t == line_pair_angle(a, b, d, c)
        assert t == line_pair_angle(c, d, a, b)


def test_line_pair_angle_perpendicular():
    assert line_pair_angle((0, 0), (1, 0), (5, 5), (5, 7)) == 90.0


def test_line_pair_angle_opposite_orientation_is_zero():
    assert line_pair_angle((0, 0), (2, 1), (4, 2), (0, 0)) < 1e-5


def test_regular_simplex_triangle_coordinates():
    v = regular_simplex(2)
    assert v.shape == (3, 2)
    assert np.allclose(v[0], [0.0, 0.0])
    assert np.allclose(v[1], [1.0, 0.0])
    assert np.allclose(v[2], [0.5, math.sqrt(3.0) / 2.0])


def test_regular_simplex_unit_edges():
    for n in range(1, 13):
        v = regular_simplex(n)
        assert v.shape == (n + 1, n)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                assert abs(np.linalg.norm(v[i] - v[j]) - 1.0) < 1e-12


def test_regular_simplex_vertex_angles_are_60():
    for n in range(2, 8):
        v = regular_simplex(n)
        for a in range(n + 1):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    if a in (i, j):
                        continue
                    assert abs(angle_at(v[a], v[i], v[j]) - 60.0) < 1e-9


def test_regular_simplex_line_pairs_hit_0_60_90():
    # Lines through vertex pairs of a regular simplex meet only at
    # 0, 60, or 90 degrees, in every dimension.
    for n in range(2, 13):
        v = regular_simplex(n)
        pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        for pi in range(len(pairs)):
            for pj in range(pi, len(pairs)):
                i, j = pairs[pi]
                k, l = pairs[pj]
                t = line_pair_angle(v[i], v[j], v[k], v[l])
                assert min(abs(t - 0.0), abs(t - 60.0), abs(t - 90.0)) < 1e-6


def test_regular_simplex_rejects_bad_dimension():
    with pytest.raises(InvalidDimension):
        regular_simplex(0)


def test_cloud_dedup_keeps_first_occurrence_order():
    c = PointCloud([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    assert len(c) == 3
    assert c.point(0) == (1.0, 2.0)
    assert c.point(1) == (0.0, 0.0)
    assert c.point(2) == (3.0, 4.0)


def test_cloud_near_duplicates_survive():
    c = PointCloud([[0.0, 0.0], [1e-15, 0.0]])
    assert len(c) == 2


def test_cloud_empty_needs_dimension():
    with pytest.raises(DimensionMismatch):
        PointCloud([])
    c = PointCloud([], dimension=3)
    assert len(c) == 0
    assert c.dimension == 3
    assert len(PointCloud(np.zeros((0, 0)), dimension=0)) == 0


def test_cloud_points_read_only():
    c = PointCloud([[0.0, 1.0]])
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


def test_cloud_copies_its_input():
    arr = np.array([[0.0, 1.0], [2.0, 3.0]])
    c = PointCloud(arr)
    assert arr.flags.writeable
    arr[0, 0] = 5.0
    assert c.point(0) == (0.0, 1.0)
    base = np.array([[0.0, 1.0], [2.0, 3.0]])
    view = PointCloud(base[:])
    base[1, 1] = 7.0
    assert view.point(1) == (2.0, 3.0)


def test_cloud_json_round_trip():
    c = PointCloud([[0.5, -1.25], [2.0, 3.0]], label="demo")
    d = c.to_json_dict()
    back = PointCloud.from_json_dict(d)
    assert back.label == "demo"
    assert np.array_equal(back.points, c.points)


def test_cloud_csv_round_trip():
    c = PointCloud([[0.1, 0.2, 0.3], [1.0, -2.0, 0.0]])
    back = PointCloud.from_csv(c.to_csv())
    assert np.array_equal(back.points, c.points)


def test_cloud_csv_empty_rejected():
    with pytest.raises(EmptyCloud):
        PointCloud.from_csv("\n\n")


def test_cloud_csv_ragged_rejected():
    with pytest.raises(DimensionMismatch):
        PointCloud.from_csv("1.0,2.0\n3.0\n")


def test_cloud_bbox_extent():
    c = PointCloud([[0.0, 0.0], [3.0, 1.0], [1.0, 2.0]])
    assert c.bbox_extent() == 3.0
    assert PointCloud([[5.0, 5.0]]).bbox_extent() == 0.0


def test_angle_interval_validation_and_membership():
    w = AngleInterval(90.0, 2.0)
    assert w.lo == 88.0 and w.hi == 92.0
    assert w.contains_open(89.9)
    assert not w.contains_open(88.0)
    with pytest.raises(InvalidWindow):
        AngleInterval(190.0, 1.0)
    with pytest.raises(InvalidWindow):
        AngleInterval(90.0, -1.0)


def test_spectrum_counts_all_triples():
    square = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    spec = angle_spectrum(square)
    assert len(spec) == 4 * 3  # n * C(n-1, 2)
    angles = [a for a, _ in spec]
    assert angles == sorted(angles)
    assert sum(1 for a in angles if abs(a - 45.0) < 1e-9) == 8
    assert sum(1 for a in angles if abs(a - 90.0) < 1e-9) == 4


def test_spectrum_witnesses_recompute():
    rng = np.random.default_rng(21)
    cloud = PointCloud(rng.normal(size=(8, 2)))
    for ang, w in angle_spectrum(cloud):
        assert ang == w.angle
        assert abs(w.recompute() - ang) < 1e-9


def test_spectrum_needs_three_points():
    with pytest.raises(TooFewPoints):
        angle_spectrum(PointCloud([[0.0, 0.0], [1.0, 0.0]]))


def test_spectrum_budget_deterministic():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(size=(30, 3)))
    a = angle_spectrum(cloud, budget=100, seed=9)
    b = angle_spectrum(cloud, budget=100, seed=9)
    assert len(a) == 100
    assert [(x, w.apex, w.arm1, w.arm2) for x, w in a] == [
        (x, w.apex, w.arm1, w.arm2) for x, w in b
    ]


def test_spectrum_hits_finds_first_square_hit():
    square = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    w = spectrum_hits(square, AngleInterval(45.0, 1.0))
    assert w is not None
    assert w.apex == (0.0, 0.0)
    assert w.arm1 == (1.0, 0.0)
    assert w.arm2 == (1.0, 1.0)
    assert abs(w.angle - 45.0) < 1e-9


def test_spectrum_hits_absence_is_exhaustive():
    square = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert spectrum_hits(square, AngleInterval(70.0, 5.0)) is None


def test_spectrum_hits_open_window_excludes_endpoint():
    tri = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # The right angle sits exactly on the window edge, so no hit.
    assert spectrum_hits(tri, AngleInterval(80.0, 10.0)) is None
    assert spectrum_hits(tri, AngleInterval(80.0, 10.0000001)) is not None


def test_spectrum_matches_brute_force_on_random_clouds():
    rng = np.random.default_rng(31)
    for _ in range(10):
        pts = rng.normal(size=(7, 2))
        cloud = PointCloud(pts)
        n = len(cloud)
        brute = []
        for a in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    if a in (i, j):
                        continue
                    brute.append(angle_at(cloud.point(a), cloud.point(i), cloud.point(j)))
        brute.sort()
        spec = [ang for ang, _ in angle_spectrum(cloud)]
        assert len(spec) == len(brute)
        assert np.allclose(spec, brute, atol=1e-9)


def test_triple_witness_json_shape():
    w = TripleWitness((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 90.0)
    d = w.to_json_dict("angle", {"window": [89.0, 91.0]})
    assert d["kind"] == "angle"
    assert d["points"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert d["metric"] == 90.0
    assert d["params"] == {"window": [89.0, 91.0]}

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anglelab.errors import (
    AngleLabError,
    BudgetExceeded,
    DegenerateSystem,
    InvalidArity,
    InvalidCode,
    InvalidDepth,
    InvalidDimension,
    InvalidRatio,
    NotSeparated,
    SameIndex,
)
from anglelab.geom import AngleInterval, regular_simplex
from anglelab.ifs import (
    AvoidanceCertificate,
    Homothety,
    HomotheticIFS,
    avoidance_certificate,
    deviation_of_corners,
    direction_deviation_bound,
    gasket_ifs,
    iterate_cloud,
    rectangle_in,
    separation_gap,
    similarity_dimension,
)


def test_homothety_validation():
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(InvalidRatio):
            Homothety((0.0, 0.0), bad)


def test_homothety_apply():
    h = Homothety((1.0, 1.0), 0.5)
    assert np.allclose(h.apply([0.0, 0.0]), [0.5, 0.5])
    assert np.allclose(h.apply([1.0, 1.0]), [1.0, 1.0])  # center is fixed


def test_homothety_compose_fixed_point():
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = Homothety(tuple(rng.normal(size=3)), float(rng.uniform(0.05, 0.9)))
        g = Homothety(tuple(rng.normal(size=3)), float(rng.uniform(0.05, 0.9)))
        fg = f.compose(g)
        z = np.zeros(3)
        for _ in range(600):
            z = f.apply(g.apply(z))
        assert np.allclose(z, fg.center, atol=1e-10)
        assert abs(fg.ratio - f.ratio * g.ratio) < 1e-15


def test_ifs_needs_two_maps_and_distinct_centers():
    h = Homothety((0.0, 0.0), 0.3)
    with pytest.raises(InvalidArity):
        HomotheticIFS([h])
    with pytest.raises(DegenerateSystem):
        HomotheticIFS([h, Homothety((0.0, 0.0), 0.4)])


def test_gasket_shape():
    ifs = gasket_ifs(2, 0.25)
    assert len(ifs.maps) == 3
    assert all(h.ratio == 0.25 for h in ifs.maps)
    assert np.allclose(ifs.centers(), regular_simplex(2))


def test_gasket_center_distances():
    c = gasket_ifs(5, 0.1).centers()
    for i in range(6):
        for j in range(i + 1, 6):
            assert abs(np.linalg.norm(c[i] - c[j]) - 1.0) < 1e-12


def test_gasket_validation():
    with pytest.raises(InvalidRatio):
        gasket_ifs(2, 0.5)
    with pytest.raises(InvalidRatio):
        gasket_ifs(2, 0.0)
    with pytest.raises(InvalidDimension):
        gasket_ifs(1, 0.25)


def test_similarity_dimension_values():
    third = HomotheticIFS(
        [Homothety((float(i), 0.0), 1.0 / 3.0) for i in range(3)]
    )
    assert abs(similarity_dimension(third) - 1.0) < 1e-12
    four = HomotheticIFS([Homothety((float(i), 0.0), 0.2) for i in range(4)])
    assert abs(similarity_dimension(four) - math.log(4) / math.log(5)) < 1e-10
    halves = HomotheticIFS([Homothety((0.0,), 0.5), Homothety((1.0,), 0.5)])
    assert abs(similarity_dimension(halves) - 1.0) < 1e-12
    assert abs(similarity_dimension(gasket_ifs(2, 0.25)) - math.log(3) / math.log(4)) < 1e-10


def test_similarity_dimension_mixed_ratios():
    ifs = HomotheticIFS([Homothety((0.0,), 0.5), Homothety((1.0,), 0.25)])
    s = similarity_dimension(ifs)
    assert abs(0.5**s + 0.25**s - 1.0) < 1e-10


def test_iterate_cloud_depth0_and_validation():
    ifs = gasket_ifs(2, 0.25)
    verts = ifs.centers()
    cloud = iterate_cloud(ifs, 0, verts)
    assert len(cloud) == 3
    assert np.allclose(cloud.points, verts)
    with pytest.raises(InvalidDepth):
        iterate_cloud(ifs, -1, verts)
    with pytest.raises(BudgetExceeded):
        iterate_cloud(ifs, 3, verts, budget=80)


def test_iterate_cloud_depth1_oracle():
    ifs = gasket_ifs(2, 0.25)
    verts = ifs.centers()
    cloud = iterate_cloud(ifs, 1, verts)
    expected = []
    for h in ifs.maps:
        for v in verts:
            expected.append(h.apply(v))
    expected = np.array(expected)
    assert len(cloud) == 9
    assert np.allclose(cloud.points, expected)
    # first block: S_0 fixes vertex 0 and contracts the others toward it
    assert np.allclose(cloud.points[0], verts[0])
    assert np.allclose(cloud.points[1], 0.25 * verts[1])


def test_iterate_cloud_depth3_count():
    ifs = gasket_ifs(2, 0.25)
    cloud = iterate_cloud(ifs, 3, ifs.centers())
    assert len(cloud) == 81


def test_iterate_cloud_recursion_set_equality():
    ifs = gasket_ifs(2, 0.3)
    verts = ifs.centers()
    for k in (0, 1, 2):
        small = iterate_cloud(ifs, k, verts).points
        big = iterate_cloud(ifs, k + 1, verts).points
        union = np.concatenate([h.apply(small) for h in ifs.maps])
        union = np.unique(np.round(union, 12), axis=0)
        big_sorted = np.unique(np.round(big, 12), axis=0)
        assert union.shape == big_sorted.shape
        assert np.allclose(union, big_sorted, atol=1e-12)


def test_separation_gap_gasket():
    assert abs(separation_gap(gasket_ifs(2, 0.25)) - 0.5) < 1e-9
    assert abs(separation_gap(gasket_ifs(2, 0.49)) - 0.02) < 1e-9
    assert abs(separation_gap(gasket_ifs(3, 0.25)) - 0.5) < 1e-9


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
def test_separation_gap_gasket_closed_form(n, delta):
    # unit-edge simplex: the images of two vertices' pieces are delta-scaled
    # copies of the simplex, 1 - 2*delta apart
    assert abs(separation_gap(gasket_ifs(n, delta)) - (1.0 - 2.0 * delta)) <= 1e-12


def test_separation_gap_identical_centers_zero():
    ifs = HomotheticIFS(
        [
            Homothety((0.0, 0.0), 0.3),
            Homothety((0.0, 0.0), 0.2),
            Homothety((1.0, 0.0), 0.3),
        ]
    )
    assert separation_gap(ifs) == 0.0


def test_direction_deviation_bound_values():
    # the bound behaves like sqrt(delta) near zero, so it shrinks slowly
    assert direction_deviation_bound(1e-9) < 0.02
    assert abs(direction_deviation_bound(1.0 / 6.0) - 120.0) < 1e-9
    assert abs(direction_deviation_bound(0.005) - 22.84237254999858) < 1e-9
    with pytest.raises(InvalidRatio):
        direction_deviation_bound(0.5)


def test_avoidance_certificate_examples():
    assert avoidance_certificate(3, 0.005, AngleInterval(30.0, 5.0)).certified
    assert avoidance_certificate(2, 0.005, AngleInterval(30.0, 5.0)).certified
    assert not avoidance_certificate(2, 1.0 / 6.0, AngleInterval(30.0, 5.0)).certified
    for delta in (0.005, 0.1, 0.3):
        assert not avoidance_certificate(2, delta, AngleInterval(60.0, 1.0)).certified
    with pytest.raises(InvalidDimension):
        avoidance_certificate(1, 0.005, AngleInterval(30.0, 5.0))


def test_avoidance_certificate_monotone():
    rng = np.random.default_rng(13)
    for _ in range(50):
        center = float(rng.uniform(0.0, 180.0))
        radius = float(rng.uniform(0.0, 20.0))
        delta = float(rng.uniform(0.001, 0.4))
        cert = avoidance_certificate(2, delta, AngleInterval(center, radius))
        if cert.certified:
            smaller_w = avoidance_certificate(
                2, delta, AngleInterval(center, radius * 0.5)
            )
            smaller_d = avoidance_certificate(
                2, delta * 0.5, AngleInterval(center, radius)
            )
            assert smaller_w.certified and smaller_d.certified


def test_rectangle_fixed_points_distinct():
    rng = np.random.default_rng(3)
    for _ in range(30):
        f = Homothety(tuple(rng.normal(size=2)), float(rng.uniform(0.1, 0.9)))
        g = Homothety(tuple(rng.normal(size=2)), float(rng.uniform(0.1, 0.9)))
        if np.allclose(f.center, g.center):
            continue
        assert not np.allclose(f.compose(g).center, g.compose(f).center, atol=1e-12)


def test_rectangle_in_errors():
    ifs = gasket_ifs(2, 0.45)
    with pytest.raises(SameIndex):
        rectangle_in(ifs, 1, 1, 3)
    with pytest.raises(InvalidCode):
        rectangle_in(ifs, 0, 5, 3)
    shared = HomotheticIFS(
        [
            Homothety((0.0, 0.0), 0.3),
            Homothety((0.0, 0.0), 0.3),
            Homothety((1.0, 0.0), 0.3),
        ]
    )
    with pytest.raises(NotSeparated):
        rectangle_in(shared, 0, 2, 3)


def test_rectangle_in_parallelogram_structure():
    witness = rectangle_in(gasket_ifs(2, 0.45), 0, 1, 4)
    a, b, c, d = (np.array(p) for p in witness.corners)
    # exact parallelogram by construction: AB equals DC, BC equals AD
    assert np.allclose(b - a, c - d, atol=1e-12)
    assert np.allclose(c - b, d - a, atol=1e-12)
    assert len({tuple(p) for p in witness.corners}) == 4
    assert abs(deviation_of_corners(witness.corners) - witness.deviation) < 1e-12
    assert witness.deviation < 0.5


def test_rectangle_in_deviation_shrinks_with_depth():
    ifs = gasket_ifs(2, 0.45)
    d4 = rectangle_in(ifs, 0, 1, 4).deviation
    d6 = rectangle_in(ifs, 0, 1, 6).deviation
    assert d6 < d4

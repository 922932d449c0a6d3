"""The extreme-angle reduction against the exhaustive apex loop in spectrum_oracle,
and the per-apex kernels it shares with the triple-angle stream."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import spectrum_oracle as oracle
from anglelab import anglefind
from anglelab.anglefind import near_extreme_witness
from anglelab.geom import (
    AngleInterval,
    PointCloud,
    _apex_batch,
    _apex_pair_angles,
    _cloud_threshold,
    angle_spectrum,
    regular_simplex,
    spectrum_hits,
)
from anglelab.ifs import gasket_ifs, iterate_cloud

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

TARGETS = ("zero", "straight")
END = {"zero": 0.0, "straight": 180.0}

# 1 - 2**-53, the cosine just below 1: its angle, about 8.5e-7 degrees, is
# the smallest non-zero angle the cosine formula returns.  (NEAR, 2**-26)
# is a unit vector in floating point, so apex 0 of these three points has
# an angle that close to 0 or to 180 degrees.
NEAR = float(np.nextafter(1.0, 0.0))
NEAR_END = {
    "zero": [(0.0, 0.0), (1.0, 0.0), (NEAR, 2.0**-26)],
    "straight": [(0.0, 0.0), (1.0, 0.0), (-NEAR, 2.0**-26)],
}


def _fields(witness):
    return (witness.apex, witness.arm1, witness.arm2, witness.angle)


def _padded(rows, d):
    return [tuple(row) + (0.0,) * (d - len(row)) for row in rows]


@st.composite
def extreme_clouds(draw):
    """Clouds of 3..150 points in d = 1..6: normal, rounded normal (exact
    ties, collinear triples, cosines of +-1.0000000000000002), cube
    vertices (exact ties across apexes), rotated regular simplexes (near
    ties within an apex); optionally with the near-end arms first, an
    axis-parallel collinear triple last, or a near-duplicate point whose
    arms fall below the degeneracy threshold."""
    d = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(3, 12), st.integers(13, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "rounded", "cube", "simplex"]))
    if kind == "normal":
        pts = rng.normal(size=(n, d))
    elif kind == "rounded":
        pts = np.round(rng.normal(size=(n, d)) * draw(st.sampled_from([1.0, 3.0])))
    elif kind == "cube":
        corners = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
        pts = corners[: max(3, min(n, 2**d))].astype(float)
    else:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        pts = regular_simplex(d) @ q * rng.uniform(0.5, 4.0) + rng.normal(size=d)
    rows = [tuple(p) for p in pts]
    near_end = draw(st.sampled_from([None, *TARGETS]))
    if d >= 2 and near_end:
        rows = _padded(NEAR_END[near_end], d) + rows
    if draw(st.booleans()):
        # middle point first: an exact 180 at the first, an exact 0 at the second
        base = rng.normal(size=d) * 5.0
        step = np.zeros(d)
        step[draw(st.integers(0, d - 1))] = 1.0
        rows += [tuple(base + s * step) for s in (1.0, 0.0, 2.0)]
    if draw(st.booleans()):
        rows.append(tuple(np.asarray(rows[0]) + 1e-15))
    cloud = PointCloud(rows)
    assume(len(cloud) >= 3)  # rounding can merge points
    return cloud


def _stop(cloud, target):
    """Apexes the reduction visits: up to the first whose reference block
    holds an exact range end, or all of them."""
    pts = cloud.points
    threshold = _cloud_threshold(pts)
    for a in range(len(pts)):
        block = oracle.apex_pair_angles(pts, a, threshold)
        if block is not None and (block[3] == END[target]).any():
            return a + 1
    return len(pts)


def _checked(cloud, target):
    """The witness, after checking it and the apexes visited against the reference."""
    visited = []

    def recorder(*args):
        got = _apex_batch(*args)
        visited.extend(got[0].tolist())  # the apexes it measured
        return got

    with mock.patch.object(anglefind, "_apex_batch", recorder):
        got = near_extreme_witness(cloud, target)
    assert _fields(got) == _fields(oracle.near_extreme_witness(cloud, target))
    assert visited == list(range(_stop(cloud, target)))
    return got


@SETTINGS
@given(extreme_clouds(), st.sampled_from(TARGETS))
def test_reduction_returns_the_reference_witness_and_stops_at_the_end(cloud, target):
    _checked(cloud, target)


@pytest.mark.parametrize("n, delta, depth", [(2, 0.005, 4), (5, 0.2, 2)])
@pytest.mark.parametrize("target", TARGETS)
def test_gasket_witness_is_the_reference(n, delta, depth, target):
    ifs = gasket_ifs(n, delta)
    _checked(iterate_cloud(ifs, depth), target)


@pytest.mark.parametrize("target", TARGETS)
def test_near_end_apex_before_an_exact_end(target):
    # apex 0 comes within 8.5e-7 degrees of the end; an exact end at a
    # later apex wins
    cloud = PointCloud(NEAR_END[target] + [(10.0, 7.0), (9.0, 7.0), (11.0, 7.0)])
    first = oracle.apex_pair_angles(cloud.points, 0, _cloud_threshold(cloud.points))[3]
    gap = first.min() if target == "zero" else 180.0 - first.max()
    assert 0.0 < gap < 1e-6
    assert _stop(cloud, target) > 3
    got = _checked(cloud, target)
    assert got.apex[1] == 7.0 and got.angle == END[target]


@pytest.mark.parametrize("target", TARGETS)
def test_unclipped_cosines_beyond_one(target):
    cloud = PointCloud([(3.0, 0.5), (0.0, 0.0), (1.0, 5.0), (2.0, 10.0)])
    pts = cloud.points
    thr = _cloud_threshold(pts)
    _, _, cos = _apex_batch(pts, np.array([1]), thr)
    assert cos[0, 1, 2] == cos[0, 2, 1] == 1.0000000000000002  # apex 1, arms toward 2 and 3
    _, _, cos = _apex_batch(pts, np.array([2]), thr)
    assert cos[0, 1, 2] == -1.0000000000000002  # apex 2 between 1 and 3
    got = _checked(cloud, target)
    assert got.angle == END[target]


def test_three_points_and_arms_below_the_threshold():
    # the first two points are closer than the degeneracy threshold, so
    # only the third point's apex has two arms
    cloud = PointCloud([(0.0, 0.0), (1e-13, 0.0), (1.0, 1.0)])
    for target in TARGETS:
        got = _checked(cloud, target)
        assert got.apex == (1.0, 1.0)


@pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 16, 17, 33])
def test_arccos_of_one_is_exactly_the_range_end(length):
    for pos in range(length):
        for value, end in ((1.0, 0.0), (-1.0, 180.0)):
            cos = np.full(length, 0.5)
            cos[pos] = value
            assert np.degrees(np.arccos(cos))[pos] == end


@SETTINGS
@given(extreme_clouds())
def test_pair_angle_blocks_are_the_reference_blocks(cloud):
    pts = cloud.points
    threshold = _cloud_threshold(pts)
    for a in range(len(pts)):
        got = _apex_pair_angles(pts, a, threshold)
        want = oracle.apex_pair_angles(pts, a, threshold)
        assert (got is None) == (want is None)
        if got is not None:
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)


def test_index_pairs_do_not_outlive_the_stream():
    cloud = PointCloud(np.random.default_rng(4).normal(size=(31, 3)))
    # the stream's triangle masks (63 kB here, 72 apexes' worth) go with
    # it, whether it runs to its end or a hit ends it early
    tracemalloc.start()
    try:
        for window, hit in ((AngleInterval(1.0, 1e-9), False), (AngleInterval(90.0, 90.0), True)):
            before = tracemalloc.get_traced_memory()[0]
            assert (spectrum_hits(cloud, window) is not None) == hit
            assert tracemalloc.get_traced_memory()[0] - before < 4096
    finally:
        tracemalloc.stop()
    spectrum = angle_spectrum(cloud)
    # index arrays handed to a caller are its own: writing them changes no later scan
    _, iu, ju, _ = _apex_pair_angles(cloud.points, 0, _cloud_threshold(cloud.points))
    iu[:] = 0
    ju[:] = 0
    assert angle_spectrum(cloud) == spectrum

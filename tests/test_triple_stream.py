"""The triple-angle stream against the scalar reference scans in spectrum_oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import spectrum_oracle as oracle
from anglelab.anglefind import _window_triples, near_extreme_witness, supplementary_chain_report
from anglelab.errors import AngleLabError, BudgetExceeded
from anglelab.geom import (
    AngleInterval,
    PointCloud,
    _cloud_threshold,
    _sampled_triples,
    _total_triples,
    _unit_angle,
    angle_at,
    angle_spectrum,
    spectrum_hits,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def clouds(draw):
    """Seeded clouds; some on a coarse lattice (exact angle ties, collinear
    triples), some with a near-duplicate point (arms below the threshold)."""
    n = draw(st.integers(3, 12))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, d))
    if draw(st.booleans()):
        pts = np.round(pts)
    if draw(st.booleans()):
        pts = np.vstack([pts, pts[:1] + 1e-15])
    cloud = PointCloud(pts)
    assume(len(cloud) >= 3)  # rounding can merge points
    return cloud


def _rows(spectrum):
    return [(ang, w.apex, w.arm1, w.arm2, w.angle) for ang, w in spectrum]


def _fields(witness):
    return None if witness is None else (witness.apex, witness.arm1, witness.arm2, witness.angle)


@st.composite
def sample_sizes(draw, most=16):
    n = draw(st.integers(3, most))
    total = _total_triples(n)
    budget = draw(
        st.one_of(st.integers(1, total - 1), st.integers(max(1, total - 3), total - 1))
    )
    return n, budget


@SETTINGS
@given(sample_sizes(), st.integers(0, 2**32 - 1))
@example((1296, 40000), 7)
@example((40, 29639), 3)
def test_sampler_replays_the_reference_draws(size, seed):
    n, budget = size
    got = _sampled_triples(n, budget, seed)
    want = oracle.sampled_triples(n, budget, seed)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape == (budget, 3)
    assert np.array_equal(got, want)


@SETTINGS
@given(sample_sizes(60), st.integers(0, 2**32 - 1))
@example((3, 2), 0)  # 3 triples, 2 kept: most draws repeat one
@example((60, 102659), 11)  # one below the triple count: many rounds
@example((1296, 40000), 5)  # the highdim workload's sampled spectrum
def test_sampler_keeps_the_first_draws_of_the_stable_unique_sampler(size, seed):
    n, budget = size
    got = _sampled_triples(n, budget, seed)
    want = oracle.unique_sampled_triples(n, budget, seed)
    assert got.shape == want.shape == (budget, 3)
    assert np.array_equal(got, want)


@SETTINGS
@given(clouds())
def test_exhaustive_spectrum_is_bitwise_the_reference(cloud):
    assert _rows(angle_spectrum(cloud)) == _rows(oracle.angle_spectrum(cloud))


@SETTINGS
@given(clouds(), st.floats(0.0, 180.0), st.floats(0.0, 30.0))
def test_exhaustive_hits_return_the_reference_witness(cloud, center, radius):
    window = AngleInterval(center, radius)
    assert _fields(spectrum_hits(cloud, window)) == _fields(oracle.spectrum_hits(cloud, window))


@SETTINGS
@given(st.integers(4, 30), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_sampled_scan_measures_the_reference_triples(n, d, seed, data):
    pts = np.random.default_rng(seed).normal(size=(n, d))
    # a near-duplicate point puts arms below the threshold, and makes
    # the angle between two arms to it too ill-conditioned to compare
    near_duplicate = data.draw(st.booleans())
    if near_duplicate:
        pts = np.vstack([pts, pts[-1:] + 1e-15])
    cloud = PointCloud(pts)
    budget = data.draw(st.integers(1, _total_triples(len(cloud)) - 1))
    spec = angle_spectrum(cloud, budget=budget, seed=seed)
    want = oracle.angle_spectrum(cloud, budget=budget, seed=seed)
    assert sorted(row[1:4] for row in _rows(spec)) == sorted(row[1:4] for row in _rows(want))
    angles = [ang for ang, _ in spec]
    assert angles == sorted(angles)
    for ang, w in spec:
        assert ang == w.angle
        assert near_duplicate or abs(angle_at(w.apex, w.arm1, w.arm2) - ang) < 1e-9
    window = AngleInterval(data.draw(st.floats(20.0, 160.0)), 10.0)
    assert _fields(spectrum_hits(cloud, window, budget=budget, seed=seed)) == _fields(
        oracle.spectrum_hits(cloud, window, budget=budget, seed=seed)
    )


def test_sampler_refuses_clouds_beyond_its_key_range():
    # (apex*n + i)*n + j must fit in int64; refused before any draw
    assert _sampled_triples(2**21 - 1, 1, 0).shape == (1, 3)
    with pytest.raises(BudgetExceeded):
        _sampled_triples(2**21, 1, 0)


def test_budget_below_one_is_refused_before_any_scan():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(6, 2)))
    for budget in (0, -3):
        with pytest.raises(AngleLabError, match="at least 1"):
            angle_spectrum(cloud, budget=budget)
        with pytest.raises(AngleLabError, match="at least 1"):
            spectrum_hits(cloud, AngleInterval(60.0, 5.0), budget=budget)


@SETTINGS
@given(clouds(), st.sampled_from(["zero", "straight"]))
def test_extreme_witness_is_the_reference(cloud, target):
    want = oracle.near_extreme_witness(cloud, target)
    assert _fields(near_extreme_witness(cloud, target)) == _fields(want)


@st.composite
def chain_clouds(draw):
    """Planar clouds for the chain: jittered or exact lattices (many exact
    angle ties), normal clouds, some with a near-duplicate point; up to 144
    points, so the CHAIN_ARM_CAP of 64 arms per apex binds."""
    side = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        pts = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
        pts = pts + draw(st.sampled_from([0.0, 1e-3, 0.2])) * rng.normal(size=pts.shape)
    else:
        pts = rng.normal(size=(side * side, 2))
    if draw(st.booleans()):
        pts = np.vstack([pts, pts[:1] + 1e-15])
    return PointCloud(pts)


CHAIN_PARAMS = (
    st.floats(20.0, 160.0),
    st.sampled_from([0.5, 2.0, 8.0]),
    st.floats(0.05, 0.95),
    st.integers(2, 8),
)


@SETTINGS
@given(chain_clouds(), *CHAIN_PARAMS)
def test_chain_report_is_the_reference(cloud, alpha, delta, epsilon, max_steps):
    got = supplementary_chain_report(cloud, alpha, delta, epsilon, max_steps)
    want = oracle.supplementary_chain_report(cloud, alpha, delta, epsilon, max_steps)
    assert repr(got) == repr(want)


@SETTINGS
@given(chain_clouds(), st.floats(0.0, 170.0), st.floats(0.5, 20.0), st.data())
def test_window_triples_are_the_reference(cloud, lo, width, data):
    pts = cloud.points
    n = len(cloud)
    active = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=min(n, 3)))))
    limit = data.draw(st.integers(1, 16))
    args = (pts, active, lo, lo + width, _cloud_threshold(pts), limit)
    assert _window_triples(*args) == oracle.window_triples(*args)


@pytest.mark.parametrize("lo, hi", [(90.0, 135.0), (90.0, 91.0), (45.0, 90.0), (0.0, 45.0)])
def test_window_triples_on_window_edges_are_the_reference(lo, hi):
    # a 6 x 6 integer lattice has apex angles of exactly 90 degrees
    pts = PointCloud([(i, j) for i in range(6) for j in range(6)]).points
    args = (pts, np.arange(len(pts)), lo, hi, _cloud_threshold(pts), 16)
    assert _window_triples(*args) == oracle.window_triples(*args)


@pytest.mark.parametrize("side", [32, 64])
def test_chain_report_on_unit_grids_is_the_reference(side):
    grid = PointCloud([(i / (side - 1), j / (side - 1)) for i in range(side) for j in range(side)])
    reports = []
    for epsilon in (0.05, 0.25):
        got = supplementary_chain_report(grid, 60.0, 2.0, epsilon, 12)
        assert repr(got) == repr(oracle.supplementary_chain_report(grid, 60.0, 2.0, epsilon, 12))
        reports.append(got)
    assert any(report is not None for report in reports)


@SETTINGS
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
    st.sampled_from([0.0, 1.0, -1.0]),
)
def test_unit_angle_is_the_reference_direction_angle(u, v, mix):
    u = np.array(u)
    # mix = 1 or -1 makes v nearly parallel or antiparallel to u
    v = np.array(v) * (1e-9 if mix else 1.0) + mix * u
    assume(float(u @ u) > 0.0 and float(v @ v) > 0.0)
    un = u / np.sqrt(float(u @ u))
    vn = v / np.sqrt(float(v @ v))
    assert _unit_angle(un, vn) == oracle.vector_angle_degrees(u, v)

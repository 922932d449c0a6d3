"""The triple-angle stream against the scalar reference scans in spectrum_oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import spectrum_oracle as oracle
from anglelab.anglefind import near_extreme_witness
from anglelab.errors import AngleLabError, BudgetExceeded
from anglelab.geom import (
    PAIR_BLOCK,
    AngleInterval,
    PointCloud,
    _sampled_triples,
    _total_triples,
    _triple_angle_blocks,
    _unit_angle,
    angle_at,
    angle_spectrum,
    spectrum_hits,
)
from anglelab.ifs import gasket_ifs, iterate_cloud

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


def _highdim_points():
    """gasket(5, 0.005) at depth 3: 1,296 points in R^5, 1.1e9 triples."""
    ifs = gasket_ifs(5, 0.005)
    return iterate_cloud(ifs, 3).points


@st.composite
def sampled_scans(draw):
    """(points, budget) with budgets over one to three row blocks of the
    sampled stream; some clouds have near-duplicate points, so some
    sampled triples have an arm below the threshold."""
    d = draw(st.integers(1, 5))
    rows = PAIR_BLOCK // d
    blocks = draw(st.integers(1, 3))
    budget = draw(st.integers((blocks - 1) * rows + 1, blocks * rows))
    n = 3
    while _total_triples(n) <= budget:
        n += 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n + draw(st.integers(0, 20)), d))
    twins = draw(st.integers(0, 6))
    pts = np.vstack([pts, pts[:twins] + 1e-15])
    return PointCloud(pts).points, budget


@SETTINGS
@given(sampled_scans(), st.integers(0, 2**32 - 1))
@example((_highdim_points(), 40000), 5)  # the highdim workload's sampled spectrum
def test_sampled_blocks_are_bitwise_the_one_block_measurement(scan, seed):
    pts, budget = scan
    blocks = list(_triple_angle_blocks(pts, budget, seed))
    rows = PAIR_BLOCK // pts.shape[1]
    assert len(blocks) == -(-budget // rows)
    got = [np.concatenate(column) for column in zip(*blocks)]
    want = oracle.sampled_block(pts, budget, seed)
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert got[3].dtype == want[3].dtype == np.float64
    assert np.array_equal(got[3].view(np.int64), want[3].view(np.int64))


def test_sampled_stream_holds_one_block_besides_the_sample():
    pts = _highdim_points()
    _sampled_triples(len(pts), 1, 0)  # numpy.random's first import is not the scan's
    tracemalloc.start()
    try:
        _sampled_triples(len(pts), 40000, 5)
        sample_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in _triple_angle_blocks(pts, 40000, 5):
            pass
        stream_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 40,000-triple sample is 0.9 MiB; one block of 13,107 rows in R^5,
    # 0.5 MiB per float array
    assert sample_peak < 3.5 * 2**20
    assert stream_peak < 4 * 2**20


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

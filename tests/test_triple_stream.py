"""The triple-angle stream against the scalar reference scans in spectrum_oracle."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import spectrum_oracle as oracle
from anglelab.errors import AngleLabError, BudgetExceeded
from anglelab.geom import (
    AngleInterval,
    PointCloud,
    _sampled_triples,
    _total_triples,
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
def sample_sizes(draw):
    n = draw(st.integers(3, 16))
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

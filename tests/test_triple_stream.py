"""The triple-angle stream against the scalar reference scans in spectrum_oracle."""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import spectrum_oracle as oracle
from anglelab import geom
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


def _columns(blocks):
    """The stream's blocks joined as (apex, arm1, arm2, angles) columns,
    every position decoded."""
    columns = [(*decode(np.arange(len(ang))), ang) for ang, decode in blocks]
    return [np.concatenate(column) for column in zip(*columns)]


def _decoded(keys, n):
    """The sampler's sorted keys as (apex, i, j) rows."""
    return np.stack([keys // (n * n), keys // n % n, keys % n], axis=1)


@SETTINGS
@given(sample_sizes(), st.integers(0, 2**32 - 1))
@example((1296, 40000), 5)  # the first 40,000 valid draws are distinct: kept as drawn
@example((1296, 40000), 7)  # one of them repeats a key: deduplicated by first draw
@example((9, 100), 1)  # as the measure workload samples: 11 of the first 100 repeat
@example((40, 29639), 3)
def test_sampler_replays_the_reference_draws(size, seed):
    n, budget = size
    got = _decoded(_sampled_triples(n, budget, seed), n)
    want = oracle.sampled_triples(n, budget, seed)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape == (budget, 3)
    assert np.array_equal(got, want)


@SETTINGS
@given(st.integers(5, 40), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_sampler_truncates_a_later_round_to_its_first_draws(n, short, seed):
    # a budget just below the triple count leaves the first round short,
    # so the round that fills it holds more fresh keys than it may keep
    budget = _total_triples(n) - short
    rounds = []
    real = geom._fresh_keys

    def spy(rng, n, take, kept, limit):
        every = real(copy.deepcopy(rng), n, take, kept, take)
        rounds.append((len(every), limit))
        return real(rng, n, take, kept, limit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geom, "_fresh_keys", spy)
        got = _sampled_triples(n, budget, seed)
    assume(any(fresh > limit for fresh, limit in rounds[1:]))
    assert np.array_equal(_decoded(got, n), oracle.unique_sampled_triples(n, budget, seed))


@SETTINGS
@given(sample_sizes(60), st.integers(0, 2**32 - 1))
@example((3, 2), 0)  # 3 triples, 2 kept: most draws repeat one
@example((60, 102659), 11)  # one below the triple count: many rounds
@example((1296, 40000), 5)  # the highdim workload's sampled spectrum
def test_sampler_keeps_the_first_draws_of_the_stable_unique_sampler(size, seed):
    n, budget = size
    got = _decoded(_sampled_triples(n, budget, seed), n)
    want = oracle.unique_sampled_triples(n, budget, seed)
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


def _joined(blocks):
    return [np.concatenate(column) for column in zip(*blocks)]


def _bitwise_equal(got, want):
    """Equal columns of 8-byte ints or floats, compared by their bits."""
    return all(
        g.dtype == w.dtype and np.array_equal(g.view(np.int64), w.view(np.int64))
        for g, w in zip(got, want)
    )


@st.composite
def batched_clouds(draw, most=90):
    """Clouds of 30 to `most` points in R^1..R^5, measured in doubling
    batches of apexes, capped at PAIR_BLOCK // (n - 1)^2 apexes from about
    50 points on; some with a near-duplicate point inside, whose apex has
    a short arm and so ends a batch and is measured alone."""
    n = draw(st.integers(30, most))
    d = draw(st.integers(1, 5))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, d))
    if draw(st.booleans()):
        twin = pts[draw(st.integers(0, n - 1))] + 1e-15
        pts = np.insert(pts, draw(st.integers(1, n - 1)), twin, axis=0)
    return PointCloud(pts)


def _windows(data, angles):
    """Windows around angles of the spectrum, so that the first hit falls
    anywhere in the stream, not only at its first apex."""
    for _ in range(3):
        center = float(angles[data.draw(st.integers(0, len(angles) - 1))])
        yield AngleInterval(center, data.draw(st.sampled_from([1e-9, 1e-3, 1.0])))


@SETTINGS
@given(batched_clouds(), st.data())
def test_batched_stream_is_bitwise_the_apex_by_apex_stream(cloud, data):
    got = _columns(_triple_angle_blocks(cloud.points, None, 0))
    want = _joined(oracle.exhaustive_blocks(cloud.points))
    assert _bitwise_equal(got, want)
    for window in _windows(data, got[3]):
        assert _fields(spectrum_hits(cloud, window)) == _fields(oracle.spectrum_hits(cloud, window))


@settings(SETTINGS, max_examples=5)
@given(batched_clouds(most=60))
def test_batched_spectrum_is_bitwise_the_reference(cloud):
    assert _rows(angle_spectrum(cloud)) == _rows(oracle.angle_spectrum(cloud))


@SETTINGS
@given(clouds(), st.one_of(st.integers(1, 10), st.integers(1, 300)), st.data())
def test_row_runs_and_capped_batches_are_bitwise_the_reference(cloud, block, data):
    # a small PAIR_BLOCK splits an apex's pairs into runs of rows, down to
    # one row, and caps batches at a few apexes, on clouds the oracle scans fast
    m = len(cloud) - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geom, "PAIR_BLOCK", block)
        sizes = [len(ang) for ang, _ in _triple_angle_blocks(cloud.points, None, 0)]
        got = _columns(_triple_angle_blocks(cloud.points, None, 0))
        spectrum = angle_spectrum(cloud)
        windows = list(_windows(data, got[3]))
        hits = [spectrum_hits(cloud, window) for window in windows]
    assert max(sizes) <= max(block, m - 1)
    assert _bitwise_equal(got, _joined(oracle.exhaustive_blocks(cloud.points)))
    assert _rows(spectrum) == _rows(oracle.angle_spectrum(cloud))
    for window, hit in zip(windows, hits):
        assert _fields(hit) == _fields(oracle.spectrum_hits(cloud, window))


def test_exhaustive_stream_holds_one_apex_cosines_and_one_block():
    # 1,200 arms per apex: 719,400 pairs, in 12 runs of rows of at most
    # PAIR_BLOCK pairs each
    pts = PointCloud(np.random.default_rng(6).normal(size=(1201, 2))).points
    m = len(pts) - 1
    block = 8 * PAIR_BLOCK  # bytes of one block's angles
    tracemalloc.start()
    try:
        stream = _triple_angle_blocks(pts, None, 0)
        next(stream)
        first = tracemalloc.get_traced_memory()[1]
        # on into the second apex, a consumer holding one block at a time
        for _ in range(14):
            held = next(stream)
        del held
        walk = tracemalloc.get_traced_memory()[1]
        stream.close()
    finally:
        tracemalloc.stop()
    # the apex's m x m cosines, the first block's angles and the mask of
    # its rows (1.14 blocks here); 24 m^2 bytes when the stream gathered an
    # apex's whole triangle through a cached index pair
    assert 8 * m * m < first < 8 * m * m + 2 * block
    # the next apex's cosines replace these, and the consumer's block joins
    assert walk < 8 * m * m + 3 * block


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
    got = _columns(blocks)
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
    # the sampler's dedupe holds 8 bytes per draw, 80,000 draws, in each of
    # four arrays (2.5 MiB); one block of 13,107 rows in R^5 holds 0.5 MiB
    # per float array besides the 0.3 MiB of sorted keys
    assert sample_peak < 2.65 * 2**20
    assert stream_peak < 2.75 * 2**20


def test_sampler_refuses_clouds_beyond_its_key_range():
    # (apex*n + i)*n + j must fit in int64; refused before any draw
    n = 2**21 - 1
    keys = _sampled_triples(n, 1, 0)
    assert keys.dtype == np.int64 and keys.shape == (1,)
    assert np.array_equal(_decoded(keys, n), oracle.unique_sampled_triples(n, 1, 0))
    with pytest.raises(BudgetExceeded):
        _sampled_triples(2**21, 1, 0)


def test_sampled_scan_never_divides_by_a_short_arm():
    # the arm between the first two points squares to exactly 0, so the
    # scan must leave its triples out without dividing by its norm
    pts = PointCloud([[0.0, 0.0], [5e-324, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]).points
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        blocks = list(_triple_angle_blocks(pts, 20, 1))
    got = _columns(blocks)
    want = oracle.sampled_block(pts, 20, 1)
    assert len(got[3]) == 16
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


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

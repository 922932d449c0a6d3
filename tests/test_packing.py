"""The packing kernel and the scans above it against the loops in pack_oracle."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pack_oracle as oracle
import pair_oracle
from anglelab import anglefind, dimension
from anglelab.anglefind import (
    TRIANGLE_SCAN_MAX_K,
    almost_regular_triangle,
    color_distances,
    near_right_witness,
)
from anglelab.dimension import (
    _dyadic_packings,
    _greedy_pack_indices,
    _normalize_unit,
    _well_spread_core,
    minkowski_dimension_estimate,
    well_spread_subset,
)
from anglelab.errors import AngleLabError
from anglelab.geom import PointCloud, _blocks
from anglelab.ifs import gasket_ifs, iterate_cloud

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def clouds(draw, max_points=60):
    """Seeded clouds in d = 1..7: integer lattices with dyadic spacing (so
    lattice neighbours sit at exactly 2*eps for some drawn eps), duplicate
    and near-duplicate points, clouds on a hyperplane (some with one slab
    holding every point), uniform points and address-ordered gaskets
    (d >= 2).  Returns the points and a radius, which runs from 'every
    point kept' to 'one point kept'."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = int(rng.integers(1, 8))
    n = int(rng.integers(1, max_points + 1))
    kind = draw(st.sampled_from(["lattice", "near", "flat", "random", "gasket"]))
    if kind == "lattice":
        step = 2.0 ** -draw(st.integers(0, 3))
        pts = rng.integers(-2, 3, size=(n, d)) * step
        # 2*eps is twice, once, half or a quarter of the lattice step
        return pts, step * 2.0 ** -draw(st.integers(-1, 2))
    if kind == "near":
        base = rng.random((n // 2 + 1, d))
        offsets = rng.choice([0.0, 1e-9, 1e-12, 1e-15], size=base.shape)
        pts = np.concatenate([base, base + offsets])[rng.permutation(2 * len(base))]
    elif kind == "flat":
        pts = rng.random((n, d))
        pts[:, rng.integers(d)] = 0.5
        if draw(st.booleans()):
            # cells of at least half the unit extent: the slab holds every point
            return pts, draw(st.sampled_from([0.25, 0.3, 0.5]))
    elif kind == "random":
        pts = rng.normal(size=(n, d)) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    else:
        ifs = gasket_ifs(max(d, 2), 0.3)
        pts = iterate_cloud(ifs, 2 if d <= 3 else 1).points
    dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    positive = dists[dists > 0]
    if positive.size == 0:
        return pts, 1.0
    low, high = math.log(positive.min() / 4), math.log(dists.max())
    return pts, math.exp(low + draw(st.integers(0, 8)) / 8 * (high - low))


@SETTINGS
@given(st.lists(st.integers(0, 50), max_size=40), st.integers(1, 60))
def test_blocks_are_the_longest_prefixes_within_the_cap(counts, cap):
    blocks = list(_blocks(np.array(counts, dtype=np.int64), cap))
    assert [i for b in blocks for i in range(len(counts))[b]] == list(range(len(counts)))
    for b in blocks:
        total = sum(counts[b])
        assert total <= cap or b.stop - b.start == 1
        if b.stop < len(counts):
            assert total + counts[b.stop] > cap


@SETTINGS
@given(clouds())
def test_kept_lists_are_the_loop(case):
    pts, eps = case
    assert _greedy_pack_indices(pts, eps) == oracle.greedy_pack_indices(pts, eps)


@pytest.mark.parametrize("d, n, ks", [(2, 3000, range(3, 12)), (5, 600, range(1, 6)), (7, 300, (1, 2, 3))])
def test_kept_lists_are_the_loop_on_larger_uniform_clouds(d, n, ks):
    # many rounds with many roots each; the slab-pair cap binds while the
    # adjacency is gathered
    pts = np.random.default_rng(d).random((n, d))
    for k in ks:
        assert _greedy_pack_indices(pts, 2.0**-k) == oracle.greedy_pack_indices(pts, 2.0**-k)


def test_kept_lists_are_the_loop_on_an_address_ordered_gasket():
    # consecutive points share a cell, and the clusters resolve side by side
    ifs = gasket_ifs(2, 0.25)
    pts = _normalize_unit(iterate_cloud(ifs, 6).points)
    for k in range(1, 10):
        assert _greedy_pack_indices(pts, 2.0**-k) == oracle.greedy_pack_indices(pts, 2.0**-k)


@pytest.mark.parametrize(
    "n, delta, depth, ks",
    [
        (5, 0.2, 3, range(1, 7)),
        # tight clusters: the kept count stays flat over many scales
        (2, 0.005, 3, range(1, 31)),
    ],
)
def test_kept_lists_are_the_loop_on_address_ordered_gaskets(n, delta, depth, ks):
    # consecutive points share a cell, and the clusters resolve side by side
    ifs = gasket_ifs(n, delta)
    pts = _normalize_unit(iterate_cloud(ifs, depth).points)
    for k in ks:
        assert _greedy_pack_indices(pts, 2.0**-k) == oracle.greedy_pack_indices(pts, 2.0**-k)


def _unit_grid(n):
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.column_stack([i.ravel(), j.ravel()]) / (n - 1)


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("k", [4, 6])
def test_kept_lists_are_the_loop_on_row_major_grids(n, k):
    # at k = 6 the 32 x 32 grid keeps every point, one per cell, and the
    # 64 x 64 grid keeps the first of the four points in each cell; each
    # cell's first point waits for the cells before it in row order
    pts = _unit_grid(n)
    kept = _greedy_pack_indices(pts, 2.0**-k)
    assert kept == oracle.greedy_pack_indices(pts, 2.0**-k)
    assert len(kept) == {(32, 4): 68, (64, 4): 80}.get((n, k), 1024)


@pytest.mark.parametrize(
    "pts, kept",
    [
        # cells 0 and 2 (side 1) are roots of the first round and both kill
        # into cell 1, point 4 from either side at distance exactly 1
        ([[0.5, 0.5], [2.5, 0.5], [1.2, 0.5], [1.8, 0.5], [1.5, 0.5], [9.5, 9.5], [9.9, 9.5]], [0, 1, 5]),
        # adjacent one-point cells whose points are more than 1 apart do not
        # wait for each other; points 2 and 3 are 1 apart and 3 is dropped
        ([[0.1, 0.1], [1.9, 1.9], [3.0, 0.5], [4.0, 0.5], [3.9, 1.9]], [0, 1, 2, 4]),
    ],
)
def test_one_round_keeps_several_roots(pts, kept):
    pts = np.array(pts)
    assert _greedy_pack_indices(pts, 0.5) == oracle.greedy_pack_indices(pts, 0.5) == kept


@pytest.mark.parametrize("d, n, k", [(3, 20_000, 6), (7, 3_000, 3)])
def test_packing_memory_is_bounded_by_pair_blocks(d, n, k):
    # the adjacency of the occupied cells is stored once in int32, and the
    # slab pairs and the kills of a round are gathered in blocks of at most
    # PAIR_BLOCK pairs; the 20.6M slab pairs of the 3-d cloud gathered in
    # one block peak at about 650 MiB
    pts = np.random.default_rng(d).random((n, d))
    tracemalloc.start()
    try:
        _greedy_pack_indices(pts, 2.0**-k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@st.composite
def bucket_clouds(draw):
    """Clouds laid out on the bucket cells of side r = 2^(-l+1) in d = 1..7,
    inside the unit cube and holding the origin, so normalizing leaves them
    as they are: points on cell edges (multiples of r/2), lattice centers
    with neighbours at distance r along an axis or a diagonal, clouds inside
    one cell or inside one coarse ball (a single coarse center), and
    coordinates at r, 2r and the floats just below them.  Returns the
    points, k and l."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 7))
    l = draw(st.integers(1, 6))
    k = l + draw(st.integers(1, 3))
    r = 2.0 ** (-l + 1)
    n = int(rng.integers(1, 40))
    kind = draw(st.sampled_from(["edges", "sphere", "cell", "ball", "below"]))
    if kind == "edges":
        pts = rng.integers(0, round(2 / r) + 1, size=(n, d)) * (r / 2)
    elif kind == "sphere":
        centers = rng.integers(0, round(1 / r) + 1, size=(n // 4 + 1, d)) * r
        steps = np.concatenate([np.eye(d), -np.eye(d), np.full((1, d), d**-0.5), np.full((1, d), -(d**-0.5))])
        pts = (centers[:, None, :] + r * steps[None, :, :]).reshape(-1, d)
        pts = np.concatenate([centers, pts[rng.permutation(len(pts))[:n]]])
    elif kind == "cell":
        pts = rng.random((n, d)) * r
    elif kind == "ball":
        pts = rng.random((n, d)) * (r / math.sqrt(d))
    else:
        values = [0.0, np.nextafter(r, 0.0), r, np.nextafter(2 * r, 0.0), 2 * r]
        pts = rng.choice(values, size=(n, d))
    pts = pts[((pts >= 0.0) & (pts <= 1.0)).all(axis=1)]
    return np.concatenate([np.zeros((1, d)), pts]), k, l


def scan_clouds():
    return st.builds(
        lambda case, l, gap: (_normalize_unit(case[0]), l + gap, l),
        clouds(max_points=40),
        st.integers(1, 12),
        st.integers(1, 4),
    )


# The float just below r sits in cell 0, 2r in cell 2, and their difference
# rounds to r: the pair is inside, and here it decides the fullest bucket.
_BELOW = np.nextafter(0.125, 0.0)
# The same for r = 1/4: the packing at l = 3 (cells of side r) never
# compares point 1 with 2 or 3 and keeps all four, and the core of that
# packing against itself is [1, 2, 3], not the first point alone.
_BELOW_4 = np.nextafter(0.25, 0.0)
_EDGE_PACKING = np.array([[0.0, 0.0], [_BELOW_4, _BELOW_4], [0.5, _BELOW_4], [_BELOW_4, 0.5]])
# uniform clouds whose bucket counts span several pair blocks
_UNIFORM_2D = _normalize_unit(np.random.default_rng(2).random((2000, 2)))
_UNIFORM_3D = _normalize_unit(np.random.default_rng(3).random((1000, 3)))


@settings(SETTINGS, max_examples=400)
@given(st.one_of(scan_clouds(), bucket_clouds()))
@example((np.array([[0.75], [_BELOW], [0.0], [0.25], [0.86], [1.0]]), 5, 4))
@example((np.array([[0.75, 0.0], [_BELOW, 0.0], [0.0, 0.0], [0.25, 0.0], [0.86, 0.0]]), 5, 4))
@example((_UNIFORM_2D, 8, 7))
@example((_UNIFORM_3D, 6, 5))
@example((_EDGE_PACKING, 4, 3))
def test_well_spread_core_is_the_loop(case):
    pts, k, l = case
    assert np.array_equal(_normalize_unit(pts), pts)
    fine, coarse = (oracle.greedy_pack_indices(pts, 2.0**-j) for j in (k, l))
    assert [kept for _, kept in _dyadic_packings(pts, (l, k))] == [coarse, fine]
    assert _well_spread_core(pts, fine, coarse, l) == oracle.well_spread_core(pts, k, l)
    # one packing as both fine and coarse, as a reused scale passes it
    assert _well_spread_core(pts, coarse, coarse, l) == (
        oracle.well_spread_core_of(pts, coarse, coarse, l)
    )
    # the coarse centers in another order: ties go to the earliest listed
    assert _well_spread_core(pts, fine, coarse[::-1], l) == (
        oracle.well_spread_core_of(pts, fine, coarse[::-1], l)
    )


def test_well_spread_bucket_count_memory_is_one_pair_block():
    # 1,025 centers by 1,973 fine points in 3-d: an array of all 2.0M pairs
    # in int64 alone takes 15.4 MiB, and the 364k slab pairs gathered at
    # once about 12 MiB; one block of 2^16 slab pairs takes about 2.5 MiB
    pts = np.random.default_rng(4).random((2000, 3))
    packings = {j: _greedy_pack_indices(pts, 2.0**-j) for j in (5, 7)}
    assert len(packings[5]) * len(packings[7]) > 2_000_000
    tracemalloc.start()
    try:
        _well_spread_core(pts, packings[7], packings[5], 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def _first_saturated_scale(pts: np.ndarray, stop: int) -> int:
    """The first k >= 1 whose loop packing keeps every point, or `stop`."""
    return next(
        (k for k in range(1, stop) if len(oracle.greedy_pack_indices(pts, 2.0**-k)) == len(pts)),
        stop,
    )


def _counted_packings(packed: list, scanned: list):
    """Stand-ins for `_greedy_pack_indices`, noting each scale it packs in
    `packed`, and for `_dyadic_packings`, noting each (k, kept) it yields
    in `scanned`."""

    def counted(pts, epsilon, drops=None):
        packed.append(-math.log2(epsilon))
        return _greedy_pack_indices(pts, epsilon, drops)

    def noted(pts, ks):
        for k, kept in _dyadic_packings(pts, ks):
            scanned.append((k, kept))
            yield k, kept

    return counted, noted


def _check_triangle_scan(cloud: PointCloud, delta: float) -> tuple[list, list]:
    """The witness is the full scan's; the scan yields the scales
    1..min(s + 1, 40), for the first scale s that keeps every point; the
    scales it packs rise strictly from 1, and each scale it reuses holds
    the loop's packing there.  Returns the scales packed and the (k, kept)
    yielded."""
    packed: list[float] = []
    scanned: list[tuple[int, list[int]]] = []
    counted, noted = _counted_packings(packed, scanned)
    limits: list[str] = []
    with mock.patch.object(dimension, "_greedy_pack_indices", counted), mock.patch.object(
        anglefind, "_dyadic_packings", noted
    ):
        got = almost_regular_triangle(cloud, delta, limits)
    assert got == oracle.almost_regular_triangle(cloud, delta)
    pts = _normalize_unit(cloud.points)
    s = _first_saturated_scale(pts, TRIANGLE_SCAN_MAX_K + 1)
    assert [k for k, _ in scanned] == list(range(1, min(s + 1, TRIANGLE_SCAN_MAX_K) + 1))
    assert packed[0] == 1 and all(a < b for a, b in zip(packed, packed[1:]))
    for k, kept in scanned:
        if k not in packed:
            assert kept == oracle.greedy_pack_indices(pts, 2.0**-k)
    # the cap binds exactly when the coarse packing of the last scale
    # still merges two points
    assert limits == (["TRIANGLE_SCAN_MAX_K"] if s >= TRIANGLE_SCAN_MAX_K else [])
    return packed, scanned


@settings(SETTINGS, max_examples=60)
@given(clouds(max_points=30), st.sampled_from([0.3, 1.0]))
def test_triangle_witness_is_the_full_scan(case, delta):
    pts = case[0]
    if len(pts) < 3:
        return
    cloud = PointCloud(pts)
    if len(cloud) < 3:
        return
    _check_triangle_scan(cloud, delta)


@pytest.mark.parametrize(
    "points, s",
    [
        # edges of length sqrt(2) > 1: the first scale keeps every point
        ([[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]], 1),
        # the closest pair is 1.5 * 2^(1-s) apart
        ([[0, 0], [1, 0], [0, 1], [1.5 * 2.0**-37, 0]], 38),
        ([[0, 0], [1, 0], [0, 1], [1.5 * 2.0**-38, 0]], 39),
        ([[0, 0], [1, 0], [0, 1], [1.5 * 2.0**-39, 0]], 40),
        # no scale the scan reaches keeps every point
        ([[0, 0], [1, 0], [0, 1], [1.5 * 2.0**-60, 0]], 61),
        # the cloud of the benchmark's packing-count test
        (np.random.default_rng(5).random((500, 2)), 11),
    ],
)
def test_triangle_packs_each_scale_once(points, s):
    cloud = PointCloud(points)
    assert _first_saturated_scale(_normalize_unit(cloud.points), 62) == s
    _check_triangle_scan(cloud, 0.3)


_G2D3 = iterate_cloud(gasket_ifs(2, 0.005), 3)


@pytest.mark.parametrize(
    "scan, cloud, scales, most, every",
    [
        # three cluster levels, each about log2(1/0.005) = 7.6 scales wide:
        # the scan yields scales 1..25, and scale 24 is the first that
        # keeps every point
        ("triangle", _G2D3, 25, 5, False),
        ("minkdim", _G2D3, 7, 2, False),
        # a uniform cloud: every scale up to 11, the first that keeps every
        # point, is packed
        ("triangle", PointCloud(np.random.default_rng(5).random((500, 2))), 12, 11, True),
    ],
)
def test_scans_pack_only_the_scales_whose_packing_changes(scan, cloud, scales, most, every):
    if scan == "triangle":
        packed, scanned = _check_triangle_scan(cloud, 0.3)
    else:
        packed, scanned = [], []
        counted, noted = _counted_packings(packed, scanned)
        with mock.patch.object(dimension, "_greedy_pack_indices", counted), mock.patch.object(
            dimension, "_dyadic_packings", noted
        ):
            got = minkowski_dimension_estimate(cloud, 6, 12)
        assert got == oracle.minkowski_dimension_estimate(cloud, 6, 12)
    assert len(scanned) == scales
    assert len(packed) <= most
    if every:
        assert packed == list(range(1, most + 1))


@SETTINGS
@given(clouds(max_points=40))
def test_a_packing_that_keeps_every_point_keeps_it_at_finer_scales(case):
    # the empty case of the reuse rule of _dyadic_packings, for the loop itself
    pts = _normalize_unit(case[0])
    s = _first_saturated_scale(pts, 64)
    for k in range(s + 1, min(s + 4, 64)):
        assert len(oracle.greedy_pack_indices(pts, 2.0**-k)) == len(pts)


@st.composite
def clustered_clouds(draw):
    """Unit-cube clouds whose packing stays the same over runs of scales:
    address-ordered gaskets of ratio 0.005, 0.05 or 0.2 in d = 2..5,
    unions of tight clusters (clusters of clusters, 10 to 10^5 times
    smaller at each level, in index order or shuffled), and lattices of
    dyadic step, with repeated points, whose neighbours lie exactly
    2^(1-k) apart for some k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gasket", "clusters", "lattice"]))
    if kind == "gasket":
        d = draw(st.integers(2, 5))
        ifs = gasket_ifs(d, draw(st.sampled_from([0.005, 0.05, 0.2])))
        pts = iterate_cloud(ifs, {2: 4, 3: 3, 4: 2, 5: 2}[d]).points
    elif kind == "clusters":
        d = int(rng.integers(1, 6))
        pts, spread = rng.random((int(rng.integers(1, 4)), d)), 1.0
        for _ in range(int(rng.integers(1, 4))):
            spread *= 10.0 ** -float(rng.integers(1, 6))
            children = int(rng.integers(2, 5))
            offsets = spread * rng.normal(size=(len(pts), children, d))
            pts = (pts[:, None, :] + offsets).reshape(-1, d)
        if draw(st.booleans()):
            pts = pts[rng.permutation(len(pts))]
    else:
        d = int(rng.integers(1, 6))
        step = 2.0 ** -draw(st.integers(0, 20))
        pts = rng.integers(0, 5, size=(int(rng.integers(1, 50)), d)) * step
    return _normalize_unit(pts)


@settings(SETTINGS, max_examples=80)
@given(clustered_clouds(), st.integers(0, 3), st.integers(1, 3))
# points 1 and 2 are linked at scale 2; at scale 3 their distance still
# rounds to its limit 1/16, but their cells of side 1/4 are 0 and 2
@example(np.array([[0.0, 1.0], [np.nextafter(0.25, 0.0), 0.0], [0.5, 0.0]]), 2, 1)
def test_dyadic_packings_are_the_loop_on_clustered_clouds(pts, k_min, step):
    ks = range(k_min, 50, step)
    got = list(_dyadic_packings(pts, ks))
    assert [k for k, _ in got] == list(ks)
    want: list[int] = []
    for k, kept in got:
        # once the loop keeps every point it keeps them at every finer scale
        # (test_a_packing_that_keeps_every_point_keeps_it_at_finer_scales)
        if len(want) < len(pts):
            want = oracle.greedy_pack_indices(pts, 2.0**-k)
        assert kept == want


@st.composite
def dyadic_pairs(draw):
    """A dyadic cell side s = 2^(1-j) and two points of nonnegative
    coordinates up to 4s, each coordinate 0, a subnormal, the float just
    below s, 2s or 3s, one of those sides, an exact dyadic multiple of s,
    or any float in [0, 4s]."""
    s = 2.0 ** (1 - draw(st.integers(-8, 64)))
    edges = [0.0, 5e-324, 2.0**-1040, s, 2 * s, 3 * s]
    coordinate = st.one_of(
        st.sampled_from(edges + [float(np.nextafter(e, 0.0)) for e in edges[3:]]),
        st.builds(lambda m, e: m * s * 2.0**-e, st.integers(0, 64), st.integers(0, 8)),
        st.floats(0.0, 4 * s),
    )
    d = draw(st.integers(1, 4))
    return s, np.array([[draw(coordinate) for _ in range(d)] for _ in range(2)])


@SETTINGS
@given(dyadic_pairs())
@example((0.25, np.array([[np.nextafter(0.25, 0.0), 0.0], [0.5, 0.0]])))
def test_a_pair_strictly_inside_a_dyadic_limit_has_cells_within_one(case):
    # the lemma on _cells, which lets _dyadic_packings reuse a packing
    # while its farthest kill is below the finer limit
    s, pts = case
    cols, first, second = pts.T.copy(), np.array([0]), np.array([1])
    sq = float(dimension._sq_dists(cols, first, cols, second)[0])
    gap = np.abs(np.diff(dimension._cells(pts, s), axis=0)).max()
    if sq < s * s:
        assert gap <= 1
    elif sq == s * s and gap == 2:
        # the tie: the float just below s, in cell 0, and 2s, in cell 2
        assert (pts == np.nextafter(s, 0.0)).any()


@settings(SETTINGS, max_examples=80)
@given(clustered_clouds(), st.integers(0, 40))
def test_the_drop_record_bounds_every_kill(pts, k):
    epsilon = 2.0**-k
    drops = dimension._Drops()
    kept = _greedy_pack_indices(pts, epsilon, drops)
    assert kept == oracle.greedy_pack_indices(pts, epsilon)
    if drops.farthest == np.inf:
        return
    cols = pts.T.copy()
    for i in sorted(set(range(len(pts))) - set(kept)):
        earlier = np.array([p for p in kept if p < i])
        sq = dimension._sq_dists(cols, earlier, cols, np.full(len(earlier), i))
        assert sq.min() <= drops.farthest


def test_a_kill_at_a_finer_limit_is_packed_there():
    # the packing at scale 1 drops point 1 at squared distance 1/16, the
    # limit at scale 3, where the two points are cells 0 and 2 apart
    pts = np.array([[np.nextafter(0.25, 0.0), 0.0], [0.5, 0.0]])
    got = list(_dyadic_packings(pts, [1, 2, 3]))
    assert got == [(1, [0]), (2, [0]), (3, [0, 1])]
    assert [oracle.greedy_pack_indices(pts, 2.0**-k) for k in (1, 2, 3)] == [[0], [0], [0, 1]]


@pytest.mark.parametrize("scan", ["triangle", "minkdim"])
def test_a_reused_scale_forms_no_cloud_cells(scan):
    # the cells _dyadic_packings forms while it yields each scale: a packed
    # scale cuts the whole cloud, a reused one only its two extremes
    packed: list[float] = []
    counted, noted = _counted_packings(packed, [])
    shapes: list[tuple] = []
    real_cells = dimension._cells

    def cells(pts, side):
        shapes.append(pts.shape)
        return real_cells(pts, side)

    formed: dict[int, list[tuple]] = {}

    def scan_cells(pts, ks):
        gen = noted(pts, ks)
        while True:
            shapes.clear()  # the caller's cells between two scales do not count
            try:
                k, kept = next(gen)
            except StopIteration:
                return
            formed[k] = list(shapes)
            yield k, kept

    module = anglefind if scan == "triangle" else dimension
    with mock.patch.object(dimension, "_greedy_pack_indices", counted), mock.patch.object(
        dimension, "_cells", cells
    ), mock.patch.object(module, "_dyadic_packings", scan_cells):
        if scan == "triangle":
            almost_regular_triangle(_G2D3, 0.3)
        else:
            minkowski_dimension_estimate(_G2D3, 6, 12)
    assert len(formed) == (25 if scan == "triangle" else 7)
    for k, got in formed.items():
        assert got == ([(len(_G2D3), 2)] if k in packed else [(1, 2)])


@settings(SETTINGS, max_examples=80)
@given(clustered_clouds(), st.integers(1, 30), st.integers(1, 8))
def test_scale_pair_searches_are_the_oracles_on_clustered_clouds(pts, l, gap):
    k = l + gap
    cloud = PointCloud(pts)
    unit = _normalize_unit(cloud.points)
    want = tuple(tuple(float(x) for x in p) for p in unit[oracle.well_spread_core(unit, k, l)])
    assert well_spread_subset(cloud, 1.0, k, l).points == want
    try:
        want = pair_oracle.near_right_witness(cloud, k, l)
    except AngleLabError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            near_right_witness(cloud, k, l)
        return
    assert near_right_witness(cloud, k, l) == want


@SETTINGS
@given(clouds(max_points=40), st.integers(0, 6), st.integers(1, 12))
def test_minkowski_estimate_is_the_full_scan(case, k_min, width):
    cloud = PointCloud(case[0])
    try:
        want = oracle.minkowski_dimension_estimate(cloud, k_min, k_min + width)
    except AngleLabError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            minkowski_dimension_estimate(cloud, k_min, k_min + width)
        return
    assert minkowski_dimension_estimate(cloud, k_min, k_min + width) == want


@SETTINGS
@given(clouds(max_points=300), st.sampled_from([0.25, 0.5, 1.0]), st.integers(2, 30))
def test_color_distances_are_the_full_tensor(case, a, n_colors):
    pts = case[0]
    got = color_distances(pts, a, n_colors)
    assert got.dtype == np.int64
    assert np.array_equal(got, oracle.color_distances(pts, a, n_colors))


def test_color_distances_are_the_full_tensor_over_many_row_blocks():
    pts = np.random.default_rng(3).random((700, 3))
    assert np.array_equal(color_distances(pts, 0.2, 10), oracle.color_distances(pts, 0.2, 10))


def test_color_distances_memory_is_the_matrix_plus_a_block():
    # the int64 matrix of a 2,000-point core takes 30.5 MiB; the full
    # n x n x d float tensor would add 61 MiB more
    pts = np.random.default_rng(4).random((2000, 2))
    tracemalloc.start()
    try:
        color_distances(pts, 0.1, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20

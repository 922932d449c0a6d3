"""The projection-order pair sweep against the all-pairs scans in pair_oracle."""

import math
import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pair_oracle as oracle
from anglelab.anglefind import near_right_witness
from anglelab.errors import AngleLabError
from anglelab.geom import PointCloud, _projection_pair
from anglelab.ifs import gasket_ifs, iterate_cloud, rectangle_in

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def unit_grid(n: int) -> PointCloud:
    return PointCloud([(i / (n - 1), j / (n - 1)) for i in range(n) for j in range(n)])


@st.composite
def clouds(draw):
    """Seeded clouds in d=2..4: integer lattices (many tied gaps), points on
    a hyperplane (all projections equal once projected on its normal),
    near-duplicate pairs, and uniform random points."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lattice", "flat", "near", "random"]))
    if kind == "lattice":
        pts = rng.integers(0, 4, size=(n, d)).astype(float)
    elif kind == "flat":
        pts = rng.random((n, d))
        pts[:, 0] = 0.5
    elif kind == "near":
        base = rng.random((n // 2 + 1, d))
        pts = np.concatenate([base, base + rng.choice([1e-9, 1e-12, 1e-15], size=base.shape)])
    else:
        pts = rng.random((n, d))
    pts = np.unique(pts, axis=0)
    if len(pts) < 2:
        pts = np.eye(2, d)
    pts = pts[rng.permutation(len(pts))]
    axis = draw(st.sampled_from(["first", "diagonal", "random"]))
    if axis == "first":
        direction = np.eye(d)[0]
    elif axis == "diagonal":
        direction = np.ones(d) / math.sqrt(d)
    else:
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
    return pts, pts @ direction


@given(clouds())
@SETTINGS
def test_projection_pair_matches_brute_force_span_keys(cloud):
    pts, proj = cloud

    def keys(i, j):
        return np.abs(proj[i] - proj[j]), np.linalg.norm(pts[i] - pts[j], axis=1)

    assert _projection_pair(proj, keys, lambda gap: gap) == oracle.least_pair(len(pts), keys)


@given(clouds())
@SETTINGS
def test_projection_pair_matches_brute_force_ratio_key(cloud):
    pts, proj = cloud
    extent = pts.max(axis=0) - pts.min(axis=0)
    diam2 = float(extent @ extent) * (1.0 + 1e-9)

    def keys(i, j):
        diff = pts[i] - pts[j]
        return ((proj[i] - proj[j]) ** 2 / np.einsum("ij,ij->i", diff, diff),)

    got = _projection_pair(proj, keys, lambda gap: gap * gap / diam2)
    assert got == oracle.least_pair(len(pts), keys)


@st.composite
def near_right_cases(draw):
    kind = draw(st.sampled_from(["grid", "gasket", "lattice", "random"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "grid":
        cloud = unit_grid(draw(st.integers(2, 24)))
    elif kind == "gasket":
        n = draw(st.integers(2, 3))
        ifs = gasket_ifs(n, draw(st.sampled_from([0.2, 0.25, 0.3, 0.45])))
        cloud = iterate_cloud(ifs, draw(st.integers(1, 6 - n)), ifs.centers())
    elif kind == "lattice":
        d = draw(st.integers(2, 3))
        cloud = PointCloud(rng.integers(0, 6, size=(draw(st.integers(3, 150)), d)).astype(float))
    else:
        d = draw(st.integers(2, 4))
        cloud = PointCloud(rng.random((draw(st.integers(3, 300)), d)))
    k = draw(st.integers(2, 9))
    return cloud, k, draw(st.integers(1, k - 1))


@st.composite
def small_random_cases(draw):
    """Clouds where the farthest point often lies in the well-spread subset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = PointCloud(rng.random((draw(st.integers(3, 29)), draw(st.integers(1, 3)))))
    return cloud, *draw(st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]))


def _outcome(search, cloud, k, l):
    try:
        return search(cloud, k, l)
    except AngleLabError as exc:
        return type(exc), str(exc)


@given(near_right_cases())
@SETTINGS
def test_near_right_witness_equals_the_all_pairs_selection(case):
    assert _outcome(near_right_witness, *case) == _outcome(oracle.near_right_witness, *case)


@given(st.one_of(near_right_cases(), small_random_cases()))
@SETTINGS
def test_near_right_witness_has_three_distinct_points(case):
    got = _outcome(near_right_witness, *case)
    assert got == _outcome(oracle.near_right_witness, *case)
    if not isinstance(got, tuple):
        w = got.triple
        assert w.apex != w.arm1 and w.apex != w.arm2 and w.arm1 != w.arm2


def _rectangle_setup(ifs, f_index, g_index, depth):
    fg = ifs.maps[f_index].compose(ifs.maps[g_index])
    gf = ifs.maps[g_index].compose(ifs.maps[f_index])
    axis = np.asarray(gf.center) - np.asarray(fg.center)
    axis = axis / np.linalg.norm(axis)
    pts = iterate_cloud(ifs, depth, ifs.centers()).points
    return fg, gf, pts, pts @ axis


def _corners(fg, gf, x, y):
    return tuple(
        tuple(float(v) for v in p) for p in (fg.apply(x), fg.apply(y), gf.apply(y), gf.apply(x))
    )


@st.composite
def rectangle_cases(draw):
    n = draw(st.integers(2, 4))
    f_index, g_index = draw(st.permutations(range(n + 1)))[:2]
    # at most 625 points, so that every pair fits in memory
    depth = draw(st.integers(0, {2: 4, 3: 3, 4: 3}[n]))
    return gasket_ifs(n, draw(st.sampled_from([0.2, 0.3, 0.45]))), f_index, g_index, depth


@given(rectangle_cases())
@settings(SETTINGS, max_examples=60)
def test_rectangle_in_picks_the_brute_force_pair(case):
    fg, gf, pts, proj = _rectangle_setup(*case)

    def keys(i, j):
        diff = pts[i] - pts[j]
        return ((proj[i] - proj[j]) ** 2 / np.einsum("ij,ij->i", diff, diff),)

    i, j = oracle.least_pair(len(pts), keys)
    witness = rectangle_in(*case)
    assert witness.corners == _corners(fg, gf, pts[i], pts[j])
    # the chunk loop's pair differs from it only by the loop's cancellation
    old_value, oi, oj = oracle.chunked_rectangle_pair(pts, proj)
    (best,) = keys(np.array([i]), np.array([j]))
    (old_best,) = keys(np.array([oi]), np.array([oj]))
    assert math.isclose(float(old_best[0]), float(best[0]), rel_tol=1e-9, abs_tol=1e-15)
    assert math.isclose(old_value, float(best[0]), rel_tol=1e-9, abs_tol=1e-15)


def test_rectangle_in_keeps_the_chunk_loop_pair_at_depths_4_and_6():
    for depth in (4, 6):
        ifs = gasket_ifs(2, 0.45)
        fg, gf, pts, proj = _rectangle_setup(ifs, 0, 1, depth)
        _, i, j = oracle.chunked_rectangle_pair(pts, proj)
        assert rectangle_in(ifs, 0, 1, depth).corners == _corners(fg, gf, pts[i], pts[j])


def _peak_mb(search, *args) -> float:
    tracemalloc.start()
    try:
        search(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_pair_searches_allocate_no_all_pairs_arrays():
    # the all-pairs scans peaked at 355 MiB (a 2,577-point core) and 53 MiB
    # (a 6,561-point cloud in 256-row chunks)
    grid = unit_grid(64)
    assert _peak_mb(near_right_witness, grid, 7, 2) < 16.0
    assert _peak_mb(rectangle_in, gasket_ifs(2, 0.45), 0, 1, 7) < 16.0

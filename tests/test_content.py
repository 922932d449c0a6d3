import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import content_oracle as oracle
from anglelab import PointCloud
from anglelab.content import (
    DEFAULT_CELL_BUDGET,
    ContentResult,
    DenseCubeResult,
    DyadicGrid,
    ZoomResult,
    dense_cube,
    dyadic_content,
    from_points,
    microset_zoom,
)
from anglelab.errors import (
    AngleLabError,
    BudgetExceeded,
    EmptyGrid,
    InvalidDelta,
    InvalidDepth,
    InvalidDimension,
)
from anglelab.ifs import gasket_ifs, iterate_cloud


def exhaustive_content(cells: frozenset, s: float) -> float:
    # enumerate every antichain cover of a d=2, m=2 grid: the root, or per
    # level-1 block either that block's cube or its occupied leaves
    if not cells:
        return 0.0
    blocks: dict = {}
    for c in sorted(cells):
        blocks.setdefault((c[0] >> 1, c[1] >> 1), []).append(c)
    choices = [
        [(0.5**s,), tuple(0.25**s for _ in leaves)]
        for _, leaves in sorted(blocks.items())
    ]
    best = 1.0
    for pick in itertools.product(*choices):
        best = min(best, sum(v for block in pick for v in block))
    return best


def rasterize_reference(pts, m: int) -> set:
    # scalar re-implementation of the boundary-to-lower-cell rule
    side = 1 << m
    cells = set()
    for row in pts:
        idx = []
        for x in row:
            i = math.ceil(float(x) * side) - 1
            idx.append(min(max(i, 0), side - 1))
        cells.add(tuple(idx))
    return cells


def gasket_cloud(depth: int) -> PointCloud:
    ifs = gasket_ifs(2, 0.25)
    return iterate_cloud(ifs, depth, seeds=[h.center for h in ifs.maps])


def test_grid_validates_cells():
    DyadicGrid(2, 2, frozenset([(0, 0), (3, 3)]))
    with pytest.raises(AngleLabError):
        DyadicGrid(2, 2, frozenset([(0, 4)]))
    with pytest.raises(AngleLabError):
        DyadicGrid(2, 2, frozenset([(-1, 0)]))
    with pytest.raises(InvalidDimension):
        DyadicGrid(2, 2, frozenset([(0, 0, 0)]))
    with pytest.raises(InvalidDimension):
        DyadicGrid(0, 2, frozenset())
    with pytest.raises(InvalidDepth):
        DyadicGrid(2, -1, frozenset())
    with pytest.raises(InvalidDepth):
        DyadicGrid(1, 64, frozenset())
    with pytest.raises(AngleLabError):
        DyadicGrid(2, 2, frozenset([(True, 0)]))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except AngleLabError as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "dimension, levels, cells",
    [
        (2, 2, [(0, 0), (3, 3)]),
        (2, 2, [(3, 0), (0, 1), (3, 0), (0, 1), (1, 1)]),  # duplicate, unsorted
        (3, 0, [(0, 0, 0), (0, 0, 0)]),
        (1, 63, [((1 << 63) - 1,), (0,)]),
        (2, 5, []),
        (2, 2, [(0, 4)]),
        (2, 2, [(-1, 0)]),
        (1, 63, [(1 << 63,)]),
        (1, 63, [(2**65,)]),
        (1, 63, [(-(2**65),)]),
        (2, 2, [(0, 0, 0)]),
        (2, 2, [(0, 0), (1,)]),
        (2, 2, [(True, 0)]),
        (2, 2, [(0.0, 1)]),
        (0, 2, []),
        (2, -1, []),
        (1, 64, []),
        # the rules fail in the same order: dimension, levels, length, type, range
        (0, 64, [(0.5,)]),
        (2, 64, [(0.5,)]),
        (2, 2, [(0.5,), (9, 9)]),
        (2, 2, [(0.5, 1), (9, 9)]),
    ],
)
def test_grid_validation_matches_the_frozenset_grid(dimension, levels, cells):
    got = _outcome(DyadicGrid, dimension, levels, iter(cells))
    want = _outcome(oracle.FrozenGrid, dimension, levels, frozenset(cells))
    if got[0] != "ok" or want[0] != "ok":
        assert got == want
        return
    grid, frozen = got[1], want[1]
    assert grid.occupied == frozen.occupied and len(grid) == len(frozen)
    rows = grid.cell_rows()
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert np.array_equal(rows, frozen.cell_rows())
    assert grid.to_json_dict() == frozen.to_json_dict()
    same = DyadicGrid(dimension, levels, frozenset(cells))
    assert grid == same and hash(grid) == hash(same)
    assert grid != DyadicGrid(dimension + 1, levels, [])
    if len(grid):
        assert grid != DyadicGrid(dimension, levels, [])


def test_grid_json_round_trip():
    grid = DyadicGrid(3, 2, frozenset([(0, 1, 2), (3, 3, 3)]))
    data = grid.to_json_dict()
    assert data["dimension"] == 3 and data["levels"] == 2
    assert data["occupied"] == [[0, 1, 2], [3, 3, 3]]
    assert DyadicGrid.from_json_dict(data) == grid


def test_from_points_single_origin():
    grid = from_points(PointCloud([(0.0, 0.0)]), 2)
    assert grid.occupied == frozenset([(0, 0)])


def test_from_points_cell_centers():
    centers = PointCloud(
        [((i + 0.5) / 4, (j + 0.5) / 4) for i in range(4) for j in range(4)]
    )
    assert len(from_points(centers, 2)) == 16


def test_from_points_boundary_goes_down():
    grid = from_points(PointCloud([(0.25, 0.5), (1.0, 1.0), (0.0, 0.7)]), 2)
    assert grid.occupied == frozenset([(0, 1), (3, 3), (0, 2)])


def test_from_points_matches_reference_rule():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.0, 1.0, size=(200, 2))
    cloud = PointCloud(pts)
    for m in (1, 3, 5):
        assert from_points(cloud, m).occupied == frozenset(
            rasterize_reference(cloud.points, m)
        )


def test_from_points_gasket_cell_counts():
    # depth-4 addresses sit 3*4^-4 apart, far below the 2^-4 cell pitch,
    # so sibling addresses merge; the honest count is 25, not one cell
    # per address
    cells4 = from_points(gasket_cloud(4), 4).occupied
    assert cells4 == frozenset(rasterize_reference(gasket_cloud(4).points, 4))
    assert len(cells4) == 25
    # at the leaf scale 2^-10 = (1/4)^5 each depth-5 blob straddles a few
    # cells instead
    assert len(from_points(gasket_cloud(5), 10)) == 672


def test_from_points_validation():
    with pytest.raises(AngleLabError):
        from_points(PointCloud([(1.2, 0.0)]), 2)
    with pytest.raises(AngleLabError):
        from_points(PointCloud([(-0.1, 0.0)]), 2)
    with pytest.raises(InvalidDepth):
        from_points(PointCloud([(0.5, 0.5)]), -1)
    with pytest.raises(BudgetExceeded):
        from_points(PointCloud([(0.5, 0.5)]), 11)
    assert (1 << 20) <= DEFAULT_CELL_BUDGET < (1 << 22)


@pytest.mark.parametrize("budget", [-5, 0, 1, 2, 3, 4, 15, 16, 17, 255, 256, 257])
def test_from_points_budget_is_the_cell_count_rule(budget):
    cloud = PointCloud([(0.5, 0.5)])
    for m in range(6):
        exceeded = (1 << (2 * m)) > budget
        got = _outcome(from_points, cloud, m, budget)
        if exceeded:
            assert got == (BudgetExceeded, f"a level-{m} grid in dimension 2 holds 2^{2 * m} cells")
        else:
            assert got[0] == "ok" and len(got[1]) == 1


def test_from_points_checks_its_budget_before_building_the_cell_count():
    # 2^(2 * 10^8) alone would take 25 MB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"holds 2\^200000000 cells"):
            from_points(PointCloud([(0.5, 0.5)]), 10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_from_points_rejects_levels_past_int64_before_the_cast():
    cloud = PointCloud([(0.5,), (0.25,)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidDepth, match=r"grid level count must lie in \[0, 63\]"):
            from_points(cloud, 64, budget=1 << 100)
        grid = from_points(cloud, 63, budget=1 << 100)
    assert grid.cell_rows().tolist() == [[(1 << 61) - 1], [(1 << 62) - 1]]
    # the unit cube is checked first, as before
    with pytest.raises(AngleLabError, match="inside the unit cube"):
        from_points(PointCloud([(1.5,)]), 64, budget=1 << 100)


def test_content_fully_occupied_is_one():
    full = DyadicGrid(2, 1, frozenset((i, j) for i in range(2) for j in range(2)))
    for s in (0.5, 1.0, 2.0):
        r = dyadic_content(full, s)
        assert r.value == 1.0
        assert r.cover == ((0, (0, 0)),)


def test_content_empty_grid_is_zero():
    r = dyadic_content(DyadicGrid(2, 3, frozenset()), 1.0)
    assert r == ContentResult(0.0, 1.0, ())


def test_content_three_quarters_prefers_root():
    # min(1, 3 * 0.5) at the root
    grid = DyadicGrid(2, 1, frozenset([(0, 0), (0, 1), (1, 0)]))
    r = dyadic_content(grid, 1.0)
    assert r.value == 1.0
    assert r.cover == ((0, (0, 0)),)


def test_content_sparse_leaves_win():
    # two far cells: 2 * 0.25^1.5 = 0.25 beats every coarser cube
    grid = DyadicGrid(2, 2, frozenset([(0, 0), (3, 3)]))
    r = dyadic_content(grid, 1.5)
    assert r.value == pytest.approx(2 * 0.25**1.5, abs=1e-15)
    assert r.cover == ((2, (0, 0)), (2, (3, 3)))


def test_content_diagonal_is_additive():
    # any level-j ancestor holds 2^(m-j) diagonal leaves summing to 2^-j,
    # tying its own edge; coarser wins, so the root cover has value 1
    for m in (2, 3, 4):
        grid = DyadicGrid(2, m, frozenset((i, i) for i in range(1 << m)))
        r = dyadic_content(grid, 1.0)
        assert r.value == 1.0
        assert r.cover == ((0, (0, 0)),)


def test_content_matches_exhaustive_antichains():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(0, 17))
        cells = frozenset(map(tuple, rng.integers(0, 4, size=(n, 2)).tolist()))
        grid = DyadicGrid(2, 2, cells)
        for s in (0.5, 1.0, 1.5):
            assert dyadic_content(grid, s).value == pytest.approx(
                exhaustive_content(cells, s), abs=1e-12
            )


def test_content_monotone_under_adding_cells():
    rng = np.random.default_rng(1)
    for _ in range(200):
        cells = set(map(tuple, rng.integers(0, 8, size=(10, 2)).tolist()))
        extra = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        small = DyadicGrid(2, 3, frozenset(cells))
        large = DyadicGrid(2, 3, frozenset(cells | {extra}))
        for s in (0.6, 1.0):
            assert (
                dyadic_content(large, s).value
                >= dyadic_content(small, s).value - 1e-15
            )


def test_content_cover_is_valid_antichain():
    rng = np.random.default_rng(2)
    for _ in range(100):
        cells = frozenset(map(tuple, rng.integers(0, 8, size=(12, 2)).tolist()))
        r = dyadic_content(DyadicGrid(2, 3, cells), 1.0)
        assert sum((2.0**-lvl) ** 1.0 for lvl, _ in r.cover) == pytest.approx(
            r.value, abs=1e-12
        )
        for (l1, i1), (l2, i2) in itertools.combinations(r.cover, 2):
            if l1 < l2:
                assert tuple(c >> (l2 - l1) for c in i2) != i1
            elif l2 < l1:
                assert tuple(c >> (l1 - l2) for c in i1) != i2
        for lvl, idx in r.cover:
            assert any(tuple(c >> (3 - lvl) for c in cell) == idx for cell in cells)
        for cell in cells:
            assert any(
                tuple(c >> (3 - lvl) for c in cell) == idx for lvl, idx in r.cover
            )


def test_content_json_shape():
    r = dyadic_content(DyadicGrid(2, 2, frozenset([(0, 0), (3, 3)])), 1.5)
    data = r.to_json_dict()
    assert data["exponent"] == 1.5
    assert data["cover"] == [[2, [0, 0]], [2, [3, 3]]]
    assert data["value"] == r.value


def test_content_rejects_bad_exponent():
    grid = DyadicGrid(2, 1, frozenset([(0, 0)]))
    with pytest.raises(AngleLabError):
        dyadic_content(grid, 0.0)
    with pytest.raises(AngleLabError):
        dyadic_content(grid, -1.0)


def test_dense_cube_full_grid_is_root():
    full = DyadicGrid(2, 2, frozenset((i, j) for i in range(4) for j in range(4)))
    for s in (1.0, 2.0):
        cube, value, meets = dense_cube(full, s)
        assert cube == (0, (0, 0))
        assert value == 1.0
        assert meets


def test_dense_cube_single_cell_is_that_leaf():
    grid = DyadicGrid(2, 3, frozenset([(5, 2)]))
    r = dense_cube(grid, 0.7)
    assert r == DenseCubeResult((3, (5, 2)), 1.0, True)


def test_dense_cube_diagonal_root():
    grid = DyadicGrid(2, 3, frozenset((i, i) for i in range(8)))
    cube, value, meets = dense_cube(grid, 1.0)
    assert cube == (0, (0, 0)) and value == 1.0 and meets


def test_dense_cube_dominates_root_content():
    rng = np.random.default_rng(3)
    for _ in range(50):
        cells = frozenset(map(tuple, rng.integers(0, 8, size=(6, 2)).tolist()))
        grid = DyadicGrid(2, 3, cells)
        for s in (0.8, 1.2):
            assert (
                dense_cube(grid, s).normalized_content
                >= dyadic_content(grid, s).value - 1e-12
            )


def test_dense_cube_requires_occupied_cell():
    with pytest.raises(EmptyGrid):
        dense_cube(DyadicGrid(2, 2, frozenset()), 1.0)


def test_zoom_diagonal_passes_at_root():
    grid = DyadicGrid(2, 4, frozenset((i, i) for i in range(16)))
    z = microset_zoom(grid, 1.0, 0.25)
    assert z.cube == (0, (0, 0))
    assert z.normalized_content == 1.0
    assert z.passes_claim
    assert z.rescaled == grid
    assert dyadic_content(z.rescaled, 0.5).value == pytest.approx(
        z.normalized_content, abs=1e-12
    )


def test_zoom_gasket_grid_passes():
    s = math.log(3) / math.log(4)
    grid = from_points(gasket_cloud(5), 10)
    z = microset_zoom(grid, s, 0.1)
    assert z.passes_claim
    assert z.normalized_content >= 2.0 ** (-s - 2.0)
    # cube edge respects the floor 2^(ceil(m*delta/(2d)) - m)
    assert 2.0 ** (-z.cube[0]) >= 2.0 ** (math.ceil(10 * 0.1 / 4.0) - 10)
    rescaled_value = dyadic_content(z.rescaled, s - 0.2).value
    assert rescaled_value == pytest.approx(z.normalized_content, abs=1e-12)


def test_zoom_respects_level_floor():
    # a single occupied cell is densest at its own leaf, but the edge
    # floor keeps the zoom one level up for d=1
    grid = DyadicGrid(1, 4, frozenset([(9,)]))
    z = microset_zoom(grid, 1.0, 0.49)
    assert z.cube[0] == 3
    assert z.cube[1] == (4,)
    assert z.rescaled.levels == 1
    assert z.rescaled.occupied == frozenset([(1,)])
    assert z.normalized_content < 1.0


def test_zoom_rescaled_matches_restriction():
    rng = np.random.default_rng(4)
    for _ in range(50):
        cells = frozenset(map(tuple, rng.integers(0, 16, size=(8, 2)).tolist()))
        grid = DyadicGrid(2, 4, cells)
        z = microset_zoom(grid, 1.2, 0.3)
        lvl, anchor = z.cube
        shift = 4 - lvl
        inside = {
            tuple(c - (a << shift) for c, a in zip(cell, anchor))
            for cell in cells
            if all(c >> shift == a for c, a in zip(cell, anchor))
        }
        assert z.rescaled.occupied == frozenset(inside)
        assert z.rescaled.levels == shift
        assert dyadic_content(z.rescaled, 1.2 - 0.6).value == pytest.approx(
            z.normalized_content, abs=1e-12
        )


def test_zoom_json_shape():
    grid = DyadicGrid(2, 2, frozenset([(0, 0), (1, 1)]))
    z = microset_zoom(grid, 1.0, 0.2)
    data = z.to_json_dict()
    assert data["cube"] == [z.cube[0], list(z.cube[1])]
    assert data["passes_claim"] == z.passes_claim
    assert data["rescaled"] == z.rescaled.to_json_dict()


def test_zoom_validation():
    grid = DyadicGrid(2, 2, frozenset([(0, 0)]))
    with pytest.raises(InvalidDelta):
        microset_zoom(grid, 1.0, 0.5)
    with pytest.raises(InvalidDelta):
        microset_zoom(grid, 1.0, 0.0)
    with pytest.raises(InvalidDelta):
        microset_zoom(grid, 1.0, -0.1)
    with pytest.raises(EmptyGrid):
        microset_zoom(DyadicGrid(2, 2, frozenset()), 1.0, 0.2)

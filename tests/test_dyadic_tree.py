"""The per-level array tree against the dict-of-tuples reference in content_oracle."""

import itertools
import json
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import content_oracle as oracle
from anglelab.content import (
    DyadicGrid,
    _tree_values,
    dense_cube,
    dyadic_content,
    microset_zoom,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Full grids are all ties at s = d; the reference cover walk is quadratic,
# so they stay small enough for it.
FULL_GRID_CELLS = 1024


@st.composite
def grids(draw):
    """Seeded grids in d=1..4, m=0..5: sparse random cells, full grids, or
    whole blocks of 2^d siblings (16 children per parent when d=4)."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(0, 5))
    side = 1 << m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["sparse", "full", "blocks"]))
    if kind == "full" and side**d <= FULL_GRID_CELLS:
        cells = set(itertools.product(range(side), repeat=d))
    elif kind == "blocks" and m >= 1:
        parents = rng.integers(0, side >> 1, size=(draw(st.integers(1, 6)), d))
        offsets = list(itertools.product((0, 1), repeat=d))
        cells = {tuple(int(p) * 2 + o for p, o in zip(row, off)) for row in parents for off in offsets}
    else:
        rows = rng.integers(0, side, size=(draw(st.integers(1, 80)), d))
        cells = {tuple(int(c) for c in row) for row in rows}
    return DyadicGrid(d, m, frozenset(cells))


def exponents(grid):
    # s = d makes a full block tie with its parent exactly
    return st.one_of(
        st.just(float(grid.dimension)),
        st.sampled_from([math.log(3) / math.log(4), 1.9, 2.5]),
        st.floats(0.05, 6.0),
    )


def _json(result):
    return json.dumps(result.to_json_dict(), sort_keys=True)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@SETTINGS
@given(grids(), st.data())
# a full 4-d block at s > d: the root is expanded into a sum of 16 children
@example(DyadicGrid(4, 1, frozenset(itertools.product((0, 1), repeat=4))), None)
def test_tree_and_cover_match_the_reference(grid, data):
    s = 4.3 if data is None else data.draw(exponents(grid))
    m = grid.levels
    cells, values, flags, parents = _tree_values(grid, s)
    want_values, want_flags = oracle.tree_values(grid, s)
    assert len(cells) == len(values) == len(flags) == len(parents) == m + 1
    for j in range(m + 1):
        keys = [tuple(row) for row in cells[j].tolist()]
        assert keys == sorted(want_values[j])
        assert [repr(float(v)) for v in values[j]] == [repr(want_values[j][k]) for k in keys]
        assert flags[j].tolist() == [want_flags[j][k] for k in keys]
        if j:
            assert np.array_equal(cells[j] >> 1, cells[j - 1][parents[j]])
    nodes = sum(len(level) for level in cells)
    if m >= 1:
        assert len(grid) < nodes <= len(grid) * (m + 1)

    got, want = dyadic_content(grid, s), oracle.dyadic_content(grid, s)
    assert repr(got.value) == repr(want.value)
    assert got.cover == want.cover
    assert _json(got) == _json(want)
    # an antichain of nonempty cubes holding every occupied cell exactly once
    for level, idx in got.cover:
        shift = m - level
        assert any(all(c >> shift == a for c, a in zip(cell, idx)) for cell in grid.occupied)
    for cell in grid.occupied:
        holders = [
            (level, idx)
            for level, idx in got.cover
            if all(c >> (m - level) == a for c, a in zip(cell, idx))
        ]
        assert len(holders) == 1

    got, want = dense_cube(grid, s), oracle.dense_cube(grid, s)
    assert got == want and repr(got.normalized_content) == repr(want.normalized_content)


@SETTINGS
@given(grids(), st.data())
def test_tree_arrays_match_the_unique_grouping(grid, data):
    s = data.draw(exponents(grid))
    frozen = oracle.FrozenGrid(grid.dimension, grid.levels, grid.occupied)
    got = _tree_values(grid, s)
    want = oracle.unique_tree_values(frozen, s)
    # cells, values (bit for bit), flags and parents, level by level
    for got_levels, want_levels in zip(got, want):
        assert len(got_levels) == len(want_levels) == grid.levels + 1
        for a, b in zip(got_levels, want_levels):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@SETTINGS
@given(grids(), st.data())
def test_zoom_matches_the_reference(grid, data):
    s = data.draw(exponents(grid))
    delta = data.draw(
        st.one_of(
            st.floats(0.0, s / 2.0, exclude_min=True, exclude_max=True),
            st.sampled_from([0.0, -0.1, s / 2.0, s]),
        )
    )
    got = _outcome(microset_zoom, grid, s, delta)
    want = _outcome(oracle.microset_zoom, grid, s, delta)
    if got[0] == "ok" and want[0] == "ok":
        assert _json(got[1]) == _json(want[1])
        assert got[1].cube == want[1].cube
        rows = got[1].rescaled.cell_rows()
        assert rows.dtype == np.int64 and not rows.flags.writeable
        assert np.array_equal(rows, want[1].rescaled.cell_rows())
        assert got[1].rescaled.occupied == want[1].rescaled.occupied
    else:
        assert got == want


def test_zoom_errors_match_the_reference():
    empty = DyadicGrid(2, 3, frozenset())
    one = DyadicGrid(1, 1, frozenset([(1,)]))
    # empty grid; delta out of range; delta admitting no cube (m*delta/(2d) > m)
    for grid, s, delta in ((empty, 1.0, 0.1), (one, 1.0, 0.5), (one, 1.0, 0.0), (one, 5.0, 2.2)):
        got = _outcome(microset_zoom, grid, s, delta)
        assert got[0] != "ok"
        assert got == _outcome(oracle.microset_zoom, grid, s, delta)


def test_empty_grid_matches_the_reference():
    grid = DyadicGrid(3, 2, frozenset())
    assert dyadic_content(grid, 1.5) == oracle.dyadic_content(grid, 1.5)
    assert _outcome(dense_cube, grid, 1.5) == _outcome(oracle.dense_cube, grid, 1.5)

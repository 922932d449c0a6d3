"""Dyadic-cube Hausdorff content: sparse tree DP for the minimal cover,
densest-cube extraction, and the zoom that rescales a dense cube to the
unit cube.

A grid holds its cells as one read-only (n, d) int64 array of distinct
rows in lexicographic order; the frozenset `occupied` is built on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    AngleLabError,
    BudgetExceeded,
    EmptyGrid,
    InvalidDelta,
    InvalidDepth,
    InvalidDimension,
)
from .geom import PointCloud, _json_int, _json_rows, _row_groups

# Cap on 2^(levels * dimension), the number of cells a full grid would hold.
DEFAULT_CELL_BUDGET = 2_000_000

# The deepest grid level: its cell indices all fit the tree's int64 rows.
MAX_LEVELS = 63

Cell = tuple[int, ...]
Cube = tuple[int, Cell]


def _check_exponent(s: float) -> None:
    if not (0.0 < s < math.inf):
        raise AngleLabError("content exponent must be positive and finite")


def _check_grid(dimension: int, levels: int) -> None:
    if dimension < 1:
        raise InvalidDimension("grid dimension must be at least 1")
    if not 0 <= levels <= MAX_LEVELS:
        raise InvalidDepth(f"grid level count must lie in [0, {MAX_LEVELS}]")


class DyadicGrid:
    """Occupied cells of the level-m dyadic subdivision of the unit cube.

    Cell (i1, ..., id) is the product of the intervals
    [i_j * 2^(-m), (i_j + 1) * 2^(-m)).
    """

    def __init__(self, dimension: int, levels: int, occupied: Iterable[Cell]) -> None:
        _check_grid(dimension, levels)
        # one pass in C per rule; booleans are not cell indices
        cells = list(occupied)
        if not set(map(len, cells)) <= {dimension}:
            raise InvalidDimension(f"cells must have {dimension} coordinates")
        if not set(map(type, chain.from_iterable(cells))) <= {int}:
            raise AngleLabError("cell coordinates must be integers")
        low = min(chain.from_iterable(cells), default=0)
        high = max(chain.from_iterable(cells), default=0)
        if low < 0 or high >= 1 << levels:
            raise AngleLabError(f"cells must lie in [0, 2^{levels})^d")
        rows = np.fromiter(chain.from_iterable(cells), np.int64).reshape(-1, dimension)
        order, new = _row_groups(rows)
        self.dimension, self.levels, self._rows = dimension, levels, rows[order[new]]
        self._rows.setflags(write=False)

    @classmethod
    def _of_rows(cls, dimension: int, levels: int, rows: np.ndarray) -> "DyadicGrid":
        """The grid of `rows` as they stand: distinct, sorted, in range."""
        grid = cls.__new__(cls)
        grid.dimension, grid.levels, grid._rows = dimension, levels, rows
        rows.setflags(write=False)
        return grid

    @cached_property
    def occupied(self) -> frozenset[Cell]:
        return frozenset(map(tuple, self._rows.tolist()))

    def __len__(self) -> int:
        return len(self._rows)

    def _key(self) -> tuple:
        return self.dimension, self.levels, self._rows.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DyadicGrid) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def cell_rows(self) -> np.ndarray:
        """The occupied cells as lexicographically sorted int64 rows, (n, d)."""
        return self._rows

    def _payload(self) -> dict:
        """`to_json_dict()` with the cells left as the sorted int64 rows."""
        return {"dimension": self.dimension, "levels": self.levels, "occupied": self._rows}

    def to_json_dict(self) -> dict:
        return {**self._payload(), "occupied": self._rows.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DyadicGrid":
        if not isinstance(data, dict) or not {"dimension", "levels", "occupied"} <= data.keys():
            raise AngleLabError("grid JSON needs 'dimension', 'levels' and 'occupied'")
        d = _json_int(data, "dimension")
        cells = _json_rows(data, "grid", "occupied", d, {int})
        return cls(d, _json_int(data, "levels"), cells)


def from_points(
    cloud: PointCloud, m: int, budget: int = DEFAULT_CELL_BUDGET
) -> DyadicGrid:
    """Mark every level-m cell holding a cloud point.

    The cloud must already sit inside the unit cube.  A point on a cell
    boundary goes to the lower-index cell, so the full grid of cell
    corners rasterizes deterministically.
    """
    if m < 0:
        raise InvalidDepth("grid level count must be non-negative")
    d = cloud.dimension
    # 2^(m*d) > budget, without building 2^(m*d)
    if budget < 1 or m * d >= budget.bit_length():
        raise BudgetExceeded(
            f"a level-{m} grid in dimension {d} holds 2^{m * d} cells"
        )
    pts = cloud.points
    if len(cloud) and (pts.min() < 0.0 or pts.max() > 1.0):
        raise AngleLabError("points must lie inside the unit cube")
    _check_grid(d, m)
    side = 1 << m
    cells = pts * side
    # ceil(x) - 1 in one float and one integer buffer, clamped to [1, side]
    # before the cast: uint64 holds side = 2^63 at m = 63
    np.clip(np.ceil(cells, out=cells), 1, side, out=cells)
    idx = cells.astype(np.uint64)
    idx -= 1
    idx = idx.view(np.int64)
    order, new = _row_groups(idx)
    return DyadicGrid._of_rows(d, m, idx[order[new]])


def _tree_values(
    grid: DyadicGrid, s: float
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per-level arrays of the nonempty nodes with their minimal cover values.

    cells[j] holds the nonempty level-j cubes as lexicographically sorted
    int64 index rows, and parents[j] gives each one's row in cells[j-1]
    (parents[0] is empty).  values[j] is the cheapest cover of the occupied
    cells inside each cube; flags[j] says whether the cube itself achieves
    it (ties prefer the coarser cube).
    """
    m, d = grid.levels, grid.dimension
    cells = [grid.cell_rows()]
    values = [np.full(len(cells[0]), (2.0 ** (-m)) ** s)]
    flags = [np.ones(len(cells[0]), dtype=bool)]
    parents = []
    for j in range(m - 1, -1, -1):
        half = cells[0] >> 1
        order, new = _row_groups(half)
        cells.insert(0, half[order[new]])
        parents.insert(0, np.empty(len(half), dtype=np.intp))
        parents[0][order] = np.cumsum(new) - 1
        # np.add.at adds in index order, so each parent gets the canonical
        # left-to-right sum of its children in sorted order
        sums = np.zeros(len(cells[0]))
        np.add.at(sums, parents[0], values[0])
        own = (2.0 ** (-j)) ** s
        flags.insert(0, own <= sums)
        values.insert(0, np.where(flags[0], own, sums))
    parents.insert(0, np.zeros(0, dtype=np.intp))
    return cells, values, flags, parents


@dataclass(frozen=True)
class ContentResult:
    """Value of the minimal dyadic cover and the antichain achieving it."""

    value: float
    exponent: float
    cover: tuple[Cube, ...]

    def _payload(self) -> dict:
        """`to_json_dict()` with the cover as int64 arrays (levels (k,), cells
        (k, d)); d is 0 for an empty cover, whose cubes give no dimension."""
        k, d = len(self.cover), len(self.cover[0][1]) if self.cover else 0
        levels = np.array([level for level, _ in self.cover], dtype=np.int64)
        cells = np.array([idx for _, idx in self.cover], dtype=np.int64).reshape(k, d)
        return {"value": self.value, "exponent": self.exponent, "cover": (levels, cells)}

    def to_json_dict(self) -> dict:
        return {**self._payload(), "cover": [[level, list(idx)] for level, idx in self.cover]}


def dyadic_content(grid: DyadicGrid, s: float) -> ContentResult:
    """Infimum of sum(edge^s) over dyadic-cube covers of the occupied cells.

    Bottom-up over the cube tree: a node is covered either by itself or
    by the best covers of its nonempty children, whichever is cheaper
    (the node wins ties, keeping the cover coarse).
    """
    _check_exponent(s)
    if not len(grid):
        return ContentResult(0.0, float(s), ())
    cells, values, flags, parents = _tree_values(grid, s)
    # top-down: a node is reached when no ancestor took its own cube
    cover: list[Cube] = []
    reached = np.ones(1, dtype=bool)
    for j in range(grid.levels + 1):
        if j:
            reached = (reached & ~flags[j - 1])[parents[j]]
        cover += [(j, tuple(idx)) for idx in cells[j][reached & flags[j]].tolist()]
    return ContentResult(float(values[0][0]), float(s), tuple(cover))


class DenseCubeResult(NamedTuple):
    cube: Cube
    normalized_content: float
    meets_lemma: bool


def _densest_cube(
    cells: list[np.ndarray], values: list[np.ndarray], s: float, top_level: int
) -> tuple[Cube, float]:
    """Cube of level <= top_level maximizing its tree value over edge^s, and that ratio.

    Ties go to the coarsest level, then the smallest index.
    """
    best: Cube | None = None
    best_val = -1.0
    for level in range(top_level + 1):
        ratios = values[level] / (2.0 ** (-level)) ** s
        k = int(np.argmax(ratios))
        if ratios[k] > best_val:
            best_val = float(ratios[k])
            best = (level, tuple(cells[level][k].tolist()))
    assert best is not None
    return best, best_val


def dense_cube(grid: DyadicGrid, s: float) -> DenseCubeResult:
    """Dyadic cube maximizing content of the restriction over edge^s.

    Ties go to the coarsest level, then the smallest index.  meets_lemma
    reports whether the maximum clears the density threshold 2^(-2-s).
    """
    if not len(grid):
        raise EmptyGrid("dense cube search needs an occupied cell")
    _check_exponent(s)
    cells, values, _, _ = _tree_values(grid, s)
    best, best_val = _densest_cube(cells, values, s, grid.levels)
    return DenseCubeResult(best, best_val, best_val >= 2.0 ** (-2.0 - s))


@dataclass(frozen=True)
class ZoomResult:
    """A dense cube together with its restriction rescaled to the unit cube."""

    cube: Cube
    normalized_content: float
    passes_claim: bool
    rescaled: DyadicGrid

    def _payload(self) -> dict:
        """`to_json_dict()` with the rescaled grid as its `_payload()`."""
        return {
            "cube": [self.cube[0], list(self.cube[1])],
            "normalized_content": self.normalized_content,
            "passes_claim": self.passes_claim,
            "rescaled": self.rescaled._payload(),
        }

    def to_json_dict(self) -> dict:
        return {**self._payload(), "rescaled": self.rescaled.to_json_dict()}


def microset_zoom(grid: DyadicGrid, s: float, delta: float) -> ZoomResult:
    """Zoom into the cube maximizing normalized (s - 2*delta)-content.

    Only cubes with edge at least 2^(ceil(m*delta/(2d)) - m) compete, so
    the zoomed piece keeps a definite share of the original resolution.
    The claim threshold 2^(-s-2) uses the undamped exponent s.
    """
    if not (0.0 < delta < s / 2.0):
        raise InvalidDelta("need 0 < delta < s/2")
    _check_exponent(s)
    if not len(grid):
        raise EmptyGrid("zoom needs an occupied cell")
    m, d = grid.levels, grid.dimension
    max_level = m - math.ceil(m * delta / (2.0 * d))
    if max_level < 0:
        raise InvalidDelta("delta admits no cube at this grid resolution")
    s_zoom = s - 2.0 * delta
    cells, values, _, _ = _tree_values(grid, s_zoom)
    best, best_val = _densest_cube(cells, values, s_zoom, max_level)
    level, anchor = best
    shift = m - level
    leaves = cells[m]
    # a constant row off sorted distinct rows leaves them sorted and distinct
    inside = leaves[(leaves >> shift == anchor).all(axis=1)] - (np.array(anchor) << shift)
    rescaled = DyadicGrid._of_rows(d, shift, inside)
    passes = best_val >= 2.0 ** (-s - 2.0)
    return ZoomResult(best, best_val, passes, rescaled)

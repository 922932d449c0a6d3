"""Reference dyadic tree: the dict-of-tuples pass that the per-level arrays replaced.

`tree_values`, `dyadic_content`, `densest_cube`, `dense_cube` and
`microset_zoom` keep the bodies the library had before it stored each tree
level as sorted index arrays; `content_payload` and `zoom_payload` are the
`content` and `zoom` subcommands' JSON built from them.  `FrozenGrid` is
the grid as it was before it held its cells as sorted int64 rows: a
frozenset of tuples, sorted on every `cell_rows()` call.
`unique_tree_values` is the per-level array pass as it was before it
grouped rows by lexsort: one `np.unique(axis=0)` per level.  Tests compare
the library against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from anglelab.content import (
    MAX_LEVELS,
    ContentResult,
    DenseCubeResult,
    ZoomResult,
)
from anglelab.errors import (
    AngleLabError,
    EmptyGrid,
    InvalidDelta,
    InvalidDepth,
    InvalidDimension,
)


@dataclass(frozen=True)
class FrozenGrid:
    dimension: int
    levels: int
    occupied: frozenset

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise InvalidDimension("grid dimension must be at least 1")
        if not 0 <= self.levels <= MAX_LEVELS:
            raise InvalidDepth(f"grid level count must lie in [0, {MAX_LEVELS}]")
        cells = self.occupied
        if not set(map(len, cells)) <= {self.dimension}:
            raise InvalidDimension(f"cells must have {self.dimension} coordinates")
        if not set(map(type, chain.from_iterable(cells))) <= {int}:
            raise AngleLabError("cell coordinates must be integers")
        low = min(chain.from_iterable(cells), default=0)
        high = max(chain.from_iterable(cells), default=0)
        if low < 0 or high >= 1 << self.levels:
            raise AngleLabError(f"cells must lie in [0, 2^{self.levels})^d")

    def __len__(self) -> int:
        return len(self.occupied)

    def cell_rows(self) -> np.ndarray:
        return np.array(sorted(self.occupied), dtype=np.int64).reshape(-1, self.dimension)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "levels": self.levels,
            "occupied": self.cell_rows().tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FrozenGrid":
        cells = data["occupied"]
        return cls(data["dimension"], data["levels"], frozenset(map(tuple, cells)))


def unique_tree_values(grid, s):
    m = grid.levels
    cells = [grid.cell_rows()]
    values = [np.full(len(cells[0]), (2.0 ** (-m)) ** s)]
    flags = [np.ones(len(cells[0]), dtype=bool)]
    parents = []
    for j in range(m - 1, -1, -1):
        up, inverse = np.unique(cells[0] >> 1, axis=0, return_inverse=True)
        parents.insert(0, inverse.reshape(-1))
        sums = np.zeros(len(up))
        np.add.at(sums, parents[0], values[0])
        own = (2.0 ** (-j)) ** s
        cells.insert(0, up)
        flags.insert(0, own <= sums)
        values.insert(0, np.where(flags[0], own, sums))
    parents.insert(0, np.zeros(0, dtype=np.intp))
    return cells, values, flags, parents


def tree_values(grid, s):
    m = grid.levels
    values = [dict() for _ in range(m + 1)]
    flags = [dict() for _ in range(m + 1)]
    leaf = (2.0 ** (-m)) ** s
    for cell in grid.occupied:
        values[m][cell] = leaf
        flags[m][cell] = True
    for j in range(m - 1, -1, -1):
        own = (2.0 ** (-j)) ** s
        sums = {}
        for child in sorted(values[j + 1]):
            parent = tuple(c >> 1 for c in child)
            sums[parent] = sums.get(parent, 0.0) + values[j + 1][child]
        for parent, child_sum in sums.items():
            take = own <= child_sum
            values[j][parent] = own if take else child_sum
            flags[j][parent] = take
    return values, flags


def dyadic_content(grid, s):
    if s <= 0.0:
        raise AngleLabError("content exponent must be positive")
    if not grid.occupied:
        return ContentResult(0.0, float(s), ())
    values, flags = tree_values(grid, s)
    root = (0,) * grid.dimension
    cover = []
    stack = [(0, root)]
    while stack:
        level, idx = stack.pop()
        if flags[level][idx]:
            cover.append((level, idx))
            continue
        for child in values[level + 1]:
            if tuple(c >> 1 for c in child) == idx:
                stack.append((level + 1, child))
    cover.sort()
    return ContentResult(values[0][root], float(s), tuple(cover))


def densest_cube(values, s, top_level):
    best = None
    best_val = -1.0
    for level in range(top_level + 1):
        edge_pow = (2.0 ** (-level)) ** s
        for idx in sorted(values[level]):
            ratio = values[level][idx] / edge_pow
            if ratio > best_val:
                best_val = ratio
                best = (level, idx)
    assert best is not None
    return best, best_val


def dense_cube(grid, s):
    if not grid.occupied:
        raise EmptyGrid("dense cube search needs an occupied cell")
    if s <= 0.0:
        raise AngleLabError("content exponent must be positive")
    values, _ = tree_values(grid, s)
    best, best_val = densest_cube(values, s, grid.levels)
    return DenseCubeResult(best, best_val, best_val >= 2.0 ** (-2.0 - s))


def microset_zoom(grid, s, delta):
    if not (0.0 < delta < s / 2.0):
        raise InvalidDelta("need 0 < delta < s/2")
    if not grid.occupied:
        raise EmptyGrid("zoom needs an occupied cell")
    m, d = grid.levels, grid.dimension
    max_level = m - math.ceil(m * delta / (2.0 * d))
    if max_level < 0:
        raise InvalidDelta("delta admits no cube at this grid resolution")
    s_zoom = s - 2.0 * delta
    values, _ = tree_values(grid, s_zoom)
    best, best_val = densest_cube(values, s_zoom, min(max_level, m))
    level, anchor = best
    shift = m - level
    inside = [
        cell
        for cell in grid.occupied
        if all(c >> shift == a for c, a in zip(cell, anchor))
    ]
    rel = frozenset(
        tuple(c - (a << shift) for c, a in zip(cell, anchor)) for cell in inside
    )
    rescaled = FrozenGrid(d, shift, rel)
    passes = best_val >= 2.0 ** (-s - 2.0)
    return ZoomResult(best, best_val, passes, rescaled)


def content_payload(grid, s):
    return dyadic_content(grid, s).to_json_dict()


def zoom_payload(grid, s, delta):
    payload = microset_zoom(grid, s, delta).to_json_dict()
    payload["params"] = {"s": s, "delta": delta, "threshold": 2.0 ** (-s - 2.0)}
    return payload

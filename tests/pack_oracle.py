"""Reference packing code: the per-point loops that the library's kernels replaced.

`greedy_pack_indices` is the index-order loop the library ran, with its
3^d neighbour-cell enumeration and its occupied-table scan; the other
functions keep the old bodies of `_well_spread_core` (one `einsum` per
coarse center), the triangle k-scan (every k up to TRIANGLE_SCAN_MAX_K,
two packings each), `color_distances` (one n x n x d difference tensor)
and `minkowski_dimension_estimate` (every scale packed).  Tests compare
the library against them.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from anglelab.anglefind import (
    TRIANGLE_SCAN_MAX_K,
    TriangleWitness,
    _side_ratio,
    find_monochromatic_triangle,
)
from anglelab.dimension import MinkowskiEstimate, _normalize_unit
from anglelab.errors import DegenerateRange, EmptyCloud, InvalidScales, InvalidWindow, TooFewPoints
from anglelab.geom import PointCloud


def greedy_pack_indices(pts: np.ndarray, epsilon: float) -> list[int]:
    n, d = pts.shape
    cell = 2.0 * epsilon
    cells = np.floor(pts / cell).astype(np.int64)
    occupied: dict[tuple[int, ...], list[int]] = {}
    kept: list[int] = []
    enumerate_neighbors = 3**d <= 128
    offsets = (
        list(itertools.product((-1, 0, 1), repeat=d)) if enumerate_neighbors else None
    )
    for i in range(n):
        key = tuple(cells[i])
        if enumerate_neighbors:
            candidates: list[int] = []
            for off in offsets:
                bucket = occupied.get(tuple(k + o for k, o in zip(key, off)))
                if bucket:
                    candidates.extend(bucket)
        else:
            candidates = []
            arr = cells[i]
            for okey, bucket in occupied.items():
                if all(abs(a - b) <= 1 for a, b in zip(okey, arr)):
                    candidates.extend(bucket)
        ok = True
        if candidates:
            diffs = pts[candidates] - pts[i]
            if float(np.einsum("ij,ij->i", diffs, diffs).min()) <= (2.0 * epsilon) ** 2:
                ok = False
        if ok:
            kept.append(i)
            occupied.setdefault(key, []).append(i)
    return kept


def well_spread_core(pts: np.ndarray, k: int, l: int) -> list[int]:
    fine_idx = greedy_pack_indices(pts, 2.0 ** (-k))
    coarse_idx = greedy_pack_indices(pts, 2.0 ** (-l))
    return well_spread_core_of(pts, fine_idx, coarse_idx, l)


def well_spread_core_of(pts: np.ndarray, fine_idx: list[int], coarse_idx: list[int], l: int) -> list[int]:
    """The per-center loop over given fine and coarse packings."""
    fine = pts[fine_idx]
    radius = 2.0 ** (-l + 1)
    best_mask = None
    best_count = -1
    for ci in coarse_idx:
        diffs = fine - pts[ci]
        mask = np.einsum("ij,ij->i", diffs, diffs) <= radius * radius
        count = int(mask.sum())
        if count > best_count:
            best_mask = mask
            best_count = count
    return [fine_idx[j] for j in np.nonzero(best_mask)[0]]


def color_distances(pts: np.ndarray, a: float, n_colors: int) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    diffs = pts[:, None, :] - pts[None, :, :]
    dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    width = 3.0 * a / n_colors
    colors = np.floor((dists - a) / width + 1e-9).astype(np.int64)
    colors = np.clip(colors, 0, n_colors - 1)
    np.fill_diagonal(colors, -1)
    return colors


def triangle_scan(pts: np.ndarray) -> tuple[list[int], int]:
    """The old k-scan: the largest core over every k, and its k."""
    best: list[int] = []
    best_k = 0
    for k in range(2, TRIANGLE_SCAN_MAX_K + 1):
        core = well_spread_core(pts, k, k - 1)
        if len(core) > len(best):
            best = core
            best_k = k
    return best, best_k


def almost_regular_triangle(cloud: PointCloud, delta: float) -> Optional[TriangleWitness]:
    if delta <= 0.0:
        raise InvalidWindow("regularity delta must be positive")
    if len(cloud) < 3:
        raise TooFewPoints("need at least 3 points for a triangle")
    pts = _normalize_unit(cloud.points)
    best, best_k = triangle_scan(pts)
    if len(best) < 3:
        return None
    a = 2.0 ** (-best_k + 1)
    n_colors = max(2, math.ceil(3.0 / delta))
    colors = color_distances(pts[best], a, n_colors)
    triple = find_monochromatic_triangle(colors)
    if triple is None:
        return None
    i, j, m = triple
    vertices = (cloud.point(best[i]), cloud.point(best[j]), cloud.point(best[m]))
    ratio = _side_ratio([np.asarray(p) for p in vertices])
    return TriangleWitness(vertices, ratio, int(colors[i, j]))


def minkowski_dimension_estimate(cloud: PointCloud, k_min: int, k_max: int) -> MinkowskiEstimate:
    if len(cloud) == 0:
        raise EmptyCloud("cannot estimate dimension of an empty cloud")
    if k_min >= k_max:
        raise InvalidScales("need k_min < k_max")
    pts = _normalize_unit(cloud.points)
    n = pts.shape[0]
    scales = []
    for k in range(k_min, k_max + 1):
        count = len(greedy_pack_indices(pts, 2.0 ** (-k)))
        if count < n:
            scales.append((k, count))
    if len(scales) < 2:
        raise DegenerateRange("fewer than 2 scales below the cloud size")
    ks = np.array([k for k, _ in scales], dtype=float)
    logs = np.log2([c for _, c in scales])
    slope, intercept = np.polyfit(ks, logs, 1)
    fitted = slope * ks + intercept
    residual = float(np.sqrt(np.mean((fitted - logs) ** 2)))
    return MinkowskiEstimate(max(0.0, float(slope)), tuple(scales), residual)


def triangle_payload(cloud: PointCloud, delta: float) -> dict:
    """The `triangle` JSON payload of the full scan (no cap reporting)."""
    witness = almost_regular_triangle(cloud, delta)
    if witness is None:
        return {"kind": "triangle", "points": None, "metric": None, "params": {"delta": delta}}
    return witness.to_json_dict({"delta": delta})

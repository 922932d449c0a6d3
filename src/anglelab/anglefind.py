"""Witness searches in finite point clouds: almost-regular triangles via
interval coloring, near-right angles via projection of a well-spread
subset, and extreme (near-0/180) angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dimension import _blocks, _dyadic_packings, _normalize_unit, _well_spread_core
from .errors import (
    AngleLabError,
    InvalidArity,
    InvalidScales,
    InvalidWindow,
    NoFarPoint,
    TooFewPoints,
)
from .geom import (
    Point,
    PointCloud,
    TripleWitness,
    _apex_cosines,
    # benchmarks/tracing.py hooks it through anglefind
    _apex_pair_angles,  # noqa: F401
    _cloud_threshold,
    _projection_pair,
    _triple_witness,
    _witness_json,
)

# Finest scale tried when hunting the distance shell [a, 4a].
TRIANGLE_SCAN_MAX_K = 40
# The extreme search measures the pairs whose cosine lies this close to
# the extreme cosine of their apex.
EXTREME_MARGIN = 1e-9


def ramsey_bound(r: int) -> int:
    """Upper bound 3*r! on the Ramsey number R_r(3), as an exact integer."""
    if r < 2:
        raise InvalidArity("the coloring bound needs at least 2 colors")
    return 3 * math.factorial(r)


@dataclass(frozen=True)
class RegularityParams:
    """Coloring parameters derived from a regularity target delta."""

    delta: float
    n_colors: int
    ramsey_items: int


def _n_colors(delta: float) -> int:
    """N = max(2, ceil(3/delta)), the color count of a regularity target delta."""
    if not (0.0 < delta < math.inf) or 3.0 / delta == math.inf:
        raise InvalidWindow("regularity delta must be positive and finite, and 3/delta finite")
    return max(2, math.ceil(3.0 / delta))


def regularity_params(delta: float) -> RegularityParams:
    """N = max(2, ceil(3/delta)) distance intervals and the 3*N! item guarantee."""
    n_colors = _n_colors(delta)
    return RegularityParams(float(delta), n_colors, ramsey_bound(n_colors))


def color_distances(pts: np.ndarray, a: float, n_colors: int) -> np.ndarray:
    """Color index of each pairwise distance within the shell [a, 4a].

    The shell is split into n_colors half-open intervals
    [a + i*w, a + (i+1)*w) of width w = 3a/n_colors, the last one closed.
    Distances outside the shell are clamped to the nearest end interval.
    Returns a symmetric integer matrix with -1 on the diagonal.
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    width = 3.0 * a / n_colors
    colors = np.empty((n, n), dtype=np.int64)
    # row blocks of at most PAIR_BLOCK pairs keep the pair tensor small; the
    # matrix itself is n x n
    for rows in _blocks(np.full(n, n)):
        diffs = pts[rows, None, :] - pts[None, :, :]
        dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
        # a distance sitting on an interval boundary belongs to the upper
        # interval; the nudge keeps it there when rounding lands a few ulps
        # low (e.g. unit sides of an exact equilateral triple straddling a
        # boundary)
        colors[rows] = np.floor((dists - a) / width + 1e-9)
    np.clip(colors, 0, n_colors - 1, out=colors)
    np.fill_diagonal(colors, -1)
    return colors


def find_monochromatic_triangle(colors: np.ndarray) -> Optional[tuple[int, int, int]]:
    """First triple i < j < m whose three pairwise colors agree."""
    n = colors.shape[0]
    for i in range(n - 2):
        row_i = colors[i]
        for j in range(i + 1, n - 1):
            c = row_i[j]
            hits = np.nonzero((row_i[j + 1 :] == c) & (colors[j, j + 1 :] == c))[0]
            if hits.size:
                return i, j, j + 1 + int(hits[0])
    return None


def _side_ratio(v: list[np.ndarray]) -> float:
    """Longest over shortest side of the triangle with vertices v."""
    sides = [
        float(np.linalg.norm(v[0] - v[1])),
        float(np.linalg.norm(v[1] - v[2])),
        float(np.linalg.norm(v[0] - v[2])),
    ]
    return max(sides) / min(sides)


@dataclass(frozen=True)
class TriangleWitness:
    """Three cloud points whose side lengths agree to within one interval."""

    vertices: tuple[Point, Point, Point]
    side_ratio: float
    color: int

    def recompute_ratio(self) -> float:
        return _side_ratio([np.asarray(p, dtype=float) for p in self.vertices])

    def to_json_dict(self, params: dict | None = None) -> dict:
        params = {"color": self.color, **(params or {})}
        return _witness_json("triangle", self.vertices, self.side_ratio, params)


def almost_regular_triangle(
    cloud: PointCloud, delta: float, limits_hit: list[str] | None = None
) -> Optional[TriangleWitness]:
    """Find three points whose side ratio is at most 1 + delta.

    A well-spread subset with pairwise distances inside one shell
    [a, 4a] is extracted first (adjacent scales l = k - 1, choosing the
    k that maximizes the subset).  Its pairwise distances are colored by
    `_n_colors(delta)` intervals of the shell and the first monochromatic
    triangle found is returned; same color forces the ratio bound.
    Returns None when the subset has no monochromatic triple.

    The scan over k stops after the first k whose coarse packing keeps
    every point (see the README).  It packs a scale only where
    `_dyadic_packings` cannot reuse the packing of the scale before, and
    at each reused scale the core is one point, found without the bucket
    join (see `_well_spread_core`).  When the scan reaches
    TRIANGLE_SCAN_MAX_K first, that name is appended to `limits_hit`, if
    given.
    """
    n_colors = _n_colors(delta)
    if len(cloud) < 3:
        raise TooFewPoints("need at least 3 points for a triangle")
    pts = _normalize_unit(cloud.points)
    best: list[int] = []
    best_k = 0
    packings = _dyadic_packings(pts, range(1, TRIANGLE_SCAN_MAX_K + 1))
    _, coarse = next(packings)
    for k, fine in packings:
        core = _well_spread_core(pts, fine, coarse, k - 1)
        if len(core) > len(best):
            best, best_k = core, k
        if len(coarse) == len(pts):
            break
        coarse = fine
    else:
        if limits_hit is not None:
            limits_hit.append("TRIANGLE_SCAN_MAX_K")
    if len(best) < 3:
        return None
    a = 2.0 ** (-best_k + 1)
    colors = color_distances(pts[best], a, n_colors)
    triple = find_monochromatic_triangle(colors)
    if triple is None:
        return None
    i, j, _ = triple
    vertices = tuple(cloud.point(best[t]) for t in triple)
    ratio = _side_ratio([np.asarray(p) for p in vertices])
    return TriangleWitness(vertices, ratio, int(colors[i, j]))


@dataclass(frozen=True)
class RightAngleWitness:
    """A projection-selected triple whose apex angle is close to 90 degrees."""

    triple: TripleWitness
    deviation: float
    scale_params: tuple[int, int, float]

    def to_json_dict(self) -> dict:
        k, l, t = self.scale_params
        w = self.triple
        params = {"k": k, "l": l, "t": t, "angle": w.angle}
        return _witness_json("right", (w.apex, w.arm1, w.arm2), self.deviation, params)


def near_right_witness(cloud: PointCloud, k: int, l: int) -> RightAngleWitness:
    """Search for an angle near 90 degrees by projecting a well-spread subset.

    The cloud is rescaled to a diameter above 2.  The pair (Q1, Q2) of a
    well-spread subset S at scales (k, l), P left out, whose projections
    onto the line from S's first point to the farthest cloud point P are
    closest gives the angle at Q1 between P and Q2.
    """
    if not (0 < l < k):
        raise InvalidScales("need 0 < l < k")
    if len(cloud) < 3:
        raise TooFewPoints("need at least 3 points")
    pts = cloud.points
    lo = pts.min(axis=0)
    extent = float((pts.max(axis=0) - lo).max())
    if extent <= 0.0:
        raise NoFarPoint("all points coincide; the diameter cannot be rescaled above 2")
    unit = (pts - lo) / extent
    work = unit * 4.0
    (_, coarse), (_, fine) = _dyadic_packings(unit, (l, k))
    core = _well_spread_core(unit, fine, coarse, l)
    origin = work[core[0]]
    dists = np.linalg.norm(work - origin, axis=1)
    p_idx = int(np.argmax(dists))
    direction = (work[p_idx] - origin) / dists[p_idx]
    # P is an arm, so a pair holding it would give two equal arms
    pool = [c for c in core if c != p_idx]
    if len(pool) < 2:
        raise TooFewPoints("the well-spread subset is too small to project")
    spread = work[pool]
    proj = (spread - origin) @ direction

    # ties in the projection gap (common on symmetric clouds) go to the
    # closest pair: the apex angle error grows with the pair's span
    def keys(i, j):
        chord = spread.take(i, axis=0) - spread.take(j, axis=0)
        return np.abs(proj[i] - proj[j]), np.linalg.norm(chord, axis=1)

    i, j = _projection_pair(proj, keys, lambda gap: gap)
    triple = _triple_witness(pts, pool[i], p_idx, pool[j], _cloud_threshold(pts))
    t_achieved = math.log2(len(core)) / (k - l)
    return RightAngleWitness(triple, abs(triple.angle - 90.0), (int(k), int(l), t_achieved))


def near_extreme_witness(cloud: PointCloud, target: str) -> TripleWitness:
    """Exhaustive search for the smallest (zero) or largest (straight) angle.

    The witness is the first extreme triple of the exhaustive stream, in
    (apex, arm1, arm2) order.  Only pairs within EXTREME_MARGIN of the
    apex's extreme cosine are measured: the others are worse by at least
    that many radians, since |d arccos/dc| >= 1.  The scan stops at an
    exact 0 or 180 degrees.
    """
    if target not in ("zero", "straight"):
        raise AngleLabError("target must be 'zero' or 'straight'")
    pts = cloud.points
    n = pts.shape[0]
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, have {n}")
    threshold = _cloud_threshold(pts)
    # the search minimizes sign * angle, and `end` is the least value it can take
    sign, end = (1.0, 0.0) if target == "zero" else (-1.0, -180.0)
    best_val = math.inf
    best: tuple[int, int, int] | None = None
    for a in range(n):
        got = _apex_cosines(pts, a, threshold)
        if got is None:
            continue
        arms, cos = got
        if sign < 0.0:
            np.negative(cos, out=cos)  # the extreme cosine is now the largest
        np.fill_diagonal(cos, -np.inf)
        top = min(1.0, max(-1.0, float(cos.max())))
        i, j = np.nonzero(cos >= top - EXTREME_MARGIN)  # row-major: (i, j) order
        upper = i < j
        i, j = i[upper], j[upper]
        vals = sign * np.degrees(np.arccos(np.clip(sign * cos[i, j], -1.0, 1.0)))
        pos = int(np.argmin(vals))
        if vals[pos] < best_val:
            best_val = vals[pos]
            best = (a, int(arms[i[pos]]), int(arms[j[pos]]))
            if best_val == end:
                break
    if best is None:
        raise TooFewPoints("no apex has two distinct arms")
    return _triple_witness(pts, *best, threshold)

"""Packing numbers, Minkowski dimension estimates, well-spread subsets.

Scale-indexed operations (dimension estimate, well-spread extraction)
first translate the cloud's bounding box to the origin and divide by the
largest per-axis extent, so the data sits in the unit cube and the
dyadic scales 2^(-k) are meaningful.  The greedy packing primitive
itself works on raw coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRange, EmptyCloud, InvalidScales
from .geom import Point, PointCloud, _row_blocks


def _normalize_unit(pts: np.ndarray) -> np.ndarray:
    """Translate the min corner to 0; shrink into the unit cube if needed.

    Clouds already of extent <= 1 are only translated, never stretched:
    the dyadic scale indices k then keep their meaning, and shrinking a
    cloud by a power of two shifts the usable k-range instead of
    silently renormalizing it.
    """
    lo = pts.min(axis=0)
    extent = float((pts.max(axis=0) - lo).max())
    if extent <= 1.0:
        return pts - lo
    return (pts - lo) / extent


def _greedy_pack_indices(pts: np.ndarray, epsilon: float) -> list[int]:
    """Indices kept by index-order greedy packing: pairwise distance > 2*epsilon.

    Kept centers carry pairwise disjoint closed balls of radius epsilon.
    The first unresolved point is always kept, and one vectorised step
    removes every later point within 2*epsilon of it.  Candidates lie in
    the slab of +-1 cells of side 2*epsilon along the widest cell axis,
    found by `searchsorted` in the points sorted on that axis, and must
    be within one cell on every axis before their distance is tested.

    A step takes a run of unresolved points at once and keeps the run up
    to its first point within 2*epsilon of an earlier run point, so a run
    without inner conflicts is kept whole.  A run kept whole doubles the
    next one, a run cut short shrinks it to the kept part, and no run
    enumerates more slab pairs than the cloud has points, unless it is a
    single point.  Needs at least one point.
    """
    n = pts.shape[0]
    cells = np.floor(pts / (2.0 * epsilon)).astype(np.int64)
    limit = (2.0 * epsilon) ** 2
    key = cells[:, np.argmax(cells.max(axis=0) - cells.min(axis=0))]
    order = np.argsort(key, kind="stable")
    lo = np.searchsorted(key[order], key - 1, side="left")
    width = np.searchsorted(key[order], key + 1, side="right") - lo
    alive = np.ones(n, dtype=bool)
    kept = []
    first, span = 0, 1
    while first < n:
        first += int(np.argmax(alive[first:]))
        if not alive[first]:
            break
        run = first + np.flatnonzero(alive[first : first + span])
        ends = np.cumsum(width[run])
        size = max(1, int(np.searchsorted(ends, n, side="right")))
        run, ends, counts = run[:size], ends[:size], width[run[:size]]
        src = np.repeat(run, counts)
        cand = order[np.arange(ends[-1]) + np.repeat(lo[run] - ends + counts, counts)]
        near = alive[cand] & (cand > src)
        src, cand = src[near], cand[near]
        near = (np.abs(cells[cand] - cells[src]) <= 1).all(axis=1)
        src, cand = src[near], cand[near]
        diffs = pts[src] - pts[cand]
        near = np.einsum("ij,ij->i", diffs, diffs) <= limit
        src, cand = src[near], cand[near]
        inner = cand[cand <= run[-1]]
        stop = int(inner.min()) if inner.size else int(run[-1]) + 1
        keep = run[run < stop]
        kept.append(keep)
        alive[keep] = False
        alive[cand[src < stop]] = False
        span = (stop - first) * (1 if inner.size else 2)
        first = stop
    return np.concatenate(kept).tolist()


@dataclass(frozen=True)
class PackingReport:
    """A maximal packing: centers with pairwise distance > 2*epsilon."""

    epsilon: float
    count: int
    centers: tuple[Point, ...]

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "count": self.count,
            "centers": [list(c) for c in self.centers],
        }


def packing_number_greedy(cloud: PointCloud, epsilon: float) -> PackingReport:
    """Greedy (index-order) maximal packing of the cloud at radius epsilon.

    Every cloud point is within 2*epsilon of some returned center, so
    the count is sandwiched between the optimal packing numbers at
    2*epsilon and epsilon.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot pack an empty cloud")
    if epsilon <= 0.0:
        raise InvalidScales("packing radius must be positive")
    kept = _greedy_pack_indices(cloud.points, epsilon)
    centers = tuple(cloud.point(i) for i in kept)
    return PackingReport(float(epsilon), len(kept), centers)


@dataclass(frozen=True)
class MinkowskiEstimate:
    """Least-squares fit of log2 P(A, 2^-k) against k."""

    slope: float
    scales: tuple[tuple[int, int], ...]
    fit_residual: float

    def to_json_dict(self) -> dict:
        return {
            "slope": self.slope,
            "scales": [[k, c] for k, c in self.scales],
            "residual": self.fit_residual,
        }


def minkowski_dimension_estimate(
    cloud: PointCloud, k_min: int, k_max: int
) -> MinkowskiEstimate:
    """Empirical upper Minkowski dimension over scales 2^-k, k in [k_min, k_max].

    The cloud is normalized into the unit cube first.  Scales where the
    packing count has reached the cloud size carry no information and
    end the scan; at least two scales must survive.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot estimate dimension of an empty cloud")
    if k_min >= k_max:
        raise InvalidScales("need k_min < k_max")
    pts = _normalize_unit(cloud.points)
    n = pts.shape[0]
    scales = []
    for k in range(k_min, k_max + 1):
        count = len(_greedy_pack_indices(pts, 2.0 ** (-k)))
        if count == n:
            # every pairwise distance exceeds 2^(1-k), so each finer scale
            # keeps all n points too
            break
        scales.append((k, count))
    if len(scales) < 2:
        raise DegenerateRange("fewer than 2 scales below the cloud size")
    ks = np.array([k for k, _ in scales], dtype=float)
    logs = np.log2([c for _, c in scales])
    slope, intercept = np.polyfit(ks, logs, 1)
    fitted = slope * ks + intercept
    residual = float(np.sqrt(np.mean((fitted - logs) ** 2)))
    return MinkowskiEstimate(max(0.0, float(slope)), tuple(scales), residual)


@dataclass(frozen=True)
class WellSpreadResult:
    """Points (in normalized unit-cube coordinates) with pairwise
    distances confined to the two-scale window [2^(-k+1), 2^(-l+2)]."""

    points: tuple[Point, ...]
    k: int
    l: int
    t: float

    @property
    def count(self) -> int:
        return len(self.points)

    @property
    def meets_count_bound(self) -> bool:
        """Whether the count exceeds 2^((k-l)t); favorable scales only."""
        return self.count > 2.0 ** ((self.k - self.l) * self.t)

    def to_json_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "k": self.k,
            "l": self.l,
            "t": self.t,
            "count": self.count,
            "meets_count_bound": self.meets_count_bound,
        }


def _well_spread_core(
    pts: np.ndarray, k: int, l: int, packings: dict[int, list[int]] | None = None
) -> list[int]:
    """Largest bucket of a 2^-k packing inside doubled 2^-l balls.

    `pts` must already live in the unit cube.  Returns row indices of the
    fine-packing points lying in the closed ball of radius 2^(-l+1)
    around the coarse center owning the most of them (ties: lowest
    center index).  `packings` maps a scale j to the indices of the 2^-j
    packing of `pts`; a missing scale is packed and stored there, so a
    scan over adjacent scales packs each scale once.
    """
    packings = {} if packings is None else packings
    for j in (k, l):
        if j not in packings:
            packings[j] = _greedy_pack_indices(pts, 2.0 ** (-j))
    fine_idx, coarse_idx = packings[k], packings[l]
    fine, centers = pts[fine_idx], pts[coarse_idx]
    radius = 2.0 ** (-l + 1)
    limit = radius * radius
    counts = []
    for rows in _row_blocks(len(centers), len(fine)):
        diffs = (fine[None, :, :] - centers[rows, None, :]).reshape(-1, pts.shape[1])
        inside = np.einsum("ij,ij->i", diffs, diffs) <= limit
        counts.append(inside.reshape(-1, len(fine)).sum(axis=1))
    diffs = fine - centers[int(np.argmax(np.concatenate(counts)))]
    inside = np.einsum("ij,ij->i", diffs, diffs) <= limit
    return [fine_idx[j] for j in np.nonzero(inside)[0]]


def well_spread_subset(
    cloud: PointCloud, t: float, k: int, l: int
) -> WellSpreadResult:
    """Extract a subset whose pairwise distances live in one scale window.

    Follows the two-packing construction: a maximal 2^-k packing is
    bucketed by the doubled balls of a maximal 2^-l packing and the
    fullest bucket is returned.  The distance window always holds; the
    count bound count > 2^((k-l)t) holds only at favorable k and is
    reported via meets_count_bound, never enforced.  Points are returned
    in the normalized unit-cube frame in which the window is meaningful.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot extract from an empty cloud")
    if not (0 < l < k):
        raise InvalidScales("need 0 < l < k")
    if t <= 0.0:
        raise InvalidScales("exponent t must be positive")
    pts = _normalize_unit(cloud.points)
    core = pts[_well_spread_core(pts, k, l)]
    return WellSpreadResult(
        tuple(tuple(float(x) for x in p) for p in core), int(k), int(l), float(t)
    )

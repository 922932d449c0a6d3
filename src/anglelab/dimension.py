"""Packing numbers, Minkowski dimension estimates, well-spread subsets.

Scale-indexed operations (dimension estimate, well-spread extraction)
first translate the cloud's bounding box to the origin, and divide by the
largest per-axis extent only when it exceeds 1, so the data sits in the
unit cube without being stretched and the dyadic scales 2^(-k) keep
their meaning.  The greedy packing primitive itself works on raw
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRange, EmptyCloud, InvalidScales
from .geom import PAIR_BLOCK, Point, PointCloud, _column_diffs, _row_groups


def _normalize_unit(pts: np.ndarray) -> np.ndarray:
    """Translate the min corner to 0; shrink into the unit cube if needed.

    Clouds already of extent <= 1 are only translated, never stretched:
    the dyadic scale indices k then keep their meaning, and shrinking a
    cloud by a power of two shifts the usable k-range instead of
    silently renormalizing it.
    """
    if not len(pts):
        return pts
    lo = pts.min(axis=0)
    extent = float((pts.max(axis=0) - lo).max())
    if extent <= 1.0:
        return pts - lo
    return (pts - lo) / extent


def _sq_dists(x: np.ndarray, i: np.ndarray, y: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared lengths of the rows x[i] - y[j], for x and y given by their
    columns (see `_column_diffs`)."""
    diffs = _column_diffs(x, i, y, j)
    return np.einsum("ij,ij->i", diffs, diffs)


def _cells(pts: np.ndarray, side: float) -> np.ndarray:
    """floor(pts / side) as int64 cell indices.  Raises InvalidScales before
    the cast if an index, its ±1 or the difference of any two, which
    `_cell_slab` forms, would leave int64."""
    with np.errstate(all="ignore"):  # inf and NaN, from overflow or side 0, fail the check
        cells = np.floor(pts / side)
    lo, hi = float(cells.min()), float(cells.max())
    if not (-(2.0**63) < lo and hi < 2.0**63 and hi - lo < 2.0**63):
        raise InvalidScales(f"scale too fine: cells of side {side:g} have indices beyond int64")
    return cells.astype(np.int64)


def _blocks(counts: np.ndarray, cap: int = PAIR_BLOCK):
    """Consecutive slices covering `counts`, each the longest run from its
    start whose counts sum to at most `cap`, or one item if that alone
    has more.  Every gather of pairs goes in these blocks of its items'
    pair counts, so it holds at most PAIR_BLOCK pairs, or one item's."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield slice(lo, hi)
        lo = hi


def _cell_slab(cells: np.ndarray, queries: np.ndarray):
    """Pairs of query cells and rows of `cells` within one cell on every axis.

    The rows are sorted stably on the widest axis of `cells`; the slab of
    query q is the sorted stretch whose key is within one of q's, found by
    `searchsorted`.  Yields (rows, q, c) for consecutive `_blocks` of
    queries by slab size: the slice of query rows and, in row order, the
    slab pairs (q, c) of those rows that are within one cell on every axis.
    """
    axis = int(np.argmax(cells.max(axis=0) - cells.min(axis=0)))
    key = cells[:, axis]
    cell_cols, query_cols = cells.T.copy(), queries.T.copy()  # see _column_diffs
    order = np.argsort(key, kind="stable")
    lo = np.searchsorted(key[order], queries[:, axis] - 1, side="left")
    width = np.searchsorted(key[order], queries[:, axis] + 1, side="right") - lo
    del cells, queries, key  # a suspended generator would keep them alive
    for rows in _blocks(width):
        src = np.repeat(np.arange(rows.start, rows.stop), width[rows])
        cand = order[_ragged_range(lo[rows], width[rows])]
        near = np.ones(len(src), dtype=bool)
        for c, q in zip(cell_cols, query_cols):
            near &= np.abs(c[cand] - q[src]) <= 1
        yield rows, src[near], cand[near]


def _ragged_range(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + counts[i]) laid end to end."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


def _greedy_pack_indices(pts: np.ndarray, epsilon: float) -> list[int]:
    """Indices kept by index-order greedy packing: pairwise distance > 2*epsilon.

    Kept centers carry pairwise disjoint closed balls of radius epsilon.
    A point is compared only with the points within one cell of its own
    on every axis, for cells of side 2*epsilon.  The set is decided in
    root rounds over the occupied cells (Blelloch, Fineman & Shun, SPAA
    2012).  The adjacency of the occupied cells, the other cells within
    one cell on every axis, is gathered once through `_cell_slab`; a
    pair of one-point cells whose points are more than 2*epsilon apart
    is left out of it.  In a round, a cell is a root if its first alive
    point is below the first alive point of every adjacent cell.  The
    first point of every root is kept, and every alive point within
    2*epsilon of it, gathered from the root's cell and its adjacent
    cells, dies.  Needs at least one point.

    The rounds keep what the index-order loop keeps.  A root's first
    point p has no alive earlier point in its cell or in an adjacent
    cell, and a point within 2*epsilon of p can lie nowhere else: the
    loop looks in the same cells, and a left-out pair holds no such
    point.  So the loop keeps p too.  Two roots of one round are not
    adjacent, since each would need the smaller first point, so they
    cannot conflict.  Every point that dies is within 2*epsilon of a
    kept earlier point, so the loop drops it too.  Each round has a
    root: the cell of the first alive point.  Distances are those of the
    loop, bit for bit: x - y is exactly -(y - x).
    """
    n = pts.shape[0]
    cells = _cells(pts, 2.0 * epsilon)
    limit = (2.0 * epsilon) ** 2
    cols = pts.T.copy()  # see _column_diffs
    # the alive points, sorted by cell and ascending inside each cell
    live, new_cell = _row_groups(cells)
    live_cell = np.cumsum(new_cell) - 1
    size = np.bincount(live_cell)
    n_cells, leader = len(size), live[new_cell]
    adj, degree = [], np.zeros(n_cells, dtype=np.int64)
    for rows, src, cand in _cell_slab(cells[leader], cells[leader]):
        link = src != cand
        # two one-point cells are linked only if their points conflict
        lone = np.flatnonzero(link & (size[src] == 1) & (size[cand] == 1))
        link[lone] = _sq_dists(cols, leader[src[lone]], cols, leader[cand[lone]]) <= limit
        adj.append(cand[link].astype(np.int32))
        degree[rows] = np.bincount(src[link] - rows.start, minlength=rows.stop - rows.start)
    adj = np.concatenate(adj)
    adj_start = np.cumsum(degree) - degree
    linked = degree > 0
    segments = adj_start[linked]
    # the most points that the kills of a root gather
    reach = size.copy()
    reach[linked] += np.add.reduceat(size[adj], segments)
    alive = np.ones(n, dtype=bool)
    kept = np.zeros(n, dtype=bool)
    while live.size:
        count = np.bincount(live_cell, minlength=n_cells)
        start = np.cumsum(count) - count
        first = np.full(n_cells, n)
        first[count > 0] = live[start[count > 0]]
        lowest = np.full(n_cells, n)
        lowest[linked] = np.minimum.reduceat(first[adj], segments)
        roots = np.flatnonzero(first < lowest)
        kept[first[roots]] = True
        for block in _blocks(reach[roots]):
            chunk = roots[block]
            near = np.concatenate([chunk, adj[_ragged_range(adj_start[chunk], degree[chunk])]])
            owner = first[np.concatenate([chunk, np.repeat(chunk, degree[chunk])])]
            src = np.repeat(owner, count[near])
            cand = live[_ragged_range(start[near], count[near])]
            alive[cand[_sq_dists(cols, src, cols, cand) <= limit]] = False
        survive = alive[live]
        live, live_cell = live[survive], live_cell[survive]
    return np.flatnonzero(kept).tolist()


def _dyadic_packings(pts: np.ndarray, ks):
    """Yield (k, kept) for increasing `ks`, `kept` being the packing at
    radius 2^-k of `pts` in the unit cube.  Past the first packing that
    keeps every point, that list is yielded again without packing: a
    packing at k that keeps every point compared every pair whose cells
    of side 2^(1-k) are within one on every axis, with a squared distance
    above 4^(1-k).  The cells of side 2^(1-j) for j > k nest inside
    those, because division by a power of two is exact, so each pair the
    pass at j would compare was compared at k, and is farther apart than
    its limit 4^(1-j) < 4^(1-k): the pass at j keeps every point too."""
    kept = None
    for k in ks:
        if kept is None or len(kept) < len(pts):
            kept = _greedy_pack_indices(pts, 2.0 ** (-k))
        yield k, kept


@dataclass(frozen=True)
class PackingReport:
    """A maximal packing: centers with pairwise distance > 2*epsilon."""

    epsilon: float
    count: int
    centers: tuple[Point, ...]


def packing_number_greedy(cloud: PointCloud, epsilon: float) -> PackingReport:
    """Greedy (index-order) maximal packing of the cloud at radius epsilon.

    Every cloud point is within 2*epsilon of some returned center, so
    the count is sandwiched between the optimal packing numbers at
    2*epsilon and epsilon.
    """
    if len(cloud) == 0:
        raise EmptyCloud("cannot pack an empty cloud")
    if not (epsilon > 0.0):
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
    scales = []
    for k, kept in _dyadic_packings(pts, range(k_min, k_max + 1)):
        if len(kept) == len(pts):
            break  # each finer scale keeps every point too
        scales.append((k, len(kept)))
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
    pts: np.ndarray, fine_idx: list[int], coarse_idx: list[int], l: int
) -> list[int]:
    """Largest bucket of a fine packing inside the doubled 2^-l balls.

    `pts` must already live in the unit cube, `fine_idx` and `coarse_idx`
    are the indices of packings of `pts`, at radius 2^-k and 2^-l in the
    two-packing construction.  Returns the fine indices lying in the
    closed ball of radius 2^(-l+1) around the coarse center owning the
    most of them (ties: the earliest center in `coarse_idx`).

    Buckets are counted by a cell join: each fine point is tested only
    against the coarse centers within one cell of its own on every axis,
    found by `_cell_slab` on cells of side 2^(-l+1).  The radius is a
    power of two, so the cells are exact, and a pair whose rounded
    distance passes the test is at most one cell apart on every axis,
    once the coordinate just below the radius is counted in cell 1 (its
    difference to twice the radius rounds to the radius itself).
    """
    fine, centers = pts[fine_idx], pts[coarse_idx]
    radius = 2.0 ** (-l + 1)
    limit = radius * radius
    cells = _cells(pts, radius)
    cells[pts == np.nextafter(radius, 0.0)] = 1
    fine_cols, center_cols = fine.T.copy(), centers.T.copy()
    counts = np.zeros(len(centers), dtype=np.int64)
    for _, rows, cols in _cell_slab(cells[coarse_idx], cells[fine_idx]):
        inside = _sq_dists(fine_cols, rows, center_cols, cols) <= limit
        counts += np.bincount(cols[inside], minlength=len(centers))
    diffs = fine - centers[int(np.argmax(counts))]
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
    if not (t > 0.0):
        raise InvalidScales("exponent t must be positive")
    pts = _normalize_unit(cloud.points)
    (_, coarse), (_, fine) = _dyadic_packings(pts, (l, k))
    core = pts[_well_spread_core(pts, fine, coarse, l)]
    return WellSpreadResult(
        tuple(tuple(float(x) for x in p) for p in core), int(k), int(l), float(t)
    )

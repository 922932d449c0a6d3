"""Angles, point clouds, and angle spectra of finite point sets.

All angles are in degrees, as float64.  Inner products are clamped to
[-1, 1] before acos so boundary configurations never produce NaN.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .errors import (
    AngleLabError,
    BudgetExceeded,
    DegenerateVector,
    DimensionMismatch,
    EmptyCloud,
    InvalidDimension,
    InvalidWindow,
    TooFewPoints,
)

Point = tuple[float, ...]

# Degeneracy threshold for a bare pair of points, with no cloud to set a
# scale.  Effectively only exact coincidence is rejected.
DEGENERACY_ABS = 1e-300

# Relative degeneracy threshold used when a cloud supplies a scale.
DEGENERACY_REL = 1e-12

# Pairwise distances are computed in blocks of at most this many pairs.
PAIR_BLOCK = 1 << 16

# Array rows are written as text in blocks of this many rows.
ROW_BLOCK = 1024


def _as_vector(p, dimension: int | None = None) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a point, got shape {v.shape}")
    if dimension is not None and v.shape[0] != dimension:
        raise DimensionMismatch(f"point has dimension {v.shape[0]}, expected {dimension}")
    return v


def angle_at(apex, p, q, threshold: float = DEGENERACY_ABS) -> float:
    """Angle at `apex` between the arms toward `p` and `q`, in degrees.

    Raises DegenerateVector if either arm is shorter than `threshold`,
    and DimensionMismatch if the three points disagree in dimension.
    Swapping the arms returns the exact same float.
    """
    a = _as_vector(apex)
    u = _as_vector(p, a.shape[0]) - a
    v = _as_vector(q, a.shape[0]) - a
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu <= threshold or nv <= threshold:
        raise DegenerateVector("arm too short to define an angle")
    c = float(u @ v) / (nu * nv)
    c = max(-1.0, min(1.0, c))
    return math.degrees(math.acos(c))


def line_pair_angle(a, b, c, d) -> float:
    """Angle in [0, 90] degrees between the lines through (a,b) and (c,d).

    Exactly invariant under swapping a with b, c with d, or the pairs.
    Evaluated as 2*atan2(|u-w|, |u+w|) on unit vectors, w oriented along
    u, which keeps the precision near 0 and 90 that arccos loses.
    """
    a = _as_vector(a)
    u = _as_vector(b, a.shape[0]) - a
    cc = _as_vector(c, a.shape[0])
    v = _as_vector(d, a.shape[0]) - cc
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu <= DEGENERACY_ABS or nv <= DEGENERACY_ABS:
        raise DegenerateVector("segment too short to define a line")
    u = u / nu
    w = v / nv
    if float(u @ w) < 0.0:
        w = -w
    return _unit_angle(u, w)


def _unit_angle(u: np.ndarray, w: np.ndarray) -> float:
    """Angle in degrees between unit vectors u and w, as 2*atan2(|u-w|, |u+w|)."""
    half = math.atan2(
        math.sqrt(float((u - w) @ (u - w))), math.sqrt(float((u + w) @ (u + w)))
    )
    return math.degrees(2.0 * half)


def regular_simplex(n: int) -> np.ndarray:
    """Vertices of a regular n-simplex with unit edges, as an (n+1, n) array.

    Construction: the n+1 standard basis vectors of R^(n+1) scaled by
    1/sqrt(2) have unit pairwise distances; they are mapped isometrically
    onto R^n with an orthonormal basis of the sum-zero subspace (signed
    Helmert rows).  Vertex 0 lands at the origin and vertex 1 at e_1.
    """
    if n < 1:
        raise InvalidDimension("simplex dimension must be >= 1")
    verts = np.eye(n + 1) / math.sqrt(2.0)
    basis = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        basis[k - 1, :k] = -1.0
        basis[k - 1, k] = float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1))
    return (verts - verts[0]) @ basis.T


class PointCloud:
    """Finite points in R^d, copied from the input; of exact duplicates
    only the first is kept."""

    __slots__ = ("_pts", "label")

    def __init__(self, points, dimension: int | None = None, label: str | None = None):
        arr = np.array(points, dtype=float, order="C")
        if arr.size == 0:
            if dimension is None:
                raise DimensionMismatch("empty cloud needs an explicit dimension")
            arr = arr.reshape(0, dimension)
        if arr.ndim != 2:
            raise DimensionMismatch(f"points must form an (n, d) array, got shape {arr.shape}")
        if dimension is not None and arr.shape[1] != dimension:
            raise DimensionMismatch(
                f"points have dimension {arr.shape[1]}, expected {dimension}"
            )
        if not np.all(np.isfinite(arr)):
            raise AngleLabError("coordinates must be finite")
        if arr.shape[0] > 1:
            order, new = _row_groups(arr)
            arr = arr if new.all() else arr[np.sort(order[new])]
        arr.setflags(write=False)
        self._pts = arr
        self.label = label

    @property
    def dimension(self) -> int:
        return int(self._pts.shape[1])

    @property
    def points(self) -> np.ndarray:
        """Read-only (n, d) float64 view of the stored points."""
        return self._pts

    def __len__(self) -> int:
        return int(self._pts.shape[0])

    def point(self, i: int) -> Point:
        return tuple(float(x) for x in self._pts[i])

    def bbox_extent(self) -> float:
        """Largest per-axis extent; 0.0 for empty or single-point clouds."""
        if len(self) == 0:
            return 0.0
        spans = self._pts.max(axis=0) - self._pts.min(axis=0)
        return float(spans.max()) if spans.size else 0.0

    def _payload(self) -> dict:
        """`to_json_dict()` with the points left as the (n, d) array."""
        out = {"dimension": self.dimension, "points": self._pts}
        if self.label is not None:
            out["label"] = self.label
        return out

    def to_json_dict(self) -> dict:
        return {**self._payload(), "points": self._pts.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PointCloud":
        if not isinstance(data, dict) or "dimension" not in data or "points" not in data:
            raise DimensionMismatch("cloud JSON needs 'dimension' and 'points'")
        d = _json_int(data, "dimension")
        if d < 1:
            raise InvalidDimension("cloud dimension must be at least 1")
        rows = _json_rows(data, "cloud", "points", d, {int, float})
        try:
            pts = np.fromiter(chain.from_iterable(rows), float, count=len(rows) * d)
        except OverflowError:  # an integer beyond the float range
            raise AngleLabError("coordinates must be finite") from None
        return cls(pts.reshape(len(rows), d), dimension=d, label=data.get("label"))

    def to_csv(self) -> str:
        """One line of `repr` floats per point, each line ending in a newline."""
        return "".join(_format_rows(self._pts, ",".join(["%s"] * self.dimension) + "\n", ""))

    @classmethod
    def from_csv(cls, text: str) -> "PointCloud":
        rows = [
            [float(tok) for tok in line.split(",")]
            for line in map(str.strip, text.splitlines())
            if line
        ]
        if not rows:
            raise EmptyCloud("no points in CSV input")
        if len(set(map(len, rows))) > 1:
            raise DimensionMismatch("CSV rows have inconsistent widths")
        return cls(rows)

    def __repr__(self) -> str:
        return f"PointCloud(n={len(self)}, d={self.dimension}, label={self.label!r})"


def _format_rows(arr: np.ndarray, row: str, sep: str):
    """Yield `sep.join(row % r for r in arr)` for an (n, d) int or float
    array, one part per ROW_BLOCK rows and `sep` between those parts.

    `row` holds one `%s` per column, filled with the `repr` that `json`
    writes, once per distinct bit pattern (so -0.0 keeps its own).
    """
    flat = np.ascontiguousarray(arr).reshape(-1)
    bits, where = np.unique(flat.view(f"u{flat.itemsize}"), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(flat.dtype).tolist())), dtype=object)
    n, d = arr.shape
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        if lo:
            yield sep
        yield sep.join([row] * (hi - lo)) % tuple(texts[where[lo * d : hi * d]].tolist())


def _json_int(data: dict, key: str) -> int:
    """data[key] if it is a JSON integer; null, floats and booleans are rejected."""
    value = data[key]
    if type(value) is not int:
        raise AngleLabError(f"JSON '{key}' must be an integer, not {value!r}")
    return value


def _json_rows(data: dict, kind: str, key: str, d: int, types: set[type]) -> list:
    """data[key] if it is a list of lists, each `d` long, of values whose
    type is in `types`: JSON numbers {int, float} or integers {int}.

    Each rule is one pass in C.  Checking types exactly rejects strings,
    booleans and null, which would otherwise be read as numbers.
    """
    rows = data[key]
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        raise DimensionMismatch(f"{kind} JSON '{key}' must be a list of coordinate lists")
    if not set(map(len, rows)) <= {d}:
        raise DimensionMismatch("point length disagrees with declared dimension")
    if not set(map(type, chain.from_iterable(rows))) <= types:
        raise AngleLabError(
            f"{kind} JSON coordinates must be JSON {'numbers' if float in types else 'integers'}"
        )
    return rows


def _column_diffs(x: np.ndarray, i: np.ndarray, y: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The rows x[i] - y[j], for x and y given by their columns: numpy
    gathers from a column much faster than rows from a 2-d array, and the
    difference rows are the same."""
    diffs = np.empty((len(i), len(x)))
    for a, (xa, ya) in enumerate(zip(x, y)):
        np.subtract(xa[i], ya[j], out=diffs[:, a])
    return diffs


def _row_groups(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, new) for a 2-d array without NaN, with at least one column.

    `order` is the stable lexsort of the rows, so equal rows lie next to
    each other in it, first occurrence first; new[i] says that row
    order[i] differs from row order[i - 1].  Rows compare by ==, so -0.0
    equals 0.0.
    """
    order = np.lexsort(arr.T[::-1])
    new = np.zeros(arr.shape[0], dtype=bool)
    new[:1] = True
    for c in arr.T:  # column by column: see _column_diffs
        c = c[order]
        new[1:] |= c[1:] != c[:-1]
    return order, new


@dataclass(frozen=True)
class AngleInterval:
    """Angle window given by center and radius, both in degrees."""

    center: float
    radius: float

    def __post_init__(self):
        if not (0.0 <= self.center <= 180.0) or not (0.0 <= self.radius < math.inf):
            raise InvalidWindow(f"bad angle window ({self.center}, {self.radius})")

    @property
    def lo(self) -> float:
        return self.center - self.radius

    @property
    def hi(self) -> float:
        return self.center + self.radius

    def contains_open(self, angle: float) -> bool:
        return self.lo < angle < self.hi


@dataclass(frozen=True)
class TripleWitness:
    """An apex with two arms and the angle they enclose, in degrees."""

    apex: Point
    arm1: Point
    arm2: Point
    angle: float

    def recompute(self) -> float:
        return angle_at(self.apex, self.arm1, self.arm2)

    def to_json_dict(self, kind: str, params: dict | None = None) -> dict:
        return _witness_json(kind, (self.apex, self.arm1, self.arm2), self.angle, params)


def _triple_witness(
    pts: np.ndarray, apex: int, p: int, q: int, threshold: float = DEGENERACY_ABS
) -> TripleWitness:
    """The witness of rows apex, p and q of `pts`, as the floats of
    `PointCloud.point`, with its angle measured by `angle_at`."""
    a, u, v = (tuple(pts[i].tolist()) for i in (apex, p, q))
    return TripleWitness(a, u, v, angle_at(a, u, v, threshold=threshold))


def _witness_json(kind: str, points, metric: float | None, params: dict | None) -> dict:
    """The JSON payload of every witness: its kind, its points as lists (or
    None), the metric it is judged by and a copy of its parameters or {}."""
    return {
        "kind": kind,
        "points": None if points is None else [list(p) for p in points],
        "metric": metric,
        "params": dict(params or {}),
    }


def _cloud_threshold(pts: np.ndarray) -> float:
    spans = pts.max(axis=0) - pts.min(axis=0)
    diag = math.sqrt(float(spans @ spans))
    return max(DEGENERACY_ABS, DEGENERACY_REL * diag)


def _projection_pair(proj: np.ndarray, keys, lower) -> tuple[int, int]:
    """Positions i < j of the pair with the least (*keys(i, j), i, j), by
    the README's sweep; needs two positions.

    `keys(i, j)` maps equal-length index arrays with i < j to a tuple of
    key arrays, and `lower(gap)`, nondecreasing, bounds the first key of
    every pair whose projections differ by `gap` from below.
    """
    order = np.argsort(proj, kind="stable")
    ranked = proj[order]
    start = np.arange(len(proj) - 1)
    best = None
    s = 1
    while start.size:
        a, b = order[start], order[start + s]
        i, j = np.minimum(a, b), np.maximum(a, b)
        key = keys(i, j)
        tie = np.flatnonzero(key[0] == key[0].min())
        i, j, key = i[tie], j[tie], [k[tie] for k in key]
        t = np.lexsort((j, i, *key[::-1]))[0]
        pair = (*(float(k[t]) for k in key), int(i[t]), int(j[t]))
        best = pair if best is None else min(best, pair)
        s += 1
        start = start[: np.searchsorted(start, len(proj) - s)]
        start = start[lower(ranked[start + s] - ranked[start]) <= best[0]]
    return best[-2], best[-1]


def _apex_cosines(pts: np.ndarray, a: int, threshold: float):
    """Inner products of the unit arms at apex index a, unclipped.

    Returns (arm_indices, cosmat), where cosmat[i, j] belongs to the
    arms toward arm_indices[i] and arm_indices[j] (the diagonal
    included), or None if fewer than two arms are longer than
    `threshold`.
    """
    n = pts.shape[0]
    arms = np.concatenate([np.arange(0, a), np.arange(a + 1, n)])
    vec = pts[arms] - pts[a]
    norms = np.sqrt(np.einsum("ij,ij->i", vec, vec))
    ok = norms > threshold
    arms = arms[ok]
    if arms.shape[0] < 2:
        return None
    unit = vec[ok] / norms[ok][:, None]
    return arms, unit @ unit.T


@functools.lru_cache(maxsize=1)
def _upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(m, k=1), read-only and kept until another m is
    asked for or the exhaustive stream ends."""
    pairs = np.triu_indices(m, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _apex_pair_angles(pts: np.ndarray, a: int, threshold: float):
    """Angles of all unordered arm pairs at apex index a.

    Returns (arm_indices, iu, ju, angles) where angles is the condensed
    upper triangle in lexicographic (i, j) order over arm positions, or
    None if fewer than two valid arms exist.  The index pair (iu, ju) is
    built once per run of apexes with equal arm counts.
    """
    got = _apex_cosines(pts, a, threshold)
    if got is None:
        return None
    arms, cosmat = got
    iu, ju = _upper_pairs(arms.shape[0])
    ang = np.degrees(np.arccos(np.clip(cosmat[iu, ju], -1.0, 1.0)))
    return arms, iu, ju, ang


def _fresh_keys(rng, n: int, take: int, kept: np.ndarray) -> np.ndarray:
    """Keys (apex*n + i)*n + j, i < j, of one round of `take` draws: each
    valid key not in `kept` once, at its first draw, in draw order.  A
    key's first draw is the least draw index in its run of the unstable
    sort."""
    a = rng.integers(0, n, size=take)
    i = rng.integers(0, n, size=take)
    j = rng.integers(0, n, size=take)
    valid = a != i
    valid &= a != j
    valid &= i != j
    # (a*n + lo)*n + hi in the draw arrays, as a*n*n + i + j + lo*(n - 1)
    a *= n * n
    a += i
    a += j
    np.minimum(i, j, out=i)
    i *= n - 1
    a += i
    del i, j
    drawn = a[valid]
    del a, valid
    order = np.argsort(drawn)
    ranked = drawn[order]
    runs = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    first = np.minimum.reduceat(order, runs)
    del order
    first = first[~np.isin(ranked[runs], kept, assume_unique=True)]
    fresh = np.zeros(len(drawn), dtype=bool)
    fresh[first] = True
    return drawn[fresh]


def _sampled_triples(n: int, budget: int, seed: int) -> np.ndarray:
    """Sorted seeded sample of `budget` distinct (apex, i, j) triples, i < j.

    Each round draws index triples and keeps, in draw order, the valid
    ones not kept before; the caller ensures more than `budget` exist.
    Keys (apex*n + i)*n + j bound n by 2^21 - 1.
    """
    if n**3 > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"sampled triple scans take at most 2097151 points, not {n}")
    rng = np.random.default_rng(seed)
    kept = np.empty(0, dtype=np.int64)  # sorted keys
    while len(kept) < budget:
        take = max(1024, 2 * (budget - len(kept)))
        new = np.sort(_fresh_keys(rng, n, take, kept)[: budget - len(kept)])
        kept = np.insert(kept, np.searchsorted(kept, new), new)
    return np.stack([kept // (n * n), kept // n % n, kept % n], axis=1)


def _total_triples(n: int) -> int:
    return n * ((n - 1) * (n - 2) // 2)


def _triple_angle_blocks(pts: np.ndarray, budget: int | None, seed: int):
    """Apex angles of the cloud's triples, as the README's stream of blocks
    (apex, arm1, arm2, angles): index arrays and float64 degrees.

    Triples with an arm no longer than the cloud's degeneracy threshold
    are left out.  Fewer than 3 points, or a budget below 1, are
    rejected before any triple is measured.  The exhaustive stream has
    one block per apex; the sampled one measures consecutive rows of the
    sorted sample, PAIR_BLOCK // d at a time, and holds arrays of one
    such block besides the sample.
    """
    n = pts.shape[0]
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, have {n}")
    if budget is not None and budget < 1:
        raise AngleLabError(f"triple sample budget must be at least 1, not {budget}")
    threshold = _cloud_threshold(pts)
    if budget is not None and budget < _total_triples(n):
        sample = _sampled_triples(n, budget, seed)
        cols = pts.T.copy()  # see _column_diffs
        rows = max(1, PAIR_BLOCK // len(cols))
        for lo in range(0, budget, rows):
            a, i, j = sample[lo : lo + rows].T
            u = _column_diffs(cols, i, cols, a)
            v = _column_diffs(cols, j, cols, a)
            nu = np.sqrt(np.einsum("ij,ij->i", u, u))
            nv = np.sqrt(np.einsum("ij,ij->i", v, v))
            ok = (nu > threshold) & (nv > threshold)
            u = u[ok]
            u /= nu[ok][:, None]
            v = v[ok]
            v /= nv[ok][:, None]
            cos = np.clip(np.einsum("ij,ij->i", u, v), -1.0, 1.0)
            yield a[ok], i[ok], j[ok], np.degrees(np.arccos(cos))
        return
    try:
        for a in range(n):
            got = _apex_pair_angles(pts, a, threshold)
            if got is None:
                continue
            arms, iu, ju, ang = got
            yield np.full(ang.shape[0], a), arms[iu], arms[ju], ang
    finally:
        _upper_pairs.cache_clear()  # no index pair outlives the scan


def _block_hit(cloud: PointCloud, block, window: AngleInterval) -> Optional[TripleWitness]:
    """Witness (angle remeasured by `angle_at`) from the block's first in-window triple."""
    *triple, ang = block
    hit = (ang > window.lo) & (ang < window.hi)
    if not hit.any():
        return None
    t = int(np.argmax(hit))
    return _triple_witness(cloud.points, *(int(index[t]) for index in triple))


def angle_spectrum(
    cloud: PointCloud,
    budget: int | None = None,
    seed: int = 0,
) -> list[tuple[float, TripleWitness]]:
    """All apex angles of the cloud, or of the seeded sample of `budget`
    triples, sorted by angle, then by (apex, arm, arm) index.

    Intended for clouds small enough that the full list fits in memory.
    """
    blocks = _triple_angle_blocks(cloud.points, budget, seed)
    a, i, j, ang = (np.concatenate(column) for column in zip(*blocks))
    points = [cloud.point(k) for k in range(len(cloud))]
    out = []
    for t in np.lexsort((j, i, a, ang)):
        angle = float(ang[t])
        out.append((angle, TripleWitness(points[a[t]], points[i[t]], points[j[t]], angle)))
    return out


def spectrum_hits(
    cloud: PointCloud,
    window: AngleInterval,
    budget: int | None = None,
    seed: int = 0,
) -> Optional[TripleWitness]:
    """First triple, in the stream's order, whose angle is in the open window, or None."""
    for block in _triple_angle_blocks(cloud.points, budget, seed):
        witness = _block_hit(cloud, block, window)
        if witness is not None:
            return witness
    return None

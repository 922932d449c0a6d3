"""Angles, point clouds, and angle spectra of finite point sets.

All angles are in degrees, as float64.  Inner products are clamped to
[-1, 1] before acos so boundary configurations never produce NaN.
"""

from __future__ import annotations

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


def _blocks(counts: np.ndarray, cap: int | None = None):
    """Consecutive slices covering `counts`, each the longest run from its
    start whose counts sum to at most `cap`, or one item if that alone
    has more.  Every gather of pairs goes in these blocks of its items'
    pair counts, so it holds at most PAIR_BLOCK pairs, or one item's.
    `cap` defaults to PAIR_BLOCK as it reads when called."""
    cap = PAIR_BLOCK if cap is None else cap
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(ends):
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + cap, side="right")))
        yield slice(lo, hi)
        lo = hi


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


def _bbox(pts: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Min corner, largest per-axis span and diagonal of the cloud's bounding
    box; raises AngleLabError, before numpy warns, if the squared diagonal
    overflows a float."""
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        spans = pts.max(axis=0) - lo
        diag2 = float(spans @ spans)
    if diag2 == math.inf:
        raise AngleLabError("the squared diagonal of the cloud's bounding box overflows a float")
    return lo, float(spans.max()), math.sqrt(diag2)


def _cloud_threshold(pts: np.ndarray) -> float:
    return max(DEGENERACY_ABS, DEGENERACY_REL * _bbox(pts)[2])


def _projection_pair(proj: np.ndarray, keys, lower) -> tuple[int, int]:
    """Positions i < j of the pair with the least (*keys(i, j), i, j), by
    the README's sweep; needs two positions.

    `keys(i, j)` maps equal-length index arrays with i < j to a tuple of
    key arrays, and `lower(gap)`, nondecreasing, bounds the first key of
    every pair whose projections differ by `gap` from below.

    Each step takes the rank offsets s .. s+w-1 from the start positions
    still live: offset 1 from every start first, then w = s - 1, so each
    step doubles the largest offset visited (1, 2, 3-4, 5-8, ...), but at
    most (n-1) // starts offsets, so no step holds more than n-1 pairs.
    A start drops out once the gap at its next offset bounds the key
    above the best so far, since gaps only grow with the offset.  Within
    a step, pairs are pruned by the previous step's best: a pair that a
    fresher best would have pruned has its first key above that best, so
    strictly above the final one, and can neither win nor tie.  Ties go
    by successive minima over the tied subset, key by key, then i, then
    j, in time linear in the ties.
    """
    n = len(proj)
    order = np.argsort(proj, kind="stable")
    ranked = proj[order]
    start = np.arange(n - 1)
    best = None
    s = w = 1
    while start.size:
        # rebinding i and j frees each rank array before `keys` runs
        if w == 1:
            i, j = order[start], order[start + s]
        else:  # offset s is pruned already
            # a row per offset, so numpy's inner loops run over the starts
            j = np.arange(s, s + w)[:, None] + start
            live = lower(ranked.take(j, mode="clip") - ranked[start]) <= best[0]
            live &= j < n
            i, j = order[np.broadcast_to(start, j.shape)[live]], order[j[live]]
        i, j = np.minimum(i, j), np.maximum(i, j)
        cols = (*keys(i, j), i, j)
        tie = np.flatnonzero(cols[0] == cols[0].min())
        for col in cols[1:]:
            if tie.size == 1:
                break
            tied = col[tie]
            tie = tie[tied == tied.min()]
        t = tie[0]
        pair = (*(float(k[t]) for k in cols[:-2]), int(i[t]), int(j[t]))
        best = pair if best is None else min(best, pair)
        s += w
        start = start[: np.searchsorted(start, n - s)]
        start = start[lower(ranked[start + s] - ranked[start]) <= best[0]]
        w = min(s - 1, (n - 1) // max(start.size, 1))
    return best[-2], best[-1]


def _apex_batch(pts: np.ndarray, apexes: np.ndarray, threshold: float):
    """The exhaustive kernel: (apexes, arms, cos) for a batch of
    consecutive `apexes`, where arm r of apex a is point r + (r >= a) and
    cos[k] holds the inner products of apex k's unit arms, unclipped.

    The batch stops before the first apex with an arm no longer than
    `threshold`; such an apex, if first, is its batch alone, without
    those arms.  The one matmul calls, per apex, the BLAS routine of
    `unit @ unit.T`, so the cosines are those of a one-apex batch.
    """
    r = np.arange(pts.shape[0] - 1)
    arms = r + (r >= apexes[:, None])
    vec = pts[arms] - pts[apexes][:, None]
    rows = vec.reshape(-1, pts.shape[1])
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows)).reshape(arms.shape)
    short = (norms <= threshold).any(axis=1)
    k = max(1, int(np.argmax(short))) if short.any() else len(apexes)
    if short[0]:
        ok = norms[0] > threshold
        arms, vec, norms = arms[:, ok], vec[:, ok], norms[:, ok]
    unit = vec[:k] / norms[:k, :, None]
    return apexes[:k], arms[:k], np.matmul(unit, unit.transpose(0, 2, 1))


def _pair_mask(m: int, lo: int, hi: int) -> np.ndarray:
    """Mask of the pairs i < j among rows lo <= i < hi of an m x m matrix."""
    return np.arange(lo, hi)[:, None] < np.arange(m)


def _pair_angles(cos: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Degrees of the clipped cosines where the `upper` mask, of the same
    shape, is set, in row-major order."""
    ang = cos[upper]
    np.clip(ang, -1.0, 1.0, out=ang)
    np.arccos(ang, out=ang)
    return np.degrees(ang, out=ang)


def _apex_pair_angles(pts: np.ndarray, a: int, threshold: float):
    """Angles of all unordered arm pairs at apex index a: the exhaustive
    stream's kernel for one apex, in one block.

    Returns (arm_indices, iu, ju, angles) where angles is the condensed
    upper triangle in lexicographic (i, j) order over arm positions, or
    None if fewer than two valid arms exist.
    """
    _, arms, cos = _apex_batch(pts, np.array([a]), threshold)
    k = arms.shape[1]
    if k < 2:
        return None
    upper = _pair_mask(k, 0, k)
    return arms[0], *np.nonzero(upper), _pair_angles(cos[0], upper)


def _pair_decoder(apexes: np.ndarray, arms: np.ndarray, lo: int, hi: int):
    """The decoder of a block of the pairs in rows lo, ..., hi - 1 of each
    apex's triangle: block positions to (apex, arm1, arm2) indices."""

    def decode(t):
        k = arms.shape[1]
        upper = np.broadcast_to(_pair_mask(k, lo, hi), (len(apexes), hi - lo, k))
        b, i, j = np.unravel_index(np.flatnonzero(upper)[t], upper.shape)
        return apexes[b], arms[b, i + lo], arms[b, j]

    return decode


def _row_decoder(a: np.ndarray, i: np.ndarray, j: np.ndarray):
    """The decoder of a block whose triples are the rows of (a, i, j)."""
    return lambda t: (a[t], i[t], j[t])


def _fresh_keys(rng, n: int, take: int, kept: np.ndarray, limit: int) -> np.ndarray:
    """Sorted keys (apex*n + i)*n + j, i < j, of one round of `take`
    draws: of the valid keys not in `kept`, the `limit` first drawn (all,
    if fewer).

    If the first `limit` valid draws are distinct and none is in `kept`,
    they are those keys: every other fresh key is first drawn later.
    Otherwise a key's first draw is the least draw index in its run of
    the unstable sort; first draws are distinct, so the limit-th least of
    them keeps exactly `limit` keys.  For n < 2^31, int32 arm draws equal
    int64 ones and leave the generator in the same state."""
    a = rng.integers(0, n, size=take)
    i = rng.integers(0, n, size=take, dtype=np.int32)
    j = rng.integers(0, n, size=take, dtype=np.int32)
    valid = a != i
    valid &= a != j
    valid &= i != j
    a *= n
    a += np.minimum(i, j)
    a *= n
    a += np.maximum(i, j)
    del i, j
    drawn = a[valid]
    del a, valid
    head = np.sort(drawn[:limit])
    if not (head[1:] == head[:-1]).any() and not np.isin(head, kept, assume_unique=True).any():
        return head
    del head
    order = np.argsort(drawn)
    ranked = drawn[order]
    del drawn
    runs = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    first = np.minimum.reduceat(order, runs)
    del order
    keys = ranked[runs]
    del ranked, runs
    fresh = ~np.isin(keys, kept, assume_unique=True)
    keys, first = keys[fresh], first[fresh]
    if len(keys) > limit:
        keys = keys[first <= np.partition(first, limit - 1)[limit - 1]]
    return keys


def _sampled_triples(n: int, budget: int, seed: int) -> np.ndarray:
    """Sorted keys (apex*n + i)*n + j, i < j, of a seeded sample of
    `budget` distinct triples.

    Each round draws index triples and keeps the valid ones not kept
    before, up to the budget, by their first draws; the caller ensures
    more than `budget` exist.
    Keys in int64 bound n by 2^21 - 1.  Peak bytes per budget triple, in
    the first round's 2 draws each: 44 drawing, 66 in the dedupe; 8 held.
    """
    if n**3 > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"sampled triple scans take at most 2097151 points, not {n}")
    rng = np.random.default_rng(seed)
    kept = np.empty(0, dtype=np.int64)  # sorted keys
    while len(kept) < budget:
        take = max(1024, 2 * (budget - len(kept)))
        new = _fresh_keys(rng, n, take, kept, budget - len(kept))
        kept = np.insert(kept, np.searchsorted(kept, new), new)
    return kept


def _total_triples(n: int) -> int:
    return n * ((n - 1) * (n - 2) // 2)


def _triple_angle_blocks(pts: np.ndarray, budget: int | None, seed: int):
    """Apex angles of the cloud's triples, as the README's stream of blocks
    (angles, decode): float64 degrees, and a function from positions in
    the block (an int or an index array) to the (apex, arm1, arm2) indices
    of those triples, which a consumer calls only where it needs them.

    Triples with an arm no longer than the cloud's degeneracy threshold
    are left out.  Fewer than 3 points, or a budget below 1, are
    rejected before any triple is measured.  The exhaustive stream
    measures batches of 1, 2, 4, ... consecutive apexes in one pass, as
    many as keep the stacked m x m cosine matrices, m = n - 1 arms, within
    PAIR_BLOCK entries; an apex with a short arm is its batch alone.  A
    batch is one block, unless its apex has more than PAIR_BLOCK pairs,
    which it yields in runs of whole rows, the `_blocks` of its rows'
    pair counts: the stream then holds that apex's cosines, 8 bytes per
    entry, and one block with the mask of its rows.  The sampled one
    decodes and measures
    consecutive keys of the sorted sample, PAIR_BLOCK // d at a time, and
    holds arrays of one such block besides the sample, 8 bytes per budget
    triple: its peak is about the sampler's 66.
    """
    n = pts.shape[0]
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, have {n}")
    if budget is not None and budget < 1:
        raise AngleLabError(f"triple sample budget must be at least 1, not {budget}")
    threshold = _cloud_threshold(pts)
    if budget is not None and budget < _total_triples(n):
        keys = _sampled_triples(n, budget, seed)
        cols = pts.T.copy()  # see _column_diffs
        rows = max(1, PAIR_BLOCK // len(cols))
        for lo in range(0, budget, rows):
            k = keys[lo : lo + rows]
            a, i, j = k // (n * n), k // n % n, k % n
            u = _column_diffs(cols, i, cols, a)
            v = _column_diffs(cols, j, cols, a)
            nu = np.sqrt(np.einsum("ij,ij->i", u, u))
            nv = np.sqrt(np.einsum("ij,ij->i", v, v))
            ok = (nu > threshold) & (nv > threshold)
            np.divide(u, nu[:, None], out=u, where=ok[:, None])
            np.divide(v, nv[:, None], out=v, where=ok[:, None])
            cos = np.clip(np.einsum("ij,ij->i", u, v)[ok], -1.0, 1.0)
            del u, v, nu, nv
            yield np.degrees(np.arccos(cos)), _row_decoder(a[ok], i[ok], j[ok])
        return
    m = n - 1
    cap = max(1, PAIR_BLOCK // (m * m))
    runs = list(_blocks(np.arange(m - 1, 0, -1)))  # row i holds m - 1 - i pairs
    whole = None  # cap triangles' masks, if one run holds a triangle
    if len(runs) == 1:
        whole = np.broadcast_to(_pair_mask(m, 0, m - 1), (cap, m - 1, m)).copy()
    a, size = 0, 1
    while a < n:
        apexes, arms, cos = _apex_batch(pts, np.arange(a, min(a + size, n)), threshold)
        a += len(apexes)
        size = min(2 * size, cap)
        k = arms.shape[1]  # m, or one apex's arms without its short ones
        batched = k == m and whole is not None
        for run in runs if k == m else _blocks(np.arange(k - 1, 0, -1)):
            lo, hi = run.start, run.stop
            upper = whole[: len(apexes)] if batched else _pair_mask(k, lo, hi)[None]
            yield _pair_angles(cos[:, lo:hi], upper), _pair_decoder(apexes, arms, lo, hi)
            del upper
        del cos  # before the next batch's


def _block_hit(cloud: PointCloud, block, window: AngleInterval) -> Optional[TripleWitness]:
    """Witness (angle remeasured by `angle_at`) from the block's first
    in-window triple, the one position the block decodes."""
    ang, decode = block
    hit = (ang > window.lo) & (ang < window.hi)
    if not hit.any():
        return None
    return _triple_witness(cloud.points, *(int(k) for k in decode(int(np.argmax(hit)))))


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
    columns = [(*decode(np.arange(len(ang))), ang) for ang, decode in blocks]
    a, i, j, ang = (np.concatenate(column) for column in zip(*columns))
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

"""Reference triple-angle scans: the scalar loops that the array stream replaced.

`sampled_triples`, `angle_spectrum` and `spectrum_hits` keep the bodies the
library had before it measured every triple through one stream of array
blocks, and `unique_sampled_triples` the array sampler that found each
key's first draw with a stable `np.unique`; `sampled_block` measures that
sample in one block, as the stream did before it went in row blocks, and
`exhaustive_blocks` yields the exhaustive stream one block per apex, as it
did before it measured apexes in batches; `spectrum_payload` is the
`spectrum` subcommand's JSON built from them.
The exhaustive scans measure each apex with `apex_pair_angles`, the per-apex
angle block as it was before the library split it into a cosine kernel and
an index pair built once per arm count.  `near_extreme_witness` keeps the
apex loop that measured every pair, and `vector_angle_degrees` the
direction angle as it was before it read the library's `_unit_angle`.
`row_runs` cuts a triangle's rows into runs as the exhaustive stream did
before it cut them with the library's `_blocks`.
Tests compare the library against these.
"""

from __future__ import annotations

import math

import numpy as np

from anglelab.errors import AngleLabError, TooFewPoints
from anglelab.geom import TripleWitness, _cloud_threshold, _total_triples, angle_at


def apex_pair_angles(pts, a, threshold):
    n = pts.shape[0]
    arms = np.concatenate([np.arange(0, a), np.arange(a + 1, n)])
    vec = pts[arms] - pts[a]
    norms = np.sqrt(np.einsum("ij,ij->i", vec, vec))
    ok = norms > threshold
    arms = arms[ok]
    if arms.shape[0] < 2:
        return None
    unit = vec[ok] / norms[ok][:, None]
    cosmat = np.clip(unit @ unit.T, -1.0, 1.0)
    iu, ju = np.triu_indices(arms.shape[0], k=1)
    ang = np.degrees(np.arccos(cosmat[iu, ju]))
    return arms, iu, ju, ang


def row_runs(m, cap):
    """Runs [lo, hi) of whole rows of the strict upper triangle of an
    m x m matrix, of at most `cap` pairs each (one row, if it holds
    more)."""
    r = np.arange(m)
    starts = r * (2 * m - 1 - r) // 2  # each row's first pair, row-major
    lo = 0
    while lo < m - 1:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + cap, "right")) - 1)
        yield lo, hi
        lo = hi


def _require_cloud(cloud, least):
    if len(cloud) < least:
        raise TooFewPoints(f"need at least {least} points, have {len(cloud)}")


def sampled_triples(n: int, budget: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, int, int]] = set()
    out = []
    while len(out) < budget:
        take = max(1024, 2 * (budget - len(out)))
        a = rng.integers(0, n, size=take)
        i = rng.integers(0, n, size=take)
        j = rng.integers(0, n, size=take)
        for t in range(take):
            aa, ii, jj = int(a[t]), int(i[t]), int(j[t])
            if ii > jj:
                ii, jj = jj, ii
            if aa == ii or aa == jj or ii == jj:
                continue
            key = (aa, ii, jj)
            if key in seen:
                continue
            seen.add(key)
            out.append(key)
            if len(out) == budget:
                break
    arr = np.array(sorted(out), dtype=np.int64)
    return arr


def unique_sampled_triples(n: int, budget: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    kept = np.empty(0, dtype=np.int64)  # sorted keys
    while len(kept) < budget:
        take = max(1024, 2 * (budget - len(kept)))
        a = rng.integers(0, n, size=take)
        i = rng.integers(0, n, size=take)
        j = rng.integers(0, n, size=take)
        i, j = np.minimum(i, j), np.maximum(i, j)
        drawn = ((a * n + i) * n + j)[(a != i) & (a != j) & (i != j)]
        keys, first = np.unique(drawn, return_index=True)  # first draw of each
        first = first[~np.isin(keys, kept, assume_unique=True)]
        new = np.sort(drawn[np.sort(first)][: budget - len(kept)])
        kept = np.insert(kept, np.searchsorted(kept, new), new)
    return np.stack([kept // (n * n), kept // n % n, kept % n], axis=1)


def sampled_block(pts, budget, seed):
    """The sampled stream as one block (apex, arm1, arm2, angles), measured
    with row gathers of the whole sample, as before it went in row blocks."""
    threshold = _cloud_threshold(pts)
    a, i, j = unique_sampled_triples(pts.shape[0], budget, seed).T
    u = pts[i] - pts[a]
    v = pts[j] - pts[a]
    nu = np.sqrt(np.einsum("ij,ij->i", u, u))
    nv = np.sqrt(np.einsum("ij,ij->i", v, v))
    ok = (nu > threshold) & (nv > threshold)
    u = u[ok] / nu[ok][:, None]
    v = v[ok] / nv[ok][:, None]
    cos = np.clip(np.einsum("ij,ij->i", u, v), -1.0, 1.0)
    return a[ok], i[ok], j[ok], np.degrees(np.arccos(cos))


def exhaustive_blocks(pts):
    """The exhaustive stream, one block (apex, arm1, arm2, angles) per apex."""
    threshold = _cloud_threshold(pts)
    for a in range(pts.shape[0]):
        got = apex_pair_angles(pts, a, threshold)
        if got is not None:
            arms, iu, ju, ang = got
            yield np.full(ang.shape[0], a), arms[iu], arms[ju], ang


def angle_spectrum(cloud, budget=None, seed=0):
    _require_cloud(cloud, 3)
    pts = cloud.points
    n = pts.shape[0]
    threshold = _cloud_threshold(pts)

    quads = []  # (angle, apex, i, j)
    if budget is not None and budget < _total_triples(n):
        triples = sampled_triples(n, budget, seed)
        for a, i, j in triples:
            u = pts[i] - pts[a]
            v = pts[j] - pts[a]
            nu = math.sqrt(float(u @ u))
            nv = math.sqrt(float(v @ v))
            if nu <= threshold or nv <= threshold:
                continue
            c = max(-1.0, min(1.0, float(u @ v) / (nu * nv)))
            quads.append((math.degrees(math.acos(c)), int(a), int(i), int(j)))
    else:
        for a in range(n):
            got = apex_pair_angles(pts, a, threshold)
            if got is None:
                continue
            arms, iu, ju, ang = got
            for t in range(ang.shape[0]):
                quads.append((float(ang[t]), a, int(arms[iu[t]]), int(arms[ju[t]])))

    quads.sort(key=lambda q: (q[0], q[1], q[2], q[3]))
    out = []
    for ang, a, i, j in quads:
        w = TripleWitness(cloud.point(a), cloud.point(i), cloud.point(j), ang)
        out.append((ang, w))
    return out


def spectrum_hits(cloud, window, budget=None, seed=0):
    _require_cloud(cloud, 3)
    pts = cloud.points
    n = pts.shape[0]
    threshold = _cloud_threshold(pts)

    if budget is not None and budget < _total_triples(n):
        triples = sampled_triples(n, budget, seed)
        for a, i, j in triples:
            u = pts[i] - pts[a]
            v = pts[j] - pts[a]
            nu = math.sqrt(float(u @ u))
            nv = math.sqrt(float(v @ v))
            if nu <= threshold or nv <= threshold:
                continue
            c = max(-1.0, min(1.0, float(u @ v) / (nu * nv)))
            ang = math.degrees(math.acos(c))
            if window.contains_open(ang):
                exact = angle_at(cloud.point(a), cloud.point(i), cloud.point(j))
                return TripleWitness(cloud.point(a), cloud.point(i), cloud.point(j), exact)
        return None

    for a in range(n):
        got = apex_pair_angles(pts, a, threshold)
        if got is None:
            continue
        arms, iu, ju, ang = got
        hit = (ang > window.lo) & (ang < window.hi)
        if hit.any():
            t = int(np.argmax(hit))
            i, j = int(arms[iu[t]]), int(arms[ju[t]])
            exact = angle_at(cloud.point(a), cloud.point(i), cloud.point(j))
            return TripleWitness(cloud.point(a), cloud.point(i), cloud.point(j), exact)
    return None


def spectrum_payload(cloud, window, alpha, radius, budget=None, seed=0):
    witness = spectrum_hits(cloud, window, budget=budget, seed=seed)
    total = _total_triples(len(cloud))
    exhaustive = budget is None or budget >= total
    if exhaustive:  # apex by apex, so that large clouds need no witness per triple
        blocks = (block[3] for block in exhaustive_blocks(cloud.points))
    else:
        pairs = angle_spectrum(cloud, budget=budget, seed=seed)
        blocks = [np.array([a for a, _ in pairs], dtype=float)]
    edges = np.linspace(0.0, 180.0, 37)
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    for angles in blocks:
        counts += np.histogram(angles, bins=edges)[0]
    return {
        "window": [window.lo, window.hi],
        "exhaustive": exhaustive,
        "total_triples": total,
        "scanned": int(counts.sum()),
        "witness": None
        if witness is None
        else witness.to_json_dict("spectrum", {"alpha": alpha, "radius": radius}),
        "histogram": [
            [float(edges[i]), float(edges[i + 1]), int(counts[i])]
            for i in range(len(counts))
        ],
    }


def near_extreme_witness(cloud, target):
    if target not in ("zero", "straight"):
        raise AngleLabError("target must be 'zero' or 'straight'")
    if len(cloud) < 3:
        raise TooFewPoints("need at least 3 points")
    pts = cloud.points
    threshold = _cloud_threshold(pts)
    sign = 1.0 if target == "zero" else -1.0
    best_val = math.inf
    best = None
    for a in range(pts.shape[0]):
        res = apex_pair_angles(pts, a, threshold)
        if res is None:
            continue
        arms, iu, ju, ang = res
        vals = sign * ang
        pos = int(np.argmin(vals))
        if vals[pos] < best_val:
            best_val = vals[pos]
            best = (a, int(arms[iu[pos]]), int(arms[ju[pos]]))
    if best is None:
        raise TooFewPoints("no apex has two distinct arms")
    a, i, j = best
    apex, p, q = cloud.point(a), cloud.point(i), cloud.point(j)
    return TripleWitness(apex, p, q, angle_at(apex, p, q, threshold=threshold))


def vector_angle_degrees(u, v):
    un = u / math.sqrt(float(u @ u))
    vn = v / math.sqrt(float(v @ v))
    half = math.atan2(
        math.sqrt(float((un - vn) @ (un - vn))),
        math.sqrt(float((un + vn) @ (un + vn))),
    )
    return math.degrees(2.0 * half)

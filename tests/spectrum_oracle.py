"""Reference triple-angle scans: the scalar loops that the array stream replaced.

`sampled_triples`, `angle_spectrum` and `spectrum_hits` keep the bodies the
library had before it measured every triple through one stream of array
blocks; `spectrum_payload` is the `spectrum` subcommand's JSON built from
them.  Tests compare the library against these.
"""

from __future__ import annotations

import math

import numpy as np

from anglelab.geom import (
    TripleWitness,
    _apex_pair_angles,
    _cloud_threshold,
    _require_cloud,
    _total_triples,
    angle_at,
)


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
            got = _apex_pair_angles(pts, a, threshold)
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
        got = _apex_pair_angles(pts, a, threshold)
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
    pairs = angle_spectrum(cloud, budget=budget, seed=seed)
    angles = np.array([a for a, _ in pairs], dtype=float)
    counts, edges = np.histogram(angles, bins=np.linspace(0.0, 180.0, 37))
    total = _total_triples(len(cloud))
    return {
        "window": [window.lo, window.hi],
        "exhaustive": budget is None or budget >= total,
        "total_triples": total,
        "scanned": len(pairs),
        "witness": None
        if witness is None
        else witness.to_json_dict("spectrum", {"alpha": alpha, "radius": radius}),
        "histogram": [
            [float(edges[i]), float(edges[i + 1]), int(counts[i])]
            for i in range(len(counts))
        ],
    }

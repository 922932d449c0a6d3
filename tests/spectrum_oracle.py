"""Reference triple-angle scans: the scalar loops that the array stream replaced.

`sampled_triples`, `angle_spectrum` and `spectrum_hits` keep the bodies the
library had before it measured every triple through one stream of array
blocks, and `unique_sampled_triples` the array sampler that found each
key's first draw with a stable `np.unique`; `spectrum_payload` is the
`spectrum` subcommand's JSON built from them.  All three scans measure each
apex with `apex_pair_angles`, the per-apex angle block as it was before the
library split it into a cosine kernel and an index pair built once per arm
count.  `near_extreme_witness` keeps the apex loop that measured every
pair, and `supplementary_chain_report` its own copy of the per-apex angle
block (`window_triples`) and of the direction angle
(`vector_angle_degrees`), as they were before both read the library's one
kernel; the chain also records which of its two caps bound, as
`limits_hit`.  Tests compare the library against these.
"""

from __future__ import annotations

import math

import numpy as np

from anglelab.anglefind import CHAIN_ARM_CAP, CHAIN_START_CAP, ChainReport
from anglelab.errors import AngleLabError, InvalidWindow, TooFewPoints
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


def window_triples(pts, active, lo, hi, threshold, max_candidates, limits=None):
    found = []
    for q_pos in range(len(active)):
        q = int(active[q_pos])
        others = np.concatenate([active[:q_pos], active[q_pos + 1 :]])
        if others.shape[0] < 2:
            break
        vec = pts[others] - pts[q]
        norms = np.sqrt(np.einsum("ij,ij->i", vec, vec))
        ok = norms > threshold
        others, vec, norms = others[ok], vec[ok], norms[ok]
        if others.shape[0] < 2:
            continue
        if limits is not None and others.shape[0] > CHAIN_ARM_CAP:
            limits.add("CHAIN_ARM_CAP")
        order = np.lexsort((others, -norms))[:CHAIN_ARM_CAP]
        others, vec, norms = others[order], vec[order], norms[order]
        unit = vec / norms[:, None]
        ang = np.degrees(np.arccos(np.clip(unit @ unit.T, -1.0, 1.0)))
        iu, ju = np.triu_indices(others.shape[0], k=1)
        window = (ang[iu, ju] > lo) & (ang[iu, ju] < hi)
        if not window.any():
            continue
        shorter = np.minimum(norms[iu], norms[ju])
        shorter[~window] = -1.0
        pos = int(np.argmax(shorter))
        p_arm, r_arm = int(others[iu[pos]]), int(others[ju[pos]])
        found.append((p_arm, q, r_arm))
        if len(found) >= max_candidates:
            break
    return found


def _chain_from(pts, start, lo, hi, epsilon, max_steps, threshold, limits):
    triples = [start]
    while len(triples) < max_steps:
        p, q, r = triples[-1]
        radius = epsilon * min(
            float(np.linalg.norm(pts[q] - pts[p])),
            float(np.linalg.norm(pts[q] - pts[r])),
        )
        ball = np.nonzero(np.linalg.norm(pts - pts[p], axis=1) <= radius)[0]
        if ball.shape[0] < 3:
            break
        nxt = window_triples(pts, ball, lo, hi, threshold, 1, limits)
        if not nxt:
            break
        triples.append(nxt[0])
    if len(triples) < 2:
        return None
    dirs = [pts[p] - pts[q] for p, q, _ in triples]
    best_gap = math.inf
    best_pair = None
    for a in range(len(triples) - 1):
        for b in range(a + 1, len(triples)):
            q_a, q_b, r_b = triples[a][1], triples[b][1], triples[b][2]
            if q_a == q_b or r_b == q_b:
                continue
            gap = vector_angle_degrees(dirs[a], dirs[b])
            if gap < best_gap:
                best_gap = gap
                best_pair = (a, b)
    if best_pair is None:
        return None
    a, b = best_pair
    apex = tuple(float(x) for x in pts[triples[b][1]])
    arm1 = tuple(float(x) for x in pts[triples[a][1]])
    arm2 = tuple(float(x) for x in pts[triples[b][2]])
    angle = angle_at(apex, arm1, arm2, threshold=threshold)
    witness = TripleWitness(apex, arm1, arm2, angle)
    return ChainReport(witness, len(triples), best_gap, (a, b))


def supplementary_chain_report(cloud, alpha, delta, epsilon, max_steps):
    if delta <= 0.0 or alpha + delta <= 0.0 or alpha - delta >= 180.0:
        raise InvalidWindow("the angle window around alpha is empty")
    if not (0.0 < epsilon < 1.0):
        raise InvalidWindow("direction tolerance must lie in (0, 1)")
    if len(cloud) < 3:
        raise TooFewPoints("need at least 3 points")
    pts = cloud.points
    threshold = _cloud_threshold(pts)
    lo, hi = alpha - delta, alpha + delta
    limits = set()
    starts = window_triples(pts, np.arange(pts.shape[0]), lo, hi, threshold, CHAIN_START_CAP, limits)
    # the start scan stopped at the cap if an apex after the last start was left
    if len(starts) == CHAIN_START_CAP and starts[-1][1] != pts.shape[0] - 1:
        limits.add("CHAIN_START_CAP")
    best = None
    for p, q, r in starts:
        for labeled in ((p, q, r), (r, q, p)):
            report = _chain_from(pts, labeled, lo, hi, epsilon, max_steps, threshold, limits)
            if report is None:
                continue
            if report.direction_gap < epsilon:
                return _with_limits(report, limits)
            if best is None or report.direction_gap < best.direction_gap:
                best = report
    return None if best is None else _with_limits(best, limits)


def _with_limits(report, limits):
    return ChainReport(report.witness, report.steps, report.direction_gap, report.pair,
                       tuple(sorted(limits)))

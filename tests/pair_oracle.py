"""Reference pair searches: the all-pairs scans that the projection-order sweep replaced.

`near_right_witness` keeps the body the library had when it chose its pair
from an n x n gap matrix and an n x n x d span tensor, with the far point P
left out of the pair as the library leaves it out; `chunked_rectangle_pair`
is the 256-row chunk loop `rectangle_in` ran, with squared distances from
|x|^2 + |y|^2 - 2 x.y; `least_pair` is the brute-force argmin of
(*keys, i, j) over every pair i < j.  Tests compare the library against
these on clouds small enough for all pairs.
"""

from __future__ import annotations

import math

import numpy as np

from anglelab.anglefind import RightAngleWitness
from anglelab.dimension import _greedy_pack_indices, _well_spread_core
from anglelab.errors import InvalidScales, NoFarPoint, TooFewPoints
from anglelab.geom import TripleWitness, _cloud_threshold, angle_at


def least_pair(n: int, keys) -> tuple[int, int]:
    """Positions i < j of the least (*keys(i, j), i, j) over all pairs."""
    iu, ju = np.triu_indices(n, k=1)
    key = keys(iu, ju)
    t = np.lexsort((ju, iu, *key[::-1]))[0]
    return int(iu[t]), int(ju[t])


def chunked_rectangle_pair(pts: np.ndarray, proj: np.ndarray) -> tuple[float, int, int]:
    n = pts.shape[0]
    sq = np.einsum("ij,ij->i", pts, pts)
    best = (math.inf, -1, -1)
    chunk = 256
    for start in range(0, n - 1, chunk):
        stop = min(start + chunk, n - 1)
        rows = np.arange(start, stop)
        d2 = sq[rows][:, None] + sq[None, :] - 2.0 * (pts[rows] @ pts.T)
        d2 = np.maximum(d2, 1e-300)
        ratio2 = (proj[rows][:, None] - proj[None, :]) ** 2 / d2
        mask = np.arange(n)[None, :] <= rows[:, None]
        ratio2[mask] = math.inf
        flat = int(np.argmin(ratio2))
        val = float(ratio2.reshape(-1)[flat])
        if val < best[0]:
            i, j = divmod(flat, n)
            best = (val, start + i, j)
    return best


def near_right_witness(cloud, k: int, l: int) -> RightAngleWitness:
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
    fine, coarse = (_greedy_pack_indices(unit, 2.0**-j) for j in (k, l))
    core = _well_spread_core(unit, fine, coarse, l)
    if len(core) < 2:
        raise TooFewPoints("the well-spread subset is too small to project")
    origin = work[core[0]]
    dists = np.linalg.norm(work - origin, axis=1)
    p_idx = int(np.argmax(dists))
    direction = (work[p_idx] - origin) / dists[p_idx]
    # the pair is chosen among the subset's points other than P
    pool = [c for c in core if c != p_idx]
    if len(pool) < 2:
        raise TooFewPoints("the well-spread subset is too small to project")
    proj = (work[pool] - origin) @ direction
    gaps = np.abs(proj[:, None] - proj[None, :])
    spans = np.linalg.norm(work[pool][:, None, :] - work[pool][None, :, :], axis=2)
    iu, ju = np.triu_indices(len(pool), k=1)
    flat = int(np.lexsort((ju, iu, spans[iu, ju], gaps[iu, ju]))[0])
    q1_idx, q2_idx = pool[int(iu[flat])], pool[int(ju[flat])]
    apex = cloud.point(q1_idx)
    arm_p = cloud.point(p_idx)
    arm_q = cloud.point(q2_idx)
    angle = angle_at(apex, arm_p, arm_q, threshold=_cloud_threshold(pts))
    t_achieved = math.log2(len(core)) / (k - l)
    triple = TripleWitness(apex, arm_p, arm_q, angle)
    return RightAngleWitness(triple, abs(angle - 90.0), (int(k), int(l), t_achieved))

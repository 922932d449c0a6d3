"""Minimum-norm points of convex hulls and distances between hulls.

Small dense instances only: vertex sets are given explicitly and the
active-set iteration solves its KKT systems with dense linear algebra.
The results feed separation certificates, so everything is deterministic:
ties are broken by the lowest vertex index.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, EmptyCloud


def min_norm_point(vertices, tol: float = 1e-12) -> np.ndarray:
    """Point of minimum Euclidean norm in the convex hull of the rows.

    Wolfe's active-set method: grow a corral of vertices, solve for the
    affine minimizer over the corral, and step back toward the previous
    convex combination whenever a coefficient leaves the simplex.  The
    tolerance is relative to the squared scale of the input.  Raises
    BudgetExceeded if the iteration cap of 16*n + 64 steps is reached
    before the optimality test passes.
    """
    pts = np.asarray(vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptyCloud("need a nonempty (n, d) vertex array")
    norms2 = np.einsum("ij,ij->i", pts, pts)
    scale = float(norms2.max())
    if scale == 0.0:
        return np.zeros(pts.shape[1])
    eps = tol * scale

    active = [int(np.argmin(norms2))]
    weights = np.array([1.0])
    x = pts[active[0]].copy()

    cap = 16 * pts.shape[0] + 64
    for _ in range(cap):
        gaps = pts @ x
        j = int(np.argmin(gaps))
        if gaps[j] >= float(x @ x) - eps:
            return x
        if j not in active:
            active.append(j)
            weights = np.append(weights, 0.0)
        while True:
            corral = pts[active]
            k = len(active)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = corral @ corral.T
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
            affine = sol[:k]
            if np.all(affine > tol):
                weights = affine
                x = affine @ corral
                break
            shrinking = affine <= tol
            denom = weights[shrinking] - affine[shrinking]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(denom > 0.0, weights[shrinking] / denom, np.inf)
            theta = float(min(1.0, steps.min()))
            weights = weights + theta * (affine - weights)
            weights[weights < tol] = 0.0
            keep = weights > 0.0
            if not keep.any():
                keep[int(np.argmax(affine))] = True
                weights[keep] = 1.0
            active = [active[t] for t in range(k) if keep[t]]
            weights = weights[keep]
            weights = weights / weights.sum()
            x = weights @ pts[active]
    raise BudgetExceeded(f"Wolfe's method did not converge within {cap} iterations")


def hull_distance(a, b) -> float:
    """A lower bound on the Euclidean distance between the convex hulls of
    two vertex sets, which is the distance up to Wolfe's tolerance when
    they are apart.

    With x the minimum-norm point of the Minkowski difference {u - v} and
    m the least v.x over its vertices v, every point of that hull has
    p.x >= m, so it lies at least m / |x| from 0; the bound is that,
    clipped at 0.  The norm |x| is only an upper bound, and rounding
    noise above 0 where the hulls overlap; 0.0 means separation could
    not be certified.
    """
    pa = np.asarray(a, dtype=float)
    pb = np.asarray(b, dtype=float)
    diff = (pa[:, None, :] - pb[None, :, :]).reshape(-1, pa.shape[1])
    x = min_norm_point(diff)
    norm = float(np.linalg.norm(x))
    if norm == 0.0:
        return 0.0
    return max(0.0, float((diff @ x).min()) / norm)

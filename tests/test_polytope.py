import numpy as np
import pytest

from anglelab.errors import BudgetExceeded, EmptyCloud
from anglelab.polytope import hull_distance, min_norm_point


def _chain_hull(points: np.ndarray) -> np.ndarray:
    pts = sorted(map(tuple, points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.array(lower[:-1] + upper[:-1])


def _polygons_disjoint(pa: np.ndarray, pb: np.ndarray) -> bool:
    # Separating-axis test over the edge normals of both polygons.
    for poly in (pa, pb):
        m = len(poly)
        for i in range(m):
            e = poly[(i + 1) % m] - poly[i]
            axis = np.array([-e[1], e[0]])
            lo_a, hi_a = (pa @ axis).min(), (pa @ axis).max()
            lo_b, hi_b = (pb @ axis).min(), (pb @ axis).max()
            if hi_a < lo_b or hi_b < lo_a:
                return True
    return False


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def _polygon_distance(pa: np.ndarray, pb: np.ndarray) -> float:
    if not _polygons_disjoint(pa, pb):
        return 0.0
    best = np.inf
    for poly1, poly2 in ((pa, pb), (pb, pa)):
        m = len(poly2)
        for p in poly1:
            for i in range(m):
                best = min(
                    best, _point_segment_distance(p, poly2[i], poly2[(i + 1) % m])
                )
    return best


def test_min_norm_origin_inside():
    square = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
    assert np.linalg.norm(min_norm_point(square)) < 1e-9


def test_min_norm_segment():
    x = min_norm_point([[1.0, 1.0], [2.0, 0.0]])
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_min_norm_interior_projection():
    # Closest point of the segment from (2,0) to (0,2) is (1,1).
    x = min_norm_point([[2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_min_norm_single_vertex():
    assert np.allclose(min_norm_point([[3.0, 4.0]]), [3.0, 4.0])


def test_min_norm_empty_rejected():
    with pytest.raises(EmptyCloud):
        min_norm_point(np.zeros((0, 2)))


def test_min_norm_refuses_to_return_past_its_iteration_cap():
    # a negative tolerance makes the optimality test unreachable
    with pytest.raises(BudgetExceeded, match="96 iterations"):
        min_norm_point([[1.0, 0.0], [0.0, 1.0]], tol=-1.0)
    assert np.allclose(min_norm_point([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])


def test_hull_distance_intervals():
    assert abs(hull_distance([[0.0], [1.0]], [[3.0], [5.0]]) - 2.0) < 1e-9


def test_hull_distance_parallel_segments():
    a = [[0.0, 0.0], [1.0, 0.0]]
    b = [[0.0, 1.0], [1.0, 1.0]]
    assert abs(hull_distance(a, b) - 1.0) < 1e-9


def test_hull_distance_overlap_zero():
    a = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]
    b = [[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]]
    assert hull_distance(a, b) < 1e-9


def test_hull_distance_upper_bounded_by_vertex_pairs():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(6, 3)) + rng.normal(size=3)
        d = hull_distance(a, b)
        pairwise = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min()
        assert -1e-12 <= d <= pairwise + 1e-9
        assert abs(d - hull_distance(b, a)) < 1e-9


def test_hull_distance_matches_polygon_oracle():
    rng = np.random.default_rng(29)
    for _ in range(60):
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(6, 2)) + rng.uniform(-4.0, 4.0, size=2)
        expected = _polygon_distance(_chain_hull(a), _chain_hull(b))
        assert abs(hull_distance(a, b) - expected) < 1e-7

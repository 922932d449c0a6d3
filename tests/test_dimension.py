import math

import numpy as np
import pytest

from anglelab import PointCloud
from anglelab.dimension import (
    MinkowskiEstimate,
    PackingReport,
    minkowski_dimension_estimate,
    packing_number_greedy,
    well_spread_subset,
)
from anglelab.errors import DegenerateRange, EmptyCloud, InvalidScales
from anglelab.ifs import gasket_ifs, iterate_cloud


def brute_greedy(pts: np.ndarray, eps: float) -> list[int]:
    # reference greedy without the spatial hash
    kept: list[int] = []
    lim = (2.0 * eps) ** 2
    for i in range(len(pts)):
        if all(float((pts[i] - pts[j]) @ (pts[i] - pts[j])) > lim for j in kept):
            kept.append(i)
    return kept


def optimal_packing(pts: np.ndarray, eps: float) -> int:
    # exact maximum packing via independent sets in the conflict graph
    n = len(pts)
    lim = (2.0 * eps) ** 2
    conflict = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if float((pts[i] - pts[j]) @ (pts[i] - pts[j])) <= lim:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    best = 0
    for mask in range(1 << n):
        ok = True
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            if conflict[i] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


def check_report(report: PackingReport, cloud: PointCloud) -> None:
    centers = np.array(report.centers)
    lim = 2.0 * report.epsilon
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            assert float(np.linalg.norm(centers[i] - centers[j])) > lim
    for p in cloud.points:
        assert min(float(np.linalg.norm(p - c)) for c in centers) <= lim


def gasket_cloud(depth: int) -> PointCloud:
    ifs = gasket_ifs(2, 0.25)
    return iterate_cloud(ifs, depth)


def test_single_point_packs_to_one():
    report = packing_number_greedy(PointCloud([(0.0, 0.0)]), 0.5)
    assert report.count == 1
    assert report.centers == ((0.0, 0.0),)


def test_two_far_points_pack_to_two():
    report = packing_number_greedy(PointCloud([(0.0,), (3.0,)]), 0.5)
    assert report.count == 2


def test_touching_balls_conflict():
    # distance exactly 2*epsilon is a conflict: closed balls must be disjoint
    report = packing_number_greedy(PointCloud([(0.0,), (1.0,)]), 0.5)
    assert report.count == 1
    assert report.centers == ((0.0,),)


def test_greedy_keeps_first_of_conflicting_pair():
    report = packing_number_greedy(PointCloud([(0.5,), (0.6,)]), 0.5)
    assert report.centers == ((0.5,),)


def test_ten_by_ten_grid_all_kept():
    cloud = PointCloud([(float(i), float(j)) for i in range(10) for j in range(10)])
    assert packing_number_greedy(cloud, 0.4).count == 100


def test_packing_invariants_random_clouds():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 4))
        pts = rng.uniform(-2.0, 2.0, size=(n, d))
        cloud = PointCloud(pts)
        eps = float(rng.uniform(0.05, 0.8))
        report = packing_number_greedy(cloud, eps)
        check_report(report, cloud)


def test_hash_matches_brute_greedy():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5):
        for _ in range(12):
            n = int(rng.integers(2, 60))
            pts = rng.uniform(0.0, 1.0, size=(n, d))
            eps = float(rng.uniform(0.02, 0.5))
            cloud = PointCloud(pts)
            report = packing_number_greedy(cloud, eps)
            expected = brute_greedy(cloud.points, eps)
            assert report.count == len(expected)
            assert report.centers == tuple(cloud.point(i) for i in expected)


def test_hash_matches_brute_greedy_with_exact_ties():
    # integer lattices with eps = k/2 exercise distance == 2*epsilon exactly
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(1, 3))
        pts = rng.integers(0, 6, size=(30, d)).astype(float)
        cloud = PointCloud(pts)
        eps = float(rng.integers(1, 4)) / 2.0
        report = packing_number_greedy(cloud, eps)
        expected = brute_greedy(cloud.points, eps)
        assert report.count == len(expected)
        assert report.centers == tuple(cloud.point(i) for i in expected)


def test_greedy_between_optimal_packings():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        cloud = PointCloud(pts)
        eps = float(rng.uniform(0.05, 0.4))
        greedy = packing_number_greedy(cloud, eps).count
        assert optimal_packing(cloud.points, 2.0 * eps) <= greedy
        assert greedy <= optimal_packing(cloud.points, eps)


def test_packing_rejects_bad_input():
    with pytest.raises(EmptyCloud):
        packing_number_greedy(PointCloud([], dimension=2), 0.5)
    with pytest.raises(InvalidScales):
        packing_number_greedy(PointCloud([(0.0,)]), 0.0)
    with pytest.raises(InvalidScales):
        packing_number_greedy(PointCloud([(0.0,)]), -1.0)
    with pytest.raises(InvalidScales, match="packing radius must be positive"):
        packing_number_greedy(PointCloud([(0.0,), (1.0,)]), math.nan)


def test_packing_cells_must_fit_int64():
    # indices 0 and 2^62 fit, and so does their difference
    assert packing_number_greedy(PointCloud([(0.0,), (2.0**62,)]), 0.5).count == 2
    # -2^62 and 2^62 each fit, but their difference does not
    with pytest.raises(InvalidScales, match="scale too fine"):
        packing_number_greedy(PointCloud([(-(2.0**62),), (2.0**62,)]), 0.5)
    # 2^63 does not fit, -2^63 has no -1 in int64, and 1e10 / 2e-300 overflows to inf
    for x, eps in ((2.0**63, 0.5), (-(2.0**63), 0.5), (1e10, 1e-300)):
        with pytest.raises(InvalidScales, match="scale too fine"):
            packing_number_greedy(PointCloud([(0.0,), (x,)]), eps)


def test_segment_dimension_is_one():
    cloud = PointCloud([(x,) for x in np.linspace(0.0, 1.0, 4096)])
    est = minkowski_dimension_estimate(cloud, 2, 8)
    assert est.scales == ((2, 2), (3, 4), (4, 8), (5, 16), (6, 32), (7, 64), (8, 128))
    assert math.isclose(est.slope, 1.0, abs_tol=1e-9)
    assert est.fit_residual < 1e-12


def test_grid_dimension_estimate():
    # Greedy maximal packings on a 64-per-side grid are denser than the
    # ideal 4^k sublattice at coarse scales (boundary points survive at
    # distances just above 2*epsilon), so the fitted slope over k in
    # [2, 5] sits below the asymptotic value 2.
    cloud = PointCloud([(i / 64.0, j / 64.0) for i in range(64) for j in range(64)])
    est = minkowski_dimension_estimate(cloud, 2, 5)
    assert est.scales == ((2, 6), (3, 20), (4, 75), (5, 224))
    assert math.isclose(est.slope, 1.757406785961785, abs_tol=1e-9)
    assert 1.6 < est.slope < 1.9


def test_gasket_dimension_estimate():
    est = minkowski_dimension_estimate(gasket_cloud(6), 2, 6)
    assert est.scales == ((2, 3), (3, 4), (4, 9), (5, 13), (6, 27))
    assert abs(est.slope - math.log(3) / math.log(4)) < 0.08


def test_dimension_estimate_similarity_invariant():
    # unit-extent dyadic grid: power-of-two rescales are exact
    base = PointCloud([(i / 16.0, j / 16.0) for i in range(17) for j in range(17)])
    est = minkowski_dimension_estimate(base, 2, 4)
    # scaling up beyond the unit cube is normalized away: same k-range
    grown = PointCloud(base.points * 8.0)
    est_up = minkowski_dimension_estimate(grown, 2, 4)
    assert abs(est_up.slope - est.slope) < 1e-9
    assert est_up.scales == est.scales
    # shrinking by 2^3 shifts the usable scales by 3
    shrunk = PointCloud(base.points / 8.0 + 5.0)
    est_down = minkowski_dimension_estimate(shrunk, 5, 7)
    assert abs(est_down.slope - est.slope) < 1e-9
    assert tuple(c for _, c in est_down.scales) == tuple(c for _, c in est.scales)


def test_dimension_estimate_drops_saturated_scales():
    cloud = PointCloud([(0.0,), (0.5,), (1.0,)])
    with pytest.raises(DegenerateRange):
        # every scale fine enough to separate all 3 points is dropped
        minkowski_dimension_estimate(cloud, 2, 9)
    with pytest.raises(DegenerateRange):
        minkowski_dimension_estimate(PointCloud([(0.0,), (1.0,)]), 2, 6)


def test_dimension_estimate_rejects_bad_scales():
    cloud = PointCloud([(0.0,), (1.0,)])
    with pytest.raises(InvalidScales):
        minkowski_dimension_estimate(cloud, 5, 5)
    with pytest.raises(EmptyCloud):
        minkowski_dimension_estimate(PointCloud([], dimension=1), 2, 5)


def test_estimate_json_shape():
    est = MinkowskiEstimate(1.5, ((2, 3), (3, 6)), 0.01)
    assert est.to_json_dict() == {
        "slope": 1.5,
        "scales": [[2, 3], [3, 6]],
        "residual": 0.01,
    }


def test_well_spread_window_always_holds():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 80))
        d = int(rng.integers(1, 4))
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(n, d)))
        k = int(rng.integers(2, 7))
        l = int(rng.integers(1, k))
        result = well_spread_subset(cloud, 1.0, k, l)
        pts = np.array(result.points)
        lo = 2.0 ** (-k + 1)
        hi = 2.0 ** (-l + 2)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dist = float(np.linalg.norm(pts[i] - pts[j]))
                assert lo <= dist <= hi


def test_well_spread_grid_example():
    cloud = PointCloud([(i / 64.0, j / 64.0) for i in range(64) for j in range(64)])
    result = well_spread_subset(cloud, 1.5, 5, 3)
    assert result.count == 46
    assert result.count > 2.0 ** ((5 - 3) * 1.5)
    assert result.meets_count_bound


def test_well_spread_segment_example():
    cloud = PointCloud([(x,) for x in np.linspace(0.0, 1.0, 4096)])
    result = well_spread_subset(cloud, 1.0, 6, 5)
    assert result.count >= 2
    assert result.meets_count_bound


def test_well_spread_single_point_reported_unmet():
    result = well_spread_subset(PointCloud([(0.5, 0.5)]), 1.0, 3, 2)
    assert result.count == 1
    assert not result.meets_count_bound


def test_well_spread_right_triangle_bucket():
    cloud = PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    result = well_spread_subset(cloud, 1.0, 2, 1)
    assert result.count == 3


def test_well_spread_rejects_bad_scales():
    cloud = PointCloud([(0.0,), (1.0,)])
    with pytest.raises(InvalidScales):
        well_spread_subset(cloud, 1.0, 3, 3)
    with pytest.raises(InvalidScales):
        well_spread_subset(cloud, 1.0, 3, 0)
    with pytest.raises(InvalidScales):
        well_spread_subset(cloud, 0.0, 3, 2)
    with pytest.raises(InvalidScales, match="exponent t must be positive"):
        well_spread_subset(cloud, math.nan, 3, 2)
    with pytest.raises(EmptyCloud):
        well_spread_subset(PointCloud([], dimension=1), 1.0, 3, 2)


def test_well_spread_json_shape():
    result = well_spread_subset(PointCloud([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), 1.0, 2, 1)
    data = result.to_json_dict()
    assert data["k"] == 2 and data["l"] == 1 and data["t"] == 1.0
    assert data["count"] == 3
    assert data["meets_count_bound"] is True
    assert len(data["points"]) == 3

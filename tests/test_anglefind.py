import math

import numpy as np
import pytest

from anglelab import PointCloud, anglefind
from anglelab.anglefind import (
    RegularityParams,
    RightAngleWitness,
    TriangleWitness,
    almost_regular_triangle,
    color_distances,
    find_monochromatic_triangle,
    near_extreme_witness,
    near_right_witness,
    ramsey_bound,
    regularity_params,
)
from anglelab.errors import (
    AngleLabError,
    InvalidArity,
    InvalidScales,
    InvalidWindow,
    TooFewPoints,
)
from anglelab.geom import _apex_pair_angles, _cloud_threshold, angle_at, regular_simplex
from anglelab.ifs import RectangleWitness


def unit_grid(n: int) -> PointCloud:
    return PointCloud([(i / (n - 1), j / (n - 1)) for i in range(n) for j in range(n)])


EQUILATERAL = PointCloud([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)])


def test_ramsey_bound_small_values():
    assert ramsey_bound(2) == 6
    assert ramsey_bound(3) == 18
    assert ramsey_bound(6) == 2160


def test_ramsey_bound_recurrence_exact():
    # 3*r! = r * 3*(r-1)! in exact integer arithmetic
    for r in range(3, 13):
        assert ramsey_bound(r) == r * ramsey_bound(r - 1)
    assert ramsey_bound(12) == 3 * math.factorial(12)


def test_ramsey_bound_rejects_small_arity():
    for r in (1, 0, -3):
        with pytest.raises(InvalidArity):
            ramsey_bound(r)


def test_regularity_params_values():
    p = regularity_params(1.0)
    assert p == RegularityParams(1.0, 3, 18)
    assert regularity_params(0.3).n_colors == 10
    assert regularity_params(0.3).ramsey_items == 3 * math.factorial(10)
    assert regularity_params(0.05).n_colors == 60
    # very loose delta still keeps two colors
    assert regularity_params(5.0).n_colors == 2
    with pytest.raises(InvalidWindow):
        regularity_params(0.0)
    with pytest.raises(InvalidWindow):
        regularity_params(-1.0)


def test_color_distances_partitions_shell():
    # distances 1, 2.5, 4 in the shell [1, 4] with 3 intervals of width 1
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.5, 0.0]])
    colors = color_distances(pts, 1.0, 3)
    assert colors[0, 0] == colors[1, 1] == colors[2, 2] == -1
    assert colors[0, 1] == 0  # d=1 on the lower edge
    assert colors[1, 2] == 1  # d=2.5 interior
    assert colors[0, 2] == 2  # d=3.5 in the last (closed) interval
    assert np.array_equal(colors, colors.T)


def test_color_distances_clamps_outside_shell():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 0.0]])
    colors = color_distances(pts, 1.0, 4)
    assert colors[0, 1] == 0  # below a
    assert colors[0, 2] == 3  # above 4a, and d=4a itself stays in the last interval
    colors = color_distances(np.array([[0.0, 0.0], [4.0, 0.0]]), 1.0, 4)
    assert colors[0, 1] == 3


def test_color_distances_boundary_rounding():
    # sides of the exact equilateral triple evaluate to 1.0 and
    # 0.9999999999999999; both must land in the same interval even though
    # 1.0 sits exactly on a color boundary for a=0.5, N=60
    colors = color_distances(EQUILATERAL.points, 0.5, 60)
    off_diag = colors[~np.eye(3, dtype=bool)]
    assert set(off_diag.tolist()) == {20}


def test_monochromatic_search_first_in_order():
    n = 5
    colors = np.full((n, n), 1, dtype=np.int64)
    np.fill_diagonal(colors, -1)
    for i, j in ((0, 1), (0, 3), (1, 3)):
        colors[i, j] = colors[j, i] = 2
    assert find_monochromatic_triangle(colors) == (0, 1, 3)


def test_monochromatic_search_pentagon_has_none():
    # 2-coloring of K5: cycle edges one color, diagonals the other; the
    # classic extremal coloring with no monochromatic triangle
    colors = np.full((5, 5), -1, dtype=np.int64)
    for i in range(5):
        for j in range(i + 1, 5):
            colors[i, j] = colors[j, i] = 0 if (j - i) in (1, 4) else 1
    assert find_monochromatic_triangle(colors) is None


def test_monochromatic_search_never_absent_at_bound():
    # any coloring of pairs of 3*N! items with N colors has a
    # monochromatic triple; exercised on random colorings
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n_colors = 2 if seed % 2 else 3
        n = ramsey_bound(n_colors)
        colors = rng.integers(0, n_colors, size=(n, n))
        colors = np.triu(colors, k=1)
        colors = colors + colors.T
        np.fill_diagonal(colors, -1)
        trip = find_monochromatic_triangle(colors)
        assert trip is not None
        i, j, m = trip
        assert colors[i, j] == colors[j, m] == colors[i, m]


def test_equilateral_triple_is_its_own_witness():
    for delta in (0.05, 0.3, 1.0, 2.0):
        w = almost_regular_triangle(EQUILATERAL, delta)
        assert w is not None
        assert w.side_ratio == pytest.approx(1.0, abs=1e-12)
        assert w.recompute_ratio() == pytest.approx(1.0, abs=1e-12)
        assert sorted(w.vertices) == sorted(tuple(p) for p in EQUILATERAL.points)


def test_triangle_ratio_bound_random_clouds():
    # frozen from a 10-seed run; absent clouds are allowed, returned
    # witnesses must honor the ratio contract
    worst = 0.0
    absent = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(0.0, 1.0, size=(500, 2)))
        w = almost_regular_triangle(cloud, 0.3)
        if w is None:
            absent += 1
            continue
        ratio = w.recompute_ratio()
        assert ratio <= 1.3
        assert ratio == pytest.approx(w.side_ratio, abs=1e-12)
        worst = max(worst, ratio)
    assert absent == 3
    assert worst == pytest.approx(1.232318524618137, abs=1e-9)


def test_triangle_ratio_tracks_delta():
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(300, 2)))
    for delta in (0.2, 0.5, 1.0):
        w = almost_regular_triangle(cloud, delta)
        if w is not None:
            assert w.recompute_ratio() <= 1.0 + delta


def test_shell_points_always_yield_triangle():
    # 18 points with pairwise distances inside [a, 4a] and three colors:
    # the coloring bound 3*3! = 18 guarantees a monochromatic triple
    base = np.asarray(regular_simplex(17), dtype=float)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        pts = base * (1.0 + rng.uniform(-0.2, 0.2, size=(18, 1)))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        iu = np.triu_indices(18, k=1)
        a = d.max() / 4.0
        assert d[iu].min() >= a
        trip = find_monochromatic_triangle(color_distances(pts, a, 3))
        assert trip is not None
        i, j, m = trip
        sides = [d[i, j], d[j, m], d[i, m]]
        assert max(sides) / min(sides) <= 2.0


def test_triangle_witness_json_shape():
    w = almost_regular_triangle(EQUILATERAL, 1.0)
    out = w.to_json_dict({"delta": 1.0})
    assert out["kind"] == "triangle"
    assert len(out["points"]) == 3
    assert out["metric"] == w.side_ratio
    assert out["params"]["color"] == w.color
    assert out["params"]["delta"] == 1.0


def test_triangle_input_validation():
    with pytest.raises(TooFewPoints):
        almost_regular_triangle(PointCloud([(0.0, 0.0), (1.0, 1.0)]), 0.5)
    with pytest.raises(InvalidWindow):
        almost_regular_triangle(EQUILATERAL, 0.0)


def test_triangle_colors_with_the_regularity_params_count(monkeypatch):
    seen = []

    def recording(pts, a, n_colors):
        seen.append(n_colors)
        return color_distances(pts, a, n_colors)

    monkeypatch.setattr(anglefind, "color_distances", recording)
    deltas = (0.01, 0.07, 0.1, 0.29, 0.3, 0.31, 0.5, 0.99, 1.0, 1.5, 2.9, 3.0, 5.0)
    for delta in deltas:
        almost_regular_triangle(EQUILATERAL, delta)
    assert seen == [regularity_params(delta).n_colors for delta in deltas]


def test_triangle_search_never_evaluates_the_ramsey_bound(monkeypatch):
    # 3 * N! at N = 3e7 colors would not finish
    cloud = unit_grid(5)
    want = almost_regular_triangle(cloud, 0.3)

    def refuse(r):
        raise AssertionError("the search evaluated ramsey_bound")

    monkeypatch.setattr(anglefind, "ramsey_bound", refuse)
    assert almost_regular_triangle(cloud, 0.3) == want
    assert almost_regular_triangle(EQUILATERAL, 1e-7) is not None


@pytest.mark.parametrize("delta", [math.inf, 1e-320])
def test_color_count_needs_a_finite_delta_and_count(delta):
    with pytest.raises(InvalidWindow, match="positive and finite"):
        regularity_params(delta)
    with pytest.raises(InvalidWindow, match="positive and finite"):
        almost_regular_triangle(EQUILATERAL, delta)


def test_near_right_exact_right_angle():
    tri = PointCloud([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)])
    w = near_right_witness(tri, 2, 1)
    assert w.deviation == 0.0
    assert w.triple.angle == 90.0
    # t = log2(subset size) / (k - l); all three points survive here
    assert w.scale_params == (2, 1, pytest.approx(math.log2(3.0)))
    # one specific triple can never beat the brute-force optimum
    devs = [
        abs(angle_at(p, q, r) - 90.0)
        for p, q, r in (
            ((0, 0), (3, 0), (0, 3)),
            ((3, 0), (0, 0), (0, 3)),
            ((0, 3), (0, 0), (3, 0)),
        )
    ]
    assert w.deviation <= min(devs) + 1e-9


def test_near_right_collinear_reports_honest_90():
    col = PointCloud([(float(x), 0.0) for x in range(5)])
    w = near_right_witness(col, 2, 1)
    assert (w.triple.apex, w.triple.arm1, w.triple.arm2) == ((0.0, 0.0), (4.0, 0.0), (3.0, 0.0))
    assert w.triple.angle == 0.0
    assert w.deviation == 90.0
    # the far point P is an arm, never the apex or the second arm; here the
    # well-spread subset holds P and one other point, which makes no pair
    with pytest.raises(TooFewPoints):
        near_right_witness(PointCloud([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]), 2, 1)


def test_near_right_grid_deviations():
    # frozen values; scanning scales trades subset size against bucket
    # radius, and the deviation shrinks as both l and k-l grow
    w32 = near_right_witness(unit_grid(32), 6, 4)
    assert w32.deviation == pytest.approx(1.0809241866606953, abs=1e-9)
    w64 = near_right_witness(unit_grid(64), 8, 6)
    assert w64.deviation == pytest.approx(0.46580908276499144, abs=1e-9)
    assert w64.deviation <= w32.deviation
    assert w32.deviation < 2.0 and w64.deviation < 2.0


def test_near_right_coarse_scales_are_worse():
    # (5, 2) keeps a bucket whose anchor sits off the grid diagonal, so no
    # projection-tied symmetric pair exists and the parallax stays large;
    # reported honestly rather than tuned away
    w = near_right_witness(unit_grid(32), 5, 2)
    assert w.deviation == pytest.approx(19.65382405805329, abs=1e-9)


def test_near_right_monotone_in_both_scales():
    # deviation is non-increasing along (l, k-l) = (3,2) -> (4,3) -> (5,4)
    for n, frozen in (
        (32, [5.7105931374996, 1.0809241866606953, 0.9710219310791643]),
        (64, [3.7152891054287664, 3.4368197514930188, 0.0]),
    ):
        grid = unit_grid(n)
        devs = [near_right_witness(grid, k, l).deviation for k, l in ((5, 3), (7, 4), (9, 5))]
        assert devs == pytest.approx(frozen, abs=1e-9)
        assert devs[0] >= devs[1] >= devs[2]


def test_near_right_dominates_brute_minimum():
    rng = np.random.default_rng(7)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(40, 2)))
    w = near_right_witness(cloud, 4, 2)
    assert w.deviation == pytest.approx(12.751324529538891, abs=1e-9)
    pts = cloud.points
    thr = _cloud_threshold(pts)
    brute = math.inf
    for a in range(len(pts)):
        res = _apex_pair_angles(pts, a, thr)
        if res is not None:
            brute = min(brute, float(np.abs(res[3] - 90.0).min()))
    assert brute == pytest.approx(0.0014940381257275703, abs=1e-9)
    assert w.deviation >= brute - 1e-9


def test_near_right_json_shape():
    tri = PointCloud([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)])
    out = near_right_witness(tri, 2, 1).to_json_dict()
    assert out["kind"] == "right"
    assert out["metric"] == 0.0
    assert out["params"]["k"] == 2 and out["params"]["l"] == 1
    assert out["params"]["angle"] == 90.0


def test_near_right_input_validation():
    tri = PointCloud([(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)])
    for k, l in ((2, 0), (2, 2), (1, 2), (3, -1)):
        with pytest.raises(InvalidScales):
            near_right_witness(tri, k, l)
    with pytest.raises(TooFewPoints):
        near_right_witness(PointCloud([(0.0, 0.0), (1.0, 0.0)]), 2, 1)


def test_near_extreme_collinear():
    col = PointCloud([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    wz = near_extreme_witness(col, "zero")
    assert wz.angle == 0.0
    assert wz.apex in ((0.0, 0.0), (2.0, 0.0))
    ws = near_extreme_witness(col, "straight")
    assert ws.angle == 180.0
    assert ws.apex == (1.0, 0.0)


def test_near_extreme_matches_exhaustive_scan():
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(60, 2)))
    pts = cloud.points
    thr = _cloud_threshold(pts)
    lo, hi = math.inf, -math.inf
    for a in range(len(pts)):
        res = _apex_pair_angles(pts, a, thr)
        if res is not None:
            lo = min(lo, float(res[3].min()))
            hi = max(hi, float(res[3].max()))
    wz = near_extreme_witness(cloud, "zero")
    ws = near_extreme_witness(cloud, "straight")
    assert wz.angle == pytest.approx(lo, abs=1e-9)
    assert ws.angle == pytest.approx(hi, abs=1e-9)
    assert wz.angle == pytest.approx(0.0010614020433927038, abs=1e-12)
    assert ws.angle == pytest.approx(179.9967588576414, abs=1e-9)


def test_near_extreme_200_points_frozen():
    # matches a full cubic scan (verified once; the scan takes ~20 s)
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(200, 2)))
    assert near_extreme_witness(cloud, "zero").angle == pytest.approx(
        1.878302021753515e-05, abs=1e-15
    )
    assert near_extreme_witness(cloud, "straight").angle == pytest.approx(
        179.9999112485971, abs=1e-9
    )


def test_near_extreme_pigeonhole_bound():
    # n-1 directions around the winning apex pack into [0, 180), so two
    # fall within 180/(n-1) degrees of each other
    for n in (10, 25, 50):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cloud = PointCloud(rng.uniform(0.0, 1.0, size=(n, 2)))
            w = near_extreme_witness(cloud, "zero")
            assert w.angle <= 180.0 / (n - 1) + 1e-9


def test_near_extreme_input_validation():
    col = PointCloud([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(AngleLabError):
        near_extreme_witness(col, "tiny")
    with pytest.raises(TooFewPoints):
        near_extreme_witness(PointCloud([(0.0, 0.0), (1.0, 0.0)]), "zero")


def test_witness_payloads_copy_their_params():
    witness = near_extreme_witness(EQUILATERAL, "zero")
    params = {"target": "zero"}
    corners = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
    for out in (
        witness.to_json_dict("extreme", params),
        RectangleWitness(corners, 0.0).to_json_dict(params),
    ):
        assert out["params"] == params
        assert out["params"] is not params
        out["params"]["target"] = "straight"
        assert params == {"target": "zero"}

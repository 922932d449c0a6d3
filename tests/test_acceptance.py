"""End-to-end gate: the guarantees the package ships with.

Each test states one contract of the library or CLI and checks it
against an independent recomputation (brute force, exhaustive
enumeration, or a closed form) on fixed, seeded inputs.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from anglelab import (
    AngleInterval,
    DyadicGrid,
    PointCloud,
    almost_regular_triangle,
    avoidance_certificate,
    direction_deviation_bound,
    dyadic_content,
    from_points,
    gasket_ifs,
    iterate_cloud,
    line_pair_angle,
    microset_zoom,
    minkowski_dimension_estimate,
    near_right_witness,
    packing_number_greedy,
    ramsey_bound,
    rectangle_in,
    regular_simplex,
    regularity_params,
    similarity_dimension,
    spectrum_hits,
)
from anglelab.cli import main
from anglelab.ifs import SPECIAL_ANGLES

LOG34 = math.log(3.0) / math.log(4.0)


def unit_grid(n: int) -> PointCloud:
    return PointCloud(
        [(i / (n - 1), j / (n - 1)) for i in range(n) for j in range(n)]
    )


def gasket_cloud(n: int, delta: float, depth: int) -> PointCloud:
    ifs = gasket_ifs(n, delta)
    return iterate_cloud(ifs, depth)


def test_simplex_segment_angles_are_special():
    # any two segments between vertices of a regular simplex meet at
    # 0, 60, or 90 degrees, in every dimension
    start = time.monotonic()
    for n in range(2, 11):
        verts = regular_simplex(n)
        pairs = list(itertools.combinations(range(n + 1), 2))
        for (a, b), (c, d) in itertools.combinations(pairs, 2):
            angle = line_pair_angle(verts[a], verts[b], verts[c], verts[d])
            assert min(abs(angle - t) for t in (0.0, 60.0, 90.0)) < 1e-6
    assert time.monotonic() - start < 1.0


def test_gasket_certificate_matches_exhaustive_spectrum():
    # the certificate promises no apex angle in (25, 35); an exhaustive
    # scan of the depth-3 clouds must agree, and every angle must sit
    # within the direction-deviation bound of a special value
    start = time.monotonic()
    window = AngleInterval(30.0, 5.0)
    eps = direction_deviation_bound(0.005)
    assert eps <= 22.85
    specials = np.asarray(SPECIAL_ANGLES)
    for n in (2, 3):
        cert = avoidance_certificate(n, 0.005, window)
        assert cert.certified
        cloud = gasket_cloud(n, 0.005, 3)
        assert len(cloud) == (3, 81, 256)[n - 1]
        assert spectrum_hits(cloud, window) is None
        pts = cloud.points
        for a in range(pts.shape[0]):
            diffs = np.delete(pts, a, axis=0) - pts[a]
            unit = diffs / np.linalg.norm(diffs, axis=1, keepdims=True)
            gram = np.clip(unit @ unit.T, -1.0, 1.0)
            iu = np.triu_indices(unit.shape[0], k=1)
            angles = np.degrees(np.arccos(gram[iu]))
            gap = np.abs(angles[:, None] - specials[None, :]).min(axis=1)
            assert float(gap.max()) <= eps + 1e-9
    assert time.monotonic() - start < 60.0


def test_gasket_dimension_formula_and_box_estimate():
    start = time.monotonic()
    ifs = gasket_ifs(2, 0.25)
    assert abs(similarity_dimension(ifs) - LOG34) < 1e-10
    cloud = gasket_cloud(2, 0.25, 6)
    est = minkowski_dimension_estimate(cloud, 2, 6)
    assert abs(est.slope - 0.7925) <= 0.08
    assert time.monotonic() - start < 30.0


def test_bounded_distance_clouds_always_contain_regular_triangle():
    # 18 points with pairwise distances inside [a, 4a]: three distance
    # colors and the 3*3! = 18 item bound force a monochromatic triple,
    # so a witness with ratio <= 2 must exist for every shell
    params = regularity_params(1.0)
    assert (params.n_colors, params.ramsey_items) == (3, 18)
    base = np.asarray(regular_simplex(17), dtype=float)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pts = base * (1.0 + rng.uniform(-0.2, 0.2, size=(18, 1)))
        dists = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        iu = np.triu_indices(18, k=1)
        assert dists[iu].min() >= dists.max() / 4.0
        witness = almost_regular_triangle(PointCloud(pts), 1.0)
        assert witness is not None
        assert witness.recompute_ratio() <= 2.0
    for r in range(2, 13):
        assert ramsey_bound(r) == 3 * math.factorial(r)


def test_triangle_witness_ratio_never_exceeds_contract():
    # absence is allowed on a random cloud; a returned witness must obey
    # the ratio bound when its sides are recomputed from the vertices
    returned = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.random((500, 2)))
        witness = almost_regular_triangle(cloud, 0.3)
        if witness is not None:
            returned += 1
            assert witness.recompute_ratio() <= 1.3
    # deterministic seed sweep: exactly 30 of the 50 clouds yield one
    assert returned == 30


def test_near_right_deviation_small_and_refining():
    start = time.monotonic()
    dev32 = near_right_witness(unit_grid(32), 6, 4).deviation
    dev64 = near_right_witness(unit_grid(64), 8, 6).deviation
    assert dev32 < 2.0
    assert dev64 < 2.0
    assert dev64 <= dev32
    assert time.monotonic() - start < 10.0


def optimal_packing_count(pts: np.ndarray, epsilon: float) -> int:
    """Largest subset with pairwise distance > 2*epsilon, by bitmask scan."""
    n = pts.shape[0]
    dists = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    conflict = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if j != i and dists[i, j] <= 2.0 * epsilon:
                mask |= 1 << j
        conflict.append(mask)
    best = 0
    for subset in range(1, 1 << n):
        if subset.bit_count() <= best:
            continue
        rest = subset
        while rest:
            i = (rest & -rest).bit_length() - 1
            if conflict[i] & subset:
                break
            rest &= rest - 1
        else:
            best = subset.bit_count()
    return best


def test_greedy_packing_sandwiched_by_optimal():
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 4))
        pts = rng.random((n, d))
        epsilon = float(rng.uniform(0.02, 0.6))
        cloud = PointCloud(pts)
        pts = cloud.points
        greedy = packing_number_greedy(cloud, epsilon).count
        assert optimal_packing_count(pts, 2.0 * epsilon) <= greedy
        assert greedy <= optimal_packing_count(pts, epsilon)


def cover_value_oracle(occupied: frozenset, s: float) -> float:
    """Exhaustive minimum of sum(edge^s) over antichain covers, d=2, m=2.

    Every cover is the root cube alone or, per occupied quadrant, either
    the quadrant cube or its occupied leaves.  Sums associate block-first
    in sorted order so equality with the tree accumulation is exact.
    """
    if not occupied:
        return 0.0
    blocks: dict[tuple, int] = {}
    for cell in sorted(occupied):
        parent = (cell[0] >> 1, cell[1] >> 1)
        blocks[parent] = blocks.get(parent, 0) + 1
    choices = []
    for parent in sorted(blocks):
        leaf_total = 0.0
        for _ in range(blocks[parent]):
            leaf_total += 0.25**s
        choices.append((0.5**s, leaf_total))
    best = 1.0
    for pick in itertools.product((0, 1), repeat=len(choices)):
        total = 0.0
        for (cube, leaves), which in zip(choices, pick):
            total += cube if which == 0 else leaves
        if total < best:
            best = total
    return best


def test_content_tree_matches_exhaustive_cover_minimum():
    rng = np.random.default_rng(8)
    for _ in range(500):
        k = int(rng.integers(1, 17))
        cells = frozenset(
            (int(a), int(b)) for a, b in rng.integers(0, 4, size=(k, 2))
        )
        grid = DyadicGrid(2, 2, cells)
        for s in (0.5, 1.0, 1.5):
            assert dyadic_content(grid, s).value == cover_value_oracle(cells, s)
    full = DyadicGrid(2, 2, frozenset(itertools.product(range(4), repeat=2)))
    for s in (0.5, 1.0, 1.5, 2.0):
        result = dyadic_content(full, s)
        assert result.value == 1.0
        assert result.cover == ((0, (0, 0)),)


def check_zoom_claims(grid: DyadicGrid, s: float, delta: float) -> None:
    result = microset_zoom(grid, s, delta)
    assert result.passes_claim
    level, _ = result.cube
    # cube edge 2^-level stays above the claimed floor
    assert level <= grid.levels - math.ceil(
        grid.levels * delta / (2.0 * grid.dimension)
    )
    assert result.normalized_content >= 2.0 ** (-s - 2.0)
    rescaled = dyadic_content(result.rescaled, s - 2.0 * delta).value
    assert abs(rescaled - result.normalized_content) <= 1e-12


def test_zoom_cube_satisfies_claim_inequalities():
    diagonal = DyadicGrid(2, 4, frozenset((i, i) for i in range(16)))
    check_zoom_claims(diagonal, 1.0, 0.25)
    gasket = from_points(gasket_cloud(2, 0.25, 5), 10)
    check_zoom_claims(gasket, LOG34, 0.1)


def test_rectangle_deviation_shrinks_with_depth():
    ifs = gasket_ifs(2, 0.45)
    shallow = rectangle_in(ifs, 0, 1, 6)
    deep = rectangle_in(ifs, 0, 1, 8)
    assert deep.deviation < 1e-2
    assert deep.deviation < shallow.deviation
    assert shallow.deviation == pytest.approx(3.855491059652127e-05, rel=1e-9)
    assert deep.deviation == pytest.approx(6.118464121011778e-07, rel=1e-9)
    for witness in (shallow, deep):
        a, b, c, d = (np.asarray(p, dtype=float) for p in witness.corners)
        d1 = float(np.linalg.norm(a - c))
        d2 = float(np.linalg.norm(b - d))
        assert abs(d1 - d2) / max(d1, d2) <= witness.deviation


def test_cli_runs_are_byte_identical(tmp_path):
    cloud_g2 = str(tmp_path / "g2.json")
    cloud_g3 = str(tmp_path / "g3.json")
    cloud_g6 = str(tmp_path / "g6.json")
    grid5 = str(tmp_path / "grid5.json")
    assert main(["gasket", "--n", "2", "--delta", "0.005", "--depth", "2", "--out", cloud_g2]) == 0
    assert main(["gasket", "--n", "2", "--delta", "0.25", "--depth", "3", "--out", cloud_g3]) == 0
    assert main(["gasket", "--n", "2", "--delta", "0.25", "--depth", "6", "--out", cloud_g6]) == 0
    assert main(["rasterize", "--cloud", cloud_g3, "--m", "5", "--out", grid5]) == 0
    rng = np.random.default_rng(0)
    c500 = str(tmp_path / "c500.json")
    with open(c500, "w") as fh:
        json.dump(PointCloud(rng.random((500, 2))).to_json_dict(), fh)
    rng = np.random.default_rng(3)
    c60 = str(tmp_path / "c60.json")
    with open(c60, "w") as fh:
        json.dump(PointCloud(rng.random((60, 2))).to_json_dict(), fh)
    g32 = str(tmp_path / "g32.json")
    with open(g32, "w") as fh:
        json.dump(unit_grid(32).to_json_dict(), fh)

    s = repr(LOG34)
    experiments = [
        ["gasket", "--n", "3", "--delta", "0.005", "--depth", "3"],
        ["certify", "--n", "3", "--delta", "0.005", "--alpha", "30", "--window", "5"],
        ["spectrum", "--cloud", cloud_g2, "--alpha", "30", "--window", "5"],
        ["minkdim", "--cloud", cloud_g6, "--kmin", "2", "--kmax", "6"],
        ["triangle", "--cloud", c500, "--delta", "0.3"],
        ["rightangle", "--cloud", g32, "--k", "6", "--l", "4"],
        ["extreme", "--cloud", c60, "--target", "zero"],
        ["rectangle", "--n", "2", "--delta", "0.45", "--f", "0", "--g", "1", "--depth", "6"],
        ["content", "--grid", grid5, "--s", s],
        ["zoom", "--grid", grid5, "--s", s, "--delta", "0.1"],
        ["rasterize", "--cloud", cloud_g3, "--m", "5"],
    ]
    for i, argv in enumerate(experiments):
        first = tmp_path / f"run{i}a.json"
        second = tmp_path / f"run{i}b.json"
        code_a = main(argv + ["--out", str(first)])
        code_b = main(argv + ["--out", str(second)])
        assert code_a == code_b
        assert code_a in (0, 1)
        assert first.read_bytes() == second.read_bytes()

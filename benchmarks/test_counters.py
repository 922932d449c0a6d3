"""Closed-form checks of the traced counters, and of the tracer itself.

Run with `python3 -m pytest benchmarks`.
"""

from __future__ import annotations

import json
import math

import pytest

import run

run.prepare_import()

import anglelab.cli as cli  # noqa: E402
import checks  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
from anglelab.geom import AngleInterval, PointCloud  # noqa: E402


def _gasket(tmp_path, n, delta, depth) -> str:
    path = str(tmp_path / f"gasket-{n}-{delta}-{depth}.json")
    assert cli.main(["gasket", "--n", str(n), "--delta", str(delta), "--depth", str(depth), "--out", path]) == 0
    return path


def _traced_cli(tmp_path, argv) -> tuple[int, dict]:
    with tracing.Tracer() as tracer:
        code = cli.main([*argv, "--out", str(tmp_path / "out.json")])
    return code, tracing.summarize(tracer.spans, tracer.missing_hooks)


@pytest.mark.parametrize("n, depth, triples", [(2, 3, 255_960), (3, 2, 124_992)])
def test_exhaustive_scan_measures_every_triple_once(tmp_path, n, depth, triples):
    text = open(_gasket(tmp_path, n, 0.005, depth)).read()
    cloud = PointCloud.from_json_dict(json.loads(text))
    size = len(cloud)
    assert triples == size * math.comb(size - 1, 2)
    window = AngleInterval(30.0, 5.0)
    # called through the cli namespace, where the tracer installs its wrappers
    with tracing.Tracer() as tracer:
        assert cli.spectrum_hits(cloud, window) is None
    hits = tracing.summarize(tracer.spans)
    assert (hits["geom.triples"], hits["geom.apex_blocks"]) == (triples, size)
    with tracing.Tracer() as tracer:
        cli.angle_spectrum(cloud)
    spectrum = tracing.summarize(tracer.spans)
    assert spectrum["geom.triples"] == spectrum["geom.witnesses"] == triples


@pytest.mark.parametrize("depth, pairs", [(6, 2_390_391), (8, 193_700_403)])
def test_rectangle_pairs_are_all_point_pairs(tmp_path, depth, pairs):
    argv = ["rectangle", "--n", "2", "--delta", "0.45", "--f", "0", "--g", "1", "--depth", str(depth)]
    code, layers = _traced_cli(tmp_path, argv)
    assert code == 0
    assert layers["ifs.rectangle_pairs"] == pairs
    assert layers["polytope.hull_calls"] == 3  # one per map pair of the separation check


def test_triangle_makes_two_packings_per_scale(tmp_path):
    path = tmp_path / "cloud.json"
    points = np.random.default_rng(5).random((500, 2))
    path.write_text(json.dumps({"dimension": 2, "points": points.tolist()}))
    code, layers = _traced_cli(tmp_path, ["triangle", "--cloud", str(path), "--delta", "0.3"])
    assert code in (0, 1)
    # k = 2..40, a fine and a coarse packing each
    assert layers["dimension.pack_passes"] == 78
    assert layers["dimension.pack_points"] == 78 * 500
    assert 0 < layers["dimension.pack_saturated"] <= 78


def test_tree_nodes_bounded_by_cells_times_levels(tmp_path):
    grid = str(tmp_path / "grid.json")
    cloud = _gasket(tmp_path, 2, 0.25, 6)
    assert cli.main(["rasterize", "--cloud", cloud, "--m", "9", "--normalize", "--out", grid]) == 0
    code, layers = _traced_cli(tmp_path, ["content", "--grid", grid, "--s", "1.9"])
    assert code == 0
    cells = len(json.loads(open(grid).read())["occupied"])
    assert layers["content.cells"] == cells
    assert cells < layers["content.tree_nodes"] <= cells * (9 + 1)
    assert layers["content.cover_cubes"] >= 1


def test_tracer_restores_the_package_and_accounts_for_the_calls(tmp_path):
    before = {name: getattr(cli, name) for name in ("main", "_emit", "iterate_cloud")}
    cloud = _gasket(tmp_path, 2, 0.005, 3)
    with tracing.Tracer() as tracer:
        assert cli.main(["extreme", "--cloud", cloud, "--target", "zero", "--out", str(tmp_path / "x.json")]) == 0
        assert cli.main(["minkdim", "--cloud", cloud, "--kmin", "2", "--kmax", "6",
                         "--out", str(tmp_path / "m.json")]) == 0
    assert {name: getattr(cli, name) for name in before} == before
    assert tracer.missing_hooks == 0
    layers = tracing.summarize(tracer.spans)
    assert layers["cli.calls"] == 2
    assert layers["geom.apex_blocks"] == 81
    parts = ["cli.self_s", "cli.load_s", "cli.emit_s"] + [
        f"{layer}.self_s" for layer in tracing.LAYERS if layer != "cli"
    ]
    assert math.isclose(sum(layers[p] for p in parts), tracing.root_time(tracer.spans), rel_tol=1e-9)
    assert {span[4] for span in tracer.spans} == {0, 1}


def test_checks_reject_a_tampered_output():
    corners = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    checks.rectangle()(0, {"points": corners, "metric": 0.0}, {})
    with pytest.raises(checks.CheckFailed):
        checks.rectangle()(0, {"points": corners, "metric": 1e-3}, {})
    grid = {"levels": 1, "dimension": 1, "occupied": [[0], [1]]}
    cover = {"cover": [[1, [0]], [1, [1]]], "value": 1.0}
    checks.content("grid", 1.0)(0, cover, {"grid": grid})
    with pytest.raises(checks.CheckFailed):
        checks.content("grid", 1.0)(0, {"cover": [[1, [0]]], "value": 0.5}, {"grid": grid})
    with pytest.raises(checks.CheckFailed):
        checks.content("grid", 1.0)(0, {"cover": [[0, [0]], [1, [1]]], "value": 1.5}, {"grid": grid})

import argparse
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import content_oracle
import emit_oracle
import pack_oracle
import spectrum_oracle
from anglelab import PointCloud
from anglelab import cli
from anglelab.cli import build_parser, main
from anglelab.content import DyadicGrid
from anglelab.errors import AngleLabError
from anglelab.geom import AngleInterval, _apex_pair_angles
from anglelab.ifs import deviation_of_corners

EQ_CLOUD = {
    "dimension": 2,
    "points": [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]],
}


def write_cloud(tmp_path, data, name="cloud.json"):
    """Write `data` as JSON; a string is written as it stands."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def subcommands(parser):
    """The subparsers of `parser`, by name."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_subcommand_inventory():
    expected = {
        "gasket",
        "certify",
        "spectrum",
        "minkdim",
        "triangle",
        "rightangle",
        "extreme",
        "rectangle",
        "content",
        "zoom",
        "rasterize",
    }
    parsers = subcommands(build_parser())
    assert set(parsers) == expected
    assert all(callable(p.get_default("handler")) for p in parsers.values())


def test_readme_examples_parse_and_cover_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("anglelab ")]
    parser = build_parser()
    for argv in examples:
        assert callable(parser.parse_args(argv).handler), argv
    assert {argv[0] for argv in examples} == set(subcommands(parser))


def test_gasket_depth_one_has_nine_points(capsys):
    code, data = run_json(capsys, ["gasket", "--n", "2", "--delta", "0.25", "--depth", "1"])
    assert code == 0
    assert data["dimension"] == 2
    assert len(data["points"]) == 9


def test_gasket_csv_matches_json(capsys, tmp_path):
    argv = ["gasket", "--n", "2", "--delta", "0.25", "--depth", "2"]
    code, data = run_json(capsys, argv)
    assert code == 0
    csv, js = str(tmp_path / "c.csv"), str(tmp_path / "c.json")
    assert main(argv + ["--format", "csv", "--out", csv]) == 0
    assert main(argv + ["--out", js]) == 0
    cloud = PointCloud.from_csv(Path(csv).read_text())
    assert [[float(x) for x in row] for row in cloud.points] == data["points"]
    # the commands that read a cloud print the same from either file
    for command in (["spectrum", "--alpha", "30", "--window", "5"], ["extreme", "--target", "zero"]):
        runs = [(main(command + ["--cloud", path]), capsys.readouterr().out) for path in (csv, js)]
        assert runs[0] == runs[1] and runs[0][1]


def test_certify_positive_and_negative(capsys):
    code, data = run_json(
        capsys, ["certify", "--n", "3", "--delta", "0.005", "--alpha", "30", "--window", "5"]
    )
    assert code == 0
    assert data["certified"] is True
    assert data["epsilon"] == pytest.approx(22.85, abs=0.05)
    code, data = run_json(
        capsys, ["certify", "--n", "2", "--delta", "0.45", "--alpha", "30", "--window", "5"]
    )
    assert code == 1
    assert data["certified"] is False


def test_spectrum_hit_and_miss(capsys, tmp_path):
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    code, data = run_json(
        capsys, ["spectrum", "--cloud", cloud, "--alpha", "60", "--window", "5"]
    )
    assert code == 0
    assert data["witness"]["metric"] == pytest.approx(60.0, abs=1e-9)
    assert data["exhaustive"] is True
    assert data["total_triples"] == 3
    assert sum(count for _, _, count in data["histogram"]) == 3
    code, data = run_json(
        capsys, ["spectrum", "--cloud", cloud, "--alpha", "30", "--window", "5"]
    )
    assert code == 1
    assert data["witness"] is None


def test_spectrum_needs_three_points(tmp_path, capsys):
    cloud = write_cloud(tmp_path, {"dimension": 2, "points": [[0, 0], [1, 0]]})
    assert main(["spectrum", "--cloud", cloud, "--alpha", "30", "--window", "5"]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_spectrum_json_matches_reference_scan(capsys, tmp_path):
    gasket = str(tmp_path / "gasket.json")
    argv = ["gasket", "--n", "2", "--delta", "0.005", "--depth", "2", "--out", gasket]
    assert main(argv) == 0
    normal = np.random.default_rng(8).normal(size=(14, 3))
    clouds = [gasket, write_cloud(tmp_path, {"dimension": 3, "points": normal.tolist()})]
    for path in clouds:
        cloud = PointCloud.from_json_dict(json.loads(Path(path).read_text()))
        n = len(cloud)
        for alpha, radius in ((30.0, 5.0), (60.0, 5.0), (90.0, 0.5)):
            argv = ["spectrum", "--cloud", path, "--alpha", str(alpha), "--window", str(radius)]
            code = main(argv)
            out = capsys.readouterr().out
            want = spectrum_oracle.spectrum_payload(
                cloud, AngleInterval(alpha, radius), alpha, radius
            )
            assert out == json.dumps(want, sort_keys=True, indent=2) + "\n"
            assert code == (1 if want["witness"] is None else 0)
            data = json.loads(out)
            assert data["scanned"] == data["total_triples"] == n * math.comb(n - 1, 2)
            assert sum(count for _, _, count in data["histogram"]) == data["scanned"]
        code, data = run_json(
            capsys,
            ["spectrum", "--cloud", path, "--alpha", "30", "--window", "5",
             "--budget", "500", "--seed", "3"],
        )
        assert data["exhaustive"] is False
        assert data["scanned"] == 500
        assert sum(count for _, _, count in data["histogram"]) == 500


def test_spectrum_rejects_budget_below_one(capsys, tmp_path):
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    for budget in ("0", "-1"):
        argv = ["spectrum", "--cloud", cloud, "--alpha", "60", "--window", "5", "--budget", budget]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget must be at least 1" in captured.err


def test_spectrum_budget_beyond_memory_exits_as_budget_exceeded(capsys, tmp_path, monkeypatch):
    # a numpy allocation failure stands in for a budget far above memory
    def unallocatable(n, budget, seed):
        raise MemoryError(f"Unable to allocate {budget * 24} bytes for the sample")

    monkeypatch.setattr("anglelab.geom._sampled_triples", unallocatable)
    normal = np.random.default_rng(3).normal(size=(40, 2)).tolist()
    cloud = write_cloud(tmp_path, {"dimension": 2, "points": normal})
    argv = ["spectrum", "--cloud", cloud, "--alpha", "60", "--window", "5", "--budget", "1000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "anglelab: budget exceeded: Unable to allocate 24000 bytes for the sample\n"


def test_spectrum_without_a_hit_measures_each_apex_once(capsys, tmp_path, monkeypatch):
    gasket = str(tmp_path / "gasket.json")
    assert main(["gasket", "--n", "2", "--delta", "0.005", "--depth", "3", "--out", gasket]) == 0
    blocks = []

    def counting(pts, a, threshold):
        blocks.append(a)
        return _apex_pair_angles(pts, a, threshold)

    monkeypatch.setattr("anglelab.geom._apex_pair_angles", counting)
    # the gasket avoids 30 +- 5 degrees, so the scan never stops early
    code, data = run_json(capsys, ["spectrum", "--cloud", gasket, "--alpha", "30", "--window", "5"])
    assert code == 1 and data["witness"] is None
    assert blocks == list(range(81))


def test_minkdim_matches_library(capsys, tmp_path):
    from anglelab import minkowski_dimension_estimate

    pts = [[i / 16, j / 16] for i in range(17) for j in range(17)]
    cloud_dict = {"dimension": 2, "points": pts}
    path = write_cloud(tmp_path, cloud_dict)
    code, data = run_json(capsys, ["minkdim", "--cloud", path, "--kmin", "2", "--kmax", "4"])
    assert code == 0
    est = minkowski_dimension_estimate(PointCloud(pts), 2, 4)
    assert data["slope"] == est.slope
    assert data["scales"] == [[k, c] for k, c in est.scales]


def test_triangle_witness_and_absence(capsys, tmp_path):
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    code, data = run_json(capsys, ["triangle", "--cloud", cloud, "--delta", "0.5"])
    assert code == 0
    assert data["kind"] == "triangle"
    assert data["metric"] == pytest.approx(1.0, abs=1e-12)
    # three collinear points admit no triangle: the extracted subset
    # never reaches three members
    collinear = write_cloud(
        tmp_path, {"dimension": 2, "points": [[0, 0], [1, 0], [2, 0]]}, "col.json"
    )
    code, data = run_json(capsys, ["triangle", "--cloud", collinear, "--delta", "0.5"])
    assert code == 1
    assert data["points"] is None and data["metric"] is None


def test_triangle_and_minkdim_json_match_the_full_scans(capsys, tmp_path):
    readme = str(tmp_path / "readme.json")
    assert main(["gasket", "--n", "2", "--delta", "0.005", "--depth", "3", "--out", readme]) == 0
    rng = np.random.default_rng(11)
    clouds = [
        readme,
        write_cloud(tmp_path, {"dimension": 2, "points": rng.random((200, 2)).tolist()}, "r2.json"),
        write_cloud(tmp_path, {"dimension": 5, "points": rng.random((150, 5)).tolist()}, "r5.json"),
    ]
    for path in clouds:
        cloud = PointCloud.from_json_dict(json.loads(Path(path).read_text()))
        for delta in (0.3, 1.0):
            code = main(["triangle", "--cloud", path, "--delta", str(delta)])
            want = pack_oracle.triangle_payload(cloud, delta)
            assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"
            assert code == (1 if want["points"] is None else 0)
        assert main(["minkdim", "--cloud", path, "--kmin", "1", "--kmax", "12"]) == 0
        want = pack_oracle.minkowski_dimension_estimate(cloud, 1, 12).to_json_dict()
        assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_triangle_reports_the_scan_cap_when_it_binds(capsys, tmp_path):
    # points 1e-13 apart stay apart in every packing up to k = 40, so the
    # scan never saturates; exact duplicates would be dropped on load
    twin = [1e-13, 0.0]
    cases = [
        (EQ_CLOUD["points"] + [twin], 0),
        ([[0.0, 0.0], twin, [1.0, 0.0], [2.0, 0.0]], 1),
    ]
    for points, want_code in cases:
        cloud = write_cloud(tmp_path, {"dimension": 2, "points": points})
        code, data = run_json(capsys, ["triangle", "--cloud", cloud, "--delta", "0.5"])
        assert code == want_code
        assert data["params"]["limits_hit"] == ["TRIANGLE_SCAN_MAX_K"]
        assert data["params"]["delta"] == 0.5
    code, data = run_json(capsys, ["triangle", "--cloud", write_cloud(tmp_path, EQ_CLOUD), "--delta", "0.5"])
    assert code == 0 and "limits_hit" not in data["params"]


def test_readme_rightangle_example_runs(capsys, tmp_path):
    cloud = str(tmp_path / "cloud.json")
    assert main(["gasket", "--n", "2", "--delta", "0.005", "--depth", "3", "--out", cloud]) == 0
    code, data = run_json(capsys, ["rightangle", "--cloud", cloud, "--k", "10", "--l", "8"])
    assert code == 0
    assert data["kind"] == "right"
    assert (data["params"]["k"], data["params"]["l"]) == (10, 8)


def test_rightangle_reports_right_triple(capsys, tmp_path):
    cloud = write_cloud(
        tmp_path, {"dimension": 2, "points": [[0, 0], [3, 0], [0, 3]]}
    )
    code, data = run_json(capsys, ["rightangle", "--cloud", cloud, "--k", "2", "--l", "1"])
    assert code == 0
    assert data["kind"] == "right"
    assert data["metric"] == 0.0
    assert data["params"]["angle"] == 90.0
    assert data["params"]["k"] == 2 and data["params"]["l"] == 1


def test_extreme_collinear(capsys, tmp_path):
    cloud = write_cloud(
        tmp_path, {"dimension": 2, "points": [[0, 0], [1, 0], [2, 0]]}
    )
    code, data = run_json(capsys, ["extreme", "--cloud", cloud, "--target", "zero"])
    assert code == 0 and data["metric"] == 0.0
    code, data = run_json(capsys, ["extreme", "--cloud", cloud, "--target", "straight"])
    assert code == 0 and data["metric"] == 180.0
    assert data["points"][0] == [1.0, 0.0]
    assert data["params"]["target"] == "straight"


def test_rectangle_deviation_recomputes(capsys):
    code, data = run_json(
        capsys,
        ["rectangle", "--n", "2", "--delta", "0.45", "--f", "0", "--g", "1", "--depth", "6"],
    )
    assert code == 0
    assert data["kind"] == "rectangle"
    corners = [tuple(p) for p in data["points"]]
    assert len(corners) == 4
    assert data["metric"] == pytest.approx(deviation_of_corners(corners), abs=1e-12)


def test_rasterize_content_zoom_pipeline(capsys, tmp_path):
    cloud_path = str(tmp_path / "g.json")
    grid_path = str(tmp_path / "grid.json")
    assert main(["gasket", "--n", "2", "--delta", "0.25", "--depth", "3", "--out", cloud_path]) == 0
    assert main(["rasterize", "--cloud", cloud_path, "--m", "5", "--out", grid_path]) == 0
    grid = json.loads((tmp_path / "grid.json").read_text())
    assert grid["levels"] == 5 and len(grid["occupied"]) == 50
    s = str(math.log(3) / math.log(4))
    code, data = run_json(capsys, ["content", "--grid", grid_path, "--s", s])
    assert code == 0
    assert data["value"] == 1.0
    assert data["cover"] == [[0, [0, 0]]]
    code, data = run_json(capsys, ["zoom", "--grid", grid_path, "--s", s, "--delta", "0.1"])
    assert code == 0
    assert data["passes_claim"] is True
    assert data["normalized_content"] >= data["params"]["threshold"]


def test_content_and_zoom_json_match_the_reference_tree(capsys, tmp_path):
    # a 2-d gasket grid whose whole tree is expanded at s=1.9, and a seeded
    # 4-d grid with up to 16 children per parent
    cloud_path = str(tmp_path / "g.json")
    gasket = str(tmp_path / "gasket-grid.json")
    assert main(["gasket", "--n", "2", "--delta", "0.25", "--depth", "6", "--out", cloud_path]) == 0
    assert main(["rasterize", "--cloud", cloud_path, "--m", "8", "--out", gasket]) == 0
    cells = np.random.default_rng(4).integers(0, 8, size=(600, 4))
    random4 = write_cloud(
        tmp_path, {"dimension": 4, "levels": 3, "occupied": cells.tolist()}, "random-grid.json"
    )
    for path, s, delta in ((gasket, 1.9, 0.2), (random4, 2.5, 0.3), (random4, 3.7, 0.1)):
        grid = DyadicGrid.from_json_dict(json.loads(Path(path).read_text()))
        assert main(["content", "--grid", path, "--s", str(s)]) == 0
        want = content_oracle.content_payload(grid, s)
        assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"
        if path == gasket:
            assert all(level == 8 for level, _ in want["cover"])
        code = main(["zoom", "--grid", path, "--s", str(s), "--delta", str(delta)])
        want = content_oracle.zoom_payload(grid, s, delta)
        assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"
        assert code == (0 if want["passes_claim"] else 1)


def test_rasterize_content_zoom_bytes_match_the_oracle_payloads(capsys, tmp_path):
    # a level-12 grid of about 2k cells from the depth-6 gasket
    cloud_path = str(tmp_path / "g.json")
    grid_path = str(tmp_path / "grid.json")
    assert main(["gasket", "--n", "2", "--delta", "0.25", "--depth", "6", "--out", cloud_path]) == 0
    argv = ["rasterize", "--cloud", cloud_path, "--m", "12", "--normalize", "--budget", str(1 << 24)]
    assert main(argv + ["--out", grid_path]) == 0
    cloud = PointCloud.from_json_dict(json.loads(Path(cloud_path).read_text()))
    pts = cloud.points - cloud.points.min(axis=0)
    pts /= max(1.0, pts.max())  # --normalize shrinks, never stretches
    grid = content_oracle.FrozenGrid(2, 12, emit_oracle.occupied_cells(pts, 12))
    assert 1500 < len(grid) < 3000
    assert Path(grid_path).read_text() == emit_oracle.json_text(grid.to_json_dict())
    s, delta = 1.0, 0.1
    assert main(["content", "--grid", grid_path, "--s", str(s)]) == 0
    assert capsys.readouterr().out == emit_oracle.json_text(content_oracle.content_payload(grid, s))
    code = main(["zoom", "--grid", grid_path, "--s", str(s), "--delta", str(delta)])
    want = content_oracle.zoom_payload(grid, s, delta)
    assert capsys.readouterr().out == emit_oracle.json_text(want)
    assert code == (0 if want["passes_claim"] else 1)


def test_duplicate_and_unsorted_grid_rows_collapse(capsys, tmp_path):
    rows = [[3, 0], [0, 1], [3, 0], [1, 1], [0, 1]]
    messy = write_cloud(tmp_path, {"dimension": 2, "levels": 2, "occupied": rows}, "messy.json")
    clean = write_cloud(
        tmp_path, {"dimension": 2, "levels": 2, "occupied": [[0, 1], [1, 1], [3, 0]]}, "clean.json"
    )
    for argv in (["content", "--s", "1.5"], ["zoom", "--s", "1.5", "--delta", "0.2"]):
        codes = [main(argv + ["--grid", path]) for path in (messy, clean)]
        first, second = capsys.readouterr().out.split("}\n{")
        assert codes[0] == codes[1] and first + "}\n" == "{" + second
    data = json.loads(Path(messy).read_text())
    grid = DyadicGrid.from_json_dict(data)
    assert grid.cell_rows().tolist() == [[0, 1], [1, 1], [3, 0]] and len(grid) == 3
    assert grid == DyadicGrid.from_json_dict(json.loads(Path(clean).read_text()))
    assert grid.occupied == content_oracle.FrozenGrid.from_json_dict(data).occupied


@pytest.mark.parametrize("cell", [2**65, -(2**65), 2**63])
def test_grid_cells_beyond_int64_exit_2(capsys, tmp_path, cell):
    path = write_cloud(tmp_path, {"dimension": 1, "levels": 63, "occupied": [[0], [cell]]})
    assert main(["content", "--grid", path, "--s", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cells must lie in [0, 2^63)^d" in captured.err


def test_rasterize_empty_cloud_with_and_without_normalize(capsys, tmp_path):
    empty = write_cloud(tmp_path, {"dimension": 2, "points": []})
    for extra in ([], ["--normalize"]):
        code, data = run_json(capsys, ["rasterize", "--cloud", empty, "--m", "3"] + extra)
        assert code == 0
        assert data == {"dimension": 2, "levels": 3, "occupied": []}


def test_rasterize_depth_limits_exit_before_the_work(capsys, tmp_path):
    cloud = write_cloud(tmp_path, {"dimension": 2, "points": [[0.5, 0.5]]})
    argv = ["rasterize", "--cloud", cloud, "--m"]
    assert main(argv + ["100000000"]) == 3
    assert "a level-100000000 grid in dimension 2 holds 2^200000000 cells" in capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["64", "--budget", str(1 << 200)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid level count must lie in [0, 63]" in captured.err


def test_rasterize_normalize_flag(capsys, tmp_path):
    scaled = write_cloud(
        tmp_path, {"dimension": 2, "points": [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]}
    )
    assert main(["rasterize", "--cloud", scaled, "--m", "2"]) == 2
    capsys.readouterr()
    code, data = run_json(capsys, ["rasterize", "--cloud", scaled, "--m", "2", "--normalize"])
    assert code == 0
    assert data["occupied"] == [[0, 0], [0, 3], [3, 0]]


def test_reruns_are_byte_identical(tmp_path):
    for argv in (
        ["gasket", "--n", "2", "--delta", "0.3", "--depth", "3"],
        ["certify", "--n", "2", "--delta", "0.005", "--alpha", "30", "--window", "5"],
    ):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main(argv + ["--out", str(a)]) in (0, 1)
        assert main(argv + ["--out", str(b)]) in (0, 1)
        assert a.read_bytes() == b.read_bytes()


def test_svg_scatter_output(tmp_path):
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    out = tmp_path / "w.svg"
    code = main(
        ["triangle", "--cloud", cloud, "--delta", "0.5", "--format", "svg", "--out", str(out)]
    )
    assert code == 0
    svg = out.read_text()
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.rstrip().endswith("</svg>")
    # all three vertices highlighted and joined into a ring
    assert svg.count('stroke="#d62728" stroke-width="2"') == 3
    assert svg.count("<line") == 3
    # the origin sits at the lower-left corner: y axis is flipped
    assert 'cx="24" cy="616"' in svg


def test_svg_draws_each_witness(tmp_path):
    """Cloud points, highlighted witness points and witness segments of
    every command with svg output."""
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    collinear = write_cloud(tmp_path, {"dimension": 2, "points": [[0, 0], [1, 0], [2, 0]]}, "c.json")
    right = write_cloud(tmp_path, {"dimension": 2, "points": [[0, 0], [3, 0], [0, 3]]}, "r.json")
    gasket = ["--n", "2", "--delta", "0.45", "--depth", "2"]
    cases = [
        (["gasket", *gasket], 0, 27, 0, 0),
        (["spectrum", "--cloud", cloud, "--alpha", "60", "--window", "5"], 0, 3, 3, 2),
        (["spectrum", "--cloud", cloud, "--alpha", "30", "--window", "5"], 1, 3, 0, 0),
        (["triangle", "--cloud", cloud, "--delta", "0.5"], 0, 3, 3, 3),
        (["triangle", "--cloud", collinear, "--delta", "0.5"], 1, 3, 0, 0),
        (["rightangle", "--cloud", right, "--k", "2", "--l", "1"], 0, 3, 3, 2),
        (["extreme", "--cloud", collinear, "--target", "straight"], 0, 3, 3, 2),
        (["rectangle", *gasket, "--f", "0", "--g", "1"], 0, 27, 4, 4),
    ]
    for argv, code, points, marks, lines in cases:
        out = tmp_path / "plot.svg"
        assert main([*argv, "--format", "svg", "--out", str(out)]) == code
        svg = out.read_text()
        assert svg.count('r="2" fill="#4682b4"') == points
        assert svg.count('r="4.5" fill="none"') == marks
        assert svg.count("<line") == lines


def test_svg_requires_planar_cloud(capsys, tmp_path):
    cloud = write_cloud(
        tmp_path,
        {"dimension": 3, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    )
    assert main(["extreme", "--cloud", cloud, "--target", "zero", "--format", "svg"]) == 2


def test_exit_codes_for_bad_input(capsys, tmp_path):
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    assert main(["minkdim", "--cloud", cloud, "--kmin", "5", "--kmax", "2"]) == 2
    assert main(["triangle", "--cloud", str(tmp_path / "missing.json"), "--delta", "0.3"]) == 2
    assert main(["gasket", "--n", "2", "--delta", "0.25", "--depth", "20"]) == 3
    assert main(["content", "--grid", cloud, "--s", "1.0"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["extreme", "--cloud", cloud, "--target", "sideways"])
    assert exc.value.code == 2


NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, data",
    [
        ("spectrum", {"dimension": 2, "points": 5}),
        ("spectrum", {"dimension": 2, "points": [[0, 0], 5, [1, 1]]}),
        ("spectrum", [[0, 0], [1, 0], [0, 1]]),
        ("content", {"dimension": 2, "levels": 2, "occupied": 5}),
        ("content", [[0, 0], [1, 1]]),
        ("content", {"dimension": 2, "levels": 2, "occupied": [[0.5, 1.9]]}),
        ("content", {"dimension": 2, "levels": 2, "occupied": [[0, 1], 3]}),
        ("content", {"dimension": 2, "levels": 2, "occupied": [[[0], 1]]}),
        ("content", {"dimension": 2, "levels": 2}),
        ("spectrum", {"dimension": None, "points": [[0, 0], [1, 0], [0, 1]]}),
        ("spectrum", {"dimension": 2.5, "points": [[0, 0], [1, 0], [0, 1]]}),
        ("spectrum", {"dimension": True, "points": [[0], [1], [2]]}),
        ("content", {"dimension": None, "levels": 2, "occupied": [[0, 1]]}),
        ("content", {"dimension": 2.5, "levels": 2, "occupied": [[0, 1]]}),
        ("content", {"dimension": 2, "levels": True, "occupied": [[0, 1]]}),
        ("content", {"dimension": 2, "levels": 2.5, "occupied": [[0, 1]]}),
        ("content", {"dimension": 1, "levels": 70, "occupied": [[2**65]]}),
        ("content", {"dimension": 1, "levels": 10_000_000, "occupied": [[0]]}),
        # nested deeper than the recursion limit, which json.dump cannot write
        pytest.param("spectrum", '{"dimension": 2, "points": %s}' % NESTED, id="spectrum-nested"),
        pytest.param(
            "content", '{"dimension": 2, "levels": 2, "occupied": %s}' % NESTED, id="content-nested"
        ),
    ],
)
def test_malformed_json_input_exits_2(capsys, tmp_path, command, data):
    path = write_cloud(tmp_path, data)
    if command == "spectrum":
        argv = ["spectrum", "--cloud", path, "--alpha", "60", "--window", "5"]
    else:
        argv = ["content", "--grid", path, "--s", "1.0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input" in captured.err


@pytest.mark.parametrize(
    "points",
    [
        [["1.5", "2"], [0, 1], [1, 0]],
        [[True, 0.5], [0, 1], [1, 0]],
        [[None, 0.5], [0, 1], [1, 0]],
    ],
)
def test_cloud_coordinates_must_be_json_numbers(capsys, tmp_path, points):
    with pytest.raises(AngleLabError, match="JSON numbers"):
        PointCloud.from_json_dict({"dimension": 2, "points": points})
    path = write_cloud(tmp_path, {"dimension": 2, "points": points})
    assert main(["spectrum", "--cloud", path, "--alpha", "60", "--window", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input" in captured.err and "JSON numbers" in captured.err


def test_cloud_integers_beyond_the_float_range_exit_2(capsys, tmp_path):
    path = write_cloud(tmp_path, {"dimension": 2, "points": [[10**400, 0], [0, 1], [1, 0]]})
    assert main(["spectrum", "--cloud", path, "--alpha", "60", "--window", "5"]) == 2
    assert "coordinates must be finite" in capsys.readouterr().err


def test_main_parses_with_one_parser_as_a_fresh_one_would(capsys, monkeypatch, tmp_path):
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    gasket = ["gasket", "--n", "2", "--delta", "0.25", "--depth", "1"]
    runs = [
        gasket,
        ["spectrum", "--cloud", cloud, "--alpha", "60", "--window", "1"],
        gasket + ["--budget", "5"],
        gasket,
        ["gasket", "--n", "2", "--delta", "0.25"],
    ]

    def outputs():
        got = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got.append((code, *capsys.readouterr()))
        return got

    shared = outputs()
    assert cli._parser() is cli._parser()
    assert [code for code, _, _ in shared] == [0, 0, 3, 0, 2]
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert outputs() == shared


@pytest.mark.parametrize(
    "argv, message",
    [
        ("certify --n 2 --delta 0.005 --alpha 30 --window nan", "bad angle window"),
        ("spectrum --cloud {cloud} --alpha 60 --window nan", "bad angle window"),
        ("content --grid {grid} --s nan", "content exponent must be positive"),
        ("triangle --cloud {cloud} --delta nan", "regularity delta must be positive"),
    ],
)
def test_nan_parameters_exit_2(capsys, tmp_path, argv, message):
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    grid = write_cloud(tmp_path, {"dimension": 2, "levels": 2, "occupied": [[0, 1]]}, "grid.json")
    assert main(argv.format(cloud=cloud, grid=grid).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input" in captured.err and message in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("content --grid {grid} --s inf", "content exponent must be positive and finite"),
        ("zoom --grid {grid} --s inf --delta 0.1", "content exponent must be positive and finite"),
        ("triangle --cloud {cloud} --delta inf", "regularity delta must be positive and finite"),
        ("certify --n 2 --delta 0.005 --alpha 30 --window inf", "bad angle window"),
        ("spectrum --cloud {cloud} --alpha 60 --window inf", "bad angle window"),
    ],
)
def test_infinite_parameters_exit_2(capsys, tmp_path, argv, message):
    # JSON has no Infinity, so an output echoing one would not be JSON
    cloud = write_cloud(tmp_path, EQ_CLOUD)
    grid = write_cloud(tmp_path, {"dimension": 2, "levels": 2, "occupied": [[0, 1]]}, "grid.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.format(cloud=cloud, grid=grid).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input" in captured.err and message in captured.err


def _gasket_file(tmp_path) -> str:
    path = str(tmp_path / "gasket.json")
    assert main(["gasket", "--n", "2", "--delta", "0.25", "--depth", "3", "--out", path]) == 0
    return path


@pytest.mark.parametrize(
    "argv",
    [
        "rightangle --cloud {gasket} --k 64 --l 1",
        "rightangle --cloud {gasket} --k 70 --l 1",
        "rightangle --cloud {gasket} --k 2000 --l 1",  # 2^-2000 rounds to 0
        "minkdim --cloud {five} --kmin 1 --kmax 100",
    ],
)
def test_packing_scales_beyond_int64_cells_exit_2(capsys, tmp_path, argv):
    gasket = _gasket_file(tmp_path)
    # two of the five points lie 1e-25 apart, so the scan reaches k = 64
    five = {"dimension": 2, "points": [[0.0, 0.0], [1e-25, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}
    five = write_cloud(tmp_path, five, "five.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv.format(gasket=gasket, five=five).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: scale too fine: cells of side" in captured.err
    assert "beyond int64" in captured.err


def test_rightangle_at_the_finest_int64_scale_keeps_its_output(capsys, tmp_path):
    gasket = _gasket_file(tmp_path)
    assert main(["rightangle", "--cloud", gasket, "--k", "63", "--l", "1"]) == 0
    want = {
        "kind": "right",
        "metric": 10.893394649130855,
        "params": {"angle": 79.10660535086915, "k": 63, "l": 1, "t": 0.10196658217560263},
        "points": [
            [0.4765624999999999, 0.8254304629820431],
            [0.4999999999999999, 0.8660254037844387],
            [0.5156249999999999, 0.8118988160479113],
        ],
    }
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        "minkdim --cloud {cloud} --kmin 2 --kmax 6 --format csv",
        "certify --n 2 --delta 0.005 --alpha 30 --window 5 --format svg",
    ],
)
def test_output_format_a_subcommand_lacks_exits_2_without_writing(capsys, tmp_path, argv):
    cloud = str(tmp_path / "cloud.json")
    assert main(["gasket", "--n", "2", "--delta", "0.005", "--depth", "3", "--out", cloud]) == 0
    command, *_, fmt = argv.split()
    out = tmp_path / "out"
    assert main(argv.format(cloud=cloud).split() + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"anglelab: invalid input: {fmt} output is not defined for '{command}'" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("data", [{"dimension": 0, "points": [[]]}, {"dimension": -1, "points": []}])
def test_cloud_dimension_below_one_exits_2(capsys, tmp_path, data):
    with pytest.raises(AngleLabError, match="cloud dimension must be at least 1"):
        PointCloud.from_json_dict(data)
    path = write_cloud(tmp_path, data)
    assert main(["spectrum", "--cloud", path, "--alpha", "60", "--window", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: cloud dimension must be at least 1" in captured.err

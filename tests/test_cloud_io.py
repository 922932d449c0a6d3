"""Cloud I/O against the per-value code in emit_oracle: the CLI's JSON and
csv bytes, the JSON of arrays nested in payloads (covers and zoomed grids
among them), the cell set of `from_points` and the duplicate rule of
`PointCloud`."""

import contextlib
import io
import json
from argparse import Namespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import emit_oracle as oracle
from anglelab.cli import _emit, _json_text, main
from anglelab.content import DyadicGrid, dyadic_content, from_points, microset_zoom
from anglelab.dimension import _normalize_unit
from anglelab.geom import ROW_BLOCK, PointCloud, _row_groups
from anglelab.ifs import gasket_ifs, iterate_cloud

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# floats whose repr takes each of its forms: signed zero, the least
# subnormal, exponent notation on both sides, the largest magnitudes
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e16, -1e16, 1e308, -1e308,
               0.1, -2.5, 1.0 / 3.0, 123456789.0]
COORDS = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
LABELS = st.none() | st.sampled_from(['say "hi"', "back\\slash", "ünïcødé ∠ 60°", "two\nlines"]) \
    | st.text()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def clouds(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.sampled_from([0, 1, draw(st.integers(2, 30))]))
    rows = draw(st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=n, max_size=n))
    return PointCloud(np.array(rows, dtype=float).reshape(n, d), dimension=d, label=draw(LABELS))


class Parts(io.StringIO):
    """Stdout that keeps each part written to it."""

    def __init__(self):
        super().__init__()
        self.parts = []

    def write(self, text):  # writelines calls it once per part
        self.parts.append(text)
        return super().write(text)


def emitted_parts(fmt: str, payload: dict, csv=None) -> list[str]:
    out = Parts()
    with contextlib.redirect_stdout(out):
        assert _emit(Namespace(format=fmt, out=None, command="gasket"), 0, payload, csv=csv) == 0
    return out.parts


def emitted(fmt: str, payload: dict, csv=None) -> str:
    return "".join(emitted_parts(fmt, payload, csv))


def lines(text: str) -> list[str]:
    """The lines of a text with their ends: a failing comparison then names
    the first differing line and does not diff a text of thousands of lines."""
    return text.splitlines(keepends=True)


@SETTINGS
@given(clouds())
def test_cloud_json_and_csv_match_the_oracle(cloud):
    want = oracle.json_text(oracle.cloud_dict(cloud))
    assert lines(emitted("json", cloud.to_json_dict())) == lines(want)
    payload = {"dimension": cloud.dimension, "points": cloud.points}
    if cloud.label is not None:
        payload["label"] = cloud.label
    assert lines(emitted("json", payload)) == lines(want)
    assert lines(emitted("csv", {}, cloud.to_csv)) == lines(oracle.to_csv(cloud.points))


@SETTINGS
@given(st.dictionaries(st.text(), JSON_VALUES, max_size=6), clouds())
def test_any_payload_matches_the_oracle(payload, cloud):
    assert lines(emitted("json", payload)) == lines(oracle.json_text(payload))
    with_points = {**payload, "points": cloud.points}
    want = oracle.json_text({**payload, "points": cloud.points.tolist()})
    assert lines(emitted("json", with_points)) == lines(want)


@st.composite
def unit_clouds(draw):
    """Points of the unit cube, many of them on the boundaries of level-m
    cells (multiples of 2^-m, 0 and 1 among them)."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(0, 8))
    on_edge = st.integers(0, 1 << m).map(lambda i: i / (1 << m))
    coord = on_edge | st.floats(0.0, 1.0)
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=0, max_size=60))
    return PointCloud(np.array(rows, dtype=float).reshape(len(rows), d), dimension=d), m


@SETTINGS
@given(unit_clouds())
def test_from_points_cells_match_the_oracle(cloud_and_level):
    cloud, m = cloud_and_level
    grid = from_points(cloud, m, budget=1 << 32)
    want = oracle.occupied_cells(cloud.points, m)
    assert grid.occupied == want and len(grid) == len(want)
    rows = grid.cell_rows()
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert np.array_equal(rows, np.array(sorted(want), dtype=np.int64).reshape(-1, cloud.dimension))


@SETTINGS
@given(st.integers(1, 5), st.integers(0, 40), st.data())
def test_duplicates_are_dropped_as_before(d, n, data):
    pool = data.draw(st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=1, max_size=4))
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    arr = np.array(rows, dtype=float).reshape(n, d)
    got = PointCloud(arr, dimension=d).points
    assert got.tobytes() == oracle.dedup(arr).tobytes()


def row_groups_by_dict(arr: np.ndarray) -> tuple[list[int], list[bool]]:
    """The rows grouped by a dict of tuples (0.0 and -0.0 hash alike),
    groups in ascending row order, indices ascending in each group."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(arr.tolist()):
        groups.setdefault(tuple(row), []).append(i)
    order, new = [], []
    for _, members in sorted(groups.items()):
        order += members
        new += [True] + [False] * (len(members) - 1)
    return order, new


@st.composite
def row_arrays(draw):
    """Float rows (signed zeros among them) or int64 rows, many repeated."""
    d, n, as_int = draw(st.integers(1, 4)), draw(st.integers(0, 40)), draw(st.booleans())
    value = st.integers(-3, 3) if as_int else COORDS
    pool = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(rows, dtype=np.int64 if as_int else float).reshape(n, d)


@SETTINGS
@given(row_arrays())
@example(np.zeros((0, 2)))
@example(np.zeros((0, 1), dtype=np.int64))
@example(np.array([[-0.0, 1.0]]))
@example(np.array([[3]]))
def test_row_groups_match_a_dict_of_rows(arr):
    order, new = _row_groups(arr)
    assert (order.tolist(), new.tolist()) == row_groups_by_dict(arr)


def test_signed_zeros_are_one_point():
    cloud = PointCloud([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]])
    assert cloud.points.tobytes() == np.array([[0.0, 1.0], [0.0, -0.0]]).tobytes()


def gasket(n, delta, depth):
    ifs = gasket_ifs(n, delta)
    return iterate_cloud(ifs, depth)


@pytest.mark.parametrize("n, delta, depth", [(2, 0.25, 6), (5, 0.2, 2)])
def test_gasket_bytes_match_the_oracle(capsys, n, delta, depth):
    cloud = gasket(n, delta, depth)
    argv = ["gasket", "--n", str(n), "--delta", str(delta), "--depth", str(depth)]
    assert main(argv) == 0
    assert lines(capsys.readouterr().out) == lines(oracle.json_text(oracle.cloud_dict(cloud)))
    assert main(argv + ["--format", "csv"]) == 0
    assert lines(capsys.readouterr().out) == lines(oracle.to_csv(cloud.points))


def test_csv_is_built_only_on_request(capsys, monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("csv built for another format")

    argv = ["gasket", "--n", "2", "--delta", "0.25", "--depth", "3"]
    with monkeypatch.context() as patch:
        patch.setattr(PointCloud, "to_csv", refuse)
        assert main(argv) == 0
        assert main(argv + ["--format", "svg", "--out", str(tmp_path / "g.svg")]) == 0
    assert capsys.readouterr().err == ""
    assert main(argv + ["--format", "csv"]) == 0
    assert lines(capsys.readouterr().out) == lines(oracle.to_csv(gasket(2, 0.25, 3).points))


# values that repeat down the columns, as a homothetic cloud's do, with
# both signed zeros among them
POOL = np.array([0.0, -0.0, 0.1, -2.5, 1.0 / 3.0, 1e16, 5e-324, 123456789.0])


@pytest.mark.parametrize("n", [1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_pooled_rows_match_the_oracle(n, d):
    rng = np.random.default_rng(n * 10 + d)
    arr = rng.choice(POOL, size=(n, d))
    arr[:2, 0] = [0.0, -0.0][:n]
    assert lines(emitted("json", {"dimension": d, "points": arr})) == lines(
        oracle.json_text({"dimension": d, "points": arr.tolist()})
    )
    # distinct rows through a first column that starts at -0.0
    arr[:, 0] = -np.arange(n) / 3.0
    cloud = PointCloud(arr)
    assert len(cloud) == n
    want = oracle.json_text(oracle.cloud_dict(cloud))
    assert lines(emitted("json", cloud.to_json_dict())) == lines(want)
    assert lines(emitted("csv", {}, cloud.to_csv)) == lines(oracle.to_csv(arr))


@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
@pytest.mark.parametrize("d", [1, 3])
def test_int_cell_rows_match_the_oracle(n, d):
    pool = np.array([-(1 << 63), -1, 0, 1, 4095, (1 << 63) - 1], dtype=np.int64)
    cells = np.random.default_rng(n * 10 + d).choice(pool, size=(n, d))
    flags = cells[:, :1] > 0  # a bool array takes the json.dumps path
    payload = {"dimension": d, "levels": 12, "occupied": cells, "flags": flags}
    assert lines(emitted("json", payload)) == lines(
        oracle.json_text({**payload, "occupied": cells.tolist(), "flags": flags.tolist()})
    )


def test_rasterize_bytes_match_the_oracle(capsys, tmp_path):
    cloud = gasket(2, 0.25, 6)
    path = tmp_path / "g.json"
    path.write_text(oracle.json_text(oracle.cloud_dict(cloud)))
    argv = ["rasterize", "--cloud", str(path), "--m", "12", "--normalize", "--budget", str(1 << 24)]
    assert main(argv) == 0
    grid = from_points(PointCloud(_normalize_unit(cloud.points)), 12, budget=1 << 24)
    cells = [list(c) for c in sorted(grid.occupied)]
    assert len(cells) > ROW_BLOCK
    want = oracle.json_text({"dimension": 2, "levels": 12, "occupied": cells})
    assert lines(capsys.readouterr().out) == lines(want)
    # the grid feeds the cover and the zoom, each more than a row block long
    path.write_text(want)
    grid = DyadicGrid.from_json_dict(json.loads(want))
    assert main(["content", "--grid", str(path), "--s", "1.9"]) == 0
    result = dyadic_content(grid, 1.9)
    assert len(result.cover) > ROW_BLOCK
    assert lines(capsys.readouterr().out) == lines(oracle.json_text(result.to_json_dict()))
    s, delta = 1.0, 0.1
    assert main(["zoom", "--grid", str(path), "--s", str(s), "--delta", str(delta)]) == 0
    zoomed = microset_zoom(grid, s, delta)
    assert len(zoomed.rescaled) > ROW_BLOCK
    params = {"s": s, "delta": delta, "threshold": 2.0 ** (-s - 2.0)}
    want = oracle.json_text({**zoomed.to_json_dict(), "params": params})
    assert lines(capsys.readouterr().out) == lines(want)


INT64 = st.sampled_from([-(1 << 63), -1, 0, 1, (1 << 63) - 1]) | st.integers(-(1 << 63), (1 << 63) - 1)


@st.composite
def arrays(draw):
    """A float or int64 (n, d) block, or a cover: int64 levels (n,) and cells (n, d)."""
    n, d, kind = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 2))
    rows = draw(st.lists(st.lists(INT64 if kind else COORDS, min_size=d, max_size=d),
                         min_size=n, max_size=n))
    block = np.array(rows, dtype=np.int64 if kind else float).reshape(n, d)
    if kind < 2:
        return block
    return np.array(draw(st.lists(INT64, min_size=n, max_size=n)), dtype=np.int64), block


@st.composite
def nested_payloads(draw):
    """An array 1-3 dicts deep, among JSON values and other arrays."""
    payload = draw(arrays())
    for _ in range(draw(st.integers(1, 3))):
        siblings = draw(st.dictionaries(st.text(), JSON_VALUES | arrays(), max_size=3))
        payload = {**siblings, draw(st.text()): payload}
    return payload


def plain(value):
    """The payload with each array replaced by the lists it stands for."""
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    if isinstance(value, tuple):
        return [list(row) for row in zip(*(a.tolist() for a in value))]
    return value.tolist() if isinstance(value, np.ndarray) else value


@SETTINGS
@given(nested_payloads())
def test_nested_arrays_match_the_oracle(payload):
    assert lines("".join(_json_text(payload))) == lines(oracle.json_text(plain(payload)))


@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_cover_rows_match_the_oracle(n, d):
    rng = np.random.default_rng(n * 10 + d)
    levels = rng.integers(0, 64, size=n)
    cells = rng.integers(-(1 << 63), (1 << 63) - 1, size=(n, d), endpoint=True)
    payload = {"value": -0.0, "exponent": 1.5, "cover": (levels, cells)}
    want = oracle.json_text({**payload, "cover": [[int(lv), c] for lv, c in zip(levels, cells.tolist())]})
    assert lines("".join(_json_text(payload))) == lines(want)
    if n == 0:
        assert '"cover": []' in want


def test_gasket_json_is_streamed_in_row_blocks(capsys, tmp_path):
    cloud = gasket(2, 0.25, 7)
    assert len(cloud) > 2 * ROW_BLOCK
    want = oracle.json_text(oracle.cloud_dict(cloud))
    parts = emitted_parts("json", {"dimension": 2, "points": cloud.points})
    assert lines("".join(parts)) == lines(want)
    # no part holds more than one block of rows, each with its separator
    row_text = max(len("[\n      " + ",\n      ".join(map(repr, row)) + "\n    ],\n    ")
                   for row in cloud.points.tolist())
    assert max(map(len, parts)) <= ROW_BLOCK * row_text < len(want) / 2
    argv = ["gasket", "--n", "2", "--delta", "0.25", "--depth", "7"]
    (tmp_path / "g.json").write_text("stale\n" * len(want))  # replaced, not appended to
    assert main(argv + ["--out", str(tmp_path / "g.json")]) == 0
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert (tmp_path / "g.json").read_bytes().splitlines(True) == stdout.splitlines(True)
    assert stdout.splitlines(True) == want.encode().splitlines(True)

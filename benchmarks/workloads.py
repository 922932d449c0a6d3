"""The three workloads: generated inputs and fixed sequences of CLI calls.

A workload writes its seeded inputs into a work directory and lists its
calls in order.  Each call writes its output with `--out` to
`<work dir>/<call name>.json`; later calls read earlier outputs the way the
README chains them.  The program sees only the generated files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

LOG34 = math.log(3.0) / math.log(4.0)
# a level-12 plane grid and a level-6 grid in 4-space both span 2^24 cells,
# above the default cell budget of rasterize
RASTER_BUDGET = "20000000"
WINDOW = ("--alpha", "30", "--window", "5")


@dataclass(frozen=True)
class Call:
    name: str
    argv: tuple[str, ...]
    expect: frozenset[int] = frozenset({0})
    check: Callable | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _call(name, argv, check=None, expect=(0,)) -> Call:
    return Call(name, tuple(str(a) for a in argv), frozenset(expect), check)


def _gasket(name, n, delta, depth) -> Call:
    argv = ["gasket", "--n", n, "--delta", delta, "--depth", depth]
    return _call(name, argv, checks.cloud_size((n + 1) ** (depth + 1), n))


def _write_cloud(path: Path, points) -> None:
    points = np.asarray(points, dtype=float)
    path.write_text(json.dumps({"dimension": points.shape[1], "points": points.tolist()}))


def _unit_grid(n: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.column_stack([i.ravel(), j.ravel()]) / (n - 1)


def avoid(w: Path, seed: int) -> list[Call]:
    """Build gasket clouds that avoid (25, 35) degrees and check them.

    The inputs are all derived from the gasket systems; the seed only picks
    the triples of the small sampled scan.
    """
    certify = ("certify", "--delta", "0.005", *WINDOW)
    rectangle = ("rectangle", "--n", "2", "--delta", "0.45", "--f", "0", "--g", "1", "--depth")
    return [
        _gasket("g2d3", 2, 0.005, 3),
        _gasket("g2d4", 2, 0.005, 4),
        _gasket("g3d2", 3, 0.005, 2),
        _call("cert2", [*certify, "--n", "2"], checks.certified),
        _call("cert3", [*certify, "--n", "3"], checks.certified),
        _call("spec2", ["spectrum", "--cloud", w / "g2d3.json", *WINDOW],
              checks.spectrum("g2d3", "cert2"), expect=(1,)),
        _call("spec3", ["spectrum", "--cloud", w / "g3d2.json", *WINDOW],
              checks.spectrum("g3d2", "cert3"), expect=(1,)),
        _call("zero", ["extreme", "--cloud", w / "g2d4.json", "--target", "zero"], checks.extreme_angle),
        _call("straight", ["extreme", "--cloud", w / "g2d4.json", "--target", "straight"],
              checks.extreme_angle),
        _call("rect6", [*rectangle, 6], checks.rectangle()),
        _call("rect8", [*rectangle, 8], checks.rectangle(shallower="rect6")),
        *_sweep_avoid(w, seed),
    ]


def _sweep_avoid(w: Path, seed: int) -> list[Call]:
    """Small calls, about 1% of the pass, that reach the layers `avoid`
    otherwise leaves idle, so that no per-layer time reads a constant 0."""
    s = repr(LOG34)
    return [
        _call("sampled3", ["spectrum", "--cloud", w / "g3d2.json", *WINDOW, "--budget", "500", "--seed", seed],
              checks.spectrum("g3d2", "cert3", budget=500), expect=(1,)),
        _call("mink2", ["minkdim", "--cloud", w / "g2d3.json", "--kmin", "6", "--kmax", "12"],
              checks.packing_scales("g2d3", 6, 12)),
        _call("tri2", ["triangle", "--cloud", w / "g2d3.json", "--delta", "0.3"],
              checks.triangle(0.3), expect=(0, 1)),
        _call("right2", ["rightangle", "--cloud", w / "g2d3.json", "--k", "10", "--l", "8"], checks.right_angle),
        _call("grid2", ["rasterize", "--cloud", w / "g2d3.json", "--m", "6", "--normalize"], checks.raster("g2d3", 6)),
        _call("content2", ["content", "--grid", w / "grid2.json", "--s", s], checks.content("grid2", LOG34)),
        _call("zoom2", ["zoom", "--grid", w / "grid2.json", "--s", s, "--delta", "0.1"], checks.zoom, expect=(0, 1)),
    ]


def measure_inputs(w: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for i in range(3):
        _write_cloud(w / f"rand{i}.json", rng.random((500, 2)))
    for n in (32, 64):
        _write_cloud(w / f"unit{n}.json", _unit_grid(n))


def measure(w: Path, seed: int) -> list[Call]:
    """Packing, well-spread subsets and dyadic content of plane sets."""
    s = repr(LOG34)
    triangles = [
        _call(f"tri{i}", ["triangle", "--cloud", w / f"rand{i}.json", "--delta", "0.3"],
              checks.triangle(0.3), expect=(0, 1))
        for i in range(3)
    ]
    rights = [
        _call(f"right{n}", ["rightangle", "--cloud", w / f"unit{n}.json", "--k", "6", "--l", "4"],
              checks.right_angle)
        for n in (32, 64)
    ]
    return [
        _gasket("g8", 2, 0.25, 8),
        _call("mink", ["minkdim", "--cloud", w / "g8.json", "--kmin", "2", "--kmax", "8"],
              checks.slope_near(LOG34, 0.08)),
        *triangles,
        *rights,
        _gasket("g9", 2, 0.25, 9),
        _call("grid", ["rasterize", "--cloud", w / "g9.json", "--m", "12", "--normalize",
                       "--budget", RASTER_BUDGET], checks.raster("g9", 12)),
        # the coarse exponent takes the root cube and bypasses the cover walk;
        # the fine one expands the whole tree
        _call("coarse", ["content", "--grid", w / "grid.json", "--s", s], checks.content("grid", LOG34)),
        _call("fine", ["content", "--grid", w / "grid.json", "--s", "1.9"], checks.content("grid", 1.9)),
        _call("zoom", ["zoom", "--grid", w / "grid.json", "--s", s, "--delta", "0.1"],
              checks.zoom, expect=(0, 1)),
        *_sweep_measure(w, seed),
    ]


def _sweep_measure(w: Path, seed: int) -> list[Call]:
    """Small calls, well under 1% of the pass, that reach the layers
    `measure` otherwise leaves idle, so that no per-layer time reads a
    constant 0."""
    return [
        _gasket("g1", 2, 0.005, 1),
        _call("cert", ["certify", "--n", "2", "--delta", "0.005", *WINDOW], checks.certified),
        _call("spec", ["spectrum", "--cloud", w / "g1.json", *WINDOW], checks.spectrum("g1", "cert"), expect=(1,)),
        _call("sampled", ["spectrum", "--cloud", w / "g1.json", *WINDOW, "--budget", "100", "--seed", seed],
              checks.spectrum("g1", "cert", budget=100), expect=(1,)),
        _call("zero", ["extreme", "--cloud", w / "g1.json", "--target", "zero"], checks.extreme_angle),
        _call("rect", ["rectangle", "--n", "2", "--delta", "0.45", "--f", "0", "--g", "1", "--depth", "2"],
              checks.rectangle()),
    ]


def highdim_inputs(w: Path, seed: int) -> None:
    _write_cloud(w / "rand4.json", np.random.default_rng(seed).random((800, 4)))


def highdim(w: Path, seed: int) -> list[Call]:
    """The same layers through their high-dimensional branches.

    At d = 5, 3^d > 128 sends packing to the occupied-table scan; at
    d = 4 every content parent has 16 children; the spectrum is sampled.
    """
    return [
        _gasket("g5d4", 5, 0.2, 4),
        _gasket("g5d3", 5, 0.2, 3),
        _gasket("g5d2", 5, 0.2, 2),
        _call("mink", ["minkdim", "--cloud", w / "g5d4.json", "--kmin", "1", "--kmax", "5"],
              checks.packing_scales("g5d4", 1, 5)),
        _call("tri", ["triangle", "--cloud", w / "g5d2.json", "--delta", "0.3"],
              checks.triangle(0.3), expect=(0, 1)),
        _call("zero", ["extreme", "--cloud", w / "g5d2.json", "--target", "zero"], checks.extreme_angle),
        _call("right", ["rightangle", "--cloud", w / "g5d3.json", "--k", "6", "--l", "4"],
              checks.right_angle),
        _gasket("s5", 5, 0.005, 3),
        _call("cert5", ["certify", "--n", "5", "--delta", "0.005", *WINDOW], checks.certified),
        _call("spec", ["spectrum", "--cloud", w / "s5.json", *WINDOW, "--budget", "40000",
                       "--seed", seed], checks.spectrum("s5", "cert5", budget=40000), expect=(1,)),
        _call("grid", ["rasterize", "--cloud", w / "rand4.json", "--m", "6", "--budget", RASTER_BUDGET],
              checks.raster("rand4", 6)),
        _call("content", ["content", "--grid", w / "grid.json", "--s", "3.5"], checks.content("grid", 3.5)),
        _call("zoom", ["zoom", "--grid", w / "grid.json", "--s", "3.5", "--delta", "0.5"],
              checks.zoom, expect=(0, 1)),
        _call("rect", ["rectangle", "--n", "4", "--delta", "0.3", "--f", "0", "--g", "1", "--depth", "4"],
              checks.rectangle()),
    ]


def _no_inputs(w: Path, seed: int) -> None:
    pass


# name -> (input generator, call list, generated input files read by checks)
WORKLOADS = {
    "avoid": (_no_inputs, avoid, ()),
    "measure": (measure_inputs, measure, ()),
    "highdim": (highdim_inputs, highdim, ("rand4",)),
}

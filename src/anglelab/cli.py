"""Command-line front end; the README lists its subcommands and exit codes."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .anglefind import (
    almost_regular_triangle,
    near_extreme_witness,
    near_right_witness,
)
from .content import (
    DEFAULT_CELL_BUDGET,
    DyadicGrid,
    dyadic_content,
    from_points,
    microset_zoom,
)
from .dimension import _normalize_unit, minkowski_dimension_estimate
from .errors import AngleLabError, BudgetExceeded
from .geom import (
    AngleInterval,
    PointCloud,
    _block_hit,
    _format_rows,
    _total_triples,
    _triple_angle_blocks,
    _witness_json,
    # benchmarks/test_counters.py calls both through cli
    angle_spectrum,  # noqa: F401
    spectrum_hits,  # noqa: F401
)
from .ifs import (
    DEFAULT_POINT_BUDGET,
    avoidance_certificate,
    gasket_ifs,
    iterate_cloud,
    rectangle_in,
)

_EPILOG = (
    "The environment variable ANGLELAB_THREADS caps internal parallelism; "
    "it never overrides an OMP, OpenBLAS, MKL or numexpr thread variable already set."
)


def _load_cloud(path: str) -> PointCloud:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        return PointCloud.from_csv(text)
    return PointCloud.from_json_dict(json.loads(text))


def _load_grid(path: str) -> DyadicGrid:
    return DyadicGrid.from_json_dict(json.loads(Path(path).read_text()))


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _svg_scatter(points: np.ndarray, highlights: list, segments: list) -> str:
    """Scatter plot of a planar cloud with witness points, each an (x, y)
    pair, and segments, each a pair of such points.

    The y axis is flipped so larger y is drawn higher, as on paper.
    """
    size, margin = 640.0, 24.0
    stack = [points] if len(points) else []
    if highlights:
        stack.append(np.asarray(highlights, dtype=float))
    allpts = np.vstack(stack)
    lo = allpts.min(axis=0)
    extent = float((allpts.max(axis=0) - lo).max())
    scale = (size - 2.0 * margin) / max(extent, 1e-12)

    def place(p) -> tuple[str, str]:
        x = margin + (float(p[0]) - lo[0]) * scale
        y = size - margin - (float(p[1]) - lo[1]) * scale
        return _fmt(x), _fmt(y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(size)}"'
        f' height="{_fmt(size)}" viewBox="0 0 {_fmt(size)} {_fmt(size)}">',
        f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="white"/>',
    ]
    for p in points:
        x, y = place(p)
        parts.append(f'<circle cx="{x}" cy="{y}" r="2" fill="#4682b4"/>')
    for a, b in segments:
        xa, ya = place(a)
        xb, yb = place(b)
        parts.append(
            f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}"'
            ' stroke="#d62728" stroke-width="1.5"/>'
        )
    for p in highlights:
        x, y = place(p)
        parts.append(
            f'<circle cx="{x}" cy="{y}" r="4.5" fill="none"'
            ' stroke="#d62728" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _holds_array(value) -> bool:
    """Whether `value` is an array (an ndarray with an axis, or a nonempty
    tuple of them) or a dict with one below it."""
    if isinstance(value, dict):
        return any(map(_holds_array, value.values()))
    parts = value if isinstance(value, tuple) else (value,)
    return bool(parts) and all(isinstance(a, np.ndarray) and a.ndim for a in parts)


def _json_text(payload, pad: str = "\n"):
    """Yield the parts of `json.dumps(payload, sort_keys=True, indent=2) + "\\n"`.

    An array stands for its `tolist()`; a tuple of arrays of n rows, all
    of one dtype, for the n lists of their rows.  A dict with an array
    below it is written key by key, indented by `pad`; any other value is
    one `json.dumps`, indented by replacing newlines (JSON strings hold
    none).  Int and float arrays go through `_format_rows`, with json's
    layout of a zero row.
    """
    inner = pad + "  "
    if not _holds_array(payload):
        yield json.dumps(payload, sort_keys=True, indent=2).replace("\n", pad)
    elif isinstance(payload, dict):
        lead = "{" + inner
        for key in sorted(payload):
            yield lead + json.dumps(key) + ": "
            lead = "," + inner
            yield from _json_text(payload[key], inner)
        yield pad + "}"
    else:
        one = not isinstance(payload, tuple)
        parts = (payload,) if one else payload
        if all(a.size and a.dtype.kind in "fi" for a in parts):
            rows = [a.reshape(len(a), -1) for a in parts]
            rows = rows[0] if one else np.concatenate(rows, axis=1)
            example = [np.zeros(a.shape[1:], int).tolist() for a in parts]
            row = json.dumps(example[0] if one else example, indent=2)
            yield "[" + inner
            yield from _format_rows(rows, row.replace("0", "%s").replace("\n", inner), "," + inner)
            yield pad + "]"
        else:  # empty, bool or object
            plain = [a.tolist() for a in parts]
            plain = plain[0] if one else list(zip(*plain))
            yield json.dumps(plain, sort_keys=True, indent=2).replace("\n", pad)
    if pad == "\n":
        yield "\n"


def _emit(args, code: int, payload: dict, cloud=None, csv=None) -> int:
    """Write the payload in the requested format and return the exit code.

    `cloud` (svg only) returns the cloud to draw under the witness, the
    payload or its "witness": its points, if any, are circled and joined by
    its kind, in a ring for a triangle or rectangle, else as a fan from the
    apex, the first point.  `csv` (csv only) returns the text.  `build_parser`
    offers a format only to the subcommands whose handler passes these.
    """
    if args.format == "json":
        parts = _json_text(payload)
    elif args.format == "csv":
        parts = [csv()]
    else:
        cloud = cloud()
        if cloud.dimension != 2:
            raise AngleLabError("svg output is only available for 2-dimensional clouds")
        witness = payload.get("witness", payload) or {}
        kind = witness.get("kind")
        marks = (kind and witness["points"]) or []
        if kind in ("triangle", "rectangle"):
            segments = list(zip(marks, marks[1:] + marks[:1]))
        else:
            segments = [(marks[0], arm) for arm in marks[1:]]
        parts = [_svg_scatter(cloud.points, marks, segments)]
    if args.out:
        with open(args.out, "w") as out:
            out.writelines(parts)
    else:
        sys.stdout.writelines(parts)
    return code


def _cmd_gasket(args) -> int:
    ifs = gasket_ifs(args.n, args.delta)
    cloud = iterate_cloud(ifs, args.depth, budget=args.budget)
    return _emit(args, 0, cloud._payload(), lambda: cloud, csv=cloud.to_csv)


def _cmd_certify(args) -> int:
    cert = avoidance_certificate(args.n, args.delta, AngleInterval(args.alpha, args.window))
    return _emit(args, 0 if cert.certified else 1, cert.to_json_dict())


def _cmd_spectrum(args) -> int:
    cloud = _load_cloud(args.cloud)
    window = AngleInterval(args.alpha, args.window)
    edges = np.linspace(0.0, 180.0, 37)
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    witness = None
    # one pass: the histogram takes every block, the witness the first hit
    for block in _triple_angle_blocks(cloud.points, args.budget, args.seed):
        counts += np.histogram(block[0], bins=edges)[0]
        if witness is None:
            witness = _block_hit(cloud, block, window)
    total = _total_triples(len(cloud))
    payload = {
        "window": [window.lo, window.hi],
        "exhaustive": args.budget is None or args.budget >= total,
        "total_triples": total,
        "scanned": int(counts.sum()),
        "witness": None
        if witness is None
        else witness.to_json_dict(
            "spectrum", {"alpha": args.alpha, "radius": args.window}
        ),
        "histogram": [
            [float(edges[i]), float(edges[i + 1]), int(counts[i])]
            for i in range(len(counts))
        ],
    }
    code = 0 if witness is not None else 1
    return _emit(args, code, payload, lambda: cloud)


def _cmd_minkdim(args) -> int:
    cloud = _load_cloud(args.cloud)
    est = minkowski_dimension_estimate(cloud, args.kmin, args.kmax)
    return _emit(args, 0, est.to_json_dict())


def _cmd_triangle(args) -> int:
    cloud = _load_cloud(args.cloud)
    limits_hit: list[str] = []
    witness = almost_regular_triangle(cloud, args.delta, limits_hit)
    params = {"delta": args.delta}
    if limits_hit:
        params["limits_hit"] = limits_hit
    if witness is None:
        code, payload = 1, _witness_json("triangle", None, None, params)
    else:
        code, payload = 0, witness.to_json_dict(params)
    return _emit(args, code, payload, lambda: cloud)


def _cmd_rightangle(args) -> int:
    cloud = _load_cloud(args.cloud)
    witness = near_right_witness(cloud, args.k, args.l)
    payload = witness.to_json_dict()
    return _emit(args, 0, payload, lambda: cloud)


def _cmd_extreme(args) -> int:
    cloud = _load_cloud(args.cloud)
    witness = near_extreme_witness(cloud, args.target)
    payload = witness.to_json_dict("extreme", {"target": args.target})
    return _emit(args, 0, payload, lambda: cloud)


def _cmd_rectangle(args) -> int:
    ifs = gasket_ifs(args.n, args.delta)
    witness = rectangle_in(ifs, args.f, args.g, args.depth, budget=args.budget)
    params = {
        "n": args.n,
        "delta": args.delta,
        "f": args.f,
        "g": args.g,
        "depth": args.depth,
    }
    cloud = functools.partial(iterate_cloud, ifs, args.depth, budget=args.budget)
    return _emit(args, 0, witness.to_json_dict(params), cloud)


def _cmd_content(args) -> int:
    result = dyadic_content(_load_grid(args.grid), args.s)
    return _emit(args, 0, result._payload())


def _cmd_zoom(args) -> int:
    result = microset_zoom(_load_grid(args.grid), args.s, args.delta)
    params = {"s": args.s, "delta": args.delta, "threshold": 2.0 ** (-args.s - 2.0)}
    return _emit(args, 0 if result.passes_claim else 1, {**result._payload(), "params": params})


def _cmd_rasterize(args) -> int:
    cloud = _load_cloud(args.cloud)
    if args.normalize:
        cloud = PointCloud(_normalize_unit(cloud.points), cloud.dimension)
    return _emit(args, 0, from_points(cloud, args.m, budget=args.budget)._payload())


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="anglelab",
        description="Self-similar clouds with angle gaps, and witness searches in finite clouds.",
        epilog=_EPILOG,
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler, formats=("json",)):
        p = sub.add_parser(name, help=help_text, epilog=_EPILOG)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument(
            "--format",
            choices=formats,
            default="json",
            help="output format" + (" (svg needs d=2)" if "svg" in formats else ""),
        )
        return p

    svg = ("json", "svg")
    p = add(
        "gasket", "generate a gasket iterate as a point cloud", _cmd_gasket, ("json", "csv", "svg")
    )
    p.add_argument("--n", type=int, required=True, help="ambient simplex dimension")
    p.add_argument("--delta", type=float, required=True, help="contraction ratio")
    p.add_argument("--depth", type=int, required=True, help="iteration depth")
    p.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)

    p = add("certify", "certify that an angle window is avoided at every depth", _cmd_certify)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True, help="window center, degrees")
    p.add_argument("--window", type=float, required=True, help="window radius, degrees")

    p = add("spectrum", "scan a cloud's apex angles against a window", _cmd_spectrum, svg)
    p.add_argument("--cloud", required=True, help="cloud file (.json or .csv)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--budget", type=int, default=None, help="triple sample budget")
    p.add_argument("--seed", type=int, default=0)

    p = add("minkdim", "estimate the upper Minkowski dimension of a cloud", _cmd_minkdim)
    p.add_argument("--cloud", required=True)
    p.add_argument("--kmin", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)

    p = add("triangle", "find an almost-regular triangle", _cmd_triangle, svg)
    p.add_argument("--cloud", required=True)
    p.add_argument("--delta", type=float, required=True)

    p = add("rightangle", "find a near-right angle by projection", _cmd_rightangle, svg)
    p.add_argument("--cloud", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)

    p = add("extreme", "find the smallest or largest angle", _cmd_extreme, svg)
    p.add_argument("--cloud", required=True)
    p.add_argument("--target", choices=("zero", "straight"), required=True)

    p = add("rectangle", "find a near-rectangle from two gasket maps", _cmd_rectangle, svg)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--f", type=int, required=True, help="first map index")
    p.add_argument("--g", type=int, required=True, help="second map index")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_POINT_BUDGET)

    p = add("content", "minimal dyadic-cover content of a grid", _cmd_content)
    p.add_argument("--grid", required=True, help="grid file (.json)")
    p.add_argument("--s", type=float, required=True, help="content exponent")

    p = add("zoom", "zoom into the densest admissible cube of a grid", _cmd_zoom)
    p.add_argument("--grid", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)

    p = add("rasterize", "mark the dyadic cells occupied by a cloud", _cmd_rasterize)
    p.add_argument("--cloud", required=True)
    p.add_argument("--m", type=int, required=True, help="subdivision levels")
    p.add_argument("--budget", type=int, default=DEFAULT_CELL_BUDGET)
    p.add_argument(
        "--normalize",
        action="store_true",
        help="translate to the origin and shrink into the unit cube first",
    )

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use: parsing leaves it as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (BudgetExceeded, MemoryError) as exc:
        print(f"anglelab: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (AngleLabError, OSError, KeyError, ValueError, RecursionError) as exc:
        print(f"anglelab: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

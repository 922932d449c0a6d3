"""Per-layer spans and counters for the anglelab package, taken from outside it.

A traced run replaces module attributes of `anglelab` with timing wrappers.
Python looks module globals up at call time, so a wrapper installed on
`anglelab.geom._apex_pair_angles` also catches the calls `spectrum_hits`
makes from inside `geom`.  Nothing under `src/` changes, and untraced runs
never install a wrapper.

Each call of a wrapped function becomes one span: name, start, end, parent
span and call id (the index of the `cli.main` call it belongs to), plus the
work counts read from its arguments and result.  A layer's time is the self
time of its spans: duration minus the durations of the child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("cli", "geom", "ifs", "polytope", "dimension", "anglefind", "content")

# Attributes wrapped besides `cli.main` and the library functions `cli`
# imports.  A name that a later version of the package no longer has is
# skipped and counted in `trace.missing_hooks`.
HOOKS = (
    ("cli", "_load_cloud"),
    ("cli", "_load_grid"),
    ("cli", "_emit"),
    ("anglefind", "_well_spread_core"),
    ("anglefind", "_apex_pair_angles"),
    ("anglefind", "color_distances"),
    ("anglefind", "find_monochromatic_triangle"),
    ("dimension", "_greedy_pack_indices"),
    ("dimension", "_well_spread_core"),
    ("geom", "_apex_pair_angles"),
    ("geom", "_sampled_triples"),
    ("ifs", "iterate_cloud"),
    ("ifs", "hull_distance"),
    ("content", "_tree_values"),
)

# Self time of these spans goes to a metric of its own, in addition to the
# `<layer>.self_s` total of every layer but `cli`.
SELF_METRIC = {
    "cli._load_cloud": "cli.load_s",
    "cli._load_grid": "cli.load_s",
    "cli._emit": "cli.emit_s",
    "geom.angle_spectrum": "geom.angle_spectrum_s",
    "geom.spectrum_hits": "geom.spectrum_hits_s",
    "geom._apex_pair_angles": "geom.apex_block_s",
    "geom._sampled_triples": "geom.sample_s",
    "ifs.iterate_cloud": "ifs.iterate_cloud_s",
    "ifs.rectangle_in": "ifs.rectangle_in_s",
    "polytope.hull_distance": "polytope.hull_distance_s",
    "dimension.minkowski_dimension_estimate": "dimension.minkowski_s",
    "dimension._well_spread_core": "dimension.well_spread_s",
    "dimension._greedy_pack_indices": "dimension.pack_s",
    "anglefind.almost_regular_triangle": "anglefind.triangle_s",
    "anglefind.near_right_witness": "anglefind.right_s",
    "anglefind.near_extreme_witness": "anglefind.extreme_s",
    "content.from_points": "content.from_points_s",
    "content.dyadic_content": "content.cover_walk_s",
    "content._tree_values": "content.tree_s",
    "content.microset_zoom": "content.microset_zoom_s",
}


def _pack_counts(args, result):
    n = len(args[0])
    return {
        "dimension.pack_passes": 1,
        "dimension.pack_points": n,
        "dimension.pack_kept": len(result),
        "dimension.pack_saturated": int(len(result) == n),
    }


def _apex_counts(args, result):
    # the angle array is the last element of the block
    return {"geom.apex_blocks": 1, "geom.triples": 0 if result is None else len(result[-1])}


# Work counts read from a span's positional arguments and result.
COUNTERS = {
    "cli.main": lambda args, result: {"cli.calls": 1},
    "cli._load_cloud": lambda args, result: {"cli.bytes_in": os.path.getsize(args[0])},
    "cli._load_grid": lambda args, result: {"cli.bytes_in": os.path.getsize(args[0])},
    "cli._emit": lambda args, result: {"cli.bytes_out": os.path.getsize(args[0].out)},
    "geom._apex_pair_angles": _apex_counts,
    "geom._sampled_triples": lambda args, result: {"geom.triples": len(result)},
    "geom.angle_spectrum": lambda args, result: {"geom.witnesses": len(result)},
    "ifs.iterate_cloud": lambda args, result: {"ifs.points": len(result)},
    "polytope.hull_distance": lambda args, result: {"polytope.hull_calls": 1},
    "dimension._greedy_pack_indices": _pack_counts,
    "anglefind.color_distances": lambda args, result: {
        "anglefind.color_pairs": len(result) * (len(result) - 1) // 2
    },
    "content._tree_values": lambda args, result: {
        "content.cells": len(args[0]),
        "content.tree_nodes": sum(len(level) for level in result[0]),
    },
    "content.dyadic_content": lambda args, result: {"content.cover_cubes": len(result.cover)},
}

# Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "cli.self_s": "s",
    "cli.load_s": "s",
    "cli.emit_s": "s",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "cli.calls": "count",
    "geom.self_s": "s",
    "geom.angle_spectrum_s": "s",
    "geom.spectrum_hits_s": "s",
    "geom.apex_block_s": "s",
    "geom.sample_s": "s",
    "geom.apex_blocks": "count",
    "geom.triples": "count",
    "geom.witnesses": "count",
    "ifs.self_s": "s",
    "ifs.iterate_cloud_s": "s",
    "ifs.points": "count",
    "ifs.rectangle_in_s": "s",
    "ifs.rectangle_pairs": "count",
    "polytope.self_s": "s",
    "polytope.hull_distance_s": "s",
    "polytope.hull_calls": "count",
    "dimension.self_s": "s",
    "dimension.minkowski_s": "s",
    "dimension.well_spread_s": "s",
    "dimension.pack_s": "s",
    "dimension.pack_passes": "count",
    "dimension.pack_points": "count",
    "dimension.pack_kept": "count",
    "dimension.pack_saturated": "count",
    "anglefind.self_s": "s",
    "anglefind.triangle_s": "s",
    "anglefind.right_s": "s",
    "anglefind.extreme_s": "s",
    "anglefind.color_pairs": "count",
    "content.self_s": "s",
    "content.from_points_s": "s",
    "content.dyadic_content_s": "s",
    "content.tree_s": "s",
    "content.cover_walk_s": "s",
    "content.microset_zoom_s": "s",
    "content.cells": "count",
    "content.tree_nodes": "count",
    "content.cover_cubes": "count",
    "trace.spans": "count",
    "trace.uncounted": "count",
    "trace.missing_hooks": "count",
}

# A count hook that cannot read a changed return type leaves the span
# uncounted (reported as `trace.uncounted`) instead of stopping the run.
_COUNT_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Installs the wrappers, records spans in memory and restores the package."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent, call, counts]
        self.spans: list[list] = []
        self.missing_hooks = 0
        self._stack: list[int] = []
        self._calls = 0
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        modules = {name: importlib.import_module(f"anglelab.{name}") for name in LAYERS}
        cli = modules["cli"]
        targets = [("cli", "main")]
        for attr, value in vars(cli).items():
            # library functions cli imported; classes stay untouched so that
            # isinstance checks keep working
            if inspect.isfunction(value) and value.__module__.startswith("anglelab.") \
                    and value.__module__ != "anglelab.cli":
                targets.append(("cli", attr))
        targets.extend(HOOKS)
        for module_name, attr in targets:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if not inspect.isfunction(original):
                self.missing_hooks += 1
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original))

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, fn):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is not None:
            return wrapper
        name = _span_name(fn)
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                self._calls += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._calls - 1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    span[5] = count(args, result)
                except _COUNT_ERRORS:
                    span[5] = "uncounted"
            return result

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def write(self, path, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        keys = ("name", "start", "end", "parent", "call", "counts")
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), sort_keys=True) + "\n")


def summarize(spans: list[list], missing_hooks: int = 0) -> dict[str, float]:
    """Per-layer metrics from recorded spans (times in seconds).

    Every span's self time lands in exactly one of `cli.self_s`,
    `cli.load_s`, `cli.emit_s` or `<layer>.self_s`, so together they add
    up to the time spent inside `cli.main`.  `content.dyadic_content_s`
    is the inclusive time of `dyadic_content` (tree pass plus cover walk).
    """
    out: dict[str, float] = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _call, _counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _call, counts) in enumerate(spans):
        self_time = end - start - child_time[i]
        layer = name.split(".", 1)[0]
        if layer == "cli":
            out[SELF_METRIC.get(name, "cli.self_s")] += self_time
        else:
            out[f"{layer}.self_s"] += self_time
            if name in SELF_METRIC:
                out[SELF_METRIC[name]] += self_time
        if name == "content.dyadic_content":
            out["content.dyadic_content_s"] += end - start
        if counts == "uncounted":
            out["trace.uncounted"] += 1
        elif counts:
            for key, value in counts.items():
                out[key] += value
        if name == "ifs.iterate_cloud" and parent >= 0 and spans[parent][0] == "ifs.rectangle_in":
            if isinstance(counts, dict):
                n = counts["ifs.points"]
                out["ifs.rectangle_pairs"] += n * (n - 1) // 2
    out["trace.spans"] = len(spans)
    out["trace.missing_hooks"] = missing_hooks
    return {key: out.get(key, 0) for key in LAYER_METRICS}


def root_time(spans: list[list]) -> float:
    """Total duration of the top-level (`cli.main`) spans."""
    return sum(end - start for _n, start, end, parent, _c, _k in spans if parent < 0)

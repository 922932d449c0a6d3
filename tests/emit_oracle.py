"""Reference CLI output: the per-value code that the array writers replaced,
and the per-handler choice of what an svg draws.

`json_text` is the whole-payload `json.dumps` the CLI wrote, `cloud_dict`
and `to_csv` the per-float JSON layout and csv of `PointCloud`,
`occupied_cells` the tuple-per-point cell set of `from_points`,
`dedup` the structured-view `np.unique` that `PointCloud` dropped
duplicates with, and `svg_marks` the witness points and segments each
CLI handler chose for its svg.  Tests compare the library against them.
"""

from __future__ import annotations

import json

import numpy as np


def json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cloud_dict(cloud) -> dict:
    out = {
        "dimension": cloud.dimension,
        "points": [[float(x) for x in row] for row in cloud.points],
    }
    if cloud.label is not None:
        out["label"] = cloud.label
    return out


def to_csv(points: np.ndarray) -> str:
    lines = [",".join(repr(float(x)) for x in row) for row in points]
    return "\n".join(lines) + ("\n" if lines else "")


def occupied_cells(points: np.ndarray, m: int) -> frozenset:
    side = 1 << m
    idx = np.clip(np.ceil(points * side).astype(np.int64) - 1, 0, side - 1)
    return frozenset(tuple(int(c) for c in row) for row in idx)


def dedup(arr: np.ndarray) -> np.ndarray:
    if arr.shape[0] <= 1:
        return np.ascontiguousarray(arr)
    arr = np.ascontiguousarray(arr)
    view = arr.view([("", arr.dtype)] * arr.shape[1]).ravel()
    _, first = np.unique(view, return_index=True)
    if first.shape[0] == arr.shape[0]:
        return arr
    return arr[np.sort(first)]


def svg_marks(command: str, witness) -> tuple[list, list]:
    """The points the CLI's `command` highlighted on its svg, and the
    segments it drew, from the library's witness object (None for `gasket`
    and a miss): a ring through a triangle's vertices or a rectangle's
    corners, and a fan from the apex to both arms of any other witness."""
    if witness is None:
        return [], []
    if command in ("triangle", "rectangle"):
        marks = list(witness.vertices if command == "triangle" else witness.corners)
        ring = [tuple(p) for p in marks]
        return marks, [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    if command == "rightangle":
        witness = witness.triple
    marks = [witness.apex, witness.arm1, witness.arm2]
    return marks, [(tuple(marks[0]), tuple(arm)) for arm in marks[1:]]

"""Output checks by independent recomputation.

Each check is called after a pass, outside the timed region, as
`check(code, out, prior)`: the call's exit code, its parsed JSON output, and
the outputs of the calls before it in the same pass, by call name.  A check
raises `CheckFailed`; it never compares against stored digests, because a
faster program may legitimately pick another sampled triple set or another
near-tied rectangle pair.
"""

from __future__ import annotations

import math

from anglelab.geom import angle_at
from anglelab.ifs import deviation_of_corners


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def cloud_size(count: int, dimension: int):
    """A gasket cloud holds (n+1)^(depth+1) points of dimension n."""

    def check(code, out, prior):
        _require(out["dimension"] == dimension, f"dimension {out['dimension']} != {dimension}")
        _require(len(out["points"]) == count, f"{len(out['points'])} points != {count}")

    return check


def certified(code, out, prior):
    _require(out["certified"] is True, "the window is not certified")


def spectrum(cloud: str, certificate: str, budget: int | None = None):
    """No triple in a certified window; histogram and scan counts agree."""

    def check(code, out, prior):
        _require(prior[certificate]["certified"] is True, f"{certificate} did not certify")
        _require(out["witness"] is None, "a triple fell inside a certified window")
        n = len(prior[cloud]["points"])
        total = n * ((n - 1) * (n - 2) // 2)
        _require(out["total_triples"] == total, f"total_triples {out['total_triples']} != {total}")
        _require(out["exhaustive"] == (budget is None), "wrong exhaustive flag")
        expected = total if budget is None else budget
        _require(out["scanned"] == expected, f"scanned {out['scanned']} != {expected}")
        counted = sum(row[2] for row in out["histogram"])
        _require(counted == out["scanned"], f"histogram sums to {counted}, not {out['scanned']}")

    return check


def extreme_angle(code, out, prior):
    apex, p, q = out["points"]
    angle = angle_at(apex, p, q)
    _require(_close(angle, out["metric"]), f"recomputed angle {angle} != {out['metric']}")


def right_angle(code, out, prior):
    apex, p, q = out["points"]
    angle = angle_at(apex, p, q)
    _require(_close(abs(angle - 90.0), out["metric"]), f"recomputed deviation != {out['metric']}")
    _require(_close(angle, out["params"]["angle"]), "recomputed angle != params.angle")


def triangle(delta: float):
    """A returned triangle has side ratio <= 1 + delta; exit 1 returns none."""

    def check(code, out, prior):
        if code == 1:
            _require(out["points"] is None, "exit 1 with a witness")
            return
        a, b, c = out["points"]
        sides = [math.dist(a, b), math.dist(b, c), math.dist(a, c)]
        ratio = max(sides) / min(sides)
        _require(_close(ratio, out["metric"]), f"recomputed ratio {ratio} != {out['metric']}")
        _require(ratio <= 1.0 + delta, f"side ratio {ratio} exceeds {1.0 + delta}")

    return check


def rectangle(shallower: str | None = None):
    """The deviation recomputes; a deeper search beats a shallower one."""

    def check(code, out, prior):
        deviation = deviation_of_corners(out["points"])
        _require(_close(deviation, out["metric"]), f"recomputed deviation {deviation} != {out['metric']}")
        if shallower is not None:
            _require(deviation < 1e-2, f"deviation {deviation} is not below 1e-2")
            before = prior[shallower]["metric"]
            _require(deviation < before, f"deviation {deviation} is not below {before}")

    return check


def slope_near(target: float, tolerance: float):
    def check(code, out, prior):
        _require(abs(out["slope"] - target) <= tolerance, f"slope {out['slope']} is not within {tolerance} of {target}")

    return check


def packing_scales(cloud: str, k_min: int, k_max: int):
    """Every kept scale is in range and counts between 1 and the cloud size."""

    def check(code, out, prior):
        n = len(prior[cloud]["points"])
        ks = [k for k, _ in out["scales"]]
        _require(len(ks) >= 2 and ks == sorted(set(ks)), f"bad scales {ks}")
        _require(k_min <= ks[0] and ks[-1] <= k_max, f"scales {ks} outside [{k_min}, {k_max}]")
        _require(all(1 <= c < n for _, c in out["scales"]), "packing count outside [1, n)")
        _require(out["slope"] >= 0.0, "negative slope")

    return check


def raster(cloud: str, levels: int):
    def check(code, out, prior):
        d = prior[cloud]["dimension"]
        side = 1 << levels
        cells = out["occupied"]
        _require(out["levels"] == levels and out["dimension"] == d, "wrong grid shape")
        _require(1 <= len(cells) <= len(prior[cloud]["points"]), f"{len(cells)} cells")
        _require(all(len(c) == d and all(0 <= i < side for i in c) for c in cells), "cell out of range")

    return check


def content(grid: str, s: float):
    """The cover is an antichain covering every occupied cell, and sums to value."""

    def check(code, out, prior):
        m = prior[grid]["levels"]
        cover = {(level, tuple(idx)) for level, idx in out["cover"]}
        _require(len(cover) == len(out["cover"]), "repeated cube in the cover")
        for level, idx in cover:
            for j in range(level):
                ancestor = (j, tuple(c >> (level - j) for c in idx))
                _require(ancestor not in cover, f"cube {level, idx} lies inside {ancestor}")
        for cell in prior[grid]["occupied"]:
            _require(
                any((j, tuple(c >> (m - j) for c in cell)) in cover for j in range(m + 1)),
                f"cell {cell} is not covered",
            )
        total = math.fsum((2.0 ** -level) ** s for level, _ in out["cover"])
        _require(_close(total, out["value"]), f"cover sums to {total}, not {out['value']}")

    return check


def zoom(code, out, prior):
    _require((code == 0) == out["passes_claim"], f"exit {code} disagrees with passes_claim")

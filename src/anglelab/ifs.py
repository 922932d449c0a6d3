"""Homothetic iterated function systems and their certificates.

A homothety is x -> center + ratio * (x - center), stored as (center,
ratio) and applied in the affine form x -> ratio * x + offset with
offset = (1 - ratio) * center.  Compositions of homotheties with ratios
in (0, 1) are again homotheties, so fixed points of compositions are
available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateSystem,
    DegenerateVector,
    DimensionMismatch,
    InvalidArity,
    InvalidCode,
    InvalidDepth,
    InvalidDimension,
    InvalidRatio,
    NotSeparated,
    SameIndex,
)
from .geom import (
    AngleInterval,
    PointCloud,
    Point,
    _projection_pair,
    _witness_json,
    line_pair_angle,
    regular_simplex,
)
from .polytope import hull_distance

DEFAULT_POINT_BUDGET = 2_000_000

# Angle values (degrees) that high-dimensional self-similar sets of this
# construction cannot avoid; every angle of a gasket cloud stays within
# the deviation bound of one of these.
SPECIAL_ANGLES = (0.0, 60.0, 90.0, 120.0, 180.0)


@dataclass(frozen=True)
class Homothety:
    """Contraction x -> center + ratio * (x - center) with ratio in (0,1)."""

    center: Point
    ratio: float

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise InvalidRatio(f"ratio must lie in (0, 1), got {self.ratio}")
        c = tuple(float(x) for x in self.center)
        if not all(math.isfinite(x) for x in c):
            raise DegenerateVector("center coordinates must be finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "ratio", float(self.ratio))

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def offset(self) -> np.ndarray:
        return (1.0 - self.ratio) * np.asarray(self.center, dtype=float)

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.ratio * pts + self.offset

    def compose(self, other: "Homothety") -> "Homothety":
        """The composition self . other, as a homothety in center form."""
        if self.dimension != other.dimension:
            raise DimensionMismatch("cannot compose maps of different dimensions")
        r = self.ratio * other.ratio
        b = self.ratio * other.offset + self.offset
        return Homothety(tuple(b / (1.0 - r)), r)


class HomotheticIFS:
    """A finite list of homotheties in a common dimension."""

    __slots__ = ("maps", "dimension")

    def __init__(self, maps: Sequence[Homothety]):
        maps = tuple(maps)
        if len(maps) < 2:
            raise InvalidArity("an iterated function system needs at least 2 maps")
        d = maps[0].dimension
        for h in maps:
            if h.dimension != d:
                raise DimensionMismatch("all maps must share one dimension")
        if all(h.center == maps[0].center for h in maps):
            raise DegenerateSystem("maps need at least two distinct centers")
        self.maps = maps
        self.dimension = d

    def __len__(self) -> int:
        return len(self.maps)

    def centers(self) -> np.ndarray:
        return np.array([h.center for h in self.maps], dtype=float)

    def __repr__(self) -> str:
        return f"HomotheticIFS(m={len(self.maps)}, d={self.dimension})"


def gasket_ifs(n: int, delta: float) -> HomotheticIFS:
    """n+1 homotheties of ratio delta at the vertices of a regular n-simplex."""
    if n < 2:
        raise InvalidDimension("gasket construction needs dimension n >= 2")
    if not (0.0 < delta < 0.5):
        raise InvalidRatio("gasket ratio must lie in (0, 1/2)")
    verts = regular_simplex(n)
    return HomotheticIFS([Homothety(tuple(v), delta) for v in verts])


def similarity_dimension(ifs: HomotheticIFS) -> float:
    """The unique s > 0 with sum(ratio_i^s) = 1, by bisection."""
    ratios = np.array([h.ratio for h in ifs.maps], dtype=float)
    lo = 0.0
    hi = math.log(len(ratios)) / math.log(1.0 / ratios.max())
    for _ in range(200):
        if hi - lo <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        if float(np.sum(ratios**mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def iterate_cloud(ifs: HomotheticIFS, depth: int, budget: int = DEFAULT_POINT_BUDGET) -> PointCloud:
    """All images of the system's centers under every depth-long composition.

    Points are enumerated in (address code, center index) lexicographic
    order and deduplicated bitwise; strongly separated systems produce no
    duplicates beyond coinciding fixed points.
    """
    if depth < 0:
        raise InvalidDepth("depth must be >= 0")
    m = len(ifs.maps)
    total = m ** (depth + 1)
    if total > budget:
        raise BudgetExceeded(f"{total} points exceed the budget of {budget}")

    ratios = np.array([h.ratio for h in ifs.maps], dtype=float)
    offsets = np.array([h.offset for h in ifs.maps], dtype=float)
    scale = np.ones(1)
    shift = np.zeros((1, ifs.dimension))
    for _ in range(depth):
        shift = (scale[:, None, None] * offsets + shift[:, None, :]).reshape(-1, ifs.dimension)
        scale = (scale[:, None] * ratios).reshape(-1)
    pts = scale[:, None, None] * ifs.centers() + shift[:, None, :]
    return PointCloud(pts.reshape(-1, ifs.dimension))


def separation_gap(ifs: HomotheticIFS) -> float:
    """Minimum distance between images of the center hull under map pairs.

    The convex hull of the centers contains the attractor, so a positive
    value certifies strong separation; 0.0 means separation could not be
    certified (images touch or overlap).
    """
    centers = ifs.centers()
    images = [h.apply(centers) for h in ifs.maps]
    gap = math.inf
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            gap = min(gap, hull_distance(images[i], images[j]))
    return float(gap)


def direction_deviation_bound(delta: float) -> float:
    """Largest angle (degrees) between a chord of a piece pair and the
    line of their centers, for gasket ratio delta: 2*acos((1-2d)/(1+2d))."""
    if not (0.0 < delta < 0.5):
        raise InvalidRatio("deviation bound needs delta in (0, 1/2)")
    return math.degrees(2.0 * math.acos((1.0 - 2.0 * delta) / (1.0 + 2.0 * delta)))


@dataclass(frozen=True)
class AvoidanceCertificate:
    """Outcome of checking an angle window against the unavoidable set."""

    certified: bool
    epsilon: float
    window: AngleInterval
    special: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.certified

    def to_json_dict(self) -> dict:
        return {
            "certified": self.certified,
            "epsilon": self.epsilon,
            "window": [self.window.lo, self.window.hi],
            "special": list(self.special),
        }


def avoidance_certificate(n: int, delta: float, window: AngleInterval) -> AvoidanceCertificate:
    """Certify that no gasket(n, delta) angle ever enters the window.

    Sound for every iteration depth, including the limit set: the check
    uses the closed window against closed epsilon-neighborhoods of the
    special angles, so 'certified' survives passage to the attractor.
    """
    if n < 2:
        raise InvalidDimension("certificate needs gasket dimension n >= 2")
    eps = direction_deviation_bound(delta)
    certified = all(
        window.hi < a - eps or window.lo > a + eps for a in SPECIAL_ANGLES
    )
    return AvoidanceCertificate(certified, eps, window, SPECIAL_ANGLES)


@dataclass(frozen=True)
class RectangleWitness:
    """Four points forming a near-rectangle, with their deviation.

    deviation = max(opposite-side parallelism angles in degrees,
    relative diagonal-length mismatch); 0 for an exact rectangle.
    """

    corners: tuple[Point, Point, Point, Point]
    deviation: float

    def to_json_dict(self, params: dict | None = None) -> dict:
        return _witness_json("rectangle", self.corners, self.deviation, params)


def deviation_of_corners(corners) -> float:
    """Recompute the rectangle deviation of four corners A, B, C, D."""
    a, b, c, d = (np.asarray(p, dtype=float) for p in corners)
    side1 = line_pair_angle(a, b, d, c)
    side2 = line_pair_angle(b, c, a, d)
    d1 = float(np.linalg.norm(a - c))
    d2 = float(np.linalg.norm(b - d))
    diag = abs(d1 - d2) / max(d1, d2)
    return max(side1, side2, diag)


def rectangle_in(
    ifs: HomotheticIFS,
    f_index: int,
    g_index: int,
    depth: int,
    budget: int = DEFAULT_POINT_BUDGET,
) -> RectangleWitness:
    """Search a depth-iterate cloud for the rectangle of two map pairs.

    The pair (x, y) closest to perpendicular to P - Q, the fixed points of
    f.g and g.f, gives the corners f(g(x)), f(g(y)), g(f(y)), g(f(x)).
    """
    if not (0 <= f_index < len(ifs.maps)) or not (0 <= g_index < len(ifs.maps)):
        raise InvalidCode("map index outside the system")
    if f_index == g_index:
        raise SameIndex("rectangle construction needs two different maps")
    if separation_gap(ifs) <= 0.0:
        raise NotSeparated("system is not certified strongly separated")

    f = ifs.maps[f_index]
    g = ifs.maps[g_index]
    fg = f.compose(g)
    gf = g.compose(f)
    p = np.asarray(fg.center, dtype=float)
    q = np.asarray(gf.center, dtype=float)
    axis = q - p
    axis = axis / np.linalg.norm(axis)

    cloud = iterate_cloud(ifs, depth, budget=budget)
    pts = cloud.points
    proj = pts @ axis
    extent = pts.max(axis=0) - pts.min(axis=0)
    # padded past rounding, the box diagonal is at least every computed
    # pair distance, so gap^2 / diam2 bounds every key from below
    diam2 = float(extent @ extent) * (1.0 + 1e-9)

    def keys(i, j):
        diff = pts.take(i, axis=0) - pts.take(j, axis=0)
        return ((proj[i] - proj[j]) ** 2 / np.einsum("ij,ij->i", diff, diff),)

    i, j = _projection_pair(proj, keys, lambda gap: gap * gap / diam2)
    x, y = pts[i], pts[j]
    corners = (
        tuple(float(v) for v in fg.apply(x)),
        tuple(float(v) for v in fg.apply(y)),
        tuple(float(v) for v in gf.apply(y)),
        tuple(float(v) for v in gf.apply(x)),
    )
    return RectangleWitness(corners, deviation_of_corners(corners))

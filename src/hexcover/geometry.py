"""Exact plane geometry for regular hexagons and equilateral triangles.

Every point the planner produces (hexagon centers, shared vertices, points on
the center-to-vertex segments, midpoints and centroids of those) has the form
(x * scale/2, y * sqrt(3) * scale/2) with rational x and y.  A ``LatticePoint``
stores the two rationals, so equal points compare equal with no epsilon and
squared distances are the single rational x^2 + 3 y^2.  ``VERTEX_UNITS``,
the unit hexagon's vertex coefficients, is the one vertex table: ``Hexagon``
builds on it and ``tiling.VERTEX_OFFSETS`` is its integer array.  The rest
of this module serves the packing proofs and the tests' exact references,
which pin the patch and the comparison scheme's tiles; plan and verify
themselves run on integer lattice coefficients (``tiling``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

SQRT3 = math.sqrt(3.0)

Rational = Fraction | int


@dataclass(frozen=True, order=True, slots=True)
class LatticePoint:
    """Point (x * scale/2, y * sqrt(3) * scale/2) with rational x and y.

    The two rationals identify the point uniquely, so equality and hashing
    need no tolerance.  Ordering is lexicographic over (x, y) and is used only
    to make exports byte-stable.
    """

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.x, Fraction):
            object.__setattr__(self, "x", Fraction(self.x))
        if not isinstance(self.y, Fraction):
            object.__setattr__(self, "y", Fraction(self.y))

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)

    def __mul__(self, factor: Rational) -> "LatticePoint":
        return LatticePoint(self.x * factor, self.y * factor)

    __rmul__ = __mul__

    def to_xy(self, scale: float = 1.0) -> tuple[float, float]:
        """Float coordinates for a given scale (deterministic for fixed scale)."""
        half = 0.5 * scale
        return float(self.x) * half, float(self.y) * SQRT3 * half


ORIGIN = LatticePoint(Fraction(0), Fraction(0))


def sq_dist_units(a: LatticePoint, b: LatticePoint) -> Fraction:
    """Exact squared distance in (scale/2)^2 units: dx^2 + 3 dy^2."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + 3 * dy * dy


def distance(a: LatticePoint, b: LatticePoint, scale: float = 1.0) -> float:
    return math.sqrt(sq_dist_units(a, b)) * 0.5 * scale


def midpoint(a: LatticePoint, b: LatticePoint) -> LatticePoint:
    return (a + b) * Fraction(1, 2)


def centroid(a: LatticePoint, b: LatticePoint, c: LatticePoint) -> LatticePoint:
    return (a + b + c) * Fraction(1, 3)


# Vertex i sits at angle 60*i degrees from the center.  Offsets are lattice
# coefficients (x, y) for a unit side; scaling by the side keeps them rational.
VERTEX_UNITS = (
    (2, 0),   # 0 degrees
    (1, 1),   # 60
    (-1, 1),  # 120
    (-2, 0),  # 180
    (-1, -1),  # 240
    (1, -1),  # 300
)


@dataclass(frozen=True)
class Hexagon:
    """Regular hexagon with a fixed orientation: vertex i at angle 60*i degrees.

    ``side`` is a rational multiple of the reference radius; the physical side
    length is side * scale meters.  Edge-adjacent neighbors of equal side s sit
    at distance sqrt(3)*s*scale, at angles 30 + 60*i degrees.
    """

    center: LatticePoint
    side: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if not isinstance(self.side, Fraction):
            object.__setattr__(self, "side", Fraction(self.side))
        if self.side <= 0:
            raise ValueError(f"hexagon side must be positive, got {self.side}")

    def vertices(self) -> tuple[LatticePoint, ...]:
        """The six vertices in counterclockwise order starting at angle 0."""
        s = self.side
        return tuple(
            self.center + LatticePoint(s * ux, s * uy)
            for ux, uy in VERTEX_UNITS
        )

    def triangles(self) -> tuple["EquilateralTriangle", ...]:
        """Six center-vertex-vertex triangles that partition the hexagon."""
        verts = self.vertices()
        return tuple(
            EquilateralTriangle((self.center, verts[i], verts[(i + 1) % 6]))
            for i in range(6)
        )

    def contains(self, point: LatticePoint) -> bool:
        """Exact closed-hexagon membership (boundary counts as inside)."""
        return self._within(point - self.center, strict=False)

    def strictly_contains(self, point: LatticePoint) -> bool:
        return self._within(point - self.center, strict=True)

    def _within(self, delta: LatticePoint, strict: bool) -> bool:
        # Projections onto the three edge-normal axes (90, 30, 150 degrees)
        # all carry the factor sqrt(3)*scale/2, as does the apothem side, so
        # the bounds compare rationals.
        x, y = delta.x, delta.y
        projections = (abs(y), abs(x + y) / 2, abs(x - y) / 2)
        if strict:
            return all(p < self.side for p in projections)
        return all(p <= self.side for p in projections)


@dataclass(frozen=True)
class EquilateralTriangle:
    """Triangle whose three side lengths agree exactly in lattice coordinates."""

    vertices: tuple[LatticePoint, LatticePoint, LatticePoint]

    def __post_init__(self) -> None:
        a, b, c = self.vertices
        sides = {sq_dist_units(a, b), sq_dist_units(b, c), sq_dist_units(c, a)}
        if len(sides) != 1:
            raise ValueError("vertices do not form an equilateral triangle")

    def side_sq_units(self) -> Fraction:
        a, b, _ = self.vertices
        return sq_dist_units(a, b)

    def side_length(self, scale: float = 1.0) -> float:
        return math.sqrt(self.side_sq_units()) * 0.5 * scale

    def area(self, scale: float = 1.0) -> float:
        side = self.side_length(scale)
        return SQRT3 / 4.0 * side * side

    def vertices_xy(self, scale: float = 1.0) -> tuple[tuple[float, float], ...]:
        return tuple(v.to_xy(scale) for v in self.vertices)


def packing_diameter(config: list[Hexagon] | tuple[Hexagon, ...], scale: float = 1.0) -> float:
    """Largest pairwise distance over all vertices of the configuration.

    For a union of convex pieces the diameter is attained at vertices, so this
    equals the diameter of the union.
    """
    if not config:
        raise ValueError("packing_diameter of an empty configuration")
    points = [v.to_xy(scale) for h in config for v in h.vertices()]
    best = 0.0
    for (ax, ay), (bx, by) in combinations(points, 2):
        best = max(best, math.hypot(ax - bx, ay - by))
    return best


def hexagons_overlap(a: Hexagon, b: Hexagon) -> bool:
    """Exact test for shared interior points between two same-orientation hexagons.

    Interiors intersect iff the center difference lies strictly inside the
    Minkowski sum, which for equal-orientation regular hexagons is the hexagon
    of side a.side + b.side.
    """
    probe = Hexagon(ORIGIN, a.side + b.side)
    return probe.strictly_contains(b.center - a.center)


def packed_hexagon_pair(
    small_side: Rational = Fraction(1, 2), center: LatticePoint = ORIGIN
) -> tuple[Hexagon, Hexagon]:
    """Two edge-adjacent hexagons split symmetrically about ``center``.

    Centers sit at distance sqrt(3)*side apart along the 90-degree axis; the
    union's farthest vertex pair realizes sqrt(13)*side.
    """
    s = Fraction(small_side)
    offset = LatticePoint(0, s)
    return (
        Hexagon(center + offset, s),
        Hexagon(center - offset, s),
    )


def packed_hexagon_triple(
    small_side: Rational = Fraction(1, 2), center: LatticePoint = ORIGIN
) -> tuple[Hexagon, Hexagon, Hexagon]:
    """Three mutually edge-adjacent hexagons sharing the vertex at ``center``.

    Each center lies one circumradius from the shared vertex, at 60, 180 and
    300 degrees, which is exactly how three honeycomb cells meet.
    """
    s = Fraction(small_side)
    offsets = (LatticePoint(s, s), LatticePoint(-2 * s, 0), LatticePoint(s, -s))
    return tuple(Hexagon(center + off, s) for off in offsets)


@dataclass(frozen=True)
class PackingWitness:
    """Certified packing: how many half-side hexagons fit, and a configuration."""

    count: int
    hexagons: tuple[Hexagon, ...]
    diameter: float


def count_packed_small_hexagons(big: Hexagon) -> PackingWitness:
    """Maximum number of non-overlapping half-side hexagons inside ``big``.

    Returns 3 with an explicit witness; containment is checked vertex by
    vertex with the exact closed-hexagon test, mutual non-overlap with the
    exact interior test, and the witness diameter is certified to stay below
    the largest diagonal of ``big``.
    """
    witness = packed_hexagon_triple(big.side / 2, big.center)
    for small in witness:
        for vertex in small.vertices():
            if not big.contains(vertex):
                raise AssertionError("witness hexagon escapes the container")
    for first, second in combinations(witness, 2):
        if hexagons_overlap(first, second):
            raise AssertionError("witness hexagons overlap")
    diameter = packing_diameter(witness)
    if diameter >= 2.0 * float(big.side):
        raise AssertionError("witness diameter reaches the container diagonal")
    return PackingWitness(count=3, hexagons=witness, diameter=diameter)

"""Float membership tests and small constructions that only the tests use.

The program tests membership with ``tiling.region_contains`` and exact
``Hexagon.contains``; these per-shape float tests check sampled points and
the exact tests against each other.
"""

from fractions import Fraction

from hexcover.geometry import ORIGIN, SQRT3, Hexagon, LatticePoint


def hexagon_area(side: float) -> float:
    """Area of a regular hexagon: six equilateral triangles of the same side."""
    return 1.5 * SQRT3 * side * side


def hexagon_contains_xy(hexagon, x: float, y: float, scale: float = 1.0, tol: float = 1e-12) -> bool:
    """Float membership in the closed hexagon; ``tol`` is relative to the scale."""
    cx, cy = hexagon.center.to_xy(scale)
    dx, dy = x - cx, y - cy
    bound = float(hexagon.side) * SQRT3 * 0.5 * scale + tol * scale
    return (
        abs(dy) <= bound
        and abs(SQRT3 * dx + dy) * 0.5 <= bound
        and abs(SQRT3 * dx - dy) * 0.5 <= bound
    )


def barycentric_xy(triangle, x: float, y: float, scale: float = 1.0) -> tuple[float, float, float]:
    (ax, ay), (bx, by), (cx, cy) = triangle.vertices_xy(scale)
    det = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
    u = ((by - cy) * (x - cx) + (cx - bx) * (y - cy)) / det
    v = ((cy - ay) * (x - cx) + (ax - cx) * (y - cy)) / det
    return u, v, 1.0 - u - v


def triangle_contains_xy(triangle, x: float, y: float, scale: float = 1.0, tol: float = 1e-12) -> bool:
    """Closed membership via barycentric coordinates."""
    return all(component >= -tol for component in barycentric_xy(triangle, x, y, scale))


def packed_hexagon_rhombus(small_side=Fraction(1, 2), center=ORIGIN):
    """Four mutually non-overlapping hexagons in a rhombic cluster.

    The two extreme vertices are collinear with the first and last centers and
    sit 5*side apart.
    """
    s = Fraction(small_side)
    offsets = (ORIGIN, LatticePoint(3 * s, s), LatticePoint(3 * s, -s), LatticePoint(6 * s, 0))
    return tuple(Hexagon(center + off, s) for off in offsets)

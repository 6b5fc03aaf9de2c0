"""Float membership tests and small constructions that only the tests use.

The program tests patch membership with one kernel, ``tiling.region_mask``,
on the nodes of a lattice, and exact membership with ``Hexagon.contains``.
``brute_force_contains`` is the scattered-point oracle for the kernel: the
same band tests, point by point and hexagon by hexagon.  ``near_tiles`` is
the comparison scheme's candidate window for those oracles, wider than the
program's own.  The per-shape float tests check sampled points and the exact
tests against each other.
"""

import math
from fractions import Fraction

import numpy as np

from hexcover import benchmark
from hexcover.geometry import ORIGIN, SQRT3, Hexagon, LatticePoint
from hexcover.tiling import REGION_TOL


def brute_force_contains(model, points, tol=REGION_TOL):
    """Union over every patch hexagon of its three edge-normal bands, widened by ``tol`` sides, at float points (n, 2).

    A hexagon tests only the points whose x lies within 1.01 times its
    widened half-width of its center: the slanted bands together bound
    sqrt(3)|dx| by 2 * bound, so no point they hold lies farther.
    """
    bound = SQRT3 * 0.5 * model.side + tol * model.side
    reach = 1.01 * 2 * bound / SQRT3
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    inside = np.zeros(len(points), dtype=bool)
    for hexagon in model.hexagons:
        cx, cy = hexagon.center.to_xy(model.side)
        near = order[np.searchsorted(xs, cx - reach):np.searchsorted(xs, cx + reach, "right")]
        dx = points[near, 0] - cx
        dy = points[near, 1] - cy
        inside[near] |= (
            (np.abs(dy) <= bound)
            & (np.abs(SQRT3 * dx + dy) * 0.5 <= bound)
            & (np.abs(SQRT3 * dx - dy) * 0.5 <= bound)
        )
    return inside


def near_tiles(model, offset):
    """Labels, float centers and vertices of every tile centered within the patch's bounding box widened by one side.

    The oracle's own window, wider than the kernel's.  Its labels count from
    the offset with x reduced modulo the tiling's x-period 3/2, and that
    reduced offset is what it hands ``_small_hexagon_xy``, so its centers
    mean the same to a kernel that reduces x and to one that does not.
    """
    x, y = Fraction(offset[0]) % Fraction(3, 2), Fraction(offset[1])
    # in sides: tile (q, w) is centered at (x + 3q/4, y + (q + 2w) sqrt(3)/4)
    half_width, half_height = (3 * model.layers - 1) / 2 + 1, (2 * model.layers - 1) * SQRT3 / 2 + 1
    q = np.arange(math.floor((-half_width - x) * 4 / 3), math.ceil((half_width - x) * 4 / 3) + 1)
    m_low, m_high = (-half_height - float(y)) * 4 / SQRT3, (half_height - float(y)) * 4 / SQRT3
    w = np.arange(math.floor((m_low - q[-1]) / 2), math.ceil((m_high - q[0]) / 2) + 1)
    tiles = np.stack(np.meshgrid(q, w, indexing="ij"), axis=-1).reshape(-1, 2)
    centers, vertices = benchmark._small_hexagon_xy(tiles, (x, y), model.side)
    near = (np.abs(centers[:, 0]) <= half_width * model.side) & (np.abs(centers[:, 1]) <= half_height * model.side)
    return tiles[near], centers[near], vertices[near]


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

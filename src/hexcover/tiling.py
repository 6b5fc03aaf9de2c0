"""Layered honeycomb patches on integer lattice coefficients.

A patch of ``layers`` rings of side-r hexagons: one central hexagon counts as
layer 1, and layer j >= 2 holds the 6*(j-1) hexagons at honeycomb graph
distance j-1 from the center.  Hexagon centers are indexed by axial integer
coordinates so neighbor arithmetic stays exact.  A point (x * r/2,
y * sqrt(3) * r/2) is stored as its lattice coefficients (x, y): the center
of the hexagon at axial (q, w) is the integer pair (3q, q + 2w), its vertices
add ``VERTEX_OFFSETS``, and the patch's 6 l^2 distinct vertices are one
integer array, deduplicated exactly with ``np.unique``.  ``units_xy`` turns
coefficients into meters with ``LatticePoint.to_xy``'s expression, so the
floats equal the exact points' bit for bit.  The float kernels that sampling
code shares also live here: the patch-membership test ``region_contains``
and the triangle sampler ``triangle_samples``.

``region_contains`` rounds each point to its nearest hexagon center in axial
coordinates and tests that hexagon and its six neighbors, so its cost is at
most seven band tests per point whatever the patch size.  It is exact with
respect to a scan over every patch hexagon: any hexagon whose widened bands
hold a point is the nearest one or a neighbor of it (see its docstring).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ORIGIN, SQRT3, Hexagon, LatticePoint

EVEN = "even"
ODD = "odd"
PARITY_NAMES = (EVEN, ODD)

REGION_TOL = 1e-12  # relative, for clipping float points to the patch
REGION_CHUNK = 1 << 15  # points per membership-kernel pass

# Axial neighbor steps, counterclockwise from 30 degrees.
AXIAL_DIRECTIONS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def axial_center(q: int, w: int) -> LatticePoint:
    """Lattice position of the hexagon center at axial coordinates (q, w)."""
    return LatticePoint(3 * q, q + 2 * w)


def axial_distance(q: int, w: int) -> int:
    return (abs(q) + abs(w) + abs(q + w)) // 2


def axial_ring(radius: int) -> list[tuple[int, int]]:
    """The 6*radius axial coordinates at graph distance ``radius`` (>= 1)."""
    cells = []
    q, w = radius, 0
    walk = (2, 3, 4, 5, 0, 1)
    for direction in walk:
        dq, dw = AXIAL_DIRECTIONS[direction]
        for _ in range(radius):
            cells.append((q, w))
            q, w = q + dq, w + dw
    return cells


# Lattice coefficients of the six vertices of the unit hexagon at the origin,
# in ``Hexagon.vertices`` order (vertex i at angle 60*i degrees).
VERTEX_OFFSETS = np.array([(int(v.x), int(v.y)) for v in Hexagon(ORIGIN).vertices()])


def vertex_parity(vertices: np.ndarray) -> np.ndarray:
    """Index into ``PARITY_NAMES`` (0 even, 1 odd) of each vertex's angle index, from any incident hexagon."""
    # Vertex i of the hexagon at x = 3q has x = 3q + (2, 1, -1, -2, -1, 1)[i].
    return 2 - vertices[:, 0] % 3


@dataclass(eq=False)
class SolarModel:
    """A ``layers``-ring patch of side-``side`` hexagons.

    ``vertices`` holds the integer lattice coefficients (6 l^2, 2) of the
    distinct patch vertices, in order of first occurrence when the hexagons'
    vertices are listed hexagon by hexagon.
    """

    layers: int
    side: float
    axial: tuple[tuple[int, int], ...]
    layer_of: tuple[int, ...]
    vertices: np.ndarray

    def __post_init__(self) -> None:
        self.vertices.setflags(write=False)

    @functools.cached_property
    def hexagons(self) -> tuple[Hexagon, ...]:
        """The exact hexagon of every cell, in ``axial`` order, built on first use."""
        return tuple(Hexagon(axial_center(q, w)) for q, w in self.axial)

    def vertex_count(self) -> int:
        return len(self.vertices)

    def vertex_class(self, parity: str) -> np.ndarray:
        """Lattice coefficients of the vertices of one parity class, in ``vertices`` order."""
        if parity not in PARITY_NAMES:
            raise ValueError(f"parity must be one of {PARITY_NAMES}, got {parity!r}")
        return self.vertices[vertex_parity(self.vertices) == PARITY_NAMES.index(parity)]

    def bounding_box(self) -> tuple[float, float, float, float]:
        """(min_x, min_y, max_x, max_y) over every patch vertex, in closed form.

        The extreme vertices have lattice coefficients x = ±(3l - 1) (the
        angle-0 and angle-180 vertices of the outermost cells on the x axis)
        and y = ±(2l - 1) (the top and bottom vertices of the outermost cells
        on the y axis).  Each bound is the expression ``LatticePoint.to_xy``
        evaluates on that vertex, so it equals a scan over every vertex bit
        for bit.
        """
        half = 0.5 * self.side
        x_units, y_units = 3 * self.layers - 1, 2 * self.layers - 1
        return (
            float(-x_units) * half,
            float(-y_units) * SQRT3 * half,
            float(x_units) * half,
            float(y_units) * SQRT3 * half,
        )


def hexagon_count(layers: int) -> int:
    """Closed-form hexagon count of a ``layers``-ring patch: 1 + 3l(l-1)."""
    return 1 + 3 * layers * (layers - 1)


def vertex_count(layers: int) -> int:
    """Closed-form distinct-vertex count: 6*l^2."""
    return 6 * layers * layers


def center_units(axial: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Integer lattice coefficients (3q, q + 2w) of the hexagon centers at axial (q, w), in order."""
    q, w = np.array(axial).T
    return np.column_stack([3 * q, q + 2 * w])


def units_xy(units: np.ndarray, side: float) -> np.ndarray:
    """``LatticePoint.to_xy`` of lattice coefficients (n, 2): integers below 2**53 or correctly rounded floats."""
    half = 0.5 * side
    return np.column_stack([units[:, 0].astype(float) * half, units[:, 1].astype(float) * SQRT3 * half])


def _corners(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct corners (m, 2) of the hexagons at ``centers``, first occurrence first, and their (h, 6) indices."""
    listed = (centers[:, None, :] + VERTEX_OFFSETS).reshape(-1, 2)
    # Each row as one complex number (integers below 2**53 convert exactly)
    # equals another iff both coefficients do.
    _, first, inverse = np.unique(listed.astype(float).view(complex), return_index=True, return_inverse=True)
    order = np.argsort(first)
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    return listed[first[order]], position[inverse.reshape(-1)].reshape(-1, 6)


def build_solar_model(layers: int, side: float = 1.0) -> SolarModel:
    """Build the patch: central hexagon plus rings, vertices deduplicated exactly."""
    if layers < 1:
        raise ValueError(f"layer count must be >= 1, got {layers}")
    if not 0 < side < math.inf:
        raise ValueError(f"side length must be positive and finite, got {side}")

    axial: list[tuple[int, int]] = [(0, 0)]
    layer_of: list[int] = [1]
    for ring in range(1, layers):
        for cell in axial_ring(ring):
            axial.append(cell)
            layer_of.append(ring + 1)

    return SolarModel(
        layers=layers,
        side=side,
        axial=tuple(axial),
        layer_of=tuple(layer_of),
        vertices=_corners(center_units(axial))[0],
    )


def region_contains(model: SolarModel, points: np.ndarray, tol: float = REGION_TOL) -> np.ndarray:
    """Closed membership of each float point (meters) in the union of patch hexagons.

    A point is inside when all three edge-normal bands of some patch
    hexagon, widened by ``tol`` times the side, hold it.  Only the honeycomb
    cell nearest to the point (cube rounding of its fractional axial
    coordinates) and its six neighbors are tested, those in the patch.
    That is complete: a hexagon whose widened bands hold the point lies
    within 2/sqrt(3)*tol < 0.6 sides of it, the nearest cell holds it up to
    float rounding, and two cells that are not neighbors are a whole side
    apart.  Each test is the same float expression on the same rounded
    center as in a scan over every hexagon, so the mask is bit-identical to
    that scan's.  Points go through in chunks of ``REGION_CHUNK``, so the
    temporaries stay small whatever the input and patch sizes.
    """
    if not 0 <= tol < 0.5:
        raise ValueError(f"region tolerance must lie in [0, 0.5), got {tol}")
    half = 0.5 * model.side
    bound = SQRT3 * half + tol * model.side
    reach = model.layers - 1
    # A point in a widened patch hexagon has axial coordinates within
    # reach + 2/3; clamping the rest (fmin/fmax also clamp nan and inf)
    # keeps the rounded coordinates small integers.
    clamp = reach + 2.0
    inside = np.zeros(len(points), dtype=bool)
    for start in range(0, len(points), REGION_CHUNK):
        chunk = slice(start, start + REGION_CHUNK)
        x, y = points[chunk, 0], points[chunk, 1]
        fq = np.fmin(np.fmax(x / (3.0 * half), -clamp), clamp)
        fw = np.fmin(np.fmax((y / (SQRT3 * half) - fq) * 0.5, -clamp), clamp)
        fs = -fq - fw
        q, w, s = np.rint(fq), np.rint(fw), np.rint(fs)
        dq, dw, ds = np.abs(q - fq), np.abs(w - fw), np.abs(s - fs)
        fix_q = (dq > dw) & (dq > ds)
        fix_w = ~fix_q & (dw > ds)
        q = np.where(fix_q, -w - s, q).astype(np.int64)
        w = np.where(fix_w, -q - s, w).astype(np.int64)
        hit = inside[chunk]
        for dq_step, dw_step in ((0, 0),) + AXIAL_DIRECTIONS:
            cq, cw = q + dq_step, w + dw_step
            dx = x - (3 * cq).astype(float) * half
            dy = y - (cq + 2 * cw).astype(float) * SQRT3 * half
            hit |= (
                (axial_distance(cq, cw) <= reach)
                & (np.abs(dy) <= bound)
                & (np.abs(SQRT3 * dx + dy) * 0.5 <= bound)
                & (np.abs(SQRT3 * dx - dy) * 0.5 <= bound)
            )
    return inside


def triangle_samples(
    origin: np.ndarray, a: np.ndarray, b: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Points origin + u(a - origin) + v(b - origin) in the triangles (origin, a, b).

    Pairs with u + v > 1 are reflected to (1 - u, 1 - v), in place, so uniform
    draws in the unit square give uniform points in each triangle with no
    rejection.
    """
    fold = u + v > 1.0
    u[fold] = 1.0 - u[fold]
    v[fold] = 1.0 - v[fold]
    return origin + u[:, None] * (a - origin) + v[:, None] * (b - origin)


def model_to_dict(model: SolarModel) -> dict:
    """JSON-ready description of the patch (centers, vertices, classes).

    Each vertex lists its incident hexagons in increasing index order.
    """
    centers = center_units(model.axial)
    vertices, corners = _corners(centers)
    by_vertex = np.argsort(corners.reshape(-1), kind="stable")
    incident = np.split(by_vertex // 6, np.cumsum(np.bincount(corners.reshape(-1)))[:-1])
    return {
        "layers": model.layers,
        "side": model.side,
        "hexagon_count": len(model.axial),
        "hexagon_centers": units_xy(centers, model.side).tolist(),
        "vertices": [
            {"x": x, "y": y, "class": PARITY_NAMES[parity], "hexagons": hexagons.tolist()}
            for (x, y), parity, hexagons in zip(
                units_xy(vertices, model.side).tolist(), vertex_parity(vertices).tolist(), incident
            )
        ],
    }

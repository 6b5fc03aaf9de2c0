"""Layered honeycomb patches on integer lattice coefficients.

A patch of ``layers`` rings of side-r hexagons: one central hexagon counts as
layer 1, and layer j >= 2 holds the 6*(j-1) hexagons at honeycomb graph
distance j-1 from the center.  Hexagon centers are indexed by axial integer
coordinates so neighbor arithmetic stays exact.  A point (x * r/2,
y * sqrt(3) * r/2) is stored as its lattice coefficients (x, y): the center
of the hexagon at axial (q, w) is the integer pair (3q, q + 2w), its vertices
add ``VERTEX_OFFSETS``, and the patch's 6 l^2 distinct vertices are one
integer array, deduplicated exactly by ``np.unique`` of their ``row_keys``.
``units_xy`` turns coefficients into meters with ``LatticePoint.to_xy``'s
expression, so the floats equal the exact points' bit for bit.  The float
kernels that sampling code shares also live here: the triangle table
``patch_triangles``, the patch-membership test ``region_contains`` and the
sampler ``triangle_samples``.

``region_contains``, at the one band ``REGION_TOL``, clips the verify grid and
the comparison scheme's tiles.  It tests each point against the four cells of
its floor block in axial coordinates, four band tests per point whatever the
patch size, and agrees with a scan over every patch hexagon.
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

REGION_TOL = 1e-12  # patch-membership band, relative to the side
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
        on the y axis).  The bounds are ``units_xy`` of those coefficients,
        so they equal a scan over every vertex bit for bit.
        """
        x_units, y_units = extreme_units(self.layers)
        return tuple(units_xy(np.array([[-x_units, -y_units], [x_units, y_units]]), self.side).ravel().tolist())


def extreme_units(layers: int) -> tuple[int, int]:
    """Largest |x| and |y| lattice coefficients of a patch vertex (see ``bounding_box``)."""
    return 3 * layers - 1, 2 * layers - 1


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


def patch_triangles(model: SolarModel) -> np.ndarray:
    """Float corners (6H, 3, 2), in meters, of every center-vertex-vertex triangle of the patch.

    Hexagons come in ``axial`` order, their triangles and corners in
    ``Hexagon.triangles`` order, each corner equal to ``vertices_xy`` bit for bit.
    """
    centers = center_units(model.axial)[:, None, :]
    spokes = centers + VERTEX_OFFSETS
    corners = np.stack([np.broadcast_to(centers, spokes.shape), spokes, np.roll(spokes, -1, axis=1)], axis=2)
    return units_xy(corners.reshape(-1, 2), model.side).reshape(-1, 3, 2)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each (x, y) row of ``rows`` (n, 2) as one complex key x + iy, equal iff both coordinates are.

    ``np.unique`` sorts the keys in (x, y) order.  Exact for floats and for
    integers below 2**53, which convert to floats exactly.
    """
    return np.ascontiguousarray(rows, dtype=float).view(complex)[:, 0]


def _corners(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct corners (m, 2) of the hexagons at ``centers``, first occurrence first, and their (h, 6) indices."""
    listed = (centers[:, None, :] + VERTEX_OFFSETS).reshape(-1, 2)
    _, first, inverse = np.unique(row_keys(listed), return_index=True, return_inverse=True)
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

    axial = [(0, 0)]
    for ring in range(1, layers):
        axial.extend(axial_ring(ring))

    return SolarModel(
        layers=layers,
        side=side,
        axial=tuple(axial),
        vertices=_corners(center_units(axial))[0],
    )


def region_contains(model: SolarModel, points: np.ndarray) -> np.ndarray:
    """Closed membership of each float point (meters) in the union of patch hexagons.

    A point is inside when all three edge-normal bands of some patch hexagon,
    widened by ``REGION_TOL`` times the side, hold it.  With q0 and w0 the
    floors of the point's fractional axial coordinates, only the patch cells
    among (q0, w0), (q0 + 1, w0), (q0, w0 + 1) and (q0 + 1, w0 + 1) are
    tested.  That is complete: a hexagon widened by a band of t sides reaches
    at most (2/3)(1 + 2t/sqrt(3)) axial units from its center in q and in w,
    below 1 for any band below sqrt(3)/4 sides, so only the two integers
    around each coordinate can hold the point; at ``REGION_TOL`` the margin
    is a third of a unit, far above the float rounding.  Each test is the
    same float expression on the same rounded center as in a scan over every
    hexagon, so the mask is bit-identical to that scan's.  Points go through
    in chunks of ``REGION_CHUNK``, so the temporaries stay small.
    """
    half = 0.5 * model.side
    bound = SQRT3 * half + REGION_TOL * model.side
    reach = model.layers - 1
    # A point in a widened patch hexagon has axial coordinates within
    # reach + 1; clamping the rest (fmin/fmax also clamp nan and inf)
    # keeps the floors small integers.
    clamp = reach + 2.0
    inside = np.zeros(len(points), dtype=bool)
    for start in range(0, len(points), REGION_CHUNK):
        chunk = slice(start, start + REGION_CHUNK)
        x, y = points[chunk, 0], points[chunk, 1]
        fq = np.fmin(np.fmax(x / (3.0 * half), -clamp), clamp)
        fw = np.fmin(np.fmax((y / (SQRT3 * half) - fq) * 0.5, -clamp), clamp)
        q, w = np.floor(fq).astype(np.int64), np.floor(fw).astype(np.int64)
        hit = inside[chunk]
        for dq, dw in ((0, 0), (1, 0), (0, 1), (1, 1)):
            cq, cw = q + dq, w + dw
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

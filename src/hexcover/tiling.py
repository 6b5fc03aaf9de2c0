"""Layered honeycomb patches with an exact, deduplicated vertex registry.

A patch of ``layers`` rings of side-r hexagons: one central hexagon counts as
layer 1, and layer j >= 2 holds the 6*(j-1) hexagons at honeycomb graph
distance j-1 from the center.  Hexagon centers are indexed by axial integer
coordinates so neighbor arithmetic stays exact.  The float kernels that
sampling code shares also live here: the patch-membership test
``region_contains`` and the triangle sampler ``triangle_samples``.

``region_contains`` rounds each point to its nearest hexagon center in axial
coordinates and tests that hexagon and its six neighbors, so its cost is at
most seven band tests per point whatever the patch size.  It is exact with
respect to a scan over every patch hexagon: any hexagon whose widened bands
hold a point is the nearest one or a neighbor of it (see its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import SQRT3, Hexagon, LatticePoint

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


@dataclass
class VertexRecord:
    """One deduplicated honeycomb vertex.

    ``parity`` is the angle-index parity (vertex i of any incident hexagon has
    i even or i odd consistently; the honeycomb vertex graph is bipartite).
    """

    position: LatticePoint
    parity: str
    incident_hexagons: list[int] = field(default_factory=list)


@dataclass
class SolarModel:
    """A ``layers``-ring patch of side-``side`` hexagons with its vertex registry."""

    layers: int
    side: float
    hexagons: tuple[Hexagon, ...]
    axial: tuple[tuple[int, int], ...]
    layer_of: tuple[int, ...]
    vertex_registry: dict[LatticePoint, VertexRecord]

    def hexagon_count(self) -> int:
        return len(self.hexagons)

    def vertex_count(self) -> int:
        return len(self.vertex_registry)

    def vertex_class(self, parity: str) -> list[LatticePoint]:
        """All registry vertices of one parity class, in registry order."""
        if parity not in PARITY_NAMES:
            raise ValueError(f"parity must be one of {PARITY_NAMES}, got {parity!r}")
        return [
            record.position
            for record in self.vertex_registry.values()
            if record.parity == parity
        ]

    def neighbors_present(self, index: int) -> int:
        """How many of the six axial neighbors of hexagon ``index`` are in the patch."""
        q, w = self.axial[index]
        cells = set(self.axial)
        return sum((q + dq, w + dw) in cells for dq, dw in AXIAL_DIRECTIONS)

    def bounding_box(self) -> tuple[float, float, float, float]:
        xs: list[float] = []
        ys: list[float] = []
        for hexagon in self.hexagons:
            for vertex in hexagon.vertices():
                x, y = vertex.to_xy(self.side)
                xs.append(x)
                ys.append(y)
        return min(xs), min(ys), max(xs), max(ys)


def hexagon_count(layers: int) -> int:
    """Closed-form hexagon count of a ``layers``-ring patch: 1 + 3l(l-1)."""
    return 1 + 3 * layers * (layers - 1)


def vertex_count(layers: int) -> int:
    """Closed-form distinct-vertex count: 6*l^2."""
    return 6 * layers * layers


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

    hexagons = tuple(Hexagon(axial_center(q, w), Fraction(1)) for q, w in axial)

    registry: dict[LatticePoint, VertexRecord] = {}
    for index, hexagon in enumerate(hexagons):
        for angle_index, vertex in enumerate(hexagon.vertices()):
            parity = PARITY_NAMES[angle_index % 2]
            record = registry.get(vertex)
            if record is None:
                registry[vertex] = VertexRecord(vertex, parity, [index])
            else:
                if record.parity != parity:
                    raise AssertionError(
                        "vertex parity disagrees between incident hexagons"
                    )
                record.incident_hexagons.append(index)

    return SolarModel(
        layers=layers,
        side=side,
        hexagons=hexagons,
        axial=tuple(axial),
        layer_of=tuple(layer_of),
        vertex_registry=registry,
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
    """JSON-ready description of the patch (centers, vertices, classes)."""
    centers = [h.center.to_xy(model.side) for h in model.hexagons]
    vertices = [
        {
            "x": record.position.to_xy(model.side)[0],
            "y": record.position.to_xy(model.side)[1],
            "class": record.parity,
            "hexagons": list(record.incident_hexagons),
        }
        for record in model.vertex_registry.values()
    ]
    return {
        "layers": model.layers,
        "side": model.side,
        "hexagon_count": len(model.hexagons),
        "hexagon_centers": [[x, y] for x, y in centers],
        "vertices": vertices,
    }

"""Layered honeycomb patches on integer lattice coefficients.

A patch of ``layers`` rings of side-r hexagons: one central hexagon counts as
layer 1, and layer j >= 2 holds the 6*(j-1) hexagons at honeycomb graph
distance j-1 from the center.  A point (x * r/2, y * sqrt(3) * r/2) is
stored as its lattice coefficients (x, y), so the patch is two integer
arrays: its hexagon centers, pairs (3q, q + 2w) for integers q and w, ring
by ring, and its 6 l^2 distinct vertices, each a center plus one of
``VERTEX_OFFSETS``, deduplicated exactly by one stable sort of the integer
pairs (``row_runs``).  Neighboring centers differ by one of ``NEIGHBOR_STEPS``.
``units_xy`` turns coefficients into meters with ``LatticePoint.to_xy``'s
expression, so the floats equal the exact points' bit for bit.  The float
kernels that sampling code shares also live here: the triangle table
``patch_triangles``, the patch-membership kernel ``region_mask``, the run
kernels behind it and verify's lattice counts, and the sampler
``triangle_samples``.

Patch membership has one kernel, ``region_mask``, one band, ``REGION_TOL``,
and one float expression per hexagon edge.  It takes the nodes of a
lattice, given as two non-decreasing axes, so it clips both the verify grid
and the comparison scheme's tiles, whose vertices are the nodes of one
lattice too.  A hexagon's bands hold on one run of columns per lattice row,
whose ends ``run_ends`` settles with the band tests themselves, so the mask
equals a scan of every node against every patch hexagon, bit for bit,
without building the nodes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import SQRT3, VERTEX_UNITS, Hexagon, LatticePoint

EVEN = "even"
ODD = "odd"
PARITY_NAMES = (EVEN, ODD)

REGION_TOL = 1e-12  # patch-membership band, relative to the side
# (owner, row) runs per ``run_counts`` pass, for the patch mask and verify's
# grid counts alike.  Each pass's temporaries coexist with verify's Monte
# Carlo stage: at 2**13 they take 2.2 MB on the l = 5, k = 60 benchmark
# workload, against 3.5 MB at 2**14, for the same verify time on both
# benchmark workloads.
RUN_CHUNK = 1 << 13

# Lattice coefficients of the six vertices of the unit hexagon at the origin,
# in ``Hexagon.vertices`` order (vertex i at angle 60*i degrees).
VERTEX_OFFSETS = np.array(VERTEX_UNITS)
# Center offsets of the six neighbors, counterclockwise from 30 degrees:
# neighbor i shares the edge from vertex i to vertex i + 1.
NEIGHBOR_STEPS = VERTEX_OFFSETS + np.roll(VERTEX_OFFSETS, -1, axis=0)


def vertex_parity(vertices: np.ndarray) -> np.ndarray:
    """Index into ``PARITY_NAMES`` (0 even, 1 odd) of each vertex's angle index, from any incident hexagon."""
    # Vertex i of the hexagon at x = 3q has x = 3q + (2, 1, -1, -2, -1, 1)[i].
    return 2 - vertices[:, 0] % 3


@dataclass(eq=False)
class SolarModel:
    """A ``layers``-ring patch of side-``side`` hexagons.

    ``centers`` holds the integer lattice coefficients (H, 2) of the
    hexagon centers, ring by ring (``build_solar_model``), and ``vertices``
    those (6 l^2, 2) of the distinct patch vertices, in order of first
    occurrence when the hexagons' vertices are listed hexagon by hexagon.
    """

    layers: int
    side: float
    centers: np.ndarray
    vertices: np.ndarray

    def __post_init__(self) -> None:
        self.centers.setflags(write=False)
        self.vertices.setflags(write=False)

    @functools.cached_property
    def hexagons(self) -> tuple[Hexagon, ...]:
        """The exact hexagon of every cell, in ``centers`` order, built on first use."""
        return tuple(Hexagon(LatticePoint(x, y)) for x, y in self.centers.tolist())

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


def units_xy(units: np.ndarray, side: float) -> np.ndarray:
    """``LatticePoint.to_xy`` of lattice coefficients (n, 2): integers below 2**53 or correctly rounded floats."""
    half = 0.5 * side
    return np.column_stack([units[:, 0].astype(float) * half, units[:, 1].astype(float) * SQRT3 * half])


def patch_triangles(model: SolarModel) -> np.ndarray:
    """Float corners (6H, 3, 2), in meters, of every center-vertex-vertex triangle of the patch.

    Hexagons come in ``centers`` order, their triangles and corners in
    ``Hexagon.triangles`` order, each corner equal to ``vertices_xy`` bit for bit.
    """
    centers = model.centers[:, None, :]
    spokes = centers + VERTEX_OFFSETS
    corners = np.stack([np.broadcast_to(centers, spokes.shape), spokes, np.roll(spokes, -1, axis=1)], axis=2)
    return units_xy(corners.reshape(-1, 2), model.side).reshape(-1, 3, 2)


def row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable (x, y) order of ``rows`` (n, 2), and where each run of equal rows starts in it.

    ``order`` is ``np.lexsort`` by x, then y, and ``starts[i]`` says whether
    ``rows[order[i]]`` differs from ``rows[order[i - 1]]`` (always at i = 0).
    Rows compare exactly, as numbers: -0.0 equals 0.0.  The sort is stable,
    so each run starts at its row's first occurrence.
    """
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    x, y = rows[order].T
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    return order, starts


def _corners(centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct corners (m, 2) of the hexagons at ``centers``, first occurrence first, and their (h, 6) indices."""
    listed = (centers[:, None, :] + VERTEX_OFFSETS).reshape(-1, 2)
    order, starts = row_runs(listed)
    heads = order[starts]  # each distinct corner's first occurrence, in (x, y) order
    first = np.zeros(len(listed), dtype=bool)
    first[heads] = True
    corner = np.empty(len(listed), dtype=np.intp)
    corner[order] = (np.cumsum(first) - 1)[heads][np.cumsum(starts) - 1]
    return listed[first], corner.reshape(-1, 6)


def build_solar_model(layers: int, side: float = 1.0) -> SolarModel:
    """Build the patch: central hexagon plus rings, vertices deduplicated exactly.

    Ring j >= 1 starts at the center j * NEIGHBOR_STEPS[0] and runs
    counterclockwise: its side s walks j steps of NEIGHBOR_STEPS[s + 2] from
    the corner j * NEIGHBOR_STEPS[s].  The CSV's ``hexagon`` column indexes
    this order.
    """
    if layers < 1:
        raise ValueError(f"layer count must be >= 1, got {layers}")
    if not 0 < side < math.inf:
        raise ValueError(f"side length must be positive and finite, got {side}")

    ring = np.arange(1, layers)
    radius = np.repeat(ring, 6 * ring)
    side_of, step = np.divmod(np.arange(len(radius)) - 3 * radius * (radius - 1), radius)
    rings = radius[:, None] * NEIGHBOR_STEPS[side_of] + step[:, None] * NEIGHBOR_STEPS[(side_of + 2) % 6]
    centers = np.concatenate([np.zeros((1, 2), dtype=rings.dtype), rings])
    return SolarModel(layers=layers, side=side, centers=centers, vertices=_corners(centers)[0])


def first_true(holds, start: np.ndarray, n: int) -> np.ndarray:
    """First index in [0, n] where each of many monotone predicates holds; n where one never does.

    ``holds(index, which)`` evaluates the predicates ``which`` (an index
    array, or ``slice(None)`` for all of them) at ``index``, each in [0, n),
    n >= 1; along the axis each predicate fails and then holds.  ``start``
    is any float or integer estimate of the answers.  One test on each side
    of it settles an exact estimate; the others bisect the side their
    answer lies on, so every estimate gives the same answer, and only the
    cost depends on it.
    """
    hi = np.fmin(np.fmax(start, 0), n).astype(np.intp)  # holds here, or n
    lo = hi - 1  # fails here, or -1
    up = (hi < n) & ~holds(np.minimum(hi, n - 1), slice(None))
    down = (hi > 0) & holds(np.maximum(lo, 0), slice(None))
    lo[up], hi[up] = hi[up], n
    hi[down], lo[down] = lo[down], -1
    which = np.flatnonzero(hi - lo > 1)
    while which.size:
        middle = (lo[which] + hi[which]) // 2
        held = holds(middle, which)
        hi[which[held]], lo[which[~held]] = middle[held], middle[~held]
        which = which[hi[which] - lo[which] > 1]
    return hi


def run_ends(tests, axis: np.ndarray, low: np.ndarray, high: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run [lo, hi) of indices of a non-decreasing ``axis`` where every test holds, for each of many problems.

    ``tests(index, which)`` gives a list of (s, holds) pairs for problems
    ``which`` at ``index``: s is non-decreasing along the axis, and holds,
    a function of s, is non-decreasing in s below 0 and non-increasing from
    0 on.  So each test holds on one run, which starts at the first index
    where s >= 0 or the test holds and ends at the first where s >= 0 and
    it fails; the tests' common run starts where all the first predicates
    hold and ends where any second one does.  ``first_true`` settles each
    end with the tests themselves, from an estimate of where the run would
    span the axis values [low, high] if the axis were evenly spaced: an
    uneven axis, even one whose values all repeat, costs time, never the
    result.  An empty run is lo == hi.
    """
    n = len(axis)
    if n == 0:
        return np.zeros(len(low), dtype=np.intp), np.zeros(len(low), dtype=np.intp)

    def entered(index, which):
        return functools.reduce(operator.and_, [(s >= 0) | held for s, held in tests(index, which)])

    def left(index, which):
        return functools.reduce(operator.or_, [(s >= 0) & ~held for s, held in tests(index, which)])

    pitch = (axis[-1] - axis[0]) / (n - 1) if n > 1 else 1.0
    with np.errstate(all="ignore"):  # estimates only: first_true clamps nan and inf
        lo_estimate, hi_estimate = np.ceil((low - axis[0]) / pitch), np.floor((high - axis[0]) / pitch) + 1
    lo = first_true(entered, lo_estimate, n)
    return lo, np.maximum(first_true(left, hi_estimate, n), lo)


def run_counts(shape: tuple[int, int], rows, columns, dtype) -> np.ndarray:
    """How many runs hold each node of a (rows, columns) lattice of ``shape``, given one run of columns per (owner, row).

    ``rows`` holds each owner's run of rows (lo, hi); ``columns(owner,
    row)`` gives the runs of columns (lo, hi) of (owner, row) pairs.  The
    pairs are expanded with ``np.repeat``, owner by owner, in blocks of
    whole row runs: at most ``RUN_CHUNK`` pairs, or one longer run.  Each run
    adds +1 at lo and -1 at hi of a (rows, columns + 1) difference array,
    whose row-wise cumulative sum in ``dtype`` is the count.
    """
    ny, nx = shape
    row_lo, row_hi = rows
    spans = row_hi - row_lo
    ends = np.cumsum(spans)
    first = ends - spans
    shift = row_lo - first
    diff = np.zeros(ny * (nx + 1), dtype=dtype)
    start = 0
    while start < len(spans):
        stop = max(int(np.searchsorted(ends, first[start] + RUN_CHUNK, "right")), start + 1)
        owner = np.repeat(np.arange(start, stop), spans[start:stop])
        row = shift[owner] + np.arange(first[start], first[start] + owner.size)
        lo, hi = columns(owner, row)
        some = lo < hi
        offset = row[some] * (nx + 1)
        np.add.at(diff, offset + lo[some], dtype(1))
        np.add.at(diff, offset + hi[some], dtype(-1))
        start = stop
    counts = diff.reshape(ny, nx + 1)
    np.cumsum(counts, axis=1, dtype=dtype, out=counts)
    return counts[:, :nx]


def region_mask(model: SolarModel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Closed membership of every node (xs[j], ys[i]) of a lattice in the union of patch hexagons, shape (len(ys), len(xs)).

    ``xs`` and ``ys`` are non-decreasing; values may repeat.  A node is
    inside when all three edge-normal bands of some patch hexagon, widened
    by ``REGION_TOL`` times the side, hold it: |dy| <= bound and
    |s| * 0.5 <= bound for s = fl(sqrt(3) dx + dy) and s = fl(sqrt(3) dx -
    dy), with (dx, dy) the node's float offset from the hexagon's rounded
    center.  The |dy| band holds on one run of rows; on each such row each
    s is non-decreasing in x, since fl(x - cx) is, so each slanted band
    holds on one run of columns.  ``run_ends`` settles every run with those
    same float tests, so the mask equals a scan of every node against every
    patch hexagon bit for bit, and no node is built.  ``run_counts`` adds up
    the (hexagon, row) runs, ``RUN_CHUNK`` at a time, in one byte per
    node.  The work is O(hexagons × rows per hexagon) plus a pass over the
    mask.
    """
    half = 0.5 * model.side
    bound = SQRT3 * half + REGION_TOL * model.side
    cx, cy = units_xy(model.centers, model.side).T

    def band(i, hexagon):
        dy = ys[i] - cy[hexagon]
        return [(dy, np.abs(dy) <= bound)]

    def columns(hexagon, row):
        x0, dy = cx[hexagon], ys[row] - cy[hexagon]
        width = (2.0 * bound - np.abs(dy)) / SQRT3

        def slanted(j, pair):
            tilt = SQRT3 * (xs[j] - x0[pair])
            return [(s, np.abs(s) * 0.5 <= bound) for s in (tilt + dy[pair], tilt - dy[pair])]

        return run_ends(slanted, xs, x0 - width, x0 + width)

    rows = run_ends(band, ys, cy - bound, cy + bound)
    # a node lies in at most three hexagons, so a byte holds its count
    return run_counts((len(ys), len(xs)), rows, columns, np.int8) > 0


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
    vertices, corners = _corners(model.centers)
    by_vertex = np.argsort(corners.reshape(-1), kind="stable")
    incident = np.split(by_vertex // 6, np.cumsum(np.bincount(corners.reshape(-1)))[:-1])
    return {
        "layers": model.layers,
        "side": model.side,
        "hexagon_count": len(model.centers),
        "hexagon_centers": units_xy(model.centers, model.side).tolist(),
        "vertices": [
            {"x": x, "y": y, "class": PARITY_NAMES[parity], "hexagons": hexagons.tolist()}
            for (x, y), parity, hexagons in zip(
                units_xy(vertices, model.side).tolist(), vertex_parity(vertices).tolist(), incident
            )
        ],
    }

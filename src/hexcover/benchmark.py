"""The comparison scheme: half-side hexagon tiling with k random sensors per tile.

The small honeycomb shares the big tiling's orientation and is anchored at the
origin (a small hexagon centered there); an exact rational offset can shift
it.  A small hexagon is identified by its coordinates (q, w) on the
small honeycomb and is handled in floats from there on.  Every center and
vertex of a tile is a node of one rectangular lattice (``_tile_lattice``),
whose two axes carry the scheme's one rounding rule.  A tile belongs to the
benchmark iff all six of its vertex nodes are in ``tiling.region_mask`` of
that lattice, the kernel and band that clip the verify grid, and each such
tile receives k uniformly sampled sensors from its own deterministic RNG
stream.

The closed-form count ``benchmark_count`` reports k*(15 l^2 - 27 l + 18) for
k >= 2 as printed in the source scheme; the geometric enumeration is exposed
separately because the two do not agree for small patches (at l = 1 the
formula says 6 small hexagons while only one aligned tile fits, and no
packing can exceed 3).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .deployment import Deployment, InvariantViolation, total_count
# Nothing here builds a ``Hexagon``; the name stays because perfbench/spans.py
# wraps ``benchmark.Hexagon`` and tests/test_tracing.py runs that tracer.
from .geometry import SQRT3, Hexagon
from .tiling import VERTEX_OFFSETS, SolarModel, hexagon_count, region_mask, triangle_samples

SMALL_SIDE = Fraction(1, 2)


def benchmark_count(layers: int, k: int) -> int:
    """Closed-form sensor count of the comparison scheme."""
    if k == 1:
        return hexagon_count(layers)
    return k * small_hexagon_formula_count(layers)


def small_hexagon_formula_count(layers: int) -> int:
    """The printed tile count for the comparison scheme: 15 l^2 - 27 l + 18."""
    return 15 * layers * layers - 27 * layers + 18


def _scan_reach(layers: int) -> int:
    """``small_hexagon_centers`` scans the square |q|, |w| <= 4l + 4 of small-honeycomb coordinates."""
    return 4 * layers + 4


def candidate_count(layers: int) -> int:
    """Small hexagons ``small_hexagon_centers`` tests for containment: (8l + 9)^2."""
    return (2 * _scan_reach(layers) + 1) ** 2


def count_gap(layers: int, k: int) -> int:
    """benchmark_count minus the proposed strategy's total_count (never negative)."""
    gap = benchmark_count(layers, k) - total_count(layers, k)
    if gap < 0:
        raise InvariantViolation(
            f"benchmark count fell below the proposed count at l={layers}, k={k}"
        )
    return gap


# Twice the lattice coefficients (x, y) of the center and the six vertices of
# the half-side hexagon at the origin: the unit hexagon's coefficients.
_SMALL_X2, _SMALL_Y2 = np.vstack([[0, 0], VERTEX_OFFSETS]).T


def _tile_lattice(
    tiles: np.ndarray, offset: tuple[Fraction, Fraction], scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lattice through the centers and vertices of the small hexagons at ``tiles`` (m, 2).

    Returns its non-decreasing axes ``xs`` and ``ys``, in meters, and the
    (row, column) nodes of each hexagon's center and six vertices, two
    (m, 7) arrays.  The hexagon at (q, w) is centered at offset*scale
    plus the lattice point (3q/2, (q + 2w)/2).  With (x0, y0) = 2*offset and
    (j, i) twice a point's lattice coefficients, each axis rounds the way
    ``LatticePoint.to_xy`` does, the offset's y being an extra rational
    term: xs[j] = float(x0 + j/2) * scale/2 and ys[i] = (float(y0) + (i *
    0.5) * sqrt(3)) * scale/2.  The scheme's exports therefore match an
    exact construction bit for bit.
    """
    half = 0.5 * scale
    x0, y0 = 2 * Fraction(offset[0]), 2 * Fraction(offset[1])
    q, w = tiles[:, :1], tiles[:, 1:]
    x2 = 3 * q + _SMALL_X2
    y2 = q + 2 * w + _SMALL_Y2
    x_low, y_low = int(x2.min(initial=0)), int(y2.min(initial=0))
    # x0 + j/2 need not be a binary fraction: round each distinct value once
    # from its exact rational.
    xs = np.array([float(x0 + Fraction(j, 2)) for j in range(x_low, int(x2.max(initial=0)) + 1)]) * half
    ys = (float(y0) + (np.arange(y_low, int(y2.max(initial=0)) + 1) * 0.5) * SQRT3) * half
    return xs, ys, y2 - y_low, x2 - x_low


def _small_hexagon_xy(
    tiles: np.ndarray, offset: tuple[Fraction, Fraction], scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Float centers (m, 2) and vertices (m, 6, 2), in meters, of small hexagons: their ``_tile_lattice`` nodes."""
    xs, ys, rows, columns = _tile_lattice(tiles, offset, scale)
    points = np.stack([xs[columns], ys[rows]], axis=-1)
    return points[:, 0], points[:, 1:]


def small_hexagon_centers(
    model: SolarModel, offset: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
) -> np.ndarray:
    """Small-honeycomb coordinates (q, w) of the half-side hexagons inside the patch, in scan order.

    ``offset`` shifts the small tiling by rational multiples of the side
    length along x and y.  In apothems (sqrt(3)/2 sides), a vertex's exact
    margin to a patch edge is a multiple of 1/4 at zero offset and of 1/(4d)
    for an x offset of denominator d: zero (boundary contact, inside) or far
    wider than ``REGION_TOL`` and the float rounding.  Patch edges sit at
    multiples of the apothem and a y offset at a rational multiple of the
    side, so a margin a + b*sqrt(3) can be nonzero yet arbitrarily small; a
    vertex outside by less than the band counts as inside, as a grid point.
    One ``region_mask`` call clips the lattice of every scanned tile.
    """
    reach = _scan_reach(model.layers)
    steps = np.arange(-reach, reach + 1)
    q, w = np.meshgrid(steps, steps, indexing="ij")
    tiles = np.column_stack([q.ravel(), w.ravel()])
    xs, ys, rows, columns = _tile_lattice(tiles, offset, model.side)
    inside = region_mask(model, xs, ys)
    return tiles[inside[rows[:, 1:], columns[:, 1:]].all(axis=1)]


def place_benchmark(
    model: SolarModel,
    k: int,
    seed: int = 0,
    offset: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0)),
) -> Deployment:
    """Sample k sensors per contained small hexagon, reproducibly from ``seed``.

    Sampling decomposes each hexagon into its six triangles and draws folded
    barycentric coordinates, so it is uniform over the hexagon with no
    rejection loop.  Each small hexagon uses the stream (seed, index), and
    its index in ``small_hexagon_centers`` order is the sensors' ``hexagon``.
    """
    if k < 1:
        raise ValueError(f"coverage target must be >= 1, got {k}")
    centers, vertices = _small_hexagon_xy(small_hexagon_centers(model, offset), offset, model.side)

    count = len(centers)
    tri = np.empty((count, k), dtype=np.int64)
    u, v = np.empty((count, k)), np.empty((count, k))
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        tri[index] = rng.integers(0, 6, size=k)
        u[index] = rng.random(k)
        v[index] = rng.random(k)
    # One sampler call for every hexagon: the same element-wise arithmetic,
    # so the same bits, as one call per hexagon.
    hexagon = np.repeat(np.arange(count), k)
    tri = tri.ravel()
    sensors = triangle_samples(
        centers[hexagon], vertices[hexagon, tri], vertices[hexagon, (tri + 1) % 6], u.ravel(), v.ravel()
    )

    return Deployment(
        model=model,
        k=k,
        strategy="benchmark",
        sensors=sensors,
        provenance=np.full(k * count, "random"),
        hexagon=hexagon,
        meta={"seed": seed, "offset": f"{Fraction(offset[0])}:{Fraction(offset[1])}"},
    )

"""The comparison scheme: half-side hexagon tiling with k random sensors per tile.

The small honeycomb shares the big tiling's orientation and is anchored at the
origin (a small hexagon centered there); an exact rational offset can shift
it.  A small hexagon is identified by its axial coordinates (q, w) on the
small honeycomb and is handled in floats from there on: it belongs to the
benchmark iff all six of its vertices pass the patch-membership test
``tiling.region_contains`` with a 1e-9 band, and each such hexagon receives
k uniformly sampled sensors from its own deterministic RNG stream.

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
from .geometry import ORIGIN, SQRT3, Hexagon
from .tiling import SolarModel, region_contains, triangle_samples

SMALL_SIDE = Fraction(1, 2)


def benchmark_count(layers: int, k: int) -> int:
    """Closed-form sensor count of the comparison scheme."""
    if k == 1:
        return 1 + 3 * layers * (layers - 1)
    return k * small_hexagon_formula_count(layers)


def small_hexagon_formula_count(layers: int) -> int:
    """The printed tile count for the comparison scheme: 15 l^2 - 27 l + 18."""
    return 15 * layers * layers - 27 * layers + 18


def count_gap(layers: int, k: int) -> int:
    """benchmark_count minus the proposed strategy's total_count (never negative)."""
    gap = benchmark_count(layers, k) - total_count(layers, k)
    if gap < 0:
        raise InvariantViolation(
            f"benchmark count fell below the proposed count at l={layers}, k={k}"
        )
    return gap


# Twice the lattice coefficients (x, y) of the center and the six vertices of
# the half-side hexagon at the origin: all integers.
_SMALL_X2, _SMALL_Y2 = np.array(
    [(int(2 * p.x), int(2 * p.y)) for p in (ORIGIN,) + Hexagon(ORIGIN, SMALL_SIDE).vertices()]
).T


def _small_hexagon_xy(
    axial: np.ndarray, offset: tuple[Fraction, Fraction], scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Float centers (m, 2) and vertices (m, 6, 2), in meters, of small hexagons.

    The hexagon at axial (q, w) is centered at offset*scale plus the lattice
    point (3q/2, (q + 2w)/2).  With (x0, y0) = 2*offset and (X, Y) the
    lattice coefficients of a point, each coordinate is rounded the way
    ``LatticePoint.to_xy`` rounds it, the offset's y being an extra rational
    term: x = float(x0 + X) * scale/2 and y = (float(y0) + float(Y) *
    sqrt(3)) * scale/2.  The scheme's exports therefore match an exact
    construction bit for bit.
    """
    half = 0.5 * scale
    x0, y0 = 2 * Fraction(offset[0]), 2 * Fraction(offset[1])
    q, w = axial[:, :1], axial[:, 1:]
    x2 = 3 * q + _SMALL_X2
    y2 = q + 2 * w + _SMALL_Y2
    # x0 + x2/2 need not be a binary fraction: round each distinct value once
    # from its exact rational.
    low, high = int(x2.min(initial=0)), int(x2.max(initial=0))
    x_rounded = np.array([float(x0 + Fraction(j, 2)) for j in range(low, high + 1)])
    xs = x_rounded[x2 - low] * half
    ys = (float(y0) + (y2 * 0.5) * SQRT3) * half
    points = np.stack([xs, ys], axis=-1)
    return points[:, 0], points[:, 1:]


def small_hexagon_centers(
    model: SolarModel, offset: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
) -> np.ndarray:
    """Axial coordinates (q, w) of the half-side hexagons inside the patch, in scan order.

    ``offset`` shifts the small tiling by rational multiples of the side
    length along x and y.  Containment uses the float membership test with a
    1e-9 band: vertex margins are either exactly zero (boundary contact,
    which counts as inside) or bounded away from zero by the quarter-integer
    lattice, so the band never misclassifies.
    """
    reach = 4 * model.layers + 4
    steps = np.arange(-reach, reach + 1)
    q, w = np.meshgrid(steps, steps, indexing="ij")
    axial = np.column_stack([q.ravel(), w.ravel()])
    _, vertices = _small_hexagon_xy(axial, offset, model.side)
    inside = region_contains(model, vertices.reshape(-1, 2), tol=1e-9)
    return axial[inside.reshape(-1, 6).all(axis=1)]


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

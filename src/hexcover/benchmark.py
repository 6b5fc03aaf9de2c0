"""The comparison scheme: half-side hexagon tiling with k random sensors per tile.

The small honeycomb shares the big tiling's orientation and is anchored at the
origin (a small hexagon centered there); an exact rational offset can shift
it.  A small hexagon is identified by its coordinates (q, w) on the small
honeycomb, counted from the offset with its x reduced modulo the tiling's
x-period 3/2 (``_tile_frame``), and is handled in floats from there on.  A y
offset stays below ``OFFSET_Y_BOUND`` sides, where the tile rows' floats
still resolve the patch band.  Every center and vertex of a tile is a node of
one rectangular lattice (``_tile_lattice``), whose two axes carry the
scheme's one rounding rule.  ``small_hexagon_centers`` tests the tiles
centered near the patch's bounding box, a window that the patch and the
offset fix.  A tile belongs to the benchmark iff all six of its vertex nodes
are in ``tiling.region_mask`` of that lattice, the kernel and band that clip
the verify grid, and each such tile receives k uniformly sampled sensors
from its own deterministic RNG stream.

Tile i's stream is ``numpy.random.default_rng([seed, i])``: its k triangle
indices are ``integers(0, 6, k)``, then its barycentrics ``random(k)`` twice.
No ``SeedSequence`` is built per tile: ``_tile_streams`` hashes every tile's
seed at once, bit for bit, in uint32/uint64 arrays (numpy's ``SeedSequence``
hash, O'Neill's seed_seq_fe, and PCG64's seeding).  ``_stream_draws`` then
steps every tile's PCG64 (a 128-bit LCG with XSL-RR output; M. E. O'Neill,
"PCG", 2014) at once in uint64 arrays, one draw at a time, and bounds its
triangle indices by Lemire's method (D. Lemire, ACM TOMACS 2019).  A tile
whose bounded draw would be rejected, about one in 2^30 / k, and every tile
of a call with fewer than ``_FEW`` tiles per draw, is drawn through one
``Generator`` set to its seeded state.

The closed-form count ``analytics.benchmark_count`` reports
k*(15 l^2 - 27 l + 18) for k >= 2 as printed in the source scheme; the
geometric enumeration is exposed separately because the two do not agree
for small patches (at l = 1 the formula says 6 small hexagons while only one
aligned tile fits, and no packing can exceed 3).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice

import numpy as np

from .deployment import Deployment
# Nothing here builds a ``Hexagon``; the name stays because perfbench/spans.py
# wraps ``benchmark.Hexagon`` and tests/test_tracing.py runs that tracer.
from .geometry import SQRT3, Hexagon
from .tiling import REGION_TOL, VERTEX_OFFSETS, SolarModel, extreme_units, region_mask, triangle_samples

SMALL_SIDE = Fraction(1, 2)
# A y offset, in sides, stays below the magnitude from which the float
# spacing at twice it, the tile rows' y0 in half sides, exceeds REGION_TOL:
# 2**12 at REGION_TOL = 1e-12.
OFFSET_Y_BOUND = 2.0 ** (52 + math.floor(math.log2(REGION_TOL)))


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
    # from its exact rational, (2a + jb)/(2b) for x0 = a/b, by Python's
    # correctly rounded integer division.
    a, b = x0.numerator, x0.denominator
    xs = np.array([(2 * a + j * b) / (2 * b) for j in range(x_low, int(x2.max(initial=0)) + 1)]) * half
    ys = (float(y0) + (np.arange(y_low, int(y2.max(initial=0)) + 1) * 0.5) * SQRT3) * half
    return xs, ys, y2 - y_low, x2 - x_low


def _tile_frame(offset: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """``offset`` with x reduced exactly modulo the small tiling's x-period 3/2: the origin of the (q, w) labels.

    Moving the origin by 3/2 along x relabels tile (q, w) as (q - 2, w + 1)
    and keeps every node's exact coordinate, so the same tiles get the same
    floats.  A ValueError for a y offset of ``OFFSET_Y_BOUND`` sides or more in
    magnitude.
    """
    y = Fraction(offset[1])
    if abs(y) >= OFFSET_Y_BOUND:
        raise ValueError(f"the y offset must be below {OFFSET_Y_BOUND:g} sides in magnitude, where the tile "
                         f"rows' float spacing stays within the patch band of {REGION_TOL:g} sides")
    return Fraction(offset[0]) % Fraction(3, 2), y


def _small_hexagon_xy(
    tiles: np.ndarray, offset: tuple[Fraction, Fraction], scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Float centers (m, 2) and vertices (m, 6, 2), in meters, of small hexagons: their ``_tile_lattice`` nodes.

    ``tiles`` are labels from the origin ``_tile_frame(offset)``, as
    ``small_hexagon_centers`` returns them.
    """
    xs, ys, rows, columns = _tile_lattice(tiles, _tile_frame(offset), scale)
    points = np.stack([xs[columns], ys[rows]], axis=-1)
    return points[:, 0], points[:, 1:]


def small_hexagon_centers(
    model: SolarModel, offset: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
) -> np.ndarray:
    """Small-honeycomb coordinates (q, w) of the half-side hexagons inside the patch, in (q, w) order.

    ``offset`` shifts the small tiling by rational multiples of the side
    length along x and y; the labels count from ``_tile_frame(offset)``, and
    a y offset of ``OFFSET_Y_BOUND`` sides or more is a ValueError.  In
    apothems (sqrt(3)/2 sides), a vertex's exact margin to a patch edge is a
    multiple of 1/4 at zero offset and of 1/(4d) for an x offset of
    denominator d: zero (boundary contact, inside) or far wider than
    ``REGION_TOL`` and the float rounding.  Patch edges sit at multiples of
    the apothem and a y offset at a rational multiple of the side, so a
    margin a + b*sqrt(3) can be nonzero yet arbitrarily small; a vertex
    outside by less than the band counts as inside, as a grid point.

    Tile (q, w) is centered at (x + 3q/4, y + (q + 2w) sqrt(3)/4) sides, and
    a kept tile's center lies in the patch box |x| <= x_units/2, |y| <=
    y_units sqrt(3)/2 (``extreme_units``), by half a side along x and
    sqrt(3)/4 sides along y less the band.  So the window takes q between the
    box's exact bounds, and for each q the 2 y_units + 3 values of w from
    q + 2w = 2 y_units + 2 below the rounded row through the box's center:
    at least a row beyond the box on either side.  One ``region_mask`` call
    clips the window's lattice.
    """
    x, y = offset = _tile_frame(offset)
    x_units, y_units = extreme_units(model.layers)
    q = np.arange(-((Fraction(x_units, 2) + x) * 4 // 3), (Fraction(x_units, 2) - x) * 4 // 3 + 1)
    low = round(-4 * float(y) / SQRT3) - 2 * y_units - 2
    w = np.arange(2 * y_units + 3) - (q[:, None] - low) // 2
    tiles = np.column_stack([np.repeat(q, w.shape[1]), w.ravel()])
    xs, ys, rows, columns = _tile_lattice(tiles, offset, model.side)
    inside = region_mask(model, xs, ys)
    return tiles[inside[rows[:, 1:], columns[:, 1:]].all(axis=1)]


_MASK32 = (1 << 32) - 1
# SeedSequence's hash constants: the pool is hashed with (A) and drawn with (B).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# PCG64's 128-bit LCG multiplier, as (low, high) 64-bit limbs.
_PCG_MULT = (0x4385DF649FCCF645, 0x2360ED051FC65DA4)
# ``_stream_draws`` steps every stream at once when there are at least _FEW
# per draw, and otherwise seeds one ``Generator`` per stream: the two cost the
# same at 2 to 3 streams per draw for k <= 60, and at 3 to 8 for k = 250.
_FEW = 4

_Limbs = tuple  # (low, high) 64-bit limbs of 128-bit integers: uint64 arrays or Python ints


def _times(x: _Limbs, y: _Limbs) -> _Limbs:
    """x * y mod 2^128.

    The low limbs' full product takes its high half from 32-bit pieces; every
    other product only needs its low 64 bits, to which uint64 arithmetic wraps.
    """
    x0, x1 = x[0] & _MASK32, x[0] >> 32
    y0, y1 = y[0] & _MASK32, y[0] >> 32
    # in place where the operands already have the product's shape
    middle, t1, t2, high = x0 * y0, x1 * y0, x0 * y1, x1 * y1
    middle >>= 32
    high += t1 >> 32
    high += t2 >> 32
    t1 &= _MASK32
    t2 &= _MASK32
    middle += t1
    middle += t2
    middle >>= 32
    high += middle
    high += x[1] * y[0]
    high += x[0] * y[1]
    return x[0] * y[0], high


def _add(x: _Limbs, y: _Limbs) -> _Limbs:
    """x + y mod 2^128."""
    low = x[0] + y[0]
    return low, x[1] + y[1] + (low < x[0])


def _xsl_rr(x: _Limbs) -> np.ndarray:
    """PCG64's 64-bit output at the states x: high ^ low, rotated right by the state's top 6 bits."""
    folded, rotation = x[0] ^ x[1], x[1] >> 58
    return folded >> rotation | folded << ((64 - rotation) & 63)


def _outputs(state: _Limbs, inc: _Limbs) -> Iterator[np.ndarray]:
    """PCG64's successive 64-bit outputs on every stream at once: each steps s -> M s + inc, then outputs s."""
    while True:
        state = _add(_times(state, _PCG_MULT), inc)
        yield _xsl_rr(state)


def _seed_hash(value: np.ndarray, constant: int, multiplier: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 ``value``, and the hash constant that follows ``constant``."""
    constant_next = constant * multiplier & _MASK32
    value = value ^ constant
    value *= constant_next
    value ^= value >> 16
    return value, constant_next


def _seed_mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool word x with hashed word y."""
    mixed = x * _MIX_L
    mixed -= y * _MIX_R
    mixed ^= mixed >> 16
    return mixed


def _tile_streams(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded PCG64 ``state`` and ``inc`` of ``default_rng([seed, i])`` for i < ``count``.

    Both are (2, count) uint64 arrays of (low, high) 64-bit limbs.  The
    entropy is the seed's little-endian 32-bit words, then the index; its
    length, and so the sequence of hash constants, is the same for every tile.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(count, word, dtype=np.uint32) for word in words]
    entropy.append(np.arange(count, dtype=np.uint32))
    constant = _INIT_A
    pool = []
    for i in range(_POOL_WORDS):
        word = entropy[i] if i < len(entropy) else np.zeros(count, dtype=np.uint32)
        hashed, constant = _seed_hash(word, constant, _MULT_A)
        pool.append(hashed)
    for source in range(_POOL_WORDS):
        for target in range(_POOL_WORDS):
            if source != target:
                hashed, constant = _seed_hash(pool[source], constant, _MULT_A)
                pool[target] = _seed_mix(pool[target], hashed)
    for word in entropy[_POOL_WORDS:]:
        for target in range(_POOL_WORDS):
            hashed, constant = _seed_hash(word, constant, _MULT_A)
            pool[target] = _seed_mix(pool[target], hashed)
    # generate_state(4, uint64): eight 32-bit words, paired low first
    constant = _INIT_B
    state = []
    for i in range(8):
        hashed, constant = _seed_hash(pool[i % _POOL_WORDS], constant, _MULT_B)
        state.append(hashed.astype(np.uint64))
    w0, w1, w2, w3 = (state[2 * i] | state[2 * i + 1] << 32 for i in range(4))
    # PCG64 seeds with initstate = w0:w1 and initseq = w2:w3 (high:low), inc =
    # 2 initseq + 1, then steps 0 -> inc, adds initstate and steps again.
    inc = (w3 << 1 | 1, w2 << 1 | w3 >> 63)
    seeded = _add(_times(_add(inc, (w1, w0)), _PCG_MULT), inc)
    return np.stack(seeded), np.stack(inc)


def _stream_draws(state: np.ndarray, inc: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``integers(0, 6, k)``, ``random(k)`` and ``random(k)`` of ``Generator(PCG64)`` on each seeded stream.

    ``state`` and ``inc`` are (2, n) (low, high) limbs, as ``_tile_streams``
    gives them.  Every stream steps at once, s -> M s + inc, and each draw
    outputs its new state.  ``integers`` takes Lemire's bounded value
    (h * 6) >> 32 from the low, then the high, 32-bit half h of the first
    ceil(k/2) draws; ``random`` takes (x >> 11) 2^-53 of the next 2k, so an
    odd k leaves one half unused.  A stream rejects when some (h * 6) mod
    2^32 < 4, about once in 2^30 / k streams.  The rejected streams, or every
    stream when there are fewer than ``_FEW`` per draw, are drawn through
    ``Generator`` from their seeded states.  Returns tri, u and v, each
    (n, k), and the mask of generator-drawn streams.
    """
    count = state.shape[1]
    draws = -(-k // 2) + 2 * k
    tri = np.empty((count, k), dtype=np.int64)
    u, v = np.empty((count, k)), np.empty((count, k))
    rejected = np.full(count, count < _FEW * draws)
    if count >= _FEW * draws:
        outputs = _outputs((state[0], state[1]), (inc[0], inc[1]))
        halves = (half for out in outputs for half in (out & _MASK32, out >> 32))
        for column, half in enumerate(islice(halves, k)):
            scaled = half * 6
            tri[:, column] = scaled >> 32
            rejected |= (scaled & _MASK32) < 4
        for draw in (u, v):
            for column in range(k):
                draw[:, column] = (next(outputs) >> 11) * 2.0**-53
    if rejected.any():
        bits = np.random.PCG64(0)
        generator = np.random.Generator(bits)
        for index in np.flatnonzero(rejected):
            seeded = {name: int(limbs[1, index]) << 64 | int(limbs[0, index]) for name, limbs in (("state", state), ("inc", inc))}
            bits.state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
            tri[index] = generator.integers(0, 6, size=k)
            u[index] = generator.random(k)
            v[index] = generator.random(k)
    return tri, u, v, rejected


def _tile_draws(seed: int, count: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tile i's triangle indices and barycentric draws: ``default_rng([seed, i])``'s three draws."""
    return _stream_draws(*_tile_streams(seed, count), k)[:3]


def place_benchmark(
    model: SolarModel,
    k: int,
    seed: int = 0,
    offset: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0)),
) -> Deployment:
    """Sample k sensors per contained small hexagon, reproducibly from ``seed``.

    Sampling decomposes each hexagon into its six triangles and draws folded
    barycentric coordinates, so it is uniform over the hexagon with no
    rejection loop.  Each small hexagon's draws are those of
    ``default_rng([seed, index])``: every hexagon's PCG64 state steps at
    once, and only a hexagon whose bounded integer draw rejects is redrawn
    through a ``Generator`` set to its seeded state; with fewer than
    ``_FEW`` hexagons per draw, every hexagon is drawn that way.  Its index
    in ``small_hexagon_centers`` order is the sensors' ``hexagon``.
    """
    if k < 1:
        raise ValueError(f"coverage target must be >= 1, got {k}")
    centers, vertices = _small_hexagon_xy(small_hexagon_centers(model, offset), offset, model.side)

    count = len(centers)
    tri, u, v = _tile_draws(seed, count, k)
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

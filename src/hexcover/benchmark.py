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

Tile i's stream is ``numpy.random.default_rng([seed, i])``: its k triangle
indices are ``integers(0, 6, k)``, then its barycentrics ``random(k)`` twice.
No ``SeedSequence`` is built per tile: ``_tile_streams`` hashes every tile's
seed at once, bit for bit, in uint32/uint64 arrays (numpy's ``SeedSequence``
hash, O'Neill's seed_seq_fe, and PCG64's seeding).  For k <= 1638,
``_stream_draws`` then computes every tile's draws at once in uint64 arrays:
PCG64 (a 128-bit LCG with XSL-RR output; M. E. O'Neill, "PCG", 2014) jumped
ahead in closed form, and Lemire's bounded integers (D. Lemire, ACM TOMACS
2019).  A tile whose bounded draw would be rejected, about one in 2^30 / k,
and every tile of a larger k, is drawn through one ``Generator`` set to its
seeded state.

The closed-form count ``benchmark_count`` reports k*(15 l^2 - 27 l + 18) for
k >= 2 as printed in the source scheme; the geometric enumeration is exposed
separately because the two do not agree for small patches (at l = 1 the
formula says 6 small hexagons while only one aligned tile fits, and no
packing can exceed 3).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache

import numpy as np

# The scheme's closed forms live in ``analytics``; they keep their old paths here.
from .analytics import benchmark_count, count_gap, small_hexagon_formula_count
from .deployment import Deployment
# Nothing here builds a ``Hexagon``; the name stays because perfbench/spans.py
# wraps ``benchmark.Hexagon`` and tests/test_tracing.py runs that tracer.
from .geometry import SQRT3, Hexagon
from .tiling import VERTEX_OFFSETS, SolarModel, region_mask, triangle_samples

SMALL_SIDE = Fraction(1, 2)


def _scan_reach(layers: int) -> int:
    """``small_hexagon_centers`` scans the square |q|, |w| <= 4l + 4 of small-honeycomb coordinates."""
    return 4 * layers + 4


def candidate_count(layers: int) -> int:
    """Small hexagons ``small_hexagon_centers`` tests for containment: (8l + 9)^2."""
    return (2 * _scan_reach(layers) + 1) ** 2


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


_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
# SeedSequence's hash constants: the pool is hashed with (A) and drawn with (B).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# PCG64's 128-bit LCG multiplier, as (low, high) 64-bit limbs.
_PCG_MULT = (0x4385DF649FCCF645, 0x2360ED051FC65DA4)
# The longest stream computed in closed form, in draws (k <= 1638), and the
# (streams x draws) states stepped at once: a few MB of uint64 temporaries.
_WIDTH = 1 << 12
_CHUNK = 1 << 16

_Limbs = tuple  # (low, high) 64-bit limbs of 128-bit integers: uint64 arrays or Python ints


@cache
def _jumps() -> tuple[list[_Limbs], _Limbs]:
    """PCG64's n-step jumps for n = 1, 2, 4, ..., ``_WIDTH`` / 2: s -> M^n s + (1 + M + ... + M^(n-1)) inc.

    Returns the multipliers M^n, as Python-int limbs, and the increments'
    factors, as two uint64 arrays, so that one product scales every tile's inc.
    """
    modulus = 1 << 128
    power, total = _PCG_MULT[1] << 64 | _PCG_MULT[0], 1
    powers, totals = [], []
    for _ in range(_WIDTH.bit_length() - 1):
        powers.append((power & _MASK64, power >> 64))
        totals.append((total & _MASK64, total >> 64))
        power, total = power * power % modulus, total * (power + 1) % modulus
    return powers, tuple(np.array(limb, dtype=np.uint64) for limb in zip(*totals))


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
    gives them.  Draw j (from 1) outputs the state M^j s + (M^(j-1) + ... +
    1) inc.  A stream of at most ``_WIDTH`` draws (k <= 1638) is computed in
    closed form: its draws double from draw 1, ``_CHUNK // draws`` streams per
    pass.  ``integers`` takes Lemire's bounded value (h * 6) >> 32 from the
    low, then the high, 32-bit half h of the first ceil(k/2) draws; ``random``
    takes (x >> 11) 2^-53 of the next 2k, so an odd k leaves one half unused.
    A stream rejects when some (h * 6) mod 2^32 < 4, about once in 2^30 / k
    streams.  The rejected streams, or every stream when they are longer than
    ``_WIDTH``, are drawn through ``Generator`` from their seeded states.
    Returns tri, u and v, each (n, k), and the mask of generator-drawn streams.
    """
    count = state.shape[1]
    half = -(-k // 2)
    draws = half + 2 * k
    tri = np.empty((count, k), dtype=np.int64)
    u, v = np.empty((count, k)), np.empty((count, k))
    rejected = np.full(count, draws > _WIDTH)
    if draws <= _WIDTH:
        rows = _CHUNK // draws
        powers, totals = _jumps()
        levels = (draws - 1).bit_length()
        totals = (totals[0][:levels], totals[1][:levels])
        for start in range(0, count, rows):
            chunk = slice(start, start + rows)
            s, c = (state[0, chunk, None], state[1, chunk, None]), (inc[0, chunk, None], inc[1, chunk, None])
            # the increment each jump adds to each stream's state
            offsets = _times(c, totals)
            low, high = (np.empty((len(s[0]), draws), dtype=np.uint64) for _ in range(2))
            low[:, :1], high[:, :1] = _add(_times(s, _PCG_MULT), c)
            filled = 1
            for i, power in enumerate(powers[:levels]):
                grown = min(filled, draws - filled)
                offset = (offsets[0][:, i:i + 1], offsets[1][:, i:i + 1])
                step = _add(_times((low[:, :grown], high[:, :grown]), power), offset)
                low[:, filled:filled + grown], high[:, filled:filled + grown] = step
                filled += grown
            out = _xsl_rr((low, high))
            halves = np.stack([out[:, :half] & _MASK32, out[:, :half] >> 32], axis=-1).reshape(len(out), 2 * half)
            scaled = halves[:, :k] * 6
            tri[chunk] = scaled >> 32
            rejected[chunk] = ((scaled & _MASK32) < 4).any(axis=1)
            u[chunk] = (out[:, half:half + k] >> 11) * 2.0**-53
            v[chunk] = (out[:, half + k:] >> 11) * 2.0**-53
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
    """Tile i's triangle indices and barycentric draws: ``default_rng([seed, i])``'s three draws, in closed form."""
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
    ``default_rng([seed, index])``: up to k = 1638 they are computed in
    closed form for all hexagons at once, and only a hexagon whose bounded
    integer draw rejects is redrawn through a ``Generator`` set to its seeded
    state; beyond, every hexagon is drawn that way.  Its index in
    ``small_hexagon_centers`` order is the sensors' ``hexagon``.
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

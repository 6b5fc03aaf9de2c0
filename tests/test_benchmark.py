"""Tests for the half-side-hexagon comparison scheme."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from float_geometry import hexagon_contains_xy
from hexcover import benchmark
from hexcover.benchmark import (
    SMALL_SIDE,
    _SMALL_X2,
    _SMALL_Y2,
    _small_hexagon_xy,
    place_benchmark,
    small_hexagon_centers,
)
from hexcover.analytics import benchmark_count, count_gap, hexagon_count, small_hexagon_formula_count, total_count
from hexcover.geometry import ORIGIN, Hexagon, LatticePoint
from hexcover.tiling import build_solar_model, triangle_samples
from stream_reference import reference_tile_draws

# Geometric enumeration of fully contained half-side hexagons, origin-anchored
# tiling.  Frozen from the enumeration itself; the printed closed form
# 15 l^2 - 27 l + 18 exceeds these everywhere (already impossible at l=1,
# where the area ratio of 4 and the packing bound of 3 both forbid 6 tiles).
ENUMERATED_SMALL_HEXAGONS = {1: 1, 2: 19, 3: 61, 4: 127, 5: 217, 6: 331}


def exact_small_hexagon(q, w):
    """The zero-offset half-side hexagon at small-honeycomb axial (q, w), exactly."""
    return Hexagon(LatticePoint(3 * q * SMALL_SIDE, (q + 2 * w) * SMALL_SIDE), SMALL_SIDE)


def exact_small_hexagon_centers(model):
    """Reference scan over the same candidates with exact vertex membership."""
    cells = dict(zip(map(tuple, model.centers.tolist()), model.hexagons))

    def in_patch(p):
        # a containing big hexagon's center (3a, a + 2b) lies within 2 units
        # of p in x and 1 unit in y
        for a in range(math.floor((p.x - 2) / 3), math.ceil((p.x + 2) / 3) + 1):
            for b in range(math.floor((p.y - a - 1) / 2), math.ceil((p.y - a + 1) / 2) + 1):
                big = cells.get((3 * a, a + 2 * b))
                if big is not None and big.contains(p):
                    return True
        return False

    reach = 4 * model.layers + 4
    return [
        (q, w)
        for q in range(-reach, reach + 1)
        for w in range(-reach, reach + 1)
        if all(in_patch(v) for v in exact_small_hexagon(q, w).vertices())
    ]


@pytest.fixture(scope="module")
def model_l1():
    return build_solar_model(1)


@pytest.fixture(scope="module")
def model_l2():
    return build_solar_model(2)


class TestClosedForms:
    @pytest.mark.parametrize("layers,k,expected", [(2, 2, 48), (1, 1, 1), (2, 3, 72)])
    def test_benchmark_count_values(self, layers, k, expected):
        assert benchmark_count(layers, k) == expected

    def test_k1_equals_hexagon_count(self):
        for layers in range(1, 9):
            assert benchmark_count(layers, 1) == 1 + 3 * layers * (layers - 1)

    @pytest.mark.parametrize("layers,k,expected", [(1, 2, 8), (1, 1, 0), (3, 5, 173)])
    def test_count_gap_values(self, layers, k, expected):
        assert count_gap(layers, k) == expected

    def test_gap_nonnegative_table(self):
        for layers in range(1, 9):
            for k in range(1, 11):
                gap = count_gap(layers, k)
                assert gap >= 0
                if k == 1:
                    assert gap == 0

    def test_ratio_approaches_three_fifths(self):
        ratio = total_count(1000, 1000) / benchmark_count(1000, 1000)
        assert abs(ratio - 0.6) < 0.01


class TestEnumeration:
    # at zero offset the kept tiles form the (2l - 1)-ring patch of the small
    # honeycomb; its first six values are ENUMERATED_SMALL_HEXAGONS
    @pytest.mark.parametrize("layers,expected", [(l, hexagon_count(2 * l - 1)) for l in range(1, 21)])
    def test_contained_small_hexagon_counts(self, layers, expected):
        m = build_solar_model(layers)
        assert len(small_hexagon_centers(m)) == expected

    def test_enumeration_disagrees_with_printed_formula(self):
        # dual report: the formula stays the contract for counts, the
        # enumeration drives actual placement
        for layers, enumerated in ENUMERATED_SMALL_HEXAGONS.items():
            assert enumerated < small_hexagon_formula_count(layers)

    def test_tile_table_is_twice_the_exact_half_side_hexagon(self):
        # the table reuses the unit hexagon's vertex offsets; the exact tile is its reference
        exact = [(2 * p.x, 2 * p.y) for p in (ORIGIN,) + Hexagon(ORIGIN, SMALL_SIDE).vertices()]
        assert list(zip(_SMALL_X2.tolist(), _SMALL_Y2.tolist())) == exact

    @pytest.mark.parametrize("layers", sorted(ENUMERATED_SMALL_HEXAGONS))
    def test_float_enumeration_matches_exact(self, layers):
        m = build_solar_model(layers, side=2.5)
        exact = exact_small_hexagon_centers(m)
        assert small_hexagon_centers(m).tolist() == [list(c) for c in exact]
        assert len(exact) == ENUMERATED_SMALL_HEXAGONS[layers]
        # the sampler's float centers and vertices are the exact points, rounded once
        centers, vertices = _small_hexagon_xy(np.array(exact), (Fraction(0), Fraction(0)), 2.5)
        smalls = [exact_small_hexagon(q, w) for q, w in exact]
        assert np.array_equal(centers, [h.center.to_xy(2.5) for h in smalls])
        assert np.array_equal(vertices, [[v.to_xy(2.5) for v in h.vertices()] for h in smalls])

    def test_small_hexagons_inside_patch(self, model_l2):
        for q, w in small_hexagon_centers(model_l2):
            for vertex in exact_small_hexagon(q, w).vertices():
                assert any(big.contains(vertex) for big in model_l2.hexagons)

    def test_offset_shifts_the_tiling(self, model_l2):
        offset = (Fraction(1, 4), Fraction(0))
        base, _ = _small_hexagon_xy(small_hexagon_centers(model_l2), (Fraction(0), Fraction(0)), 1.0)
        shifted, _ = _small_hexagon_xy(small_hexagon_centers(model_l2, offset), offset, 1.0)
        assert len(shifted)
        assert {tuple(c) for c in base}.isdisjoint(tuple(c) for c in shifted)
        assert place_benchmark(model_l2, 1, offset=offset).meta["offset"] == "1/4:0"

    @pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(-5, 7), Fraction(10**150) + Fraction(1, 3)])
    def test_x_offsets_a_period_apart_place_the_same_sensors(self, x):
        # the tiling repeats every 3/2 sides along x: same tiles, same floats, same draws
        model = build_solar_model(3, 2.5)
        placed = [place_benchmark(model, 2, seed=4, offset=(x + 3 * n / Fraction(2), Fraction(-1, 3))) for n in (0, 1, -8)]
        for other in placed[1:]:
            assert np.array_equal(other.sensors.view(np.uint64), placed[0].sensors.view(np.uint64))
            assert np.array_equal(other.hexagon, placed[0].hexagon)
        assert placed[1].meta["offset"] == f"{x + Fraction(3, 2)}:-1/3"


class TestPlaceBenchmark:
    def test_k_sensors_per_small_hexagon(self, model_l1):
        d = place_benchmark(model_l1, 1, seed=3)
        assert d.sensor_count() == 1
        small = exact_small_hexagon(*small_hexagon_centers(model_l1)[0])
        x, y = d.sensors[0]
        assert hexagon_contains_xy(small, x, y, scale=model_l1.side, tol=1e-12)

    def test_sensor_count_is_k_times_enumeration(self, model_l1):
        d = place_benchmark(model_l1, 2, seed=0)
        assert d.sensor_count() == 2 * len(small_hexagon_centers(model_l1))
        assert d.provenance.tolist() == ["random"] * d.sensor_count()

    def test_all_sensors_inside_their_hexagon(self, model_l2):
        d = place_benchmark(model_l2, 3, seed=11)
        smalls = [exact_small_hexagon(q, w) for q, w in small_hexagon_centers(model_l2)]
        for (x, y), owner in zip(d.sensors, d.hexagon):
            assert hexagon_contains_xy(smalls[owner], x, y, scale=model_l2.side, tol=1e-12)

    def test_same_seed_reproduces_positions(self, model_l2):
        a = place_benchmark(model_l2, 2, seed=7)
        b = place_benchmark(model_l2, 2, seed=7)
        assert np.array_equal(a.sensors, b.sensors)

    def test_different_seed_changes_positions(self, model_l2):
        a = place_benchmark(model_l2, 2, seed=7)
        b = place_benchmark(model_l2, 2, seed=8)
        assert not np.array_equal(a.sensors, b.sensors)

    def test_streams_are_per_hexagon(self, model_l2):
        # a hexagon's draws depend on (seed, hexagon index) only, so they can
        # be reproduced in isolation without replaying the other hexagons
        d = place_benchmark(model_l2, 2, seed=5)
        index = 4
        rng = np.random.default_rng([5, index])
        small = exact_small_hexagon(*small_hexagon_centers(model_l2)[index])
        origin = np.array(small.center.to_xy(model_l2.side))
        verts = np.array([v.to_xy(model_l2.side) for v in small.vertices()])
        tri = rng.integers(0, 6, size=2)
        u = rng.random(2)
        v = rng.random(2)
        fold = u + v > 1.0
        u[fold], v[fold] = 1.0 - u[fold], 1.0 - v[fold]
        expected = origin + u[:, None] * (verts[tri] - origin) + v[:, None] * (
            verts[(tri + 1) % 6] - origin
        )
        assert np.array_equal(d.sensors[d.hexagon == index], expected)

    def test_rejects_bad_coverage(self, model_l1):
        with pytest.raises(ValueError):
            place_benchmark(model_l1, 0)

    def test_scales_with_radius(self):
        m = build_solar_model(1, side=10.0)
        d = place_benchmark(m, 1, seed=2)
        x, y = d.sensors[0]
        small = exact_small_hexagon(*small_hexagon_centers(m)[0])
        assert hexagon_contains_xy(small, x, y, scale=10.0, tol=1e-12)


SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 3**90]
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def as_limbs(values):
    """128-bit integers as the (2, n) uint64 (low, high) limbs the stream kernel takes."""
    return np.array([[value & (2**64 - 1) for value in values], [value >> 64 for value in values]], dtype=np.uint64)


def generator_at(state, inc):
    """A ``Generator`` whose PCG64 is set to the seeded (state, inc)."""
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


def assert_same_draws(draws, expected):
    for got, want in zip(draws, expected, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestTileStreams:
    """The stepped streams against one ``default_rng([seed, i])`` per tile, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_states_are_the_generators(self, seed):
        state, inc = benchmark._tile_streams(seed, 3)
        for index in range(3):
            expected = np.random.default_rng([seed, index]).bit_generator.state["state"]
            assert state[:, index].tolist() == as_limbs([expected["state"]])[:, 0].tolist()
            assert inc[:, index].tolist() == as_limbs([expected["inc"]])[:, 0].tolist()

    @pytest.mark.parametrize("count", [0, 1, 2, 1027])
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 11, 60])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_the_per_tile_generators(self, seed, k, count):
        assert_same_draws(benchmark._tile_draws(seed, count, k), reference_tile_draws(seed, count, k))

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 11, 60, 250])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_both_routes_around_the_stream_count(self, seed, k):
        # With fewer than _FEW streams per draw every stream is drawn through
        # Generator from its seeded state; from _FEW per draw they all step
        # at once, and none of these seeds' streams rejects.
        draws = -(-k // 2) + 2 * k
        for count in (benchmark._FEW * draws - 1, benchmark._FEW * draws):
            tri, u, v, routed = benchmark._stream_draws(*benchmark._tile_streams(seed, count), k)
            assert_same_draws((tri, u, v), reference_tile_draws(seed, count, k))
            assert routed.tolist() == [count < benchmark._FEW * draws] * count

    @pytest.mark.parametrize("count", [1, 2, 1027])
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 11, 12, 13])
    @pytest.mark.parametrize("few,stepped", [(0, True), (2**40, False)], ids=["stepped", "generator"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_either_route_at_any_stream_count(self, seed, few, stepped, k, count, monkeypatch):
        # _FEW = 0 steps every call at once, even a single stream; 2^40 sends
        # every call through Generator.  Both draw the same bits.
        monkeypatch.setattr(benchmark, "_FEW", few)
        tri, u, v, routed = benchmark._stream_draws(*benchmark._tile_streams(seed, count), k)
        assert_same_draws((tri, u, v), reference_tile_draws(seed, count, k))
        assert routed.tolist() == [not stepped] * count

    @pytest.mark.parametrize("k", [1638, 1639, 3500])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_long_streams_of_few_tiles(self, seed, k):
        # two streams of 4095, 4098 and 8750 draws take the Generator route
        draws = benchmark._stream_draws(*benchmark._tile_streams(seed, 2), k)
        assert_same_draws(draws[:3], reference_tile_draws(seed, 2, k))
        assert draws[3].tolist() == [True] * 2

    def test_negative_seeds_are_refused(self):
        with pytest.raises(ValueError):
            benchmark._tile_draws(-1, 1, 1)

    @pytest.mark.parametrize("k", [1, 4, 11])
    def test_rejecting_streams_fall_back_to_the_generator(self, k):
        # states one step before the state 2^32 + h, whose first output is
        # itself (high limb 0, so no rotation), with low half h: Lemire's
        # method rejects h * 6 mod 2^32 = 0 and 2 (below 4), and the generator
        # draws again, but keeps 4; the high half 1 is kept either way.  The
        # five streams repeat until there are enough to step them all at once.
        inc = 2**127 + 2**64 + 12345
        landings = [2**32 + h for h in (0, (2**32 + 2) // 6, (2**33 + 4) // 6)]
        crafted = [(landing - inc) * pow(PCG64_MULTIPLIER, -1, 2**128) % 2**128 for landing in landings]
        repeats = -(-benchmark._FEW * (-(-k // 2) + 2 * k) // 5)
        states, incs = [3**80, *crafted, 5**50] * repeats, ([inc] * 4 + [7**40 | 1]) * repeats
        tri, u, v, rejected = benchmark._stream_draws(as_limbs(states), as_limbs(incs), k)
        assert rejected.tolist() == [False, True, True, False, False] * repeats
        for index, (state, increment) in enumerate(zip(states, incs)):
            generator = generator_at(state, increment)
            expected = generator.integers(0, 6, size=k), generator.random(k), generator.random(k)
            assert_same_draws((tri[index], u[index], v[index]), expected)


def per_hexagon_sensors(model, k, seed, offset):
    """The scheme's sensors sampled one small hexagon at a time, one sampler call each."""
    centers, vertices = _small_hexagon_xy(small_hexagon_centers(model, offset), offset, model.side)
    points = [np.zeros((0, 2))]
    for index, (origin, verts) in enumerate(zip(centers, vertices)):
        rng = np.random.default_rng([seed, index])
        tri = rng.integers(0, 6, size=k)
        u = rng.random(k)
        v = rng.random(k)
        points.append(triangle_samples(origin, verts[tri], verts[(tri + 1) % 6], u, v))
    return np.concatenate(points)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    layers=st.integers(1, 6),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    offset=st.tuples(st.fractions(-2, 2, max_denominator=12), st.fractions(-2, 2, max_denominator=12)),
    radius=st.sampled_from([1e-150, 0.3, 10.0, 1e150]),
)
def test_batched_sampling_equals_per_hexagon_loop_bit_for_bit(layers, k, seed, offset, radius):
    model = build_solar_model(layers, radius)
    d = place_benchmark(model, k, seed=seed, offset=offset)
    assert np.array_equal(d.sensors.view(np.uint64), per_hexagon_sensors(model, k, seed, offset).view(np.uint64))
    assert np.array_equal(d.hexagon, np.repeat(np.arange(len(d.sensors) // k), k))

"""Tests for the exact hexagon/triangle kernel."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from float_geometry import (
    barycentric_xy,
    hexagon_area,
    hexagon_contains_xy,
    packed_hexagon_rhombus,
    triangle_contains_xy,
)
from hexcover.geometry import (
    ORIGIN,
    EquilateralTriangle,
    Hexagon,
    LatticePoint,
    count_packed_small_hexagons,
    distance,
    hexagons_overlap,
    midpoint,
    packed_hexagon_pair,
    packed_hexagon_triple,
    packing_diameter,
    sq_dist_units,
)

SQRT3 = math.sqrt(3.0)


class TestLatticePoint:
    def test_equality_and_hash_are_exact(self):
        a = LatticePoint(Fraction(1, 2), 3)
        b = LatticePoint(Fraction(1, 2), Fraction(3))
        assert a == b
        assert hash(a) == hash(b)
        assert a != LatticePoint(Fraction(1, 2), Fraction(5, 2))

    def test_arithmetic(self):
        a = LatticePoint(2, 1)
        b = LatticePoint(1, -1)
        assert a + b == LatticePoint(3, 0)
        assert a - b == LatticePoint(1, 2)
        assert a * Fraction(1, 2) == LatticePoint(1, Fraction(1, 2))
        assert 2 * b == LatticePoint(2, -2)

    def test_to_xy(self):
        p = LatticePoint(1, 2)
        assert p.to_xy(2.0) == (1.0, 2.0 * SQRT3)
        assert LatticePoint(Fraction(-3, 4), Fraction(1, 3)).to_xy(10.0) == (
            -0.75 * 5.0,
            float(Fraction(1, 3)) * SQRT3 * 5.0,
        )

    def test_squared_distance_is_one_rational(self):
        # neighbor centers sit sqrt(3) apart: 3 in side units, 12 in half-side units
        assert sq_dist_units(ORIGIN, LatticePoint(3, 1)) == 12
        assert sq_dist_units(LatticePoint(Fraction(1, 2), 0), LatticePoint(0, Fraction(1, 2))) == 1
        assert distance(ORIGIN, LatticePoint(3, 1), 2.0) == pytest.approx(2.0 * SQRT3, rel=1e-15)


class TestHexagonVertices:
    def test_unit_hexagon_at_origin(self):
        h = Hexagon(ORIGIN)
        verts = [v.to_xy(1.0) for v in h.vertices()]
        assert verts[0] == pytest.approx((1.0, 0.0))
        assert verts[1] == pytest.approx((0.5, SQRT3 / 2))

    def test_counterclockwise_angles(self):
        h = Hexagon(ORIGIN)
        for i, vertex in enumerate(h.vertices()):
            x, y = vertex.to_xy(1.0)
            angle = math.degrees(math.atan2(y, x)) % 360.0
            assert angle == pytest.approx(60.0 * i, abs=1e-9)

    def test_side_two(self):
        h = Hexagon(ORIGIN, Fraction(2))
        assert h.vertices()[3].to_xy(1.0) == pytest.approx((-2.0, 0.0))

    def test_translation_invariance(self):
        # center at (3/2, sqrt(3)/2), the neighbor at 30 degrees
        h = Hexagon(LatticePoint(3, 1))
        assert h.vertices()[0].to_xy(1.0) == pytest.approx((2.5, SQRT3 / 2))

    def test_six_distinct_vertices(self):
        h = Hexagon(LatticePoint(3, 5), Fraction(1, 2))
        assert len(set(h.vertices())) == 6

    def test_side_must_be_positive(self):
        with pytest.raises(ValueError):
            Hexagon(ORIGIN, Fraction(0))


class TestHexagonTriangles:
    def test_construction(self):
        h = Hexagon(ORIGIN)
        tri = h.triangles()[0]
        assert tri.vertices[0] == ORIGIN
        assert tri.vertices[1].to_xy(1.0) == pytest.approx((1.0, 0.0))
        assert tri.vertices[2].to_xy(1.0) == pytest.approx((0.5, SQRT3 / 2))

    def test_areas_sum_to_hexagon_area(self):
        h = Hexagon(LatticePoint(3, 1), Fraction(1))
        total = sum(t.area(2.5) for t in h.triangles())
        assert total == pytest.approx(hexagon_area(2.5), rel=1e-12)

    def test_each_side_equals_hexagon_side(self):
        h = Hexagon(LatticePoint(0, 2), Fraction(1, 2))
        for tri in h.triangles():
            assert sq_dist_units(tri.vertices[0], tri.vertices[1]) == tri.side_sq_units()
            assert tri.side_length(1.0) == pytest.approx(0.5, rel=1e-14)

    def test_partition_property(self):
        # random interior points fall strictly inside exactly one triangle,
        # or on a shared edge (then inside two closed triangles)
        h = Hexagon(ORIGIN)
        triangles = h.triangles()
        rng = np.random.default_rng(11)
        hits_interior = 0
        for _ in range(500):
            x = rng.uniform(-1, 1)
            y = rng.uniform(-1, 1)
            if not hexagon_contains_xy(h, x, y, tol=-1e-9):  # strictly inside only
                continue
            strict = sum(
                all(c > 1e-9 for c in barycentric_xy(t, x, y)) for t in triangles
            )
            closed = sum(triangle_contains_xy(t, x, y, tol=1e-9) for t in triangles)
            assert (strict == 1) or (strict == 0 and closed >= 1)
            hits_interior += 1
        assert hits_interior > 300

    def test_not_equilateral_rejected(self):
        with pytest.raises(ValueError):
            EquilateralTriangle((ORIGIN, LatticePoint(2, 0), LatticePoint(4, 0)))


class TestContainsPoint:
    def test_center_inside(self):
        assert Hexagon(ORIGIN).contains(ORIGIN)

    def test_vertex_on_boundary_counts(self):
        h = Hexagon(ORIGIN)
        assert h.contains(LatticePoint(2, 0))  # (1, 0) at scale 1
        assert not h.strictly_contains(LatticePoint(2, 0))

    def test_outside_largest_diagonal(self):
        assert not Hexagon(ORIGIN).contains(LatticePoint(4, 0))  # (2, 0)

    def test_edge_midpoint_on_boundary(self):
        h = Hexagon(ORIGIN)
        edge_mid = midpoint(h.vertices()[0], h.vertices()[1])
        assert h.contains(edge_mid)
        assert not h.strictly_contains(edge_mid)

    def test_float_test_agrees_with_exact_on_lattice_points(self):
        h = Hexagon(LatticePoint(3, 1))
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = LatticePoint(
                Fraction(int(rng.integers(-4, 13)), 2),
                Fraction(int(rng.integers(-4, 9)), 2),
            )
            x, y = p.to_xy(1.0)
            assert h.contains(p) == hexagon_contains_xy(h, x, y, tol=1e-9)


class TestPackingDiameter:
    def test_single_hexagon_is_largest_diagonal(self):
        assert packing_diameter([Hexagon(ORIGIN)]) == pytest.approx(2.0, rel=1e-14)

    def test_packed_pair(self):
        pair = packed_hexagon_pair()
        assert packing_diameter(pair) == pytest.approx(math.sqrt(13) / 2, rel=1e-12)

    def test_rhombus_of_four(self):
        four = packed_hexagon_rhombus()
        assert packing_diameter(four) == pytest.approx(2.5, rel=1e-12)
        for a, b in combinations(four, 2):
            assert not hexagons_overlap(a, b)

    def test_empty_configuration_rejected(self):
        with pytest.raises(ValueError):
            packing_diameter([])

    def test_scales_with_side(self):
        pair = packed_hexagon_pair(Fraction(5, 2))
        assert packing_diameter(pair) == pytest.approx(5 * math.sqrt(13) / 2, rel=1e-12)


class TestCountPackedSmallHexagons:
    def test_returns_three_with_contained_witness(self):
        big = Hexagon(ORIGIN)
        witness = count_packed_small_hexagons(big)
        assert witness.count == 3
        assert len(witness.hexagons) == 3
        for small in witness.hexagons:
            assert small.side == Fraction(1, 2)
            for vertex in small.vertices():
                assert big.contains(vertex)

    def test_witness_diameter_below_diagonal(self):
        witness = count_packed_small_hexagons(Hexagon(ORIGIN))
        assert witness.diameter < 2.0
        # the three-hexagon cluster realizes the same extreme distance as the
        # packed pair
        assert witness.diameter == pytest.approx(math.sqrt(13) / 2, rel=1e-12)

    def test_scale_invariance(self):
        big = Hexagon(ORIGIN, Fraction(5))
        witness = count_packed_small_hexagons(big)
        assert witness.count == 3
        assert witness.diameter == pytest.approx(5 * math.sqrt(13) / 2, rel=1e-12)

    def test_witness_pairwise_non_overlapping(self):
        witness = count_packed_small_hexagons(Hexagon(ORIGIN))
        for a, b in combinations(witness.hexagons, 2):
            assert not hexagons_overlap(a, b)

    def test_shared_vertex_is_exact(self):
        triple = packed_hexagon_triple()
        common = set(triple[0].vertices()) & set(triple[1].vertices()) & set(triple[2].vertices())
        assert common == {ORIGIN}


class TestExactDedup:
    def test_same_point_from_two_hexagons(self):
        # edge-adjacent hexagons generate their shared vertices through
        # different formulas; the representations must be identical
        a = Hexagon(ORIGIN)
        b = Hexagon(LatticePoint(3, 1))  # neighbor at 30 degrees
        shared = set(a.vertices()) & set(b.vertices())
        assert len(shared) == 2
        for point in shared:
            from_a = [v for v in a.vertices() if v == point][0]
            from_b = [v for v in b.vertices() if v == point][0]
            assert from_a is not from_b or from_a == from_b
            assert hash(from_a) == hash(from_b)

    def test_overlap_detection(self):
        a = Hexagon(ORIGIN)
        assert hexagons_overlap(a, Hexagon(LatticePoint(1, 0)))
        assert not hexagons_overlap(a, Hexagon(LatticePoint(3, 1)))

"""Tests for the placement strategy and its count formulas."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from hexcover.analytics import InvariantViolation, count_by_kind, per_hexagon_count, total_count
from hexcover.geometry import ORIGIN
from hexcover.deployment import place_proposed, placed_by_kind, remove_sensors
from hexcover.tiling import EVEN, ODD, build_solar_model, units_xy


@pytest.fixture(scope="module")
def model_l1():
    return build_solar_model(1)


@pytest.fixture(scope="module")
def model_l2():
    return build_solar_model(2)


def kinds(d):
    return [p.split(":")[0] for p in d.provenance.tolist()]


def segment_fields(d):
    """(segment, round) of every segment sensor, from its provenance ``segment:s:r``."""
    return [tuple(map(int, p.split(":")[1:])) for p in d.provenance.tolist() if p.startswith("segment")]


def xy_set(points):
    return {tuple(xy) for xy in points.tolist()}


class TestPlaceProposed:
    def test_one_coverage_single_hexagon(self, model_l1):
        d = place_proposed(model_l1, 1)
        assert d.sensor_count() == 1
        assert d.sensors.tolist() == [list(ORIGIN.to_xy())]
        assert d.provenance.tolist() == ["center"]
        assert d.hexagon.tolist() == [0]

    def test_two_coverage_single_hexagon(self, model_l1):
        d = place_proposed(model_l1, 2)
        assert d.sensor_count() == 4
        assert kinds(d).count("center") == 1
        assert kinds(d).count("vertex") == 3
        vertex = d.provenance != "center"
        assert set(d.provenance[vertex].tolist()) == {"vertex:even"}
        assert set(d.hexagon[vertex].tolist()) == {-1}
        assert d.meta == {"parity": EVEN}

    def test_parity_flag_selects_other_class(self, model_l1):
        d = place_proposed(model_l1, 2, parity=ODD)
        assert set(d.provenance.tolist()) == {"center", "vertex:odd"}

    def test_four_coverage_adds_segment_midpoints(self, model_l1):
        d = place_proposed(model_l1, 4)
        assert d.sensor_count() == 10
        # first extra round targets the odd-numbered segments (toward the
        # even-index vertices 0, 2, 4) at the midpoint
        assert sorted(segment for segment, _ in segment_fields(d)) == [1, 3, 5]
        hexagon = model_l1.hexagons[0]
        verts = hexagon.vertices()
        expected = {(hexagon.center + (verts[i] - hexagon.center) * Fraction(1, 2)).to_xy() for i in (0, 2, 4)}
        segments = np.array([kind == "segment" for kind in kinds(d)])
        assert xy_set(d.sensors[segments]) == expected
        assert set(d.hexagon[segments].tolist()) == {0}

    def test_five_coverage_uses_even_segments(self, model_l1):
        d = place_proposed(model_l1, 5)
        assert sorted(segment for segment, step in segment_fields(d) if step == 2) == [2, 4, 6]

    def test_l2_k3_enumerates_31(self, model_l2):
        assert len(place_proposed(model_l2, 3).sensors) == 31

    @pytest.mark.parametrize(
        "k, parity, message", [(0, "even", "coverage target"), (2, "both", "parity")], ids=["k0", "parity-both"]
    )
    def test_rejects_bad_coverage(self, model_l1, k, parity, message):
        with pytest.raises(ValueError, match=message):
            place_proposed(model_l1, k, parity=parity)

    def test_dedup_of_shared_vertices(self, model_l2):
        d = place_proposed(model_l2, 3)
        assert len(xy_set(d.sensors)) == d.sensor_count()
        # l=2 has 24 distinct vertices although 7 hexagons nominate 42
        assert kinds(d).count("vertex") == 24

    def test_k3_vertex_sensors_are_exactly_the_registry(self, model_l2):
        d = place_proposed(model_l2, 3)
        vertices = np.array([kind == "vertex" for kind in kinds(d)])
        assert xy_set(d.sensors[vertices]) == xy_set(units_xy(model_l2.vertices, model_l2.side))

    def test_incrementality(self, model_l2):
        previous: set = set()
        for k in range(1, 9):
            current = xy_set(place_proposed(model_l2, k).sensors)
            assert previous <= current
            previous = current

    def test_segment_parameters_distinct_and_interior(self, model_l1):
        d = place_proposed(model_l1, 10)
        hexagon = model_l1.hexagons[0]
        cx, cy = hexagon.center.to_xy()
        segments = np.array([kind == "segment" for kind in kinds(d)])
        per_segment: dict[int, list] = {}
        for (x, y), (segment, _) in zip(d.sensors[segments].tolist(), segment_fields(d)):
            vx, vy = hexagon.vertices()[segment - 1].to_xy()
            d_center = math.hypot(x - cx, y - cy)
            d_vertex = math.hypot(x - vx, y - vy)
            assert 0.0 < d_center < 1.0
            assert d_center + d_vertex == pytest.approx(1.0, rel=1e-12)
            per_segment.setdefault(segment, []).append((x, y))
        for positions in per_segment.values():
            assert len(positions) == len(set(positions))

    def test_coefficients_too_fine_for_exact_float_order_are_refused(self, model_l1):
        # k = 4 has denominator 2, and 3 * 2**48 * 2**2 reaches 2**50
        with pytest.raises(InvariantViolation, match="exact float order"):
            place_proposed(dataclasses.replace(model_l1, layers=2**48), 4)

    @pytest.mark.parametrize(
        "centers, vertices",
        [
            ([[0, 0]], [[2, 0], [-1, 1], [-1, -1], [2, 0]]),  # one even vertex listed twice
            ([[0, 0], [2, 0]], None),  # a center on the central hexagon's vertex 0
        ],
        ids=["repeated-vertex", "center-on-vertex"],
    )
    def test_duplicate_positions_are_refused(self, model_l1, centers, vertices):
        model = dataclasses.replace(
            model_l1,
            centers=np.array(centers),
            vertices=model_l1.vertices if vertices is None else np.array(vertices),
        )
        with pytest.raises(InvariantViolation, match="duplicate sensor positions after placement"):
            place_proposed(model, 3)

    @pytest.mark.parametrize("layers", range(1, 6))
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 60])
    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_export_order_is_rank_then_x_then_y(self, layers, k, parity):
        # at side 2 a sensor's x in meters is its lattice x, and y its lattice y times sqrt(3)
        d = place_proposed(build_solar_model(layers, side=2.0), k, parity)
        rank = {"center": 0, f"vertex:{EVEN}": 1, f"vertex:{ODD}": 2}
        ranks = [rank.get(p, 3) for p in d.provenance.tolist()]
        x, y = d.sensors.T
        assert np.array_equal(np.lexsort((y, x, ranks)), np.arange(d.sensor_count()))

    def test_sorted_output_is_stable(self, model_l2):
        a = place_proposed(model_l2, 4)
        b = place_proposed(model_l2, 4)
        for column in ("sensors", "provenance", "hexagon"):
            assert np.array_equal(getattr(a, column), getattr(b, column))
        rank = {"center": 0, "vertex:even": 1, "vertex:odd": 2}
        ranks = [rank.get(p, 3) for p in a.provenance.tolist()]
        assert ranks == sorted(ranks)


class TestCountFormulas:
    @pytest.mark.parametrize("k,expected", [(1, 1), (3, 7), (5, 13), (10, 28)])
    def test_per_hexagon_progression(self, k, expected):
        assert per_hexagon_count(k) == expected

    def test_per_hexagon_matches_single_hexagon_enumeration(self, model_l1):
        for k in range(1, 11):
            assert len(place_proposed(model_l1, k).sensors) == per_hexagon_count(k)

    @pytest.mark.parametrize(
        "layers,k,expected", [(2, 2, 19), (1, 3, 7), (2, 4, 52), (3, 5, 187)]
    )
    def test_total_count_values(self, layers, k, expected):
        assert total_count(layers, k) == expected

    def test_total_count_recurrence(self):
        # adding one coverage step beyond 3 costs three sensors per hexagon
        for layers in range(1, 7):
            hexagons = 1 + 3 * layers * (layers - 1)
            for k in range(4, 11):
                assert total_count(layers, k) - total_count(layers, k - 1) == 3 * hexagons

    def test_counts_by_kind_sum_to_total(self):
        for layers in range(1, 11):
            for k in range(1, 21):
                assert sum(count_by_kind(layers, k).values()) == total_count(layers, k)

    @pytest.mark.parametrize("layers", range(1, 5))
    def test_counts_by_kind_match_provenance(self, layers):
        m = build_solar_model(layers)
        for k in range(1, 8):
            deployment = place_proposed(m, k)
            placed = kinds(deployment)
            assert {kind: placed.count(kind) for kind in ("center", "vertex", "segment")} == count_by_kind(layers, k)
            assert placed_by_kind(deployment) == count_by_kind(layers, k)

    @pytest.mark.parametrize("layers", range(1, 7))
    def test_enumeration_matches_closed_form(self, layers):
        m = build_solar_model(layers)
        for k in range(1, 11):
            assert len(place_proposed(m, k).sensors) == total_count(layers, k)


class TestRemoveSensors:
    def test_removes_by_index(self, model_l1):
        d = place_proposed(model_l1, 3)
        reduced = remove_sensors(d, [0, 2])
        assert len(reduced.sensors) == len(d.sensors) - 2

    def test_duplicate_indices_rejected(self, model_l1):
        d = place_proposed(model_l1, 3)
        with pytest.raises(ValueError):
            remove_sensors(d, [1, 1])

    def test_out_of_range_rejected(self, model_l1):
        d = place_proposed(model_l1, 2)
        with pytest.raises(ValueError):
            remove_sensors(d, [99])

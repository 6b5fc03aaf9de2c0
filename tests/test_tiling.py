"""Tests for the layered patch and its vertex registry."""

import dataclasses
import functools

import numpy as np
import pytest

from hexcover.geometry import ORIGIN, distance
from hexcover.tiling import (
    AXIAL_DIRECTIONS,
    EVEN,
    ODD,
    axial_distance,
    build_solar_model,
    hexagon_count,
    model_to_dict,
    region_contains,
    vertex_count,
)


class TestBuildSolarModel:
    def test_single_layer(self):
        m = build_solar_model(1)
        assert len(m.hexagons) == 1
        assert m.vertex_count() == 6
        assert m.hexagons[0].center == ORIGIN

    def test_two_layers(self):
        m = build_solar_model(2)
        assert len(m.hexagons) == 7

    def test_three_layers_enumerated(self):
        m = build_solar_model(3)
        assert len(m.hexagons) == 19
        assert m.vertex_count() == 54  # 6 * 3^2, by exact dedup

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            build_solar_model(0)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            build_solar_model(2, side=0.0)

    @pytest.mark.parametrize("side", [float("nan"), float("inf")])
    def test_rejects_non_finite_side(self, side):
        with pytest.raises(ValueError):
            build_solar_model(2, side=side)

    def test_ring_membership_matches_axial_distance(self):
        m = build_solar_model(4)
        for (q, w), layer in zip(m.axial, m.layer_of):
            assert axial_distance(q, w) == layer - 1

    def test_neighbor_centers_at_unit_graph_distance(self):
        m = build_solar_model(3, side=2.0)
        cells = {cell: i for i, cell in enumerate(m.axial)}
        (q, w) = m.axial[0]
        for dq, dw in AXIAL_DIRECTIONS:
            neighbor = cells[(q + dq, w + dw)]
            d = distance(m.hexagons[0].center, m.hexagons[neighbor].center, scale=2.0)
            assert d == pytest.approx(2.0 * 3.0**0.5, rel=1e-12)


class TestCountFormulas:
    @pytest.mark.parametrize("layers,expected", [(1, 1), (2, 7), (5, 61)])
    def test_hexagon_count_values(self, layers, expected):
        assert hexagon_count(layers) == expected

    @pytest.mark.parametrize("layers", range(1, 9))
    def test_counts_match_enumeration(self, layers):
        m = build_solar_model(layers)
        assert len(m.hexagons) == hexagon_count(layers)
        assert m.vertex_count() == vertex_count(layers)

    @pytest.mark.parametrize("layers", range(1, 9))
    def test_class_sizes(self, layers):
        m = build_solar_model(layers)
        even = m.vertex_class(EVEN)
        odd = m.vertex_class(ODD)
        assert len(even) == 3 * layers * layers
        assert len(odd) == 3 * layers * layers
        assert set(even).isdisjoint(odd)
        assert len(even) + len(odd) == m.vertex_count()

    def test_unknown_parity_rejected(self):
        m = build_solar_model(1)
        with pytest.raises(ValueError):
            m.vertex_class("both")


class TestRegistry:
    def test_parity_consistent_across_incident_hexagons(self):
        m = build_solar_model(4)
        for record in m.vertex_registry.values():
            for index in record.incident_hexagons:
                verts = m.hexagons[index].vertices()
                angle_index = verts.index(record.position)
                assert ("even", "odd")[angle_index % 2] == record.parity

    def test_each_hexagon_has_three_vertices_per_class(self):
        m = build_solar_model(3)
        for index, hexagon in enumerate(m.hexagons):
            classes = [m.vertex_registry[v].parity for v in hexagon.vertices()]
            assert classes.count(EVEN) == 3
            assert classes.count(ODD) == 3

    def test_interior_vertices_shared_by_three(self):
        # vertices of hexagons that have all six neighbors present are interior
        m = build_solar_model(3)
        cells = set(m.axial)
        for index, (q, w) in enumerate(m.axial):
            if all((q + dq, w + dw) in cells for dq, dw in AXIAL_DIRECTIONS):
                for vertex in m.hexagons[index].vertices():
                    assert len(m.vertex_registry[vertex].incident_hexagons) == 3

    def test_interior_edges_shared_by_two(self):
        m = build_solar_model(3)
        edge_owners: dict[frozenset, list[int]] = {}
        for index, hexagon in enumerate(m.hexagons):
            verts = hexagon.vertices()
            for i in range(6):
                key = frozenset((verts[i], verts[(i + 1) % 6]))
                edge_owners.setdefault(key, []).append(index)
        counts = [len(owners) for owners in edge_owners.values()]
        assert set(counts) <= {1, 2}
        cells = set(m.axial)
        for index, (q, w) in enumerate(m.axial):
            if all((q + dq, w + dw) in cells for dq, dw in AXIAL_DIRECTIONS):
                verts = m.hexagons[index].vertices()
                for i in range(6):
                    key = frozenset((verts[i], verts[(i + 1) % 6]))
                    assert len(edge_owners[key]) == 2

    def test_inner_layers_have_all_neighbors(self):
        m = build_solar_model(4)
        for index, layer in enumerate(m.layer_of):
            if layer <= m.layers - 1:
                assert m.neighbors_present(index) == 6

    def test_incidence_totals(self):
        m = build_solar_model(5)
        total = sum(len(r.incident_hexagons) for r in m.vertex_registry.values())
        assert total == 6 * len(m.hexagons)


def scanned_bounding_box(model):
    """Min and max of every patch vertex's float coordinates, vertex by vertex."""
    xs, ys = zip(*(v.to_xy(model.side) for hexagon in model.hexagons for v in hexagon.vertices()))
    return min(xs), min(ys), max(xs), max(ys)


unit_model = functools.lru_cache(maxsize=None)(build_solar_model)


class TestBoundingBox:
    @pytest.mark.parametrize("layers", range(1, 21))
    @pytest.mark.parametrize("radius", [1e-150, 0.3, 2.5, 10.0, 1e150])
    def test_closed_form_equals_vertex_scan(self, layers, radius):
        model = dataclasses.replace(unit_model(layers), side=radius)
        assert model.bounding_box() == scanned_bounding_box(model)


class TestModelExport:
    def test_dict_shape(self):
        m = build_solar_model(2, side=3.0)
        payload = model_to_dict(m)
        assert payload["layers"] == 2
        assert payload["hexagon_count"] == 7
        assert len(payload["hexagon_centers"]) == 7
        assert len(payload["vertices"]) == 24
        classes = {v["class"] for v in payload["vertices"]}
        assert classes == {"even", "odd"}


class TestRegionContains:
    def test_vertices_inside_and_points_past_the_rim_outside(self):
        m = build_solar_model(3, side=2.0)
        vertices = np.array([r.position.to_xy(2.0) for r in m.vertex_registry.values()])
        assert region_contains(m, vertices).all()
        # just past the top edge of the patch, far beyond the tolerance band
        rim_y = vertices[:, 1].max()
        assert not region_contains(m, np.array([[0.0, rim_y * (1 + 1e-9)]])).any()

    def test_non_finite_and_far_points_are_outside(self):
        m = build_solar_model(2)
        points = np.array([[np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan], [1e300, -1e300], [0.0, 0.0]])
        assert region_contains(m, points).tolist() == [False, False, False, False, True]

    def test_empty_input(self):
        assert region_contains(build_solar_model(2), np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("tol", [-1e-12, 0.5, float("nan")])
    def test_rejects_tolerances_outside_half_a_side(self, tol):
        with pytest.raises(ValueError):
            region_contains(build_solar_model(1), np.zeros((1, 2)), tol=tol)

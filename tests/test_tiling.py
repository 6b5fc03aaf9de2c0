"""Tests for the layered patch and its integer vertex array."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import exact_registry
from hexcover.analytics import hexagon_count, vertex_count
from hexcover.geometry import ORIGIN, Hexagon, LatticePoint, distance, hexagons_overlap
from hexcover.tiling import (
    EVEN,
    ODD,
    PARITY_NAMES,
    NEIGHBOR_STEPS,
    REGION_TOL,
    SQRT3,
    build_solar_model,
    model_to_dict,
    patch_triangles,
    region_mask,
    row_runs,
    units_xy,
)


def graph_distance(x, y):
    """Honeycomb graph distance from the center of the cell centered at lattice coefficients (x, y) = (3q, q + 2w)."""
    q = x // 3
    w = (y - q) // 2
    return (abs(q) + abs(w) + abs(q + w)) // 2


def axial_ring_walk(layers):
    """Hexagon centers in the order of the former axial ring walk.

    Cells were axial pairs (q, w), centered at (3q, q + 2w): the center,
    then ring j from (j, 0), j steps along each of the axial directions 2,
    3, 4, 5, 0, 1 in turn.
    """
    directions = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
    cells = [(0, 0)]
    for radius in range(1, layers):
        q, w = radius, 0
        for direction in (2, 3, 4, 5, 0, 1):
            dq, dw = directions[direction]
            for _ in range(radius):
                cells.append((q, w))
                q, w = q + dq, w + dw
    return [[3 * q, q + 2 * w] for q, w in cells]


def has_all_neighbors(cells, x, y):
    """Whether the set of center pairs ``cells`` holds all six neighbors of the cell at (x, y)."""
    return all((x + dx, y + dy) in cells for dx, dy in NEIGHBOR_STEPS.tolist())


def points(units):
    """Lattice coefficient rows as exact points."""
    return [LatticePoint(x, y) for x, y in units.tolist()]


def incident_hexagons(model):
    """{vertex: incident hexagon indices}, from the exported model."""
    return {p: v["hexagons"] for p, v in zip(points(model.vertices), model_to_dict(model)["vertices"])}


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

    def test_hexagons_come_ring_by_ring(self):
        # The CSV's hexagon column indexes this order: the center, then each
        # ring of 6j cells at graph distance j, counterclockwise from (3j, j).
        m = build_solar_model(4)
        assert [graph_distance(x, y) for x, y in m.centers.tolist()] == [0] + [1] * 6 + [2] * 12 + [3] * 18
        assert m.centers[:7].tolist() == [[0, 0], [3, 1], [0, 2], [-3, 1], [-3, -1], [0, -2], [3, -1]]

    @pytest.mark.parametrize("layers", range(1, 31))
    def test_centers_keep_the_axial_ring_walk_order(self, layers):
        m, walk = build_solar_model(layers), axial_ring_walk(layers)
        assert m.centers.dtype == np.int64 and not m.centers.flags.writeable
        assert m.centers.tolist() == walk
        assert [[h.center.x, h.center.y] for h in m.hexagons] == walk

    def test_neighbor_centers_at_unit_graph_distance(self):
        m = build_solar_model(3, side=2.0)
        cells = {cell: i for i, cell in enumerate(map(tuple, m.centers.tolist()))}
        x, y = m.centers[0].tolist()
        for dx, dy in NEIGHBOR_STEPS.tolist():
            neighbor = cells[(x + dx, y + dy)]
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
        even = points(m.vertex_class(EVEN))
        odd = points(m.vertex_class(ODD))
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
        incident = incident_hexagons(m)
        for parity in PARITY_NAMES:
            for vertex in points(m.vertex_class(parity)):
                for index in incident[vertex]:
                    angle_index = m.hexagons[index].vertices().index(vertex)
                    assert PARITY_NAMES[angle_index % 2] == parity

    def test_each_hexagon_has_three_vertices_per_class(self):
        m = build_solar_model(3)
        parity_of = {v: parity for parity in PARITY_NAMES for v in points(m.vertex_class(parity))}
        for index, hexagon in enumerate(m.hexagons):
            classes = [parity_of[v] for v in hexagon.vertices()]
            assert classes.count(EVEN) == 3
            assert classes.count(ODD) == 3

    def test_interior_vertices_shared_by_three(self):
        # vertices of hexagons that have all six neighbors present are interior
        m = build_solar_model(3)
        incident = incident_hexagons(m)
        cells = set(map(tuple, m.centers.tolist()))
        for index, (x, y) in enumerate(m.centers.tolist()):
            if has_all_neighbors(cells, x, y):
                for vertex in m.hexagons[index].vertices():
                    assert len(incident[vertex]) == 3

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
        cells = set(map(tuple, m.centers.tolist()))
        for index, (x, y) in enumerate(m.centers.tolist()):
            if has_all_neighbors(cells, x, y):
                verts = m.hexagons[index].vertices()
                for i in range(6):
                    key = frozenset((verts[i], verts[(i + 1) % 6]))
                    assert len(edge_owners[key]) == 2

    def test_inner_layers_have_all_neighbors(self):
        m = build_solar_model(4)
        cells = set(map(tuple, m.centers.tolist()))
        for x, y in cells:
            if graph_distance(x, y) < m.layers - 1:
                assert has_all_neighbors(cells, x, y)

    def test_incidence_totals(self):
        m = build_solar_model(5)
        total = sum(len(hexagons) for hexagons in incident_hexagons(m).values())
        assert total == 6 * len(m.hexagons)


INTEGERS = st.integers(-3, 3) | st.sampled_from([-(2**62), 2**62])
FLOATS = st.sampled_from([-0.0, 0.0, 0.1, -0.1, 2.0**50, -(2.0**-1074)]) | st.floats(-4, 4, allow_nan=False)


@st.composite
def coordinate_rows(draw):
    """(n, 2) int64 or float rows, n from 0, drawn from few values so rows repeat; floats mix -0.0 and 0.0."""
    values, dtype = draw(st.sampled_from([(INTEGERS, np.int64), (FLOATS, float)]))
    return np.array(draw(st.lists(st.tuples(values, values), max_size=40)), dtype=dtype).reshape(-1, 2)


@given(rows=coordinate_rows())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_row_runs_dedupe_and_sort_like_unique(rows):
    order, starts = row_runs(rows)
    assert sorted(order.tolist()) == list(range(len(rows))) and starts.shape == order.shape
    heads = order[starts]
    # one row per distinct value, in (x, y) order; -0.0 and 0.0 are one value
    assert np.array_equal(rows[heads], np.unique(rows, axis=0))
    # every row of a run equals its head, and the stable sort makes the head its first occurrence
    assert np.array_equal(rows[order], rows[heads][np.cumsum(starts) - 1])
    if len(rows):
        assert np.array_equal(heads, np.minimum.reduceat(order, np.flatnonzero(starts)))


def test_row_runs_take_signed_zeros_as_one_value():
    order, starts = row_runs(np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 0.0], [0.0, -0.0]]))
    assert order.tolist() == [2, 3, 0, 1]
    assert starts.tolist() == [True, False, True, False]


@pytest.mark.parametrize("layers", range(1, 11))
def test_vertices_classes_and_incidence_equal_the_exact_registry(layers):
    m = build_solar_model(layers, side=2.5)
    registry = exact_registry(m)
    assert points(m.vertices) == list(registry)
    exported = model_to_dict(m)["vertices"]
    assert [(v["class"], v["hexagons"]) for v in exported] == list(registry.values())
    for parity in PARITY_NAMES:
        assert points(m.vertex_class(parity)) == [v for v, (c, _) in registry.items() if c == parity]
    assert [(v["x"], v["y"]) for v in exported] == [v.to_xy(m.side) for v in registry]


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


@pytest.mark.parametrize("layers", range(1, 7))
@pytest.mark.parametrize("radius", [0.3, 2.5, 10.0, 1e-150, 1e150])
def test_patch_triangles_equal_the_exact_triangles(layers, radius):
    model = build_solar_model(layers, radius)
    exact = np.array([t.vertices_xy(radius) for hexagon in model.hexagons for t in hexagon.triangles()])
    assert np.array_equal(patch_triangles(model).view(np.uint64), exact.view(np.uint64))


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


def test_neighbor_steps_share_the_unit_hexagons_edges():
    # neighbor i lies across the edge from vertex i to vertex i + 1, without overlap
    vertices = Hexagon(ORIGIN).vertices()
    for i, (dx, dy) in enumerate(NEIGHBOR_STEPS.tolist()):
        neighbor = Hexagon(LatticePoint(dx, dy))
        assert {vertices[i], vertices[(i + 1) % 6]} == set(vertices) & set(neighbor.vertices())
        assert not hexagons_overlap(Hexagon(ORIGIN), neighbor)


class TestRegionMask:
    def test_vertices_inside_and_points_past_the_rim_outside(self):
        m = build_solar_model(3, side=2.0)
        vertices = units_xy(m.vertices, 2.0)
        xs, ys = np.unique(vertices[:, 0]), np.unique(vertices[:, 1])
        assert region_mask(m, xs, ys)[np.searchsorted(ys, vertices[:, 1]), np.searchsorted(xs, vertices[:, 0])].all()
        # just past the top edge of the patch, far beyond the tolerance band
        rim_y = vertices[:, 1].max()
        assert not region_mask(m, np.array([0.0]), np.array([rim_y * (1 + 1e-9)])).any()

    def test_infinite_and_far_nodes_are_outside(self):
        axis = np.array([-np.inf, -1e300, 0.0, 1e300, np.inf])
        mask = region_mask(build_solar_model(2), axis, axis)
        assert np.argwhere(mask).tolist() == [[2, 2]]

    def test_empty_axes(self):
        assert region_mask(build_solar_model(2), np.zeros(0), np.zeros(0)).shape == (0, 0)

    @pytest.mark.parametrize("radius", [1.0, 1e-150, 1e150])
    def test_band_is_region_tol(self, radius):
        # nodes past the top edge by half the band and by twice the band
        edge = SQRT3 / 2 * radius
        ys = np.array([edge + 0.5 * REGION_TOL * radius, edge + 2 * REGION_TOL * radius])
        assert region_mask(build_solar_model(1, radius), np.array([0.0]), ys).ravel().tolist() == [True, False]

"""Property tests: patch membership, lattice disk counts, placement counts and
bits, sensor-file round trips and the verify exit-code contract.

Examples are derandomized and bounded so the suite stays fast and repeatable.
"""

import functools
import os
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import exact_placement
from float_geometry import brute_force_contains
from sensor_io_reference import assert_reads_like_reference, reference_csv, reference_json
from hexcover import benchmark, sensor_io, tiling, verifier
from hexcover.benchmark import place_benchmark, small_hexagon_centers
from hexcover.cli import main
from hexcover.deployment import place_proposed, remove_sensors, total_count
from hexcover.geometry import SQRT3, Hexagon, LatticePoint, midpoint
from hexcover.sensor_io import load_deployment, read_sensors_csv, write_sensors_csv, write_sensors_json
from hexcover.tiling import PARITY_NAMES, REGION_TOL, build_solar_model
from hexcover.verifier import DISK_TOL, coverage_counts, lattice_counts

BOUNDED = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# The radii verify accepts at its extremes, and ordinary ones.
RADII = (1e-150, 0.3, 1.0, 10.0, 1e150)

model_for = functools.lru_cache(maxsize=None)(build_solar_model)


def grid_nodes(xs, ys):
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def assert_mask_is_the_union(model, xs, ys, tol=REGION_TOL):
    """``region_mask`` of the lattice (xs, ys) equals the per-hexagon union at its every node; returns the mask."""
    mask = tiling.region_mask(model, xs, ys)
    assert mask.shape == (len(ys), len(xs))
    with np.errstate(invalid="ignore"):  # inf - inf at infinite axis ends
        assert np.array_equal(mask.ravel(), brute_force_contains(model, grid_nodes(xs, ys), tol))
    return mask


@st.composite
def membership_cases(draw):
    """A patch and points on, just off and between hexagon boundaries."""
    layers = draw(st.integers(1, 8))
    radius = draw(st.sampled_from(RADII))
    model = model_for(layers, radius)
    min_x, min_y, max_x, max_y = model.bounding_box()
    nudge = st.sampled_from([-1e-13, 0.0, 1e-13])

    def on_boundary(args):
        # a vertex or an edge midpoint of a cell in or around the patch,
        # optionally nudged by 1e-13 r along each axis
        q, w, i, kind, ex, ey = args
        vertices = Hexagon(LatticePoint(3 * q, q + 2 * w)).vertices()
        point = vertices[i] if kind == "vertex" else midpoint(vertices[i], vertices[(i + 1) % 6])
        x, y = point.to_xy(radius)
        return x + ex * radius, y + ey * radius

    cell = st.integers(-layers, layers)
    boundary = st.tuples(cell, cell, st.integers(0, 5), st.sampled_from(["vertex", "edge"]), nudge, nudge)
    uniform = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
        lambda uv: (min_x + uv[0] * (max_x - min_x), min_y + uv[1] * (max_y - min_y))
    )
    points = draw(st.lists(st.one_of(boundary.map(on_boundary), uniform), min_size=1, max_size=60))
    return model, np.array(points)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=membership_cases())
def test_region_mask_equals_per_hexagon_union_on_axes_through_boundary_points(case):
    # the points' sorted coordinates as the axes, repeats kept
    model, points = case
    assert_mask_is_the_union(model, np.sort(points[:, 0]), np.sort(points[:, 1]))


# A few (hexagon, row) runs per pass: a block is one hexagon's rows, or a
# few hexagons'.  The kernel reads the module's band and chunk on each call.
@pytest.mark.parametrize("chunk", [7, 100])
@pytest.mark.parametrize("tol", [REGION_TOL, 0.43])
def test_region_mask_equals_per_hexagon_union_across_chunks(tol, chunk, monkeypatch):
    monkeypatch.setattr(tiling, "REGION_TOL", tol)
    monkeypatch.setattr(tiling, "RUN_CHUNK", chunk)
    model = model_for(4, 2.5)
    min_x, min_y, max_x, max_y = model.bounding_box()
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(min_x - 2.5, max_x + 2.5, 300))
    ys = np.sort(rng.uniform(min_y - 2.5, max_y + 2.5, 200))
    mask = assert_mask_is_the_union(model, xs, ys, tol)
    assert 0 < mask.sum() < mask.size


@pytest.mark.parametrize("radius", [1.0, 2.5, 1e-150, 1e150])
@pytest.mark.parametrize("layers", [1, 2, 5])
def test_region_mask_equals_per_hexagon_union_at_the_rim_and_beyond_floats(layers, radius):
    # Axes through every patch vertex, one ulp either way and scaled by
    # 1 +- 1e-12, between far and infinite ends.
    model = model_for(layers, radius)
    vertices = tiling.units_xy(model.vertices, radius)
    rim = np.concatenate([
        vertices,
        np.nextafter(vertices, np.inf),
        np.nextafter(vertices, -np.inf),
        vertices * (1 + 1e-12),
        vertices * (1 - 1e-12),
    ])
    ends = np.array([-np.inf, -1e300, 1e300, np.inf])
    xs, ys = (np.sort(np.concatenate([np.unique(values), ends])) for values in rim.T)
    mask = assert_mask_is_the_union(model, xs, ys)
    assert mask[np.searchsorted(ys, vertices[:, 1]), np.searchsorted(xs, vertices[:, 0])].all()
    assert not mask[[0, 1, -2, -1]].any() and not mask[:, [0, 1, -2, -1]].any()


def test_region_mask_on_axes_with_repeated_values():
    # Each value repeated 1 to 4 times, and an axis of one value: the mask
    # repeats the rows and columns of the mask on the distinct values.
    model = model_for(3, 2.5)
    min_x, min_y, max_x, max_y = model.bounding_box()
    xs, ys = np.linspace(min_x - 1, max_x + 1, 41), np.linspace(min_y - 1, max_y + 1, 37)
    rng = np.random.default_rng(5)
    x_repeats, y_repeats = rng.integers(1, 5, len(xs)), rng.integers(1, 5, len(ys))
    distinct = tiling.region_mask(model, xs, ys)
    mask = assert_mask_is_the_union(model, np.repeat(xs, x_repeats), np.repeat(ys, y_repeats))
    assert np.array_equal(mask, np.repeat(np.repeat(distinct, y_repeats, axis=0), x_repeats, axis=1))
    column = assert_mask_is_the_union(model, np.full(9, xs[20]), ys)
    assert np.array_equal(column, np.repeat(distinct[:, 20:21], 9, axis=1))


@st.composite
def run_cases(draw):
    """An increasing axis of 1 to 40 entries, evenly or unevenly spaced, values along it, and adversarial estimates.

    Values are axis entries, an ulp off them, or anywhere beyond both ends.
    Estimates are exact, off by one or by many either way, clamped past 0
    or n, or not finite.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        axis = np.arange(n, dtype=float)
    else:
        axis = np.unique(rng.uniform(-1.0, 1.0, n) ** draw(st.sampled_from([1, 3, 7])))
        n = len(axis)
    count = draw(st.integers(1, 50))
    picked = axis[rng.integers(0, n, count)]
    values = np.select(
        [rng.random(count) < 0.3, rng.random(count) < 0.5],
        [picked, np.nextafter(picked, rng.choice([-np.inf, np.inf], count))],
        rng.uniform(axis[0] - 1.0, axis[-1] + 1.0, count),
    )
    offsets = np.array(draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 17, -40, 1000, -1000]), min_size=count, max_size=count)))
    special = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -1.0, n + 1.5, 0.5]), max_size=min(3, count)))
    return axis, values, offsets, np.array(special, dtype=float)


def estimates_for(answers, offsets, special):
    estimates = (answers + offsets).astype(float)
    estimates[: len(special)] = special
    return estimates


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=run_cases())
def test_first_true_returns_the_brute_force_index_from_any_estimate(case):
    axis, thresholds, offsets, special = case
    n = len(axis)

    def holds(index, which):
        assert ((0 <= index) & (index < n)).all()
        return axis[index] >= thresholds[which]

    answers = np.array([next((j for j in range(n) if axis[j] >= t), n) for t in thresholds])
    for start in (estimates_for(answers, offsets, special), answers, np.zeros(len(answers)), np.full(len(answers), n)):
        assert np.array_equal(tiling.first_true(holds, start, n), answers)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=run_cases(), reach=st.sampled_from([0.0, 1e-3, 0.3, 2.0, 50.0]))
def test_run_ends_are_the_brute_force_run_of_the_disk_test(case, reach):
    # runs of the disk test around each value: one index, several, all, or none (base > bound)
    axis, centers, offsets, special = case
    n = len(axis)
    rng = np.random.default_rng(len(axis) + len(centers))
    base = rng.choice([0.0, 0.5 * reach * reach, 2.0 * reach * reach + 1e-9], len(centers))
    bound = reach * reach

    def tests(index, which):
        d = axis[index] - centers[which]
        return [(d, d * d + base[which] <= bound)]

    passing = np.array([[(a - c) * (a - c) + b <= bound for a in axis] for c, b in zip(centers, base)]).reshape(-1, n)
    lo_true = np.where(passing.any(axis=1), passing.argmax(axis=1), 0)
    hi_true = lo_true + passing.sum(axis=1)
    # the values where the run's ends would lie on an evenly spaced axis, off by the offsets
    pitch = (axis[-1] - axis[0]) / max(n - 1, 1)
    with np.errstate(invalid="ignore"):  # 0 * inf on an axis of one entry
        low = axis[0] + pitch * estimates_for(lo_true, offsets, special)
        high = axis[0] + pitch * (estimates_for(hi_true, -offsets, special[::-1]) - 1)
    lo, hi = tiling.run_ends(tests, axis, low, high)
    assert np.array_equal(hi - lo, passing.sum(axis=1))
    for row, start, stop in zip(passing, lo, hi):
        assert row[start:stop].all()
    assert [a.tolist() for a in tiling.run_ends(tests, axis[:0], low, high)] == [[0] * len(centers)] * 2


@st.composite
def row_clip_cases(draw):
    """A patch and a grid whose rows and columns pass within an ulp of hexagon edges and vertices.

    Columns sit at multiples of side / (2 m) and rows of sqrt(3) side / (2 m)
    from the bounding box corner, where vertices and edges lie, shifted by a
    random fraction of the pitch and nudged by an ulp either way; or the
    axes are unevenly spaced.
    """
    layers = draw(st.integers(1, 6))
    radius = draw(st.sampled_from([1e-150, 1e-3, 2.5, 10.0, 1e100] + ([1e150] if layers == 1 else [])))
    model = model_for(layers, radius)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def axis(low, high, unit):
        if draw(st.integers(0, 4)) == 0:
            return np.unique(rng.uniform(low - unit, high + unit, draw(st.integers(1, 60))))
        pitch = unit / draw(st.sampled_from([1, 2, 3, 5, 8, 13]))
        shift = draw(st.sampled_from([0.0, 0.5, 1 / 3, float(rng.uniform())])) * pitch
        values = low + shift + pitch * np.arange(int((high - low) / pitch) + 2)
        nudge = draw(st.sampled_from([None, np.inf, -np.inf]))
        return values if nudge is None else np.nextafter(values, nudge)

    min_x, min_y, max_x, max_y = model.bounding_box()
    return model, axis(min_x, max_x, 0.5 * radius), axis(min_y, max_y, SQRT3 * 0.5 * radius)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=row_clip_cases())
def test_region_mask_equals_per_hexagon_union_on_the_full_mesh(case):
    assert_mask_is_the_union(*case)


def test_region_mask_of_an_empty_axis():
    model = model_for(2, 1.0)
    assert tiling.region_mask(model, np.zeros(0), np.linspace(-2, 2, 5)).shape == (5, 0)
    assert tiling.region_mask(model, np.linspace(-2, 2, 5), np.zeros(0)).shape == (0, 5)


def scanned_tiles(layers):
    """Axial coordinates of every tile ``small_hexagon_centers`` scans, in its order."""
    reach = benchmark._scan_reach(layers)
    steps = np.arange(-reach, reach + 1)
    return np.stack(np.meshgrid(steps, steps, indexing="ij"), axis=-1).reshape(-1, 2)


def tiles_at_old_band(model, offset):
    """The scheme's tiles by its former rule: all six vertices inside the patch widened by 1e-9 sides.

    Only scanned tiles centered near the patch are tested: a tile's center
    is the mean of its vertices, so a kept tile is centered in the patch's
    bounding box widened by the band.
    """
    axial = scanned_tiles(model.layers)
    centers, _ = benchmark._small_hexagon_xy(axial, offset, model.side)
    min_x, min_y, max_x, max_y = model.bounding_box()
    margin = model.side
    near = (
        (centers[:, 0] >= min_x - margin) & (centers[:, 0] <= max_x + margin)
        & (centers[:, 1] >= min_y - margin) & (centers[:, 1] <= max_y + margin)
    )
    _, vertices = benchmark._small_hexagon_xy(axial[near], offset, model.side)
    inside = brute_force_contains(model, vertices.reshape(-1, 2), 1e-9)
    return axial[near][inside.reshape(-1, 6).all(axis=1)]


@pytest.mark.parametrize("radius", [1.0, 2.5, 10.0, 1e-150, 1e150])
def test_scheme_tiles_at_the_grid_band_equal_the_old_band(radius):
    # At offset 0 every vertex margin is a multiple of a quarter apothem, so the bands agree.
    zero = (Fraction(0), Fraction(0))
    for layers in range(1, 31):
        model = model_for(layers, radius)
        assert np.array_equal(small_hexagon_centers(model), tiles_at_old_band(model, zero)), layers


def test_scheme_tiles_at_offsets_equal_the_old_band():
    # Offsets with denominators up to 12; a y offset makes margins a + b*sqrt(3).
    rng = np.random.default_rng(2024)
    for _ in range(300):
        offset = tuple(Fraction(int(rng.integers(-24, 25)), int(rng.integers(1, 13))) for _ in range(2))
        model = model_for(int(rng.integers(1, 9)), float(rng.choice([1.0, 2.5, 10.0])))
        assert np.array_equal(small_hexagon_centers(model, offset), tiles_at_old_band(model, offset)), offset


@st.composite
def scheme_cases(draw):
    """A patch and a rational tiling offset: small denominators, or far beyond the patch (x axis values repeat)."""
    model = model_for(draw(st.integers(1, 6)), draw(st.sampled_from(RADII)))
    far = st.sampled_from([Fraction(10**150), -Fraction(10**150), Fraction(2**53) + Fraction(1, 3)])
    coordinate = st.one_of(st.builds(Fraction, st.integers(-48, 48), st.integers(1, 24)), far)
    return model, (draw(coordinate), draw(coordinate))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=scheme_cases())
def test_scheme_keeps_the_candidates_whose_six_vertices_the_oracle_holds(case):
    model, offset = case
    axial = scanned_tiles(model.layers)
    _, vertices = benchmark._small_hexagon_xy(axial, offset, model.side)
    inside = brute_force_contains(model, vertices.reshape(-1, 2)).reshape(-1, 6).all(axis=1)
    assert np.array_equal(small_hexagon_centers(model, offset), axial[inside])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    layers=st.integers(1, 15),
    radius=st.sampled_from(RADII),
    offset=st.tuples(*[st.builds(Fraction, st.integers(-48, 48), st.integers(1, 24))] * 2),
)
def test_scheme_keeps_at_most_four_tiles_per_patch_hexagon(layers, radius, offset):
    # a tile has a quarter of a patch hexagon's area, which the plan budget counts on
    assert len(small_hexagon_centers(model_for(layers, radius), offset)) <= 4 * tiling.hexagon_count(layers)


def effective_radius(radius):
    return radius * np.sqrt(1.0 + DISK_TOL)


def brute_force_lattice_counts(xs, ys, sensors, radius):
    """The disk predicate evaluated at every grid node for every sensor."""
    eff = effective_radius(radius)
    gx, gy = np.meshgrid(xs, ys)
    counts = np.zeros(gx.shape, dtype=int)
    for sx, sy in sensors:
        counts += (gx - sx) ** 2 + (gy - sy) ** 2 <= eff * eff
    return counts


@st.composite
def lattice_cases(draw):
    """A grid and sensors on its nodes, one ulp inside or outside a node's disk, or anywhere.

    Pitches run from r/20 to above r, and free sensors may lie off the grid.
    """
    radius = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    step = draw(st.sampled_from([0.05, 0.3, 1.0, 2.5]))
    nx, ny = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    x0, y0 = draw(st.floats(-3, 3)), draw(st.floats(-3, 3))
    xs = radius * (x0 + step * np.arange(nx))
    ys = radius * (y0 + step * np.arange(ny))
    eff = effective_radius(radius)
    reach = st.sampled_from([eff, np.nextafter(eff, np.inf), np.nextafter(eff, 0.0)])
    node = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))

    def on_node(args):
        j, i = args
        return xs[j], ys[i]

    def at_reach(args):
        # a node lies at distance eff or one ulp either side of it, along its row or column
        (j, i), along_row, sign, t = args
        return (xs[j] + sign * t, ys[i]) if along_row else (xs[j], ys[i] + sign * t)

    # anywhere in the grid's box widened by 2r on each side, so possibly off the grid
    unit = st.floats(0, 1)
    free = st.tuples(
        unit.map(lambda f: xs[0] - 2 * radius + f * (xs[-1] - xs[0] + 4 * radius)),
        unit.map(lambda f: ys[0] - 2 * radius + f * (ys[-1] - ys[0] + 4 * radius)),
    )
    sensors = draw(
        st.lists(
            st.one_of(
                node.map(on_node),
                st.tuples(node, st.booleans(), st.sampled_from([-1.0, 1.0]), reach).map(at_reach),
                free,
            ),
            max_size=12,
        )
    )
    return xs, ys, np.array(sensors, dtype=float).reshape(-1, 2), radius


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=lattice_cases())
def test_lattice_counts_equal_brute_force_predicate(case):
    xs, ys, sensors, radius = case
    counts = lattice_counts(xs, ys, sensors, radius)
    assert counts.shape == (len(ys), len(xs))
    assert np.array_equal(counts, brute_force_lattice_counts(xs, ys, sensors, radius))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=lattice_cases())
def test_lattice_counts_equal_kd_tree_away_from_disk_boundaries(case):
    xs, ys, sensors, radius = case
    nodes = grid_nodes(xs, ys)
    eff2 = effective_radius(radius) ** 2
    # nodes whose squared distance to every sensor is at least 1e-12 relative off eff**2
    clear = np.ones(len(nodes), dtype=bool)
    for sx, sy in sensors:
        clear &= np.abs((nodes[:, 0] - sx) ** 2 + (nodes[:, 1] - sy) ** 2 - eff2) >= 1e-12 * eff2
    counts = lattice_counts(xs, ys, sensors, radius).ravel()
    assert np.array_equal(counts[clear], coverage_counts(nodes, sensors, radius)[clear])


def test_lattice_counts_across_chunks(monkeypatch):
    monkeypatch.setattr(tiling, "RUN_CHUNK", 7)
    rng = np.random.default_rng(5)
    xs, ys = np.arange(-3.0, 3.0, 0.15), np.arange(-2.0, 2.5, 0.15)
    sensors = rng.uniform(-4.0, 4.0, size=(40, 2))
    counts = lattice_counts(xs, ys, sensors, 1.3)
    assert counts.max() > 1
    assert np.array_equal(counts, brute_force_lattice_counts(xs, ys, sensors, 1.3))
    assert np.array_equal(counts.ravel(), coverage_counts(grid_nodes(xs, ys), sensors, 1.3))


@pytest.mark.parametrize("power", [1, 3])
def test_lattice_counts_on_unevenly_spaced_axes(power):
    # the pitch estimate is off by many columns here; only the settling keeps the counts exact
    rng = np.random.default_rng(17 + power)
    xs = np.sort(rng.uniform(-1.0, 1.0, 90) ** power) * 4.0
    ys = np.sort(rng.uniform(-1.0, 1.0, 70) ** power) * 3.0
    sensors = np.concatenate([rng.uniform(-4.0, 4.0, size=(30, 2)), np.column_stack([xs[::9], ys[::7][:10]])])
    counts = lattice_counts(xs, ys, sensors, 1.1)
    assert counts.max() > 2
    assert np.array_equal(counts, brute_force_lattice_counts(xs, ys, sensors, 1.1))


@st.composite
def grid_stage_cases(draw):
    """A patch, a grid pitch from r/20 to beyond the patch's width, and sensors around the patch."""
    layers = draw(st.integers(1, 6))
    radius = draw(st.sampled_from([1e-150, 1.0, 2.5] + ([1e150] if layers == 1 else [])))
    model = model_for(layers, radius)
    # the patch is 3l - 1 sides wide
    step = radius * draw(st.sampled_from([0.05, 0.13, 0.3, 1.0, 2.5, 3 * layers]))
    min_x, min_y, max_x, max_y = model.bounding_box()
    unit = st.floats(0, 1)
    sensor = st.tuples(
        unit.map(lambda f: min_x - radius + f * (max_x - min_x + 2 * radius)),
        unit.map(lambda f: min_y - radius + f * (max_y - min_y + 2 * radius)),
    )
    sensors = np.array(draw(st.lists(sensor, min_size=1, max_size=10)), dtype=float)
    return model, step, sensors, radius


@pytest.mark.parametrize("background", [False, True])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=grid_stage_cases())
def test_grid_stage_is_the_clipped_meshgrid_with_its_lattice_counts(background, case):
    model, step, sensors, radius = case
    xs, ys, _ = verifier.grid_points(model, step)
    nodes = grid_nodes(xs, ys)
    inside = brute_force_contains(model, nodes)
    counts, lookup = verifier._GridStage(model, step, sensors, radius, background).result()
    assert np.array_equal(lookup(np.arange(len(counts))).view(np.uint64), nodes[inside].view(np.uint64))
    assert np.array_equal(lookup(np.arange(len(counts))[::-3]), nodes[inside][::-3])
    assert np.array_equal(counts, brute_force_lattice_counts(xs, ys, sensors, radius).ravel()[inside])


def brute_force_report(deployment, seed, mc_samples, fail_fast):
    """``verify_coverage``'s report from every stage's full point array, counted by the KD-tree.

    The grid's kept nodes come from the whole meshgrid.  Also returns each
    built stage's number of failing probes.
    """
    model, k = deployment.model, deployment.k
    xs, ys, _ = verifier.grid_points(model, verifier.default_grid_step(deployment.r))
    nodes = grid_nodes(xs, ys)
    stages = [verifier.structured_points(model), nodes[brute_force_contains(model, nodes)]]
    if mc_samples > 0:
        stages.append(verifier.monte_carlo_points(model, mc_samples, seed))
    histogram, failing, stage_failures = Counter(), [], []
    for points in stages:
        counts = coverage_counts(points, deployment.sensors, deployment.r)
        histogram.update(counts.tolist())
        failing += points[counts < k].tolist()
        stage_failures.append(int((counts < k).sum()))
        if fail_fast and stage_failures[-1]:
            break
    minimum = min(histogram)
    report = {
        "target_k": k,
        "samples": sum(histogram.values()),
        "min_coverage": minimum,
        "passed": minimum >= k,
        "failing_points": failing[: verifier.MAX_FAILING_POINTS],
        "coverage_histogram": {str(c): histogram[c] for c in sorted(histogram)},
        "region": f"solar-model patch: layers={model.layers}, hexagons={len(model.centers)}, side={model.side}",
    }
    return report, stage_failures


def thinned(layers, k, every):
    deployment = place_proposed(model_for(layers, 1.0), k)
    return remove_sensors(deployment, list(range(0, deployment.sensor_count(), every)))


def reporting_stages(stage_failures):
    """The stages whose failing probes are among a report's first ``MAX_FAILING_POINTS``."""
    stages, room = [], verifier.MAX_FAILING_POINTS
    for stage, count in zip(("structured", "grid", "monte-carlo"), stage_failures):
        if count and room:
            stages.append(stage)
            room -= min(count, room)
    return stages


# layout, and the stages that report its failing points without fail_fast
REPORT_CASES = {
    "scheme-l2-k1-seed0": (lambda: place_benchmark(model_for(2, 1.0), 1, seed=0), ["structured", "grid", "monte-carlo"]),
    "scheme-l3-k2-seed7": (lambda: place_benchmark(model_for(3, 1.0), 2, seed=7), ["structured", "grid"]),
    "scheme-l4-k4-seed0": (lambda: place_benchmark(model_for(4, 1.0), 4, seed=0), ["structured", "grid"]),
    "thinned-l2-k2": (lambda: thinned(2, 2, 5), ["structured", "grid"]),
    "thinned-l3-k4": (lambda: thinned(3, 4, 4), ["structured", "grid"]),
    "thinned-l4-k3": (lambda: thinned(4, 3, 2), ["structured"]),
    "proposed-l3-k2": (lambda: place_proposed(model_for(3, 1.0), 2), []),
}


@pytest.mark.parametrize("fail_fast", [False, True])
@pytest.mark.parametrize("name", REPORT_CASES)
def test_verify_report_equals_brute_force_stages(name, fail_fast):
    layout, stages = REPORT_CASES[name]
    deployment = layout()
    expected, stage_failures = brute_force_report(deployment, seed=3, mc_samples=300, fail_fast=fail_fast)
    report = verifier.verify_coverage(deployment, seed=3, mc_samples=300, fail_fast=fail_fast)
    assert report.to_dict() == expected
    if not fail_fast:
        assert reporting_stages(stage_failures) == stages


def affinity_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@st.composite
def query_cases(draw):
    """Sensors and enough probes around them for two query threads.

    A quarter of the probes lie just inside or outside some sensor's disk
    (1e-11 to 1e-9 relative off its effective radius), the others anywhere
    around the sensors, and one on each sensor.
    """
    radius = draw(st.sampled_from(RADII))
    sensors = radius * np.array(draw(st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=1, max_size=30)))
    count = draw(st.integers(2 * verifier.MIN_PROBES_PER_WORKER, 3 * verifier.MIN_PROBES_PER_WORKER))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probes = radius * rng.uniform(-3.5, 3.5, size=(count, 2))
    near = count // 4
    owner = rng.integers(0, len(sensors), size=near)
    angle = rng.uniform(0.0, 2 * np.pi, size=near)
    reach = effective_radius(radius) * (1.0 + rng.choice([-1e-9, -1e-10, -1e-11, 1e-11, 1e-10, 1e-9], size=near))
    probes[:near] = sensors[owner] + reach[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    probes[near : near + len(sensors)] = sensors
    return probes, sensors, radius


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=query_cases())
def test_coverage_counts_are_exact_on_any_thread_count(case):
    probes, sensors, radius = case
    with pytest.MonkeyPatch.context() as patch:
        # as many threads as without an address-space limit, whatever limit the tests run under
        patch.setattr(verifier, "_address_space_limited", lambda: False)
        workers = verifier.query_workers(len(probes))
        assert min(2, affinity_cpus()) <= workers <= affinity_cpus()
        counts = coverage_counts(probes, sensors, radius)
    eff2 = effective_radius(radius) ** 2
    # the disk predicate, on probes at least 1e-12 relative off every disk boundary
    expected = np.zeros(len(probes), dtype=int)
    clear = np.ones(len(probes), dtype=bool)
    for sx, sy in sensors:
        d2 = (probes[:, 0] - sx) ** 2 + (probes[:, 1] - sy) ** 2
        expected += d2 <= eff2
        clear &= np.abs(d2 - eff2) >= 1e-12 * eff2
    assert clear.mean() > 0.9
    assert np.array_equal(counts[clear], expected[clear])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_cpu_count", lambda: 1)
        assert verifier.query_workers(len(probes)) == 1
        assert np.array_equal(coverage_counts(probes, sensors, radius), counts)


@st.composite
def cell_order_cases(draw):
    """Probes and sensors for ``coverage_counts``: random, duplicated, single, empty, or near ``FLOAT_LIMIT``."""
    radius = draw(st.sampled_from(RADII))
    kind = draw(st.sampled_from(["random", "duplicated", "single", "no probes", "no sensors", "near the limit"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = {"single": 1, "no probes": 0}.get(kind, draw(st.integers(2, 3 * verifier.MIN_PROBES_PER_WORKER)))
    center = np.zeros(2)
    if kind == "near the limit":
        center = verifier.FLOAT_LIMIT * rng.uniform(0.5, 1.0, size=2) * rng.choice([-1.0, 1.0], size=2)
    sensors = center + radius * rng.uniform(-3, 3, size=(0 if kind == "no sensors" else draw(st.integers(1, 40)), 2))
    probes = center + radius * rng.uniform(-4, 4, size=(count, 2))
    if kind == "duplicated":
        probes = probes[rng.integers(0, max(1, count // 8), size=count)]
        sensors = sensors[rng.integers(0, len(sensors), size=2 * len(sensors))]
    return probes, sensors, radius


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=cell_order_cases())
def test_cell_ordered_counts_equal_the_unsorted_query(case):
    probes, sensors, radius = case
    counts = coverage_counts(probes, sensors, radius)
    expected = np.zeros(len(probes), dtype=int)
    if len(probes) and len(sensors):
        tree = verifier._kdtree(sensors)
        expected = tree.query_ball_point(probes, effective_radius(radius), return_length=True)
    assert np.array_equal(counts, expected)


def test_query_workers_stay_within_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(verifier, "_address_space_limited", lambda: False)
    cpus = affinity_cpus()
    assert verifier._cpu_count() == cpus
    for probes in (0, 1, verifier.MIN_PROBES_PER_WORKER - 1, verifier.MIN_PROBES_PER_WORKER, 10**7, 10**18):
        assert 1 <= verifier.query_workers(probes) <= cpus
    assert verifier.query_workers(verifier.MIN_PROBES_PER_WORKER * cpus) == cpus


def test_one_query_thread_under_an_address_space_limit(monkeypatch):
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(resource, "getrlimit", lambda which: (1 << 30, resource.RLIM_INFINITY))
    assert verifier.query_workers(10**7) == 1
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))
    assert verifier.query_workers(10**7) == affinity_cpus()


def test_cpu_count_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert verifier._cpu_count() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verifier._cpu_count() == 1


@BOUNDED
@given(layers=st.integers(1, 5), k=st.integers(1, 12), parity=st.sampled_from(PARITY_NAMES))
def test_placed_count_equals_closed_form(layers, k, parity):
    assert len(place_proposed(model_for(layers, 1.0), k, parity=parity).sensors) == total_count(layers, k)


# The placement's extremes: at 5e-324 half a side rounds to 0, so every
# scaled coordinate is ±0 and only the unscaled coefficients order the sensors.
PLACEMENT_RADII = (5e-324, 1e-150, 0.3, 10.0, 1e150)


# Fewer examples than the other properties: the Fraction reference takes
# about 2 s at l = 8, k = 90.
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    layers=st.integers(1, 8),
    k=st.integers(1, 90),
    parity=st.sampled_from(PARITY_NAMES),
    radius=st.sampled_from(PLACEMENT_RADII),
)
def test_placement_equals_exact_reference_bit_for_bit(layers, k, parity, radius):
    deployment = place_proposed(build_solar_model(layers, radius), k, parity=parity)
    sensors, provenance, hexagon = exact_placement(deployment.model, k, parity)
    assert np.array_equal(deployment.sensors.view(np.uint64), sensors.view(np.uint64))
    assert np.array_equal(deployment.provenance, provenance)
    assert np.array_equal(deployment.hexagon, hexagon)


def assert_round_trip(deployment, directory):
    path = directory / "sensors.csv"
    write_sensors_csv(path, deployment)
    loaded = load_deployment(read_sensors_csv(path))
    assert (loaded.model.layers, loaded.r, loaded.k) == (deployment.model.layers, deployment.r, deployment.k)
    assert loaded.strategy == deployment.strategy
    assert np.array_equal(loaded.provenance, deployment.provenance)
    assert np.array_equal(loaded.hexagon, deployment.hexagon)
    # ".12g" keeps 12 significant digits: relative error at most 5e-12
    assert np.allclose(loaded.sensors, deployment.sensors, rtol=6e-12, atol=0.0)


@BOUNDED
@given(
    layers=st.integers(1, 3),
    k=st.integers(1, 9),
    parity=st.sampled_from(PARITY_NAMES),
    radius=st.sampled_from([1.0, 2.5, 10.0]),
)
def test_proposed_round_trip(tmp_path_factory, layers, k, parity, radius):
    deployment = place_proposed(build_solar_model(layers, radius), k, parity=parity)
    assert_round_trip(deployment, tmp_path_factory.mktemp("proposed"))


@BOUNDED
@given(
    layers=st.integers(1, 3),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    radius=st.sampled_from([1.0, 2.5, 10.0]),
)
def test_scheme_round_trip(tmp_path_factory, layers, k, seed, radius):
    deployment = place_benchmark(build_solar_model(layers, radius), k, seed=seed)
    assert_round_trip(deployment, tmp_path_factory.mktemp("scheme"))


def _texts(*examples):
    """Plausible field values, boundary cases and arbitrary text without separators."""
    junk = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=",\r\n"), max_size=8)
    return st.one_of(st.sampled_from(examples), junk)


_numbers = st.one_of(
    st.floats().map(repr), st.integers(-(10**30), 10**30).map(str), _texts("nan", "-inf", "1e999", "0x10")
)
_meta_values = {
    "l": st.one_of(st.integers(-1, 3).map(str), _texts("1000000", "9" * 400, "2.5", "")),
    "r": st.one_of(st.sampled_from(["1", "2.5", "1e-6", "1e149"]), _numbers),
    "k": st.one_of(st.integers(0, 12).map(str), _numbers),
    "strategy": _texts("proposed", "benchmark"),
    "seed": _numbers,
}
_meta_pair = st.sampled_from(sorted(_meta_values)).flatmap(
    lambda key: _meta_values[key].map(lambda value: f"{key}={value}")
)
_meta_line = st.lists(_meta_pair, max_size=6).map(lambda pairs: "# meta: " + " ".join(pairs))
_row = st.tuples(
    st.one_of(st.floats(-5, 5).map(repr), _numbers),
    st.one_of(st.floats(-5, 5).map(repr), _numbers),
    _texts("center", "vertex:even", "segment:1:1", "random"),
    st.one_of(st.integers(-1, 40).map(str), _texts("shared", "1" * 19)),
    _texts("proposed", "benchmark"),
).map(",".join)
_line = st.one_of(
    _row, _meta_line, st.just("x,y,provenance,hexagon,strategy"), _texts("#", "# note", "1,2,3")
).map(str.encode)
_file = st.lists(st.one_of(_line, st.binary(max_size=12)), max_size=12).map(b"\n".join)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(content=_file)
def test_fuzzed_sensor_files_exit_0_1_or_2(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "sensors.csv"
    path.write_bytes(content)
    assert main(["verify", "--input", str(path), "--mc-samples", "0"]) in (0, 1, 2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(content=_file)
def test_fuzzed_sensor_files_read_like_the_line_reader(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "sensors.csv"
    path.write_bytes(content)
    assert_reads_like_reference(path)
    with pytest.MonkeyPatch.context() as patch:  # rows split over several chunks
        patch.setattr(sensor_io, "READ_CHUNK", 2)
        assert_reads_like_reference(path)


def assert_writes_like_reference(deployment, directory):
    for write, reference, name in ((write_sensors_csv, reference_csv, "csv"), (write_sensors_json, reference_json, "json")):
        write(directory / f"columns.{name}", deployment)
        reference(directory / f"rows.{name}", deployment)
        assert (directory / f"columns.{name}").read_bytes() == (directory / f"rows.{name}").read_bytes()


# The radii the writer's formatting meets: digits below the unit, plain, and far above.
WRITER_RADII = (1e-3, 2.5, 10.0, 1e100)


@BOUNDED
@given(
    layers=st.integers(1, 8),
    k=st.integers(1, 12),
    parity=st.sampled_from(PARITY_NAMES),
    radius=st.sampled_from(WRITER_RADII),
)
def test_proposed_files_equal_the_row_writer(tmp_path_factory, layers, k, parity, radius):
    deployment = place_proposed(model_for(layers, radius), k, parity=parity)
    assert_writes_like_reference(deployment, tmp_path_factory.mktemp("proposed"))


@BOUNDED
@given(
    layers=st.integers(1, 4),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    radius=st.sampled_from(WRITER_RADII),
)
def test_scheme_files_equal_the_row_writer(tmp_path_factory, layers, k, seed, radius):
    deployment = place_benchmark(model_for(layers, radius), k, seed=seed)
    assert_writes_like_reference(deployment, tmp_path_factory.mktemp("scheme"))


@BOUNDED
@given(
    layers=st.integers(1, 4),
    k=st.integers(1, 8),
    radius=st.sampled_from(WRITER_RADII),
    data=st.data(),
)
def test_thinned_files_equal_the_row_writer(tmp_path_factory, layers, k, radius, data):
    deployment = place_proposed(model_for(layers, radius), k)
    count = deployment.sensor_count()
    removed = data.draw(st.lists(st.integers(0, count - 1), unique=True, max_size=count))
    assert_writes_like_reference(remove_sensors(deployment, removed), tmp_path_factory.mktemp("thinned"))

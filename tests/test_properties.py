"""Property tests: patch membership, lattice disk counts, placement counts and
bits, sensor-file round trips and the verify exit-code contract.

Examples are derandomized and bounded so the suite stays fast and repeatable.
"""

import functools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import exact_placement
from hexcover import verifier
from hexcover.benchmark import place_benchmark
from hexcover.cli import main
from hexcover.deployment import place_proposed, total_count
from hexcover.geometry import SQRT3, Hexagon, midpoint
from hexcover.sensor_io import load_deployment, read_sensors_csv, write_sensors_csv
from hexcover.tiling import (
    PARITY_NAMES,
    REGION_CHUNK,
    REGION_TOL,
    axial_center,
    build_solar_model,
    region_contains,
)
from hexcover.verifier import DISK_TOL, coverage_counts, lattice_counts

BOUNDED = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# The radii verify accepts at its extremes, and ordinary ones.
RADII = (1e-150, 0.3, 1.0, 10.0, 1e150)

model_for = functools.lru_cache(maxsize=None)(build_solar_model)


def brute_force_contains(model, points, tol):
    """Union over every patch hexagon of its three widened edge-normal bands."""
    bound = SQRT3 * 0.5 * model.side + tol * model.side
    inside = np.zeros(len(points), dtype=bool)
    for hexagon in model.hexagons:
        cx, cy = hexagon.center.to_xy(model.side)
        dx = points[:, 0] - cx
        dy = points[:, 1] - cy
        inside |= (
            (np.abs(dy) <= bound)
            & (np.abs(SQRT3 * dx + dy) * 0.5 <= bound)
            & (np.abs(SQRT3 * dx - dy) * 0.5 <= bound)
        )
    return inside


@st.composite
def membership_cases(draw):
    """A patch, a tolerance and points on, just off and between hexagon boundaries."""
    layers = draw(st.integers(1, 8))
    radius = draw(st.sampled_from(RADII))
    tol = draw(st.sampled_from([REGION_TOL, 1e-9]))
    model = model_for(layers, radius)
    min_x, min_y, max_x, max_y = model.bounding_box()
    nudge = st.sampled_from([-1e-13, 0.0, 1e-13])

    def on_boundary(args):
        # a vertex or an edge midpoint of a cell in or around the patch,
        # optionally nudged by 1e-13 r along each axis
        q, w, i, kind, ex, ey = args
        vertices = Hexagon(axial_center(q, w)).vertices()
        point = vertices[i] if kind == "vertex" else midpoint(vertices[i], vertices[(i + 1) % 6])
        x, y = point.to_xy(radius)
        return x + ex * radius, y + ey * radius

    cell = st.integers(-layers, layers)
    boundary = st.tuples(cell, cell, st.integers(0, 5), st.sampled_from(["vertex", "edge"]), nudge, nudge)
    uniform = st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
        lambda uv: (min_x + uv[0] * (max_x - min_x), min_y + uv[1] * (max_y - min_y))
    )
    points = draw(st.lists(st.one_of(boundary.map(on_boundary), uniform), min_size=1, max_size=60))
    return model, tol, np.array(points)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=membership_cases())
def test_region_contains_equals_per_hexagon_union(case):
    model, tol, points = case
    assert np.array_equal(region_contains(model, points, tol), brute_force_contains(model, points, tol))


# At tol = 0.45 a hexagon's widened bands reach 0.52 sides past it.  Rounding
# q and w separately can land half a side off the nearest cell, outside the
# neighbors of a hexagon that holds the point; only cube rounding stays
# complete there.
@pytest.mark.parametrize("tol", [REGION_TOL, 0.45])
def test_region_contains_equals_per_hexagon_union_across_chunks(tol):
    model = model_for(4, 2.5)
    min_x, min_y, max_x, max_y = model.bounding_box()
    rng = np.random.default_rng(11)
    count = 2 * REGION_CHUNK + 123
    points = np.column_stack(
        [rng.uniform(min_x - 2.5, max_x + 2.5, count), rng.uniform(min_y - 2.5, max_y + 2.5, count)]
    )
    inside = region_contains(model, points, tol)
    assert 0 < inside.sum() < count
    assert np.array_equal(inside, brute_force_contains(model, points, tol))


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


def grid_nodes(xs, ys):
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


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
    monkeypatch.setattr(verifier, "LATTICE_CHUNK", 7)
    rng = np.random.default_rng(5)
    xs, ys = np.arange(-3.0, 3.0, 0.15), np.arange(-2.0, 2.5, 0.15)
    sensors = rng.uniform(-4.0, 4.0, size=(40, 2))
    counts = lattice_counts(xs, ys, sensors, 1.3)
    assert counts.max() > 1
    assert np.array_equal(counts, brute_force_lattice_counts(xs, ys, sensors, 1.3))
    assert np.array_equal(counts.ravel(), coverage_counts(grid_nodes(xs, ys), sensors, 1.3))


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


def test_query_workers_stay_within_the_affinity_mask():
    cpus = affinity_cpus()
    assert verifier._cpu_count() == cpus
    for probes in (0, 1, verifier.MIN_PROBES_PER_WORKER - 1, verifier.MIN_PROBES_PER_WORKER, 10**7, 10**18):
        assert 1 <= verifier.query_workers(probes) <= cpus
    assert verifier.query_workers(verifier.MIN_PROBES_PER_WORKER * cpus) == cpus


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

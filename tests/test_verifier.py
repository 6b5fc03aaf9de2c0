"""Tests for the sampling-based coverage certifier and the triangle-coverage kernel."""

import dataclasses
import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from exact_reference import dense_covering, eff_radius_pairs
from float_geometry import brute_force_contains
from sampler_reference import reference_triangle_samples
from hexcover.benchmark import place_benchmark
from hexcover.cli import main
from hexcover.deployment import place_proposed, remove_sensors
from hexcover.geometry import centroid, midpoint
from hexcover.sensor_io import load_deployment, read_sensors_csv, write_sensors_csv
from hexcover import verifier
from hexcover.tiling import build_solar_model, patch_triangles
from hexcover.verifier import (
    covering_pairs,
    coverage_counts,
    default_grid_step,
    grid_points,
    minimum_sensors_lower_bound,
    monte_carlo_points,
    probe_estimate,
    residual_coverage,
    structured_count,
    structured_points,
    triangle_coverage_certificate,
    verify_coverage,
)

MC = 2000  # enough to exercise the stage, small enough to keep tests quick


@pytest.fixture(scope="module")
def model_l1():
    return build_solar_model(1)


@pytest.fixture(scope="module")
def model_l2():
    return build_solar_model(2)


def exact_structured_points(model):
    """Every triangle's vertices, edge midpoints and centroid as an exact set, in (x, y) order."""
    seen = set()
    for hexagon in model.hexagons:
        for triangle in hexagon.triangles():
            a, b, c = triangle.vertices
            seen.update((a, b, c, midpoint(a, b), midpoint(b, c), midpoint(c, a), centroid(a, b, c)))
    return np.array([p.to_xy(model.side) for p in sorted(seen, key=lambda p: (p.x, p.y))])


def per_hexagon_monte_carlo_points(model, count, seed):
    """Monte Carlo samples with each hexagon's corners from its exact vertices, hexagon by hexagon."""
    rng = np.random.default_rng(seed)
    centers = np.array([h.center.to_xy(model.side) for h in model.hexagons])
    verts = np.array([[v.to_xy(model.side) for v in h.vertices()] for h in model.hexagons])
    hex_idx = rng.integers(0, len(centers), size=count)
    tri_idx = rng.integers(0, 6, size=count)
    u = rng.random(count)
    v = rng.random(count)
    return reference_triangle_samples(
        centers[hex_idx], verts[hex_idx, tri_idx], verts[hex_idx, (tri_idx + 1) % 6], u, v
    )


class TestSampling:
    @pytest.mark.parametrize("layers", range(1, 7))
    @pytest.mark.parametrize("radius", [0.3, 2.5, 10.0])
    def test_structured_points_match_exact_reference(self, layers, radius):
        model = build_solar_model(layers, radius)
        points, expected = structured_points(model), exact_structured_points(model)
        assert points.shape == expected.shape
        assert np.array_equal(points.view(np.uint64), expected.view(np.uint64))

    def test_structured_points_are_deduplicated(self, model_l2):
        points = structured_points(model_l2)
        assert len(np.unique(points, axis=0)) == len(points)

    def test_structured_points_in_region(self, model_l2):
        points = structured_points(model_l2)
        assert brute_force_contains(model_l2, points).all()

    def test_grid_respects_step_and_region(self, model_l1):
        xs, ys, kept = grid_points(model_l1, 0.05)
        assert np.diff(xs) == pytest.approx(0.05, rel=1e-9)
        assert kept.shape == (len(ys), len(xs))
        rows, columns = np.nonzero(kept)
        assert brute_force_contains(model_l1, np.column_stack([xs[columns], ys[rows]])).all()

    def test_grid_rejects_bad_step(self, model_l1):
        with pytest.raises(ValueError):
            grid_points(model_l1, 0.0)

    def test_monte_carlo_seeded_and_inside(self, model_l2):
        a = monte_carlo_points(model_l2, 500, seed=9)
        b = monte_carlo_points(model_l2, 500, seed=9)
        assert np.array_equal(a, b)
        assert brute_force_contains(model_l2, a).all()

    @pytest.mark.parametrize("layers", range(1, 9))
    @pytest.mark.parametrize("radius", [0.3, 10.0, 1e150])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_monte_carlo_points_match_per_hexagon_reference(self, layers, radius, seed):
        model = build_solar_model(layers, radius)
        points = monte_carlo_points(model, 500, seed)
        expected = per_hexagon_monte_carlo_points(model, 500, seed)
        assert np.array_equal(points.view(np.uint64), expected.view(np.uint64))

    def test_coverage_counts_centroid_example(self):
        # triangle (center, vertex0, vertex1) of the unit hexagon: its centroid
        # sits at distance sqrt(1/3) from both the center and vertex0
        centroid = np.array([[0.5, math.sqrt(3) / 6.0]])
        sensors = np.array([[0.0, 0.0], [1.0, 0.0]])
        expected_distance = math.sqrt(1.0 / 3.0)
        assert np.hypot(*centroid[0]) == pytest.approx(expected_distance, rel=1e-12)
        assert coverage_counts(centroid, sensors, 1.0)[0] == 2
        assert coverage_counts(centroid, sensors, expected_distance)[0] == 2
        assert coverage_counts(centroid, sensors, 0.5)[0] == 0


def brute_force_counts(probes, sensors, radius):
    """The KD-tree's disk predicate, (px - sx)**2 + (py - sy)**2 <= eff**2, sensor by sensor."""
    eff2 = verifier._effective_radius(radius) ** 2
    counts = np.zeros(len(probes), dtype=int)
    for sx, sy in sensors:
        counts += (probes[:, 0] - sx) ** 2 + (probes[:, 1] - sy) ** 2 <= eff2
    return counts


class TestBlockedQuery:
    """``coverage_counts`` queries cell-ordered probes ``QUERY_BLOCK`` at a time, one tree per call."""

    B = verifier.QUERY_BLOCK

    @pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_counts_equal_brute_force_at_block_edges(self, count, monkeypatch):
        monkeypatch.setattr(verifier, "_cpu_count", lambda: 2)  # blocks of QUERY_BLOCK on any host
        rng = np.random.default_rng(count)
        sensors = rng.uniform(-5.0, 5.0, size=(40, 2))
        probes = rng.uniform(-7.0, 7.0, size=(count, 2))
        counts = coverage_counts(probes, sensors, 1.5)
        assert counts.shape == (count,)
        assert np.array_equal(counts, brute_force_counts(probes, sensors, 1.5))

    # (CPUs, probes) -> (threads, probes per query): four threads fill a block; more threads take
    # MIN_PROBES_PER_WORKER each, so a host with eight CPUs queries on eight threads, in larger blocks
    @pytest.mark.parametrize("cpus, count, workers, blocks", [
        (2, 3 * B + 7, 2, [B, B, B, 7]),
        (4, 2 * B, 4, [B, B]),
        (8, 3 * B + 7, 8, [2 * B, B + 7]),
        (8, B, 4, [B]),
        (8, 5000, 1, [5000]),
    ])
    def test_query_threads_and_blocks_follow_the_cpus(self, cpus, count, workers, blocks, monkeypatch):
        queries = []

        class Tree:
            def __init__(self, sensors):
                self.tree = original(sensors)

            def query_ball_point(self, points, eff, **options):
                queries.append((len(points), options["workers"]))
                return self.tree.query_ball_point(points, eff, **options)

        original = verifier._kdtree
        monkeypatch.setattr(verifier, "_kdtree", Tree)
        monkeypatch.setattr(verifier, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: False)
        rng = np.random.default_rng(count)
        sensors = rng.uniform(-5.0, 5.0, size=(40, 2))
        probes = rng.uniform(-7.0, 7.0, size=(count, 2))
        counts = coverage_counts(probes, sensors, 1.5)
        assert queries == [(size, workers) for size in blocks]
        assert np.array_equal(counts, brute_force_counts(probes, sensors, 1.5))

    def test_no_sensors_count_zero(self):
        probes = np.random.default_rng(3).uniform(-7.0, 7.0, size=(2 * self.B + 1, 2))
        assert np.array_equal(coverage_counts(probes, np.zeros((0, 2)), 1.0), np.zeros(len(probes), dtype=int))

    # spans of about 10**2, 6 * 10**4 and 8 * 10**6 cells, in exact key order, then 4.5, 9.0 and 18 * 10**15
    # and 10**260 cells, from 2**52 on, where keys of distinct cells may round together
    @pytest.mark.parametrize("width, height", [(9, 7), (300, 200), (1 << 12, 1 << 11), (1 << 27, 1 << 25),
                                               (1 << 27, 1 << 26), (1 << 28, 1 << 26), (1e140, 1e120)])
    @pytest.mark.parametrize("shift", [0.0, -1e12])
    def test_wide_cell_ranges(self, width, height, shift):
        rng = np.random.default_rng(11)
        corner = rng.uniform(size=(self.B + 5, 2)) * np.array([width, height]) + shift
        probes = np.concatenate([corner, corner[:3000] + rng.uniform(-2.0, 2.0, size=(3000, 2))])
        sensors = corner[rng.integers(0, len(corner), size=50)]
        order = verifier._cell_order(probes, 1.0)
        assert np.array_equal(np.sort(order), np.arange(len(probes)))
        if width * height < 2**52:
            column, row = np.floor(probes[order]).T
            assert (np.diff(row) >= 0).all() and (np.diff(column)[np.diff(row) == 0] >= 0).all()
        counts = coverage_counts(probes, sensors, 1.0)
        assert counts.max() > 0
        assert np.array_equal(counts, brute_force_counts(probes, sensors, 1.0))

    def test_one_tree_per_call(self, monkeypatch):
        builds = []
        original = verifier._kdtree
        monkeypatch.setattr(verifier, "_kdtree", lambda sensors: builds.append(len(sensors)) or original(sensors))
        probes = np.random.default_rng(5).uniform(-7.0, 7.0, size=(3 * self.B + 7, 2))
        coverage_counts(probes, np.zeros((4, 2)), 1.0)
        assert builds == [4]

    def test_monte_carlo_stage_peaks_below_80_bytes_per_sample(self):
        # The four draws (8 bytes each), the points (16) and one 8-byte column
        # of the sampler: 56 bytes per sample; the query holds the points, the
        # order and the counts, and one block.  Gathering each sample's three
        # corners and querying one ordered copy of every probe peaked at 113.
        model = build_solar_model(10, 10.0)
        deployment = place_benchmark(model, 10, seed=7)
        samples = 200_000
        coverage_counts(monte_carlo_points(model, 100, 8), deployment.sensors, deployment.r)  # scipy loads untraced
        tracemalloc.start()
        try:
            counts = coverage_counts(monte_carlo_points(model, samples, 8), deployment.sensors, deployment.r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(counts) == samples and counts.min() < deployment.k
        assert peak < 80 * samples


class TestProbeEstimate:
    def test_structured_count_is_exact(self):
        for layers in range(1, 41):
            assert structured_count(layers) == len(structured_points(build_solar_model(layers))), layers

    @pytest.mark.parametrize("layers", [1, 2, 4])
    @pytest.mark.parametrize("radius,step", [(1.0, None), (2.5, 0.3), (10.0, 0.5)])
    def test_closed_form_tracks_the_built_probes(self, layers, radius, step):
        model = build_solar_model(layers, radius)
        step_used = radius / 20.0 if step is None else step
        min_x, min_y, max_x, max_y = model.bounding_box()
        raw = len(np.arange(min_x, max_x + step_used * 0.5, step_used)) * len(
            np.arange(min_y, max_y + step_used * 0.5, step_used)
        )
        built = len(structured_points(model)) + raw + 7
        estimate = probe_estimate(layers, radius, step, 7)
        assert built * 0.8 <= estimate <= built * 1.25


class TestVerifyCoverage:
    def test_one_coverage_passes(self, model_l1):
        report = verify_coverage(place_proposed(model_l1, 1), mc_samples=MC)
        assert report.passed
        assert report.min_coverage >= 1
        assert report.failing_points == ()

    def test_three_coverage_two_layers_passes(self, model_l2):
        report = verify_coverage(place_proposed(model_l2, 3), mc_samples=MC)
        assert report.passed
        assert report.min_coverage >= 3

    def test_min_coverage_is_exactly_k(self, model_l2):
        # triangle centroids see only their own hexagon's sensors
        report = verify_coverage(place_proposed(model_l2, 3), mc_samples=MC)
        assert report.min_coverage == 3

    def test_deleting_a_vertex_sensor_breaks_two_coverage(self, model_l1):
        deployment = place_proposed(model_l1, 2)
        victim = deployment.provenance.tolist().index("vertex:even")
        broken = remove_sensors(deployment, [victim])
        report = verify_coverage(broken, mc_samples=MC)
        assert not report.passed
        assert len(report.failing_points) > 0

    def test_empty_deployment_reports_zero(self, model_l1):
        deployment = place_proposed(model_l1, 1)
        empty = remove_sensors(deployment, [0])
        report = verify_coverage(empty, mc_samples=MC)
        assert report.min_coverage == 0
        assert not report.passed

    def test_histogram_accounts_for_every_sample(self, model_l2):
        report = verify_coverage(place_proposed(model_l2, 2), mc_samples=MC)
        assert sum(report.coverage_histogram.values()) == report.samples
        assert min(report.coverage_histogram) == report.min_coverage

    def test_monotone_in_k_on_identical_samples(self, model_l2):
        reports = [
            verify_coverage(place_proposed(model_l2, k), seed=3, mc_samples=MC)
            for k in (1, 2, 3, 4)
        ]
        mins = [r.min_coverage for r in reports]
        assert mins == sorted(mins)

    def test_grid_refinement_never_raises_minimum(self, model_l2):
        deployment = place_proposed(model_l2, 2)
        coarse = verify_coverage(deployment, grid_step=0.1, mc_samples=MC)
        fine = verify_coverage(deployment, grid_step=0.05, mc_samples=MC)
        assert fine.min_coverage <= coarse.min_coverage

    def test_determinism(self, model_l2):
        deployment = place_proposed(model_l2, 2)
        a = verify_coverage(deployment, seed=42, mc_samples=MC)
        b = verify_coverage(deployment, seed=42, mc_samples=MC)
        assert a == b

    def test_fail_fast_stops_early(self, model_l1):
        deployment = place_proposed(model_l1, 2)
        victim = deployment.provenance.tolist().index("vertex:even")
        broken = remove_sensors(deployment, [victim])
        eager = verify_coverage(broken, mc_samples=MC, fail_fast=True)
        full = verify_coverage(broken, mc_samples=MC)
        assert not eager.passed
        assert eager.samples < full.samples

    @pytest.mark.parametrize("fail_fast", [True, False])
    def test_fail_fast_builds_no_later_stage(self, model_l1, monkeypatch, fail_fast):
        deployment = place_proposed(model_l1, 2)
        victim = deployment.provenance.tolist().index("vertex:even")
        broken = remove_sensors(deployment, [victim])
        built = []
        for name in ("grid_points", "monte_carlo_points"):
            original = getattr(verifier, name)

            def recorded(*args, _name=name, _original=original, **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(verifier, name, recorded)
        report = verify_coverage(broken, mc_samples=MC, fail_fast=fail_fast)
        assert not report.passed
        assert built == ([] if fail_fast else ["grid_points", "monte_carlo_points"])

    def test_grid_stage_lists_no_kept_nodes(self):
        # Clipping holds 17 bytes per raw node plus per-chunk temporaries; a
        # list of every kept node's coordinates pushed the peak to 37.
        model = build_solar_model(10, 10.0)
        deployment = place_benchmark(model, 10, seed=7)
        xs, ys, _ = grid_points(model, default_grid_step(10.0))
        tracemalloc.start()
        try:
            report = verify_coverage(deployment, mc_samples=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.passed and len(report.failing_points) == 100
        assert peak < 28 * len(xs) * len(ys)

    def test_report_serialization(self, model_l1):
        report = verify_coverage(place_proposed(model_l1, 1), mc_samples=MC)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["target_k"] == 1
        assert isinstance(payload["coverage_histogram"], dict)


class TestStageSchedule:
    """The grid counted on a worker thread beside the KD-tree queries reports what the inline schedule reports."""

    @staticmethod
    def _deployment(name):
        model = build_solar_model(3, 10.0)
        if name == "scheme":
            return place_benchmark(model, 4, seed=7)
        proposed = place_proposed(model, 4)
        if name == "thinned":
            return remove_sensors(proposed, [proposed.provenance.tolist().index("vertex:even")])
        return proposed

    @staticmethod
    def _record_threads(monkeypatch):
        """Whether each ``lattice_counts`` call ran on the main thread, in call order."""
        on_main, original = [], verifier.lattice_counts

        def recorded(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            return original(*args)

        monkeypatch.setattr(verifier, "lattice_counts", recorded)
        return on_main

    @pytest.mark.parametrize("name", ["proposed", "thinned", "scheme"])
    def test_worker_and_inline_schedules_give_equal_reports(self, name, monkeypatch):
        deployment = self._deployment(name)
        on_main = self._record_threads(monkeypatch)
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: False)
        overlapped = verify_coverage(deployment, seed=3, mc_samples=MC)
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: True)
        inline = verify_coverage(deployment, seed=3, mc_samples=MC)
        assert on_main == [False, True]
        # dataclass equality compares the failing points in order
        assert overlapped == inline
        assert overlapped.passed == (name == "proposed") == (not overlapped.failing_points)

    def test_a_thread_that_cannot_start_counts_inline(self, monkeypatch):
        deployment = self._deployment("scheme")
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: False)
        expected = verify_coverage(deployment, seed=3, mc_samples=MC)
        on_main = self._record_threads(monkeypatch)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert verify_coverage(deployment, seed=3, mc_samples=MC) == expected
        assert on_main == [True]

    def test_no_worker_outlives_an_error_in_the_report(self, monkeypatch):
        # the structured stage's failing points cannot be read while the grid is still counted
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: False)
        read, finished = threading.Event(), []
        counts, counted = verifier.lattice_counts, verifier._counted

        def slow_counts(*args):
            read.wait(timeout=10)
            time.sleep(0.2)
            finished.append(True)
            return counts(*args)

        def unreadable(*args):
            stage_counts, _ = counted(*args)

            def lookup(index):
                read.set()
                raise MemoryError

            return stage_counts, lookup

        monkeypatch.setattr(verifier, "lattice_counts", slow_counts)
        monkeypatch.setattr(verifier, "_counted", unreadable)
        threads = threading.active_count()
        with pytest.raises(MemoryError) as raised:
            verify_coverage(self._deployment("scheme"), seed=3, mc_samples=MC)
        # the traceback keeps verify's frame, and with it the stage generator, alive
        assert raised.traceback and finished == [True]
        assert threading.active_count() == threads

    def test_an_interrupt_on_the_worker_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: False)
        on_main = []

        def interrupted(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            raise KeyboardInterrupt

        monkeypatch.setattr(verifier, "lattice_counts", interrupted)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            verify_coverage(self._deployment("scheme"), seed=3, mc_samples=MC)
        assert on_main == [False]
        assert threading.active_count() == threads

    def test_fail_fast_counts_the_grid_inline(self, monkeypatch):
        on_main = self._record_threads(monkeypatch)
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: False)
        report = verify_coverage(self._deployment("proposed"), seed=3, mc_samples=MC, fail_fast=True)
        assert report.passed and on_main == [True]


class TestResidualCoverage:
    def test_no_failures_is_identity(self, model_l2):
        deployment = place_proposed(model_l2, 3)
        report = residual_coverage(deployment, [], mc_samples=MC)
        assert report.min_coverage >= 3
        assert report.target_k == 3

    def test_losing_the_center_sensor_keeps_two_coverage(self, model_l1):
        deployment = place_proposed(model_l1, 3)
        center = deployment.provenance.tolist().index("center")
        report = residual_coverage(deployment, [center], mc_samples=MC)
        assert report.min_coverage >= 2
        assert not report.passed  # target stays at 3

    def test_losing_everything_reports_zero(self, model_l1):
        deployment = place_proposed(model_l1, 3)
        report = residual_coverage(deployment, list(range(len(deployment.sensors))), mc_samples=MC)
        assert report.min_coverage == 0

    @pytest.mark.parametrize("source", ["proposed", "scheme", "loaded"])
    def test_every_layout_supports_failures(self, model_l2, tmp_path, source):
        if source == "proposed":
            deployment = place_proposed(model_l2, 2)
        else:
            deployment = place_benchmark(model_l2, 2, seed=1)
        if source == "loaded":
            path = tmp_path / "scheme.csv"
            write_sensors_csv(path, deployment)
            deployment = load_deployment(read_sensors_csv(path))
        reduced = remove_sensors(deployment, [0, 2])
        kept = [i for i in range(deployment.sensor_count()) if i not in (0, 2)]
        for column in ("sensors", "provenance", "hexagon"):
            assert np.array_equal(getattr(reduced, column), getattr(deployment, column)[kept])
        report = residual_coverage(deployment, [0, 2], mc_samples=MC)
        assert report.target_k == 2
        assert report == verify_coverage(reduced, mc_samples=MC)

    def test_duplicate_failures_rejected(self, model_l1):
        deployment = place_proposed(model_l1, 3)
        with pytest.raises(ValueError):
            residual_coverage(deployment, [0, 0], mc_samples=MC)


def thinned(deployment, seed, share=0.05):
    """The deployment without a seeded random ``share`` of its sensors."""
    count = deployment.sensor_count()
    removed = np.random.default_rng(seed).choice(count, size=max(1, int(share * count)), replace=False)
    return remove_sensors(deployment, removed.tolist())


def jittered(deployment, seed, scale):
    """The deployment with every sensor moved by up to ``scale`` radii along each axis."""
    shift = np.random.default_rng(seed).uniform(-scale, scale, deployment.sensors.shape) * deployment.r
    return dataclasses.replace(deployment, sensors=deployment.sensors + shift)


CROSS_CHECK_LAYOUTS = {
    "scheme-l2-k2": lambda: place_benchmark(build_solar_model(2), 2, seed=1),
    "scheme-l3-k5": lambda: place_benchmark(build_solar_model(3, 10.0), 5, seed=7),
    "scheme-l2-k10-offset": lambda: place_benchmark(
        build_solar_model(2, 2.5), 10, seed=3, offset=(Fraction(1, 3), Fraction(-1, 5))
    ),
    "thinned-l3-k4": lambda: thinned(place_proposed(build_solar_model(3, 2.5), 4), seed=0),
    "thinned-l2-k7": lambda: thinned(place_proposed(build_solar_model(2, 10.0), 7), seed=1, share=0.2),
    "jittered-l3-k4-inside-tolerance": lambda: jittered(place_proposed(build_solar_model(3, 2.5), 4), 2, 1e-11),
    "jittered-l2-k6": lambda: jittered(place_proposed(build_solar_model(2, 10.0), 6), 3, 1e-3),
    "jittered-l3-k3": lambda: jittered(place_proposed(build_solar_model(3), 3), 4, 0.05),
}

# Proposed plans, whose corner sensors sit exactly on the disks' boundaries, across the radii plan accepts.
PROPOSED_LAYOUTS = {
    "proposed-l3-k4": lambda: place_proposed(build_solar_model(3, 2.5), 4),
    "proposed-l5-k60": lambda: place_proposed(build_solar_model(5, 10.0), 60),
    "proposed-l4-k1-small": lambda: place_proposed(build_solar_model(4, 1e-3), 1),
    "proposed-l2-k9-large": lambda: place_proposed(build_solar_model(2, 1e100), 9, parity="odd"),
    "proposed-l3-k2-extreme": lambda: place_proposed(build_solar_model(3, 1e-150), 2),
}
COVERING_LAYOUTS = {**CROSS_CHECK_LAYOUTS, **PROPOSED_LAYOUTS}

# The unit hexagon's six triangles.
UNIT_TRIANGLES = patch_triangles(build_solar_model(1))


def held_triangles(x, y):
    """How many of the unit hexagon's triangles the unit disk at (x, y) holds."""
    return len(covering_pairs(UNIT_TRIANGLES, np.array([[x, y]]), 1.0)[0])


class TestTriangleCoverage:
    @pytest.mark.parametrize("layout", CROSS_CHECK_LAYOUTS)
    @pytest.mark.parametrize("widen", [1.0, 0.6, 2.5])
    def test_covering_pairs_equal_the_dense_reference(self, layout, widen):
        # Disks wider than the triangles hold them from farther off their centroids.
        deployment = CROSS_CHECK_LAYOUTS[layout]()
        triangles, radius = patch_triangles(deployment.model), widen * deployment.r
        triangle, sensor = covering_pairs(triangles, deployment.sensors, radius)
        held = np.zeros((len(triangles), deployment.sensor_count()), dtype=bool)
        held[triangle, sensor] = True
        assert held.sum() == len(triangle)
        assert (np.diff(triangle) >= 0).all()
        assert np.array_equal(held, dense_covering(triangles, deployment.sensors, radius))

    @pytest.mark.parametrize("layout", COVERING_LAYOUTS)
    @pytest.mark.parametrize("widen", [1.0, 0.6, 2.5])
    def test_covering_pairs_equal_an_eff_radius_query(self, layout, widen):
        # The reach sqrt(eff**2 - m) drops candidates that cannot hold their triangle, and no pair.
        deployment = COVERING_LAYOUTS[layout]()
        triangles, radius = patch_triangles(deployment.model), widen * deployment.r
        pairs = [
            np.unique(np.column_stack(find(triangles, deployment.sensors, radius)), axis=0)
            for find in (covering_pairs, eff_radius_pairs)
        ]
        assert np.array_equal(*pairs)

    @pytest.mark.parametrize("radius", [1e-3, 2.5, 1e100])
    def test_inscribed_triangles_are_held_by_their_circle(self, radius):
        # Corners on the disk's circle put its center exactly sqrt(r**2 - m) from the
        # centroid, the reach's bound: a shorter reach would miss the pair.
        angles = np.random.default_rng(11).uniform(0.0, 2 * np.pi, size=(500, 3, 1))
        center = np.array([3.0, -1.0]) * radius
        triangles = center + radius * np.concatenate([np.cos(angles), np.sin(angles)], axis=2)
        triangle, sensor = covering_pairs(triangles, center[None], radius)
        assert np.array_equal(triangle, np.arange(len(triangles))) and not sensor.any()

    @pytest.mark.parametrize("layout", CROSS_CHECK_LAYOUTS)
    def test_certificate_implies_a_sampled_pass(self, layout):
        deployment = CROSS_CHECK_LAYOUTS[layout]()
        certified = triangle_coverage_certificate(deployment)
        report = verify_coverage(dataclasses.replace(deployment, k=certified), mc_samples=MC)
        assert report.passed, f"certificate {certified}, sampled minimum {report.min_coverage}"

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
    def test_proposed_plans_certify_exactly_k(self, layers, k):
        assert triangle_coverage_certificate(place_proposed(build_solar_model(layers, 2.5), k)) == k

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--layers", "3", "--coverage", "4", "--radius", "2.5"], 4),
            (["--layers", "10", "--coverage", "10", "--radius", "10"], 10),
            (["--layers", "5", "--coverage", "60", "--radius", "10"], 60),
            (["--layers", "20", "--coverage", "10", "--radius", "10"], 10),
            (["--strategy", "benchmark", "--layers", "10", "--coverage", "10", "--radius", "10", "--seed", "7"], 1),
            # l = 48, the largest plan verify admits at its default step, at radii whose coordinates
            # the .12g cells round by different amounts; past |y| ~ 10^3 the rounding can break an
            # exact vertex contact (k = 1, r = 5 certifies 0 from l = 119)
            (["--layers", "48", "--coverage", "1", "--radius", "1.22"], 1),
            (["--layers", "48", "--coverage", "2", "--radius", "1.22"], 2),
            (["--layers", "48", "--coverage", "1", "--radius", "12.2"], 1),
            (["--layers", "48", "--coverage", "2", "--radius", "12.2"], 2),
        ],
        ids=["l3-k4", "l10-k10", "l5-k60", "l20-k10", "scheme-l10-k10",
             "l48-k1-r1.22", "l48-k2-r1.22", "l48-k1-r12.2", "l48-k2-r12.2"],
    )
    def test_certificate_of_plans_reloaded_from_csv(self, tmp_path, flags, expected):
        path = tmp_path / "sensors.csv"
        assert main(["plan", *flags, "--output", str(path)]) == 0
        assert triangle_coverage_certificate(load_deployment(read_sensors_csv(path))) == expected

    def test_no_sensors_certify_zero(self, model_l1):
        assert triangle_coverage_certificate(remove_sensors(place_proposed(model_l1, 1), [0])) == 0


class TestLowerBound:
    def test_returns_three(self):
        assert minimum_sensors_lower_bound() == 3

    def test_candidates_equal_the_corner_expression(self, monkeypatch):
        # triangle t of the unit hexagon, repeated once per barycentric grid point, against the same grid
        candidates = []
        original = verifier.covering_pairs
        monkeypatch.setattr(verifier, "covering_pairs", lambda t, s, r: candidates.append(s) or original(t, s, r))
        assert minimum_sensors_lower_bound() == 3
        n = 24
        i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
        u, v = i[i + j <= n] / n, j[i + j <= n] / n
        center, a, b = np.repeat(patch_triangles(build_solar_model(1)), len(u), axis=0).transpose(1, 0, 2)
        expected = reference_triangle_samples(center, a, b, np.tile(u, 6), np.tile(v, 6))
        assert len(candidates) == 1
        assert np.array_equal(candidates[0].view(np.uint64), expected.view(np.uint64))

    def test_center_holds_all_six(self):
        assert held_triangles(0.0, 0.0) == 6

    def test_segment_midpoint_holds_exactly_two(self):
        assert held_triangles(0.5, 0.0) == 2

    def test_vertex_holds_exactly_two(self):
        assert held_triangles(1.0, 0.0) == 2

    def test_best_two_sensor_placement_misses_triangles(self):
        # a second barycentric grid: no off-center candidate holds more than
        # 2 triangles, so two sensors reach at most 4 of 6
        n = 16
        u, v = np.array([(i / n, j / n) for i in range(n + 1) for j in range(n + 1 - i)]).T
        w = 1.0 - u - v
        center, a, b = (UNIT_TRIANGLES[:, None, corner] for corner in range(3))
        candidates = (u[:, None] * center + v[:, None] * a + w[:, None] * b).reshape(-1, 2)
        candidates = candidates[~(candidates == 0.0).all(axis=1)]
        best = np.bincount(covering_pairs(UNIT_TRIANGLES, candidates, 1.0)[1]).max()
        assert best == 2
        assert 2 * best < 6


def corner_disk_holds(scale, triangle, corner, radius):
    """Whether the disk of ``radius`` at one corner of a triangle of the side-``scale`` hexagon holds it."""
    triangles = patch_triangles(build_solar_model(1, scale))[triangle : triangle + 1]
    held, _ = covering_pairs(triangles, triangles[0, corner : corner + 1], radius)
    return len(held) == 1


class TestCoveringPairsAtCorners:
    """A disk at a corner of a side-s triangle holds it at radius s and not at 0.99 s."""

    def test_covers_at_exact_radius(self):
        assert corner_disk_holds(1.0, 0, 0, 1.0)

    def test_smaller_radius_fails(self):
        assert not corner_disk_holds(1.0, 0, 0, 0.99)

    def test_scale_invariance(self):
        assert corner_disk_holds(10.0, 2, 0, 10.0)
        assert not corner_disk_holds(10.0, 2, 0, 9.9)

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_any_anchor_works(self, scale):
        for triangle in range(6):
            for corner in range(3):
                assert corner_disk_holds(scale, triangle, corner, scale)
                assert not corner_disk_holds(scale, triangle, corner, 0.99 * scale)

    def test_sampled_points_stay_in_disk(self):
        # the disk that holds the triangle counts each of 1000 points sampled in it
        center, a, b = UNIT_TRIANGLES[0]
        rng = np.random.default_rng(5)
        points = reference_triangle_samples(center, a, b, rng.random(1000), rng.random(1000))
        assert corner_disk_holds(1.0, 0, 1, 1.0)
        assert (coverage_counts(points, a[None], 1.0) == 1).all()

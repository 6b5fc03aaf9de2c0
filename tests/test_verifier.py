"""Tests for the sampling-based coverage certifier."""

import math

import numpy as np
import pytest

from hexcover.benchmark import place_benchmark
from hexcover.deployment import place_proposed, remove_sensors
from hexcover.geometry import centroid, midpoint
from hexcover.sensor_io import load_deployment, read_sensors_csv, write_sensors_csv
from hexcover import verifier
from hexcover.tiling import build_solar_model, triangle_samples
from hexcover.verifier import (
    coverage_counts,
    grid_points,
    monte_carlo_points,
    probe_estimate,
    region_contains,
    residual_coverage,
    structured_points,
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
    return triangle_samples(
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
        assert region_contains(model_l2, points).all()

    def test_grid_respects_step_and_region(self, model_l1):
        points = grid_points(model_l1, 0.05)
        assert region_contains(model_l1, points).all()
        xs = np.unique(points[:, 0])
        gaps = np.diff(np.sort(xs))
        assert gaps.min() == pytest.approx(0.05, rel=1e-9)

    def test_grid_rejects_bad_step(self, model_l1):
        with pytest.raises(ValueError):
            grid_points(model_l1, 0.0)

    def test_monte_carlo_seeded_and_inside(self, model_l2):
        a = monte_carlo_points(model_l2, 500, seed=9)
        b = monte_carlo_points(model_l2, 500, seed=9)
        assert np.array_equal(a, b)
        assert region_contains(model_l2, a).all()

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


class TestProbeEstimate:
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
        report = verify_coverage(broken, target_k=2, mc_samples=MC)
        assert not report.passed
        assert len(report.failing_points) > 0

    def test_empty_deployment_reports_zero(self, model_l1):
        deployment = place_proposed(model_l1, 1)
        empty = remove_sensors(deployment, [0])
        report = verify_coverage(empty, target_k=1, mc_samples=MC)
        assert report.min_coverage == 0
        assert not report.passed

    def test_histogram_accounts_for_every_sample(self, model_l2):
        report = verify_coverage(place_proposed(model_l2, 2), mc_samples=MC)
        assert sum(report.coverage_histogram.values()) == report.samples
        assert min(report.coverage_histogram) == report.min_coverage

    def test_monotone_in_k_on_identical_samples(self, model_l2):
        reports = [
            verify_coverage(place_proposed(model_l2, k), target_k=1, seed=3, mc_samples=MC)
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
        eager = verify_coverage(broken, target_k=2, mc_samples=MC, fail_fast=True)
        full = verify_coverage(broken, target_k=2, mc_samples=MC)
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
        report = verify_coverage(broken, target_k=2, mc_samples=MC, fail_fast=fail_fast)
        assert not report.passed
        assert built == ([] if fail_fast else ["grid_points", "monte_carlo_points"])

    def test_report_serialization(self, model_l1):
        report = verify_coverage(place_proposed(model_l1, 1), mc_samples=MC)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["target_k"] == 1
        assert isinstance(payload["coverage_histogram"], dict)


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
        assert report == verify_coverage(reduced, target_k=2, mc_samples=MC)

    def test_duplicate_failures_rejected(self, model_l1):
        deployment = place_proposed(model_l1, 3)
        with pytest.raises(ValueError):
            residual_coverage(deployment, [0, 0], mc_samples=MC)

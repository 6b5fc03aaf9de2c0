"""Empirical k-coverage certification by deterministic sampling.

Three point families are evaluated against the sensing disks:

* structured points: the vertices, edge midpoints and centroid of every
  center-vertex-vertex triangle of every patch hexagon, keyed by integer
  multiples of 1/6 lattice unit, so deduplication and ordering are exact.
  Triangle vertices are the worst-case points under the placement
  strategy, so a failure cannot hide from this family;
* a square grid of pitch ``grid_step`` clipped to the patch by
  ``tiling.region_contains``, which tests each point against its nearest
  hexagon and that hexagon's neighbors only, so clipping is O(points);
* seeded uniform samples over the patch.

The disk test compares squared distances with a 1e-9 relative tolerance so
exact boundary contacts survive the float conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from .deployment import Deployment, remove_sensors
from .geometry import ORIGIN, SQRT3, Hexagon, centroid, midpoint
from .tiling import SolarModel, hexagon_count, region_contains, triangle_samples

DISK_TOL = 1e-9  # relative, on squared distances
MAX_FAILING_POINTS = 100
# Probe budget of one verify run.  Building and clipping the grid peaks at
# 51 bytes per raw grid point (the meshgrid, the stacked points, the mask and
# the kept points; the clipping kernel's own temporaries are per chunk) and
# Monte Carlo sampling at 129 bytes per sample, so the budget caps those
# temporaries near 0.5 and 1.3 GB.
MAX_PROBES = 10_000_000
# Largest magnitude of a sensor coordinate, a radius or a reciprocal radius
# that verify accepts: squared distances then stay finite normal floats,
# which the disk test and the KD-tree compare.
FLOAT_LIMIT = 1e150


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of sampling a deployment against a target coverage."""

    target_k: int
    samples: int
    min_coverage: int
    failing_points: tuple[tuple[float, float], ...]
    coverage_histogram: dict[int, int]
    region: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "target_k": self.target_k,
            "samples": self.samples,
            "min_coverage": self.min_coverage,
            "passed": self.passed,
            "failing_points": [list(p) for p in self.failing_points],
            "coverage_histogram": {str(k): v for k, v in sorted(self.coverage_histogram.items())},
            "region": self.region,
        }


# Six times the lattice coefficients (x, y) of the 42 probes of the unit
# hexagon at the origin (seven per triangle): all integers.
_PROBE_OFFSETS6 = np.array(
    [
        (int(6 * p.x), int(6 * p.y))
        for a, b, c in (triangle.vertices for triangle in Hexagon(ORIGIN).triangles())
        for p in (a, b, c, midpoint(a, b), midpoint(b, c), midpoint(c, a), centroid(a, b, c))
    ]
)


def structured_points(model: SolarModel) -> np.ndarray:
    """Per-triangle probe points (vertices, edge midpoints, centroids), deduplicated.

    Probes are keyed by six times their lattice coefficients, which are
    integers, so deduplication is exact and ``np.unique`` sorts them in
    exact (x, y) order.  X/6 and Y/6 are correctly rounded divisions, so
    each coordinate is ``LatticePoint.to_xy`` of the exact point, bit for bit.
    """
    q, w = np.array(model.axial).T
    centers6 = 6 * np.column_stack([3 * q, q + 2 * w])
    keys = np.unique((centers6[:, None, :] + _PROBE_OFFSETS6).reshape(-1, 2), axis=0)
    half = 0.5 * model.side
    return np.column_stack([keys[:, 0] / 6.0 * half, keys[:, 1] / 6.0 * SQRT3 * half])


def default_grid_step(radius: float) -> float:
    return radius / 20.0


def probe_estimate(layers: int, radius: float, grid_step: float | None, mc_samples: int) -> int:
    """Probes ``verify_coverage`` would evaluate, from closed forms, before anything is built.

    About 18 structured probes per hexagon, the raw grid over the patch's
    bounding box ((3l - 1) r wide, (2l - 1) sqrt(3) r high) and the Monte
    Carlo samples.  Exact rational arithmetic keeps absurd inputs from
    overflowing.  ``radius`` must lie within ``FLOAT_LIMIT`` and its reciprocal.
    """
    step = default_grid_step(radius) if grid_step is None else grid_step
    per_step = Fraction(radius) / Fraction(step)
    columns = math.floor((3 * layers - 1) * per_step) + 2
    rows = math.floor((2 * layers - 1) * Fraction(SQRT3) * per_step) + 2
    return 18 * hexagon_count(layers) + columns * rows + mc_samples


def grid_points(model: SolarModel, step: float) -> np.ndarray:
    """Square grid of pitch ``step`` clipped to the patch.

    The grid is anchored at the bounding-box corner, so halving the step keeps
    every existing point and refinement can only lower the observed minimum.
    """
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    min_x, min_y, max_x, max_y = model.bounding_box()
    xs = np.arange(min_x, max_x + step * 0.5, step)
    ys = np.arange(min_y, max_y + step * 0.5, step)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    return points[region_contains(model, points)]


def monte_carlo_points(model: SolarModel, count: int, seed: int) -> np.ndarray:
    """Seeded uniform samples over the patch (hexagons have equal area)."""
    if count <= 0:
        return np.zeros((0, 2))
    rng = np.random.default_rng(seed)
    scale = model.side
    centers = np.array([h.center.to_xy(scale) for h in model.hexagons])
    verts = np.array(
        [[v.to_xy(scale) for v in h.vertices()] for h in model.hexagons]
    )  # (H, 6, 2)
    hex_idx = rng.integers(0, len(centers), size=count)
    tri_idx = rng.integers(0, 6, size=count)
    u = rng.random(count)
    v = rng.random(count)
    return triangle_samples(
        centers[hex_idx], verts[hex_idx, tri_idx], verts[hex_idx, (tri_idx + 1) % 6], u, v
    )


def coverage_counts(points: np.ndarray, sensors: np.ndarray, radius: float) -> np.ndarray:
    """Number of sensors whose closed disk of ``radius`` holds each point."""
    if len(points) == 0:
        return np.zeros(0, dtype=int)
    if len(sensors) == 0:
        return np.zeros(len(points), dtype=int)
    effective = radius * np.sqrt(1.0 + DISK_TOL)
    tree = cKDTree(sensors)
    return np.asarray(tree.query_ball_point(points, effective, return_length=True))


def verify_coverage(
    deployment: Deployment,
    target_k: int | None = None,
    grid_step: float | None = None,
    seed: int = 0,
    mc_samples: int = 50_000,
    fail_fast: bool = False,
) -> CoverageReport:
    """Sample the patch and report the minimum observed coverage.

    With ``fail_fast`` the stages (structured, grid, random) stop at the
    first one that contains a failing point.
    """
    model: SolarModel = deployment.model
    radius = deployment.r
    target = deployment.k if target_k is None else target_k
    step = default_grid_step(radius) if grid_step is None else grid_step
    sensors = deployment.sensors

    stages = [structured_points(model), grid_points(model, step)]
    if mc_samples > 0:
        stages.append(monte_carlo_points(model, mc_samples, seed))

    histogram: dict[int, int] = {}
    failing: list[tuple[float, float]] = []
    min_coverage: int | None = None
    samples = 0
    for stage in stages:
        counts = coverage_counts(stage, sensors, radius)
        samples += len(stage)
        if len(counts):
            stage_min = int(counts.min())
            min_coverage = stage_min if min_coverage is None else min(min_coverage, stage_min)
            values, freqs = np.unique(counts, return_counts=True)
            for value, freq in zip(values.tolist(), freqs.tolist()):
                histogram[int(value)] = histogram.get(int(value), 0) + int(freq)
            bad = np.nonzero(counts < target)[0]
            for index in bad[: MAX_FAILING_POINTS - len(failing)]:
                failing.append((float(stage[index, 0]), float(stage[index, 1])))
            if fail_fast and len(bad):
                break

    if min_coverage is None:
        min_coverage = 0
    if len(sensors) == 0:
        min_coverage = 0

    region = (
        f"solar-model patch: layers={model.layers}, "
        f"hexagons={len(model.hexagons)}, side={model.side}"
    )
    return CoverageReport(
        target_k=target,
        samples=samples,
        min_coverage=min_coverage,
        failing_points=tuple(failing),
        coverage_histogram=histogram,
        region=region,
        passed=min_coverage >= target,
    )


def residual_coverage(deployment: Deployment, failures: list[int], **verify_kwargs) -> CoverageReport:
    """Coverage report after removing the sensors at ``failures`` (target = k)."""
    reduced = remove_sensors(deployment, failures)
    return verify_coverage(reduced, target_k=deployment.k, **verify_kwargs)

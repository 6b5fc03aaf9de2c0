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
exact boundary contacts survive the float conversion.  Structured and Monte
Carlo probes are counted with a KD-tree (``coverage_counts``), on as many
threads as the process may run on (its CPU affinity mask), each taking at
least ``MIN_PROBES_PER_WORKER`` probes, so the few thousand structured probes
stay on one thread while the Monte Carlo samples are split.  scipy's query
threads release the GIL and count each probe on its own, so the counts do
not depend on the thread count.  The grid is
counted on its lattice instead (``lattice_counts``): along one grid row the
float predicate ``(x - sx)**2 + (y - sy)**2 <= eff**2`` holds on a single
contiguous run of columns, because ``fl(x - sx)`` is monotone in x, so each
sensor adds one column interval per grid row its disk reaches.  The two
ends of every interval are settled with that same float predicate, so the
counts are the predicate's bit for bit, at a cost of O(sensors × rows per
disk) instead of O(disk hits).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from .deployment import Deployment, remove_sensors
from .geometry import ORIGIN, SQRT3, Hexagon, centroid, midpoint
from .tiling import (
    VERTEX_OFFSETS,
    SolarModel,
    center_units,
    hexagon_count,
    region_contains,
    triangle_samples,
    units_xy,
)

DISK_TOL = 1e-9  # relative, on squared distances
MAX_FAILING_POINTS = 100
# Probe budget of one verify run.  Building and clipping the grid peaks at
# 51 bytes per raw grid point (the meshgrid, the stacked points, the mask and
# the kept points; the clipping kernel's own temporaries are per chunk).
# Counting the grid on its lattice comes after that peak and stays below it:
# about 31 bytes per raw point (4 for the lattice counts, the rest for the
# kept points, their row and column indices and their counts) plus a few MB
# of per-chunk temporaries.  Monte Carlo sampling peaks at 130 bytes per
# sample.  So the budget caps those temporaries near 0.5 and 1.3 GB
# (tracemalloc at l = 10 and 20, r = 10, step r/20).
MAX_PROBES = 10_000_000
LATTICE_CHUNK = 1 << 14  # (sensor, row) intervals per lattice-counting pass
# KD-tree leaf size and fewest probes per query thread of ``coverage_counts``
# (measured; see its docstring).
KDTREE_LEAFSIZE = 64
MIN_PROBES_PER_WORKER = 1 << 12
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
    keys = np.unique((6 * center_units(model.axial)[:, None, :] + _PROBE_OFFSETS6).reshape(-1, 2), axis=0)
    return units_xy(keys / 6.0, model.side)


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


def _grid_axes(model: SolarModel, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Column abscissae and row ordinates of the raw grid, both increasing."""
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    min_x, min_y, max_x, max_y = model.bounding_box()
    return np.arange(min_x, max_x + step * 0.5, step), np.arange(min_y, max_y + step * 0.5, step)


def grid_points(model: SolarModel, step: float) -> np.ndarray:
    """Square grid of pitch ``step`` clipped to the patch, in row-major order.

    The grid is anchored at the bounding-box corner, so halving the step keeps
    every existing point and refinement can only lower the observed minimum.
    """
    xs, ys = _grid_axes(model, step)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    return points[region_contains(model, points)]


def monte_carlo_points(model: SolarModel, count: int, seed: int) -> np.ndarray:
    """Seeded uniform samples over the patch (hexagons have equal area).

    Each sample draws a hexagon, one of its six triangles and a point in
    that triangle.  The hexagons' centers and vertices are built from their
    integer lattice coefficients with ``LatticePoint.to_xy``'s expression,
    so they equal the exact points' float coordinates bit for bit.
    """
    if count <= 0:
        return np.zeros((0, 2))
    rng = np.random.default_rng(seed)
    units = center_units(model.axial)
    centers = units_xy(units, model.side)
    verts = units_xy((units[:, None, :] + VERTEX_OFFSETS).reshape(-1, 2), model.side).reshape(-1, 6, 2)
    hex_idx = rng.integers(0, len(centers), size=count)
    tri_idx = rng.integers(0, 6, size=count)
    u = rng.random(count)
    v = rng.random(count)
    return triangle_samples(
        centers[hex_idx], verts[hex_idx, tri_idx], verts[hex_idx, (tri_idx + 1) % 6], u, v
    )


def _effective_radius(radius: float) -> float:
    """The disk radius both counting paths test against: r widened by ``DISK_TOL`` on its square."""
    return radius * np.sqrt(1.0 + DISK_TOL)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def query_workers(probes: int) -> int:
    """KD-tree query threads for ``probes`` points: one per CPU, each with at least ``MIN_PROBES_PER_WORKER``."""
    return max(1, min(_cpu_count(), probes // MIN_PROBES_PER_WORKER))


def coverage_counts(points: np.ndarray, sensors: np.ndarray, radius: float) -> np.ndarray:
    """Number of sensors whose closed disk of ``radius`` holds each point.

    The query runs on ``query_workers(len(points))`` of scipy's threads, which
    release the GIL; each probe is counted by one thread alone, so the counts
    are the same for any thread count.  Splitting pays from about 2 k probes
    per thread on a 2-vCPU Xeon, so ``MIN_PROBES_PER_WORKER`` = 2**12 keeps
    the structured probes (1-5 k on the benchmark workloads) on one thread,
    clear of the break-even point, and splits the Monte Carlo samples.  The
    tree's leaf size, ``KDTREE_LEAFSIZE`` = 64, was the fastest of 16, 32, 64
    and 128 on the structured and Monte Carlo probes of both benchmark
    workloads (l = 5, k = 60 and the comparison scheme at l = 10, k = 10):
    0.84 and 0.95 of leaf size 16's time on one thread, 0.47 and 0.55 on two.
    """
    if len(points) == 0:
        return np.zeros(0, dtype=int)
    if len(sensors) == 0:
        return np.zeros(len(points), dtype=int)
    tree = cKDTree(sensors, leafsize=KDTREE_LEAFSIZE)
    return np.asarray(
        tree.query_ball_point(
            points, _effective_radius(radius), return_length=True, workers=query_workers(len(points))
        )
    )


def _runs(
    axis: np.ndarray, center: np.ndarray, base: np.ndarray, bound: float
) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of the run of ``axis`` where ``(axis - center)**2 + base <= bound``.

    One run per entry of ``center`` and ``base``, in float arithmetic;
    ``lo > hi`` marks an empty run.  ``axis`` is increasing, so
    ``fl(axis[j] - center)`` is monotone in j and the left-hand side falls
    and then rises with j, lowest at one of the two elements around
    ``center``: the indices that pass form one run, which holds that lowest
    element unless it is empty.  The ends are estimated from
    ``sqrt(bound - base)`` and then moved one index at a time until the
    predicate itself says they are the run's outermost passing indices.
    """
    n = len(axis)

    def inside(index, which=slice(None)):
        d = axis[index] - center[which]
        return d * d + base[which] <= bound

    right = np.minimum(np.searchsorted(axis, center), n - 1)
    left = np.maximum(right - 1, 0)
    d_left, d_right = axis[left] - center, axis[right] - center
    f_left, f_right = d_left * d_left + base, d_right * d_right + base
    nearest = np.where(f_left <= f_right, left, right)
    hit = np.minimum(f_left, f_right) <= bound
    half = np.sqrt(np.maximum(bound - base, 0.0))
    lo = np.minimum(np.searchsorted(axis, center - half, "left"), nearest)
    hi = np.maximum(np.searchsorted(axis, center + half, "right") - 1, nearest)
    # Each end starts on its side of ``nearest``, which passes where the run
    # is not empty, so walking it outward while its neighbor passes, or
    # inward while it fails, stops at the run's end.
    for end, outward, limit in ((lo, -1, 0), (hi, 1, n - 1)):
        passing = inside(end)
        beyond = inside(np.clip(end + outward, 0, n - 1))
        walk = np.flatnonzero(hit & ~(passing & ((end == limit) | ~beyond)))
        out, back = walk[passing[walk]], walk[~passing[walk]]
        while out.size:
            end[out] += outward
            out = out[end[out] != limit]
            out = out[inside(end[out] + outward, out)]
        while back.size:
            end[back] -= outward
            back = back[~inside(end[back], back)]
    hi[~hit] = lo[~hit] - 1
    return lo, hi


def lattice_counts(xs: np.ndarray, ys: np.ndarray, sensors: np.ndarray, radius: float) -> np.ndarray:
    """Coverage counts of every node of the grid ``xs`` × ``ys``, shape (len(ys), len(xs)).

    ``xs`` and ``ys`` are increasing.  Node (i, j) counts the sensors with
    ``(xs[j] - sx)**2 + (ys[i] - sy)**2 <= eff * eff`` in float arithmetic,
    ``eff`` being the radius ``coverage_counts`` hands the KD-tree, summed
    in the KD-tree's order: the same predicate, so the same counts.

    Exactness: along one row ``fl(x - sx)`` is monotone in x, so its square
    is monotone on each side of the sensor, and adding the row's fixed
    ``fl(dy)**2`` and rounding keep that order.  The columns that pass are
    therefore one contiguous run, and a row can hold any only if
    ``fl(dy)**2 <= eff * eff``, which holds on one contiguous run of rows by
    the same argument.  ``_runs`` finds each run from a square-root estimate
    and settles both ends with the predicate itself; each (sensor, row) run
    [lo, hi] adds +1 at ``lo`` and -1 at ``hi + 1`` of a (rows, columns + 1)
    difference array whose row-wise cumulative sum is the count.

    The work is O(sensors × rows per disk), not O(disk hits).  The
    (sensor, row) intervals go through in chunks of ``LATTICE_CHUNK``, so
    the temporaries stay a few MB besides the 4-byte-per-node counts.
    """
    nx, ny = len(xs), len(ys)
    diff = np.zeros(ny * (nx + 1), dtype=np.int32)
    if nx and ny and len(sensors):
        sx, sy = sensors[:, 0], sensors[:, 1]
        bound = _effective_radius(radius) ** 2
        row_lo, row_hi = _runs(ys, sy, np.zeros(len(sensors)), bound)
        spans = np.maximum(row_hi - row_lo + 1, 0)
        first = np.concatenate([[0], np.cumsum(spans)])
        for start in range(0, int(first[-1]), LATTICE_CHUNK):
            pair = np.arange(start, min(start + LATTICE_CHUNK, int(first[-1])))
            sensor = np.searchsorted(first, pair, "right") - 1
            row = row_lo[sensor] + (pair - first[sensor])
            dy = ys[row] - sy[sensor]
            lo, hi = _runs(xs, sx[sensor], dy * dy, bound)
            some = lo <= hi
            offset = row[some] * (nx + 1)
            np.add.at(diff, offset + lo[some], np.int32(1))
            np.add.at(diff, offset + hi[some] + 1, np.int32(-1))
    counts = diff.reshape(ny, nx + 1)
    np.cumsum(counts, axis=1, dtype=np.int32, out=counts)
    return counts[:, :nx]


def _counted(points: np.ndarray, sensors: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    return points, coverage_counts(points, sensors, radius)


def _grid_stage(
    model: SolarModel, step: float, sensors: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """The clipped grid and its counts, read off the counts of the whole lattice."""
    points = grid_points(model, step)
    xs, ys = _grid_axes(model, step)
    counts = lattice_counts(xs, ys, sensors, radius)
    # Kept points are grid nodes, copied exactly, so searching the axes finds their indices.
    return points, counts[np.searchsorted(ys, points[:, 1]), np.searchsorted(xs, points[:, 0])]


def _stages(deployment: Deployment, step: float, seed: int, mc_samples: int):
    """(probes, counts) of each stage in turn; a stage is built only when the caller asks for it."""
    # Each stage is built inside a call, so no local here keeps a finished
    # stage alive while the next one is built.
    model, sensors, radius = deployment.model, deployment.sensors, deployment.r
    yield _counted(structured_points(model), sensors, radius)
    yield _grid_stage(model, step, sensors, radius)
    if mc_samples > 0:
        yield _counted(monte_carlo_points(model, mc_samples, seed), sensors, radius)


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
    first one that contains a failing point; later stages are not built.
    """
    model: SolarModel = deployment.model
    radius = deployment.r
    target = deployment.k if target_k is None else target_k
    step = default_grid_step(radius) if grid_step is None else grid_step

    histogram: dict[int, int] = {}
    failing: list[tuple[float, float]] = []
    min_coverage: int | None = None
    samples = 0
    for stage, counts in _stages(deployment, step, seed, mc_samples):
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
        del stage, counts  # free this stage's probes before the next one is built

    if min_coverage is None:
        min_coverage = 0
    if len(deployment.sensors) == 0:
        min_coverage = 0

    region = (
        f"solar-model patch: layers={model.layers}, "
        f"hexagons={len(model.axial)}, side={model.side}"
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

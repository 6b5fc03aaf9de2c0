"""Empirical k-coverage certification by deterministic sampling, and a triangle certificate.

Three point families are evaluated against the sensing disks:

* structured points: the vertices, edge midpoints and centroid of every
  center-vertex-vertex triangle of every patch hexagon, keyed by integer
  multiples of 1/6 lattice unit built from ``tiling.VERTEX_OFFSETS``, so
  deduplication by ``tiling.row_runs``, ordering and their count
  (``structured_count``) are exact.
  Triangle vertices are the worst-case points under the placement strategy;
* a square grid of pitch ``grid_step``: one lattice, its two axes and a
  (rows, columns) mask of the nodes in the patch.  ``tiling.region_mask``,
  the membership kernel that also clips the comparison scheme's tiles,
  clips it row by row: each patch hexagon holds one run of columns on each
  grid row it crosses, settled with the hexagon's own band tests, so the
  mask is a scan of every node against every hexagon, bit for bit, and no
  node array is built or tested; the kept nodes' counts are read off that
  mask, and a node's coordinates are built only when it is reported as
  failing;
* seeded uniform samples over the patch.

The report keeps each count's frequency and up to ``MAX_FAILING_POINTS``
failing probes; its sample count, minimum and verdict are read off that histogram.

The disk test compares squared distances with a 1e-9 relative tolerance so
exact boundary contacts survive the float conversion.  Structured and Monte
Carlo probes are counted with a KD-tree (``coverage_counts``), in spatial
cell order, on as many threads as the process may run on (its CPU
affinity mask), each taking at least ``MIN_PROBES_PER_WORKER`` probes, so
the few thousand structured probes stay on one thread while the Monte Carlo
samples are split.  The samples are queried in blocks of ``QUERY_BLOCK``
probes, or, on hosts with more than four CPUs, of ``MIN_PROBES_PER_WORKER``
per thread, so every thread keeps its share of each block.  scipy's
query threads count each probe on its own, so the counts depend on neither
the order nor the thread count.
The grid is counted on its lattice instead (``lattice_counts``): along one
grid row the float predicate ``(x - sx)**2 + (y - sy)**2 <= eff**2`` holds
on a single contiguous run of columns, because ``fl(x - sx)`` is monotone
in x, so each sensor adds one column interval per grid row its disk
reaches.  The two ends of every interval are estimated from the axis pitch
and settled with that same float predicate (``tiling.run_ends``, the clip's
helper too), so the counts are the predicate's bit for bit, at a cost of
O(sensors × rows per disk) instead of O(disk hits).  ``_stages`` submits
that counting to a one-thread ``concurrent.futures.ThreadPoolExecutor``
right after the grid is clipped, counts the structured and then the Monte
Carlo probes on this thread meanwhile, and yields the grid stage from the
future's result, so the worker's exception is raised here.  The grid is
counted inline under ``fail_fast``, under a finite address-space limit and
when no thread can be started; the report is the same either way.

The same disk decides which sensors hold whole triangles: ``covering_pairs``
is the package's one triangle-in-disk kernel, behind the sampling-free
``triangle_coverage_certificate`` and ``minimum_sensors_lower_bound``.

Both KD-tree users build their tree with ``_kdtree``, the package's one
tree constructor and its only import of scipy.  scipy is imported there, on
the first tree build, so importing the package and running plan, compare or
sweep never loads it.  This module itself imports numpy; the CLI imports
it on the first plan or verify (``cli._bind_callees``), and its argument
checks read ``FLOAT_LIMIT`` from ``analytics``, so compare and sweep load
neither.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytics import InvariantViolation, hexagon_count
from .deployment import Deployment, remove_sensors
from .tiling import (
    SQRT3,
    VERTEX_OFFSETS,
    SolarModel,
    build_solar_model,
    extreme_units,
    patch_triangles,
    region_mask,
    row_runs,
    run_counts,
    run_ends,
    triangle_samples,
    units_xy,
)

# Nothing calls this name; perfbench/spans.py, its only reader, wraps it.
region_contains = None

DISK_TOL = 1e-9  # relative, on squared distances
MAX_FAILING_POINTS = 100
# Probe budget of one verify run.  The grid stage builds no nodes: clipping
# peaks at 4.2, 2.0 and 2.0 bytes per raw grid point (its 1-byte difference
# array and mask, and the run temporaries), and counting at 9, 8 and 8: the
# mask, the 4-byte difference array, the kept nodes' 4-byte counts and one
# block of run temporaries, which weighs most on small grids; only failing
# nodes get coordinates.  The Monte Carlo stage peaks at 56 bytes per
# sample, in ``triangle_samples``: its four draws, the points and one
# column.  The grid is counted while the Monte Carlo stage is built, so
# their working sets add up: G raw grid points and M samples peak below
# 9 G + 56 M bytes (at l = 30 with 10**6 samples, 80 MB against 57 MB
# with the grid counted inline), which the budget caps near 0.56 GB
# (tracemalloc at l = 10, 20 and 30, r = 10, step r/20).
MAX_PROBES = 10_000_000
# KD-tree leaf size and fewest probes per query thread of ``coverage_counts``
# (measured; see its docstring).
KDTREE_LEAFSIZE = 64
MIN_PROBES_PER_WORKER = 1 << 12
# Probes per KD-tree query of ``coverage_counts``, at least (more than four
# query threads take ``MIN_PROBES_PER_WORKER`` each): a block's ordered
# copy and its counts (24 bytes a probe) are the query's only temporaries.  On
# the l = 5, k = 60 benchmark workload (50 000 Monte Carlo probes, 2-vCPU
# Xeon) perfbench's peak RSS read 80.4, 81.0, 82.3 and 83.4 MB at 2**13,
# 2**14, 2**15 and 2**16 and 83.3 MB in one block, and the query took
# 1.08, 1.06, 1.03 and 1.02 of one block's time (median of 40 interleaved
# rounds; 1.09, 1.06, 1.12 and 1.06 on the scheme at l = 10, k = 10):
# 2**14 keeps most of the memory for about 5% of the query.
QUERY_BLOCK = 1 << 14
# Relative widening of ``covering_pairs``' squared candidate reach.
COVER_SLACK = 1e-9


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of sampling a deployment against a target coverage; its sample count, minimum and verdict are read off its histogram."""

    target_k: int
    failing_points: tuple[tuple[float, float], ...]
    coverage_histogram: dict[int, int]
    region: str

    @property
    def samples(self) -> int:
        return sum(self.coverage_histogram.values())

    @property
    def min_coverage(self) -> int:
        return min(self.coverage_histogram, default=0)

    @property
    def passed(self) -> bool:
        return self.min_coverage >= self.target_k

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


# Six times the lattice coefficients of the unit hexagon's 42 probes: in each
# triangle (0, A, B) of spokes A, B, the corners, edge midpoints and centroid.
_A, _B = VERTEX_OFFSETS, np.roll(VERTEX_OFFSETS, -1, axis=0)
_PROBE_OFFSETS6 = np.concatenate([0 * _A, 6 * _A, 6 * _B, 3 * _A, 3 * (_A + _B), 3 * _B, 2 * (_A + _B)])


def structured_points(model: SolarModel) -> np.ndarray:
    """Per-triangle probe points (vertices, edge midpoints, centroids), deduplicated.

    Probes are keyed by six times their lattice coefficients, which are
    integers, so one stable sort of them (``row_runs``) dedupes them exactly in
    exact (x, y) order.  X/6 and Y/6 are correctly rounded divisions, so
    each coordinate is ``LatticePoint.to_xy`` of the exact point, bit for bit.
    """
    keys = (6 * model.centers[:, None, :] + _PROBE_OFFSETS6).reshape(-1, 2)
    order, starts = row_runs(keys)
    return units_xy(keys[order[starts]] / 6.0, model.side)


def structured_count(layers: int) -> int:
    """``len(structured_points)``: H centers, 6l^2 vertices, 6H + 9l^2 - 3l edge midpoints, 6H centroids."""
    return 13 * hexagon_count(layers) + 15 * layers * layers - 3 * layers


def default_grid_step(radius: float) -> float:
    return radius / 20.0


def probe_estimate(layers: int, radius: float, grid_step: float | None, mc_samples: int) -> int:
    """Probes ``verify_coverage`` would evaluate, from closed forms, before anything is built.

    The structured probes (``structured_count``), the raw grid over the
    patch's bounding box (x r wide and y sqrt(3) r high, (x, y) =
    ``extreme_units``) and the Monte Carlo samples.  Exact rational
    arithmetic keeps absurd inputs from overflowing.  ``radius`` must lie
    within ``FLOAT_LIMIT`` and its reciprocal.
    """
    step = default_grid_step(radius) if grid_step is None else grid_step
    per_step = Fraction(radius) / Fraction(step)
    x_units, y_units = extreme_units(layers)
    columns = math.floor(x_units * per_step) + 2
    rows = math.floor(y_units * Fraction(SQRT3) * per_step) + 2
    return structured_count(layers) + columns * rows + mc_samples


def grid_points(model: SolarModel, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Square grid of pitch ``step``: its axes ``xs``, ``ys`` and the mask of its nodes in the patch.

    The axes are increasing and the mask has shape (len(ys), len(xs)); node
    (i, j) is (xs[j], ys[i]).  The grid is anchored at the bounding-box
    corner, so halving the step keeps every existing node and refinement can
    only lower the observed minimum.
    """
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    min_x, min_y, max_x, max_y = model.bounding_box()
    xs, ys = np.arange(min_x, max_x + step * 0.5, step), np.arange(min_y, max_y + step * 0.5, step)
    return xs, ys, region_mask(model, xs, ys)


def _hexagon_edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``triangle_samples``' tables from ``patch_triangles``: hexagon centers (H, 2) and vertices less centers (H, 6, 2)."""
    corners = triangles.reshape(-1, 6, 3, 2)
    return corners[:, 0, 0], corners[:, :, 1] - corners[:, :1, 0]


def monte_carlo_points(model: SolarModel, count: int, seed: int) -> np.ndarray:
    """Seeded uniform samples over the patch (hexagons have equal area).

    Each sample draws a hexagon, one of its six triangles and a point in
    that triangle, whose corners are those of ``patch_triangles``.  The
    four draws and the points are 48 of the stage's 56 bytes per sample,
    since ``triangle_samples`` gathers one column at a time; the grid is
    counted beside this stage (see ``MAX_PROBES``).
    """
    if count <= 0:
        return np.zeros((0, 2))
    rng = np.random.default_rng(seed)
    hexagon = rng.integers(0, len(model.centers), size=count)
    tri = rng.integers(0, 6, size=count)
    u = rng.random(count)
    v = rng.random(count)
    return triangle_samples(*_hexagon_edges(patch_triangles(model)), hexagon, tri, u, v)


def _effective_radius(radius: float) -> float:
    """The disk radius both counting paths test against: r widened by ``DISK_TOL`` on its square."""
    return radius * np.sqrt(1.0 + DISK_TOL)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _address_space_limited() -> bool:
    """Whether the process runs under a finite address-space limit (``RLIMIT_AS``, as ``ulimit -v`` sets)."""
    try:
        import resource
    except ImportError:  # no resource limits on this platform
        return False
    return resource.getrlimit(resource.RLIMIT_AS)[0] != resource.RLIM_INFINITY


def query_workers(probes: int) -> int:
    """KD-tree query threads for ``probes`` points: one per CPU, each with at least ``MIN_PROBES_PER_WORKER``.

    One thread under a finite address-space limit: near that limit glibc
    aborts the whole process when a new thread cannot get its malloc arena
    ("cannot allocate memory for thread-local data"), where one thread
    raises ``MemoryError`` and verify exits 2.  The counts do not depend on
    the thread count.
    """
    if _address_space_limited():
        return 1
    return max(1, min(_cpu_count(), probes // MIN_PROBES_PER_WORKER))


def _kdtree(sensors: np.ndarray):
    """scipy's KD-tree over ``sensors`` at ``KDTREE_LEAFSIZE``; a missing or broken scipy raises ImportError here."""
    from scipy.spatial import cKDTree

    return cKDTree(sensors, leafsize=KDTREE_LEAFSIZE)


def coverage_counts(points: np.ndarray, sensors: np.ndarray, radius: float) -> np.ndarray:
    """Number of sensors whose closed disk of ``radius`` holds each point.

    The points are queried in cell order (``_cell_order``): by their
    ``floor(point / radius)`` cells, row by row, so consecutive queries
    walk the same tree nodes instead of jumping about as the Monte Carlo
    samples do.  The query runs on ``query_workers(len(points))`` of
    scipy's threads, which release the GIL only inside each probe's tree
    walk and take it back once per probe.  One tree takes the ordered
    points in blocks of ``QUERY_BLOCK``, or of ``MIN_PROBES_PER_WORKER``
    per thread on more than four threads, each block's counts scattered
    back to input order, so no ordered copy of every point is built.  Each probe is counted by one thread alone, so the counts are
    the same for any order, block size and thread count.

    The constants were measured on cell-ordered probes on a 2-vCPU Xeon, on
    both benchmark workloads (l = 5, k = 60 and the comparison scheme at
    l = 10, k = 10), by median ``verify_coverage`` time over interleaved
    rounds.  Leaf size 64 was the fastest of 16, 32, 64 and 128: the others
    took 1.16, 1.04 and 1.03 of its time on the first workload and 1.11,
    1.04 and 1.03 on the second.  A lone query on two threads pays from
    about 1-2 k probes, but the structured probes (1-5 k on the benchmark
    workloads) are counted beside the grid's worker thread, so splitting
    them at 2**11 took 1.03 of the time at ``MIN_PROBES_PER_WORKER`` = 2**12,
    which keeps them on one thread and splits the Monte Carlo samples.
    Although each probe takes the GIL, the second query thread still pays:
    with ``query_workers`` forced to 1, ``verify_s`` rose 29-48% in 3
    alternating 20 s perfbench pairs per workload (``dense-k60-l5`` 0.168-0.171
    -> 0.226-0.249 s, ``scheme-l10`` 0.146-0.164 -> 0.211-0.214 s).
    """
    if len(points) == 0:
        return np.zeros(0, dtype=int)
    if len(sensors) == 0:
        return np.zeros(len(points), dtype=int)
    order = _cell_order(points, radius)
    tree, eff = _kdtree(sensors), _effective_radius(radius)
    workers = query_workers(len(points))
    block = max(QUERY_BLOCK, workers * MIN_PROBES_PER_WORKER)
    counts = np.empty(len(points), dtype=np.intp)
    for start in range(0, len(points), block):
        ordered = order[start : start + block]
        counts[ordered] = tree.query_ball_point(points[ordered], eff, return_length=True, workers=workers)
    return counts


def _cell_order(points: np.ndarray, radius: float) -> np.ndarray:
    """Indices that put the points in the order of their ``floor(point / radius)`` cells, row by row.

    Shifted to start at 0, a cell's key is row + column / width: its
    fraction is below 1, so the key never overflows and grows with the row,
    then the column.  Keys of distinct cells may round together only past
    about 2**52 cells, which loosens the order and nothing else.  The counts
    do not depend on the order, so the sort need not be stable.
    """
    column, row = (np.floor(points[:, axis] / radius) for axis in (0, 1))
    column -= column.min()
    column /= column.max() + 1.0
    row -= row.min()
    row += column
    return np.argsort(row)


def covering_pairs(triangles: np.ndarray, sensors: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(triangle, sensor) index pairs, in triangle order, where the sensor's disk holds the whole triangle.

    ``triangles`` holds (T, 3, 2) corners in meters.  A disk is convex, so
    it holds a triangle iff it holds the corners, each tested with
    ``lattice_counts``' float predicate at radius eff.  Candidates come from
    one KD-tree query at the centroids, of radius sqrt(eff**2 - m) per
    triangle, m being the mean squared distance from its corners to its
    centroid (R**2 for an equilateral triangle of circumradius R).  It
    misses no pair: a point's squared distance to the centroid is its mean
    squared distance to the corners less m, so a disk that holds the corners
    has its center within that reach of the centroid.  The reach is widened
    by ``COVER_SLACK`` of eff**2 under the root, far above the rounding of
    the corner tests, and by 2**-48 of the triangle's largest coordinate,
    above the rounding of its centroid.
    """
    eff = _effective_radius(radius)
    centroids = triangles.mean(axis=1)
    spread = ((triangles - centroids[:, None, :]) ** 2).sum(axis=2).mean(axis=1)
    margin = np.abs(triangles).max(axis=(1, 2), initial=0.0) * 2.0**-48
    reach = np.sqrt(np.maximum(eff * eff * (1.0 + COVER_SLACK) - spread, 0.0)) + margin
    hits = _kdtree(sensors).query_ball_point(centroids, reach)
    lengths = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    sensor = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp, count=int(lengths.sum()))
    triangle = np.repeat(np.arange(len(triangles)), lengths)
    holds = np.ones(len(sensor), dtype=bool)
    for corner in range(3):
        dx = triangles[triangle, corner, 0] - sensors[sensor, 0]
        dy = triangles[triangle, corner, 1] - sensors[sensor, 1]
        holds &= dx * dx + dy * dy <= eff * eff
    return triangle[holds], sensor[holds]


def triangle_coverage_certificate(deployment: Deployment) -> int:
    """Fewest disks that hold a whole triangle, over every triangle of the patch.

    Every point of a triangle lies in each disk that holds it, so a
    certificate of c proves c-coverage of the patch by verify's disks.  The
    test is sufficient, not necessary: random layouts rarely hold whole triangles.
    """
    triangles = patch_triangles(deployment.model)
    triangle, _ = covering_pairs(triangles, deployment.sensors, deployment.r)
    return int(np.bincount(triangle, minlength=len(triangles)).min())


def minimum_sensors_lower_bound() -> int:
    """Sensors needed to cover one hexagon when the center is off limits: 3.

    On a barycentric grid of 24 steps per edge over the unit hexagon's six
    triangles, every candidate but the exact center holds at most 2 of the
    triangles (``covering_pairs``), so two sensors reach at most 4 < 6.
    """
    triangles = patch_triangles(build_solar_model(1))
    n = 24
    i, j = np.divmod(np.arange((n + 1) ** 2), n + 1)
    u, v = i[i + j <= n] / n, j[i + j <= n] / n
    hexagon, tri = np.zeros(6 * len(u), dtype=np.intp), np.repeat(np.arange(6), len(u))
    candidates = triangle_samples(*_hexagon_edges(triangles), hexagon, tri, np.tile(u, 6), np.tile(v, 6))
    _, sensor = covering_pairs(triangles, candidates, 1.0)
    held = np.bincount(sensor, minlength=len(candidates))
    at_center = (candidates == 0.0).all(axis=1)
    if held[~at_center].max() > 2:
        raise InvariantViolation(f"off-center candidate holds {held[~at_center].max()} triangles")
    if held[at_center].min() != 6:
        raise InvariantViolation("center candidate must hold all six triangles")
    return 3


def _disk(d, base, bound: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """``run_ends``' test for the disk predicate ``d * d + base <= bound`` along an axis, d = fl(axis - center)."""
    return [(d, d * d + base <= bound)]


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
    the same argument.  ``run_ends`` estimates each run's ends from the
    axis pitch and the disk's half-width and settles them with the predicate
    itself, so an uneven axis costs time, never counts; each (sensor, row)
    run [lo, hi) adds +1 at ``lo`` and -1 at ``hi`` of a (rows, columns + 1)
    difference array whose row-wise cumulative sum is the count.

    The work is O(sensors × rows per disk), not O(disk hits).  The
    (sensor, row) runs go through ``tiling.run_counts`` in blocks of about
    ``tiling.RUN_CHUNK``, so the temporaries stay a few MB besides the
    4-byte-per-node counts.
    """
    sx, sy = sensors[:, 0], sensors[:, 1]
    bound = _effective_radius(radius) ** 2
    reach = np.sqrt(bound)

    def columns(sensor, row):
        x0, dy = sx[sensor], ys[row] - sy[sensor]
        base = dy * dy
        half = np.sqrt(np.maximum(bound - base, 0.0))
        return run_ends(lambda j, pair: _disk(xs[j] - x0[pair], base[pair], bound), xs, x0 - half, x0 + half)

    rows = run_ends(lambda i, sensor: _disk(ys[i] - sy[sensor], 0.0, bound), ys, sy - reach, sy + reach)
    return run_counts((len(ys), len(xs)), rows, columns, np.int32)


def _counted(points: np.ndarray, sensors: np.ndarray, radius: float):
    return coverage_counts(points, sensors, radius), points.__getitem__


def _grid_nodes(xs: np.ndarray, ys: np.ndarray, kept: np.ndarray):
    """Lookup of the grid's kept nodes by index, in row-major order: their (x, y) coordinates."""

    def nodes(index: np.ndarray) -> np.ndarray:
        row, column = np.divmod(np.flatnonzero(kept)[index], len(xs))
        return np.column_stack([xs[column], ys[row]])

    return nodes


def _stages(deployment: Deployment, step: float, seed: int, mc_samples: int, fail_fast: bool):
    """(counts, probe lookup by index) of the structured, grid and Monte Carlo stages, in that order.

    The grid is clipped first, and ``lattice_counts`` is submitted to a
    one-thread executor while this thread counts the structured and then
    the Monte Carlo probes; the grid stage is yielded from the future's
    result, which raises the worker's exception, ``MemoryError`` included,
    here.  Under ``fail_fast``, where no stage may be built before the
    previous one's verdict, under a finite address-space limit (see
    ``query_workers``) and when no thread can be started the grid is
    counted inline instead, and each stage is built only when the caller
    asks for it.  Closing the generator shuts the executor down, which
    waits for the worker.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, so that plan, which imports this module, never loads it

    model, sensors, radius = deployment.model, deployment.sensors, deployment.r

    def monte_carlo():
        return _counted(monte_carlo_points(model, mc_samples, seed), sensors, radius)

    with ThreadPoolExecutor(1, thread_name_prefix="lattice_counts") as pool:
        grid = counting = None
        if not fail_fast and not _address_space_limited():
            grid = grid_points(model, step)
            try:
                counting = pool.submit(lattice_counts, grid[0], grid[1], sensors, radius)
            except RuntimeError:  # no thread can be started: count inline
                pass
            # Nothing more is submitted, so the worker exits once it has
            # counted: left idle, it kept its malloc arena from scipy's query
            # threads, 1.3-1.4 MB more peak RSS on both benchmark workloads.
            pool.shutdown(wait=False)
        # No local here keeps a finished stage alive while the next one is
        # built, except the Monte Carlo stage that is built while the grid is
        # counted: its sampling peak (56 bytes a sample) meets the grid's
        # working set (see MAX_PROBES), and its points and counts (24 bytes a
        # sample) wait while the grid stage is reported.  Each stage is built
        # inside a call, and the grid's are deleted.
        yield _counted(structured_points(model), sensors, radius)
        xs, ys, kept = grid or grid_points(model, step)
        later = monte_carlo() if counting is not None and mc_samples > 0 else None
        counts = (lattice_counts(xs, ys, sensors, radius) if counting is None else counting.result())[kept]
        del grid, counting  # the future holds the whole grid's counts
        yield counts, _grid_nodes(xs, ys, kept)
        del xs, ys, kept, counts
        if mc_samples > 0:
            yield monte_carlo() if later is None else later


def verify_coverage(
    deployment: Deployment,
    grid_step: float | None = None,
    seed: int = 0,
    mc_samples: int = 50_000,
    fail_fast: bool = False,
) -> CoverageReport:
    """Sample the patch and report the minimum observed coverage against ``deployment.k``.

    With ``fail_fast`` the stages (structured, grid, random) stop at the
    first one that contains a failing point; later stages are not built.
    """
    model: SolarModel = deployment.model
    radius = deployment.r
    step = default_grid_step(radius) if grid_step is None else grid_step

    histogram: dict[int, int] = {}
    failing: list[tuple[float, float]] = []
    stages = _stages(deployment, step, seed, mc_samples, fail_fast)
    try:
        for counts, probes in stages:
            values, freqs = np.unique(counts, return_counts=True)
            for value, freq in zip(values.tolist(), freqs.tolist()):
                histogram[value] = histogram.get(value, 0) + freq
            failed = len(values) > 0 and values[0] < deployment.k
            if failed and len(failing) < MAX_FAILING_POINTS:
                bad = np.flatnonzero(counts < deployment.k)[: MAX_FAILING_POINTS - len(failing)]
                failing.extend(map(tuple, probes(bad).tolist()))
            del counts, probes  # free this stage's probes before the next one is built
            if fail_fast and failed:
                break
    finally:
        stages.close()  # no worker thread outlives this call

    return CoverageReport(
        target_k=deployment.k,
        failing_points=tuple(failing),
        coverage_histogram=histogram,
        region=f"solar-model patch: layers={model.layers}, hexagons={len(model.centers)}, side={model.side}",
    )


def residual_coverage(deployment: Deployment, failures: list[int], **verify_kwargs) -> CoverageReport:
    """Coverage report after removing the sensors at ``failures`` (target = k)."""
    reduced = remove_sensors(deployment, failures)
    return verify_coverage(reduced, **verify_kwargs)

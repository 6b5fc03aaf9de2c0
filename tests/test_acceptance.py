"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from hexcover.analytics import (
    benchmark_count,
    count_gap,
    density_benchmark,
    density_gain,
    density_proposed,
    density_ratio_limit,
    emit_figure_table,
    per_hexagon_count,
    total_count,
)
from hexcover.benchmark import place_benchmark
from hexcover.cli import main as cli_main
from hexcover.deployment import place_proposed
from hexcover.geometry import (
    ORIGIN,
    Hexagon,
    count_packed_small_hexagons,
    hexagons_overlap,
    packed_hexagon_pair,
    packing_diameter,
)
from hexcover.sensor_io import write_sensors_csv
from hexcover.tiling import build_solar_model
from hexcover.verifier import verify_coverage

SQRT3 = math.sqrt(3.0)


def report(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_count_formula_equivalence():
    started = time.perf_counter()
    ok = True
    for layers in range(1, 7):
        model = build_solar_model(layers)
        for k in range(1, 11):
            if len(place_proposed(model, k).sensors) != total_count(layers, k):
                ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(1, "enumerated counts equal the closed form for l in 1..6, k in 1..10",
           ok, f"{elapsed:.2f}s")


def test_criterion_02_per_hexagon_progression():
    model = build_solar_model(1)
    ok = all(
        per_hexagon_count(k) == 3 * k - 2
        and len(place_proposed(model, k).sensors) == 3 * k - 2
        for k in range(1, 11)
    )
    report(2, "single-hexagon counts follow 3k-2 for k in 1..10", ok)


def test_criterion_03_coverage_certification():
    started = time.perf_counter()
    ok = True
    worst = None
    for layers in range(1, 5):
        model = build_solar_model(layers)
        for k in range(1, 8):
            deployment = place_proposed(model, k)
            result = verify_coverage(
                deployment, grid_step=model.side / 20.0, seed=0, mc_samples=2000
            )
            if result.min_coverage < k or result.failing_points:
                ok = False
                worst = (layers, k, result.min_coverage)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    extra = f"{elapsed:.1f}s" if worst is None else f"first failure at {worst}"
    report(3, "grid + structured sampling certifies k-coverage for l in 1..4, k in 1..7",
           ok, extra)


def test_criterion_04_triangle_in_vertex_disk():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(20):
        side = float(rng.uniform(0.2, 50.0))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        cx, cy = rng.uniform(-100.0, 100.0, size=2)
        corners = np.array(
            [
                [cx + side / SQRT3 * math.cos(angle + 2.0 * math.pi * j / 3.0),
                 cy + side / SQRT3 * math.sin(angle + 2.0 * math.pi * j / 3.0)]
                for j in range(3)
            ]
        )
        u = rng.random(10_000)
        v = rng.random(10_000)
        fold = u + v > 1.0
        u[fold], v[fold] = 1.0 - u[fold], 1.0 - v[fold]
        points = corners[0] + np.outer(u, corners[1] - corners[0]) + np.outer(
            v, corners[2] - corners[0]
        )
        dist = np.hypot(points[:, 0] - corners[0][0], points[:, 1] - corners[0][1])
        edge = np.hypot(*(corners[1] - corners[0]))
        if not (dist <= edge + 1e-12).all():
            ok = False
    report(4, "10k sampled triangle points stay within the vertex disk, 20 random triangles", ok)


def test_criterion_05_packing_witness():
    witness = count_packed_small_hexagons(Hexagon(ORIGIN))
    contained = all(
        Hexagon(ORIGIN).contains(v) for h in witness.hexagons for v in h.vertices()
    )
    disjoint = not any(
        hexagons_overlap(a, b)
        for i, a in enumerate(witness.hexagons)
        for b in witness.hexagons[i + 1:]
    )
    pair = packing_diameter(packed_hexagon_pair())
    pair_exact = abs(pair - math.sqrt(13.0) / 2.0) <= 1e-12 * pair
    ok = witness.count == 3 and contained and disjoint and witness.diameter < 2.0 and pair_exact
    report(5, "three half-side hexagons pack into the unit hexagon; pair diameter = sqrt(13)/2",
           ok, f"pair={pair:.12f}")


def test_criterion_06_density_identities():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 80))
        r = float(rng.uniform(0.05, 120.0))
        gain = density_benchmark(k, r) - density_proposed(k, r)
        expected = (2.0 * k + 4.0) / (3.0 * SQRT3 * r * r)
        if abs(gain - expected) > 1e-12 * expected:
            ok = False
        if abs(density_gain(k, r) - expected) > 1e-12 * expected:
            ok = False
    base = density_proposed(1, 1.0)
    ok = ok and abs(base - 2.0 / (3.0 * SQRT3)) <= 1e-12 * base
    report(6, "density gap equals (2k+4)/(3*sqrt(3)*r^2); k=1 density is 2/(3*sqrt(3))",
           ok, f"k=1 density={base:.5f}")


def test_criterion_07_asymptotic_ratios():
    probe = density_ratio_limit(10**6)
    ratio = total_count(1000, 1000) / benchmark_count(1000, 1000)
    ok = abs(probe - 0.75) < 5e-7 and abs(ratio - 0.6) < 0.01
    report(7, "density ratio -> 3/4 and count ratio -> 3/5",
           ok, f"probe={probe:.7f} ratio={ratio:.4f}")


def test_criterion_08_benchmark_dominance():
    ok = True
    for layers in range(1, 9):
        for k in range(1, 11):
            gap = count_gap(layers, k)
            if gap < 0 or (k == 1 and gap != 0):
                ok = False
    report(8, "count gap >= 0 for l in 1..8, k in 1..10, and exactly 0 at k=1", ok)


def test_criterion_09_figure_shape():
    # the count formulas are uniform in k only from k = 3 on (the k = 1 and 2
    # cases place sensors on shared loci), so exact linearity in k is asserted
    # on that branch; quadratic behavior in l holds for every k
    table = emit_figure_table("fig8")
    gap: dict[tuple[int, int], int] = {}
    for k, l, value in zip(table.columns["k"], table.columns["l"], table.columns["gap"]):
        gap[(k, l)] = value
    ks = sorted({k for k, _ in gap})
    ls = sorted({l for _, l in gap})
    ok = True
    for l in ls:
        for k in ks:
            if k >= 3 and k + 2 <= max(ks):
                if gap[(k + 2, l)] - 2 * gap[(k + 1, l)] + gap[(k, l)] != 0:
                    ok = False
    for k in ks:
        for l in ls:
            if l + 3 <= max(ls):
                third = (
                    gap[(k, l + 3)] - 3 * gap[(k, l + 2)] + 3 * gap[(k, l + 1)] - gap[(k, l)]
                )
                if third != 0:
                    ok = False
    report(9, "gap surface: second k-differences vanish on the k>=3 branch, third l-differences vanish", ok)


def test_criterion_10_determinism(tmp_path):
    first = tmp_path / "sweep_a"
    second = tmp_path / "sweep_b"
    assert cli_main(["sweep", "--output", str(first)]) == 0
    assert cli_main(["sweep", "--output", str(second)]) == 0
    sweep_ok = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv")
    )

    model = build_solar_model(2)
    plan_a = tmp_path / "bench_a.csv"
    plan_b = tmp_path / "bench_b.csv"
    write_sensors_csv(plan_a, place_benchmark(model, 2, seed=7))
    write_sensors_csv(plan_b, place_benchmark(model, 2, seed=7))
    plan_ok = plan_a.read_bytes() == plan_b.read_bytes()

    report(10, "sweep and seeded benchmark plan runs are byte-identical", sweep_ok and plan_ok)

"""Command-line front end: plan, verify, compare, sweep.

Exit codes: 0 success / coverage pass, 1 coverage fail, 2 usage or input
error, 3 internal invariant violation.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    FIGURE_IDS,
    SweepSpec,
    count_ratio,
    density_benchmark,
    density_proposed,
    emit_figure_table,
    write_figure_csv,
)
from .benchmark import (
    benchmark_count,
    count_gap,
    place_benchmark,
    small_hexagon_formula_count,
)
from .deployment import InvariantViolation, count_by_kind, place_proposed, total_count
from .sensor_io import (
    SensorFileError,
    deployment_parameters,
    load_deployment,
    read_sensors_csv,
    write_sensors_csv,
    write_sensors_json,
)
from .tiling import build_solar_model
from .verifier import FLOAT_LIMIT, MAX_PROBES, probe_estimate, verify_coverage

EXIT_OK = 0
EXIT_COVERAGE_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# Sensor budget of one plan run, counted before anything is built: the
# closed-form count for the proposed strategy, k * (8l + 9)**2 candidate tiles
# for the scheme.  A proposed CSV plan peaks at about 720 bytes per sensor at
# k = 1 and 540-640 at larger k (the rows); a JSON plan, which embeds the
# patch's vertices with their incident hexagons, at 2110 bytes per sensor at
# k = 1, 1250 at k = 2 and under 1000 from k = 3; the scheme at 85-390 per
# counted tile.  So the budget caps a plan near 0.7 GB, or 2.1 GB for a k = 1
# JSON plan (tracemalloc, l = 1 to 200, k = 1 to 30000).
MAX_SENSORS = 1_000_000


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _checked(parse, accept, expected: str):
    """An argparse ``type=`` that parses with ``parse`` and rejects values failing ``accept``."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")


def _add_patch_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--layers", type=_positive_int, default=1, help="hexagon rings in the patch (default: 1)")
    parser.add_argument("--coverage", type=_positive_int, default=1, help="coverage target k (default: 1)")
    parser.add_argument("--radius", type=_positive_float, default=1.0, help="sensing radius / hexagon side in meters (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcover",
        description="Plan and verify k-coverage sensor deployments on hexagonal tilings.",
    )
    parser.add_argument("--version", action="version", version=f"hexcover {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    plan = subparsers.add_parser("plan", help="place sensors and write them to a file")
    _add_patch_args(plan)
    plan.add_argument("--strategy", choices=("proposed", "benchmark"), default="proposed",
                      help="placement strategy (default: proposed)")
    plan.add_argument("--seed", type=_non_negative_int, default=0, help="RNG seed for the benchmark strategy (default: 0)")
    plan.add_argument("--parity", choices=("even", "odd"), default="even",
                      help="alternate-vertex class used first (default: even)")
    plan.add_argument("--offset-x", type=_fraction, default=Fraction(0),
                      help="benchmark tiling x offset, rational multiple of the radius (default: 0)")
    plan.add_argument("--offset-y", type=_fraction, default=Fraction(0),
                      help="benchmark tiling y offset, rational multiple of the radius (default: 0)")
    plan.add_argument("--output", default="sensors.csv", help="sensor file path (default: sensors.csv)")
    plan.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default: csv)")

    verify = subparsers.add_parser("verify", help="check a sensor file for k-coverage")
    verify.add_argument("--input", required=True, help="sensor CSV produced by plan")
    verify.add_argument("--coverage", type=_positive_int, default=None,
                        help="coverage target (default: k recorded in the file)")
    verify.add_argument("--layers", type=_positive_int, default=None,
                        help="patch layers (default: value recorded in the file)")
    verify.add_argument("--radius", type=_positive_float, default=None,
                        help="sensing radius in meters (default: value recorded in the file)")
    verify.add_argument("--grid-step", type=_positive_float, default=None,
                        help="sampling grid pitch in meters (default: radius/20)")
    verify.add_argument("--seed", type=_non_negative_int, default=0, help="seed for the random samples (default: 0)")
    verify.add_argument("--mc-samples", type=_non_negative_int, default=50_000,
                        help="random sample count (default: 50000)")
    verify.add_argument("--fail-fast", action="store_true",
                        help="stop at the first failing sample stage")
    verify.add_argument("--output", default=None, help="write the JSON report here")

    compare = subparsers.add_parser("compare", help="proposed vs benchmark counts and densities")
    _add_patch_args(compare)
    compare.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format (default: text)")

    sweep = subparsers.add_parser("sweep", help="write the figure CSVs (fig4..fig8)")
    sweep.add_argument("--output", default="figures", help="output directory (default: figures)")
    sweep.add_argument("--r-start", type=_positive_float, default=1.0, help="radius sweep start (default: 1)")
    sweep.add_argument("--r-stop", type=_positive_float, default=30.0, help="radius sweep stop (default: 30)")
    sweep.add_argument("--r-step", type=_positive_float, default=1.0, help="radius sweep step (default: 1)")
    sweep.add_argument("--k-min", type=_positive_int, default=1, help="coverage sweep start (default: 1)")
    sweep.add_argument("--k-max", type=_positive_int, default=10, help="coverage sweep stop (default: 10)")
    sweep.add_argument("--l-min", type=_positive_int, default=1, help="layer sweep start (default: 1)")
    sweep.add_argument("--l-max", type=_positive_int, default=10, help="layer sweep stop (default: 10)")

    return parser


def run_plan(args: argparse.Namespace) -> int:
    if args.strategy == "proposed":
        sensors = total_count(args.layers, args.coverage)
    else:
        sensors = args.coverage * (8 * args.layers + 9) ** 2
    if sensors > MAX_SENSORS:
        print(
            f"error: plan would place about 10^{math.log10(sensors):.1f} sensors, above the limit of {MAX_SENSORS}; "
            "use fewer --layers or a lower --coverage",
            file=sys.stderr,
        )
        return EXIT_USAGE
    model = build_solar_model(args.layers, args.radius)
    if args.strategy == "proposed":
        # place_proposed raises InvariantViolation unless placed == formula.
        deployment = place_proposed(model, args.coverage, parity=args.parity)
        by_kind = " ".join(
            f"{kind}={np.char.startswith(deployment.provenance, kind).sum()}/{formula}"
            for kind, formula in count_by_kind(args.layers, args.coverage).items()
        )
        details = (
            f"formula={total_count(args.layers, args.coverage)} {by_kind} "
            f"density={density_proposed(args.coverage, args.radius):.6g}"
        )
    else:
        deployment = place_benchmark(
            model, args.coverage, seed=args.seed, offset=(args.offset_x, args.offset_y)
        )
        details = (
            f"formula={benchmark_count(args.layers, args.coverage)} "
            f"small_hexagons={len(set(deployment.hexagon.tolist()))} "
            f"small_hexagons_formula={small_hexagon_formula_count(args.layers)} "
            f"density={density_benchmark(args.coverage, args.radius):.6g}"
        )
    placed = deployment.sensor_count()
    seed = "" if args.strategy == "proposed" else f"seed={args.seed} "
    summary = (
        f"plan: strategy={args.strategy} l={args.layers} k={args.coverage} r={args.radius:g} "
        f"{seed}n={placed} {details}"
    )

    extra_meta = {"seed": args.seed} if args.strategy == "proposed" else None
    if args.format == "csv":
        write_sensors_csv(args.output, deployment, extra_meta=extra_meta)
    else:
        write_sensors_json(args.output, deployment, extra_meta=extra_meta)
    print(summary)
    print(f"wrote {placed} sensors to {args.output}")
    return EXIT_OK


def run_verify(args: argparse.Namespace) -> int:
    path = Path(args.input)
    if not path.exists():
        print(f"error: sensor file not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sensor_file = read_sensors_csv(path)
        layers, radius, k = deployment_parameters(
            sensor_file, layers=args.layers, radius=args.radius, k=args.coverage
        )
    except SensorFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not 1 / FLOAT_LIMIT <= radius <= FLOAT_LIMIT:
        print(f"error: radius {radius:g} is outside [1/{FLOAT_LIMIT:g}, {FLOAT_LIMIT:g}]", file=sys.stderr)
        return EXIT_USAGE
    probes = probe_estimate(layers, radius, args.grid_step, args.mc_samples)
    if probes > MAX_PROBES:
        print(
            f"error: verify would sample about 10^{math.log10(probes):.1f} points, above the limit of {MAX_PROBES}; "
            "use a coarser --grid-step, fewer --mc-samples or a smaller patch",
            file=sys.stderr,
        )
        return EXIT_USAGE
    loaded = load_deployment(sensor_file, layers=layers, radius=radius, k=k)
    report = verify_coverage(
        loaded,
        target_k=loaded.k,
        grid_step=args.grid_step,
        seed=args.seed,
        mc_samples=args.mc_samples,
        fail_fast=args.fail_fast,
    )
    payload = report.to_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    print(
        f"verify: target_k={report.target_k} samples={report.samples} "
        f"min_coverage={report.min_coverage} result={'pass' if report.passed else 'fail'}"
    )
    return EXIT_OK if report.passed else EXIT_COVERAGE_FAIL


def run_compare(args: argparse.Namespace) -> int:
    l, k, r = args.layers, args.coverage, args.radius
    n = total_count(l, k)
    n_ex = benchmark_count(l, k)
    payload = {
        "layers": l,
        "coverage": k,
        "radius": r,
        "proposed_count": n,
        "benchmark_count": n_ex,
        "gap": count_gap(l, k),
        "count_ratio": count_ratio(l, k),
        "proposed_density": density_proposed(k, r),
        "benchmark_density": density_benchmark(k, r),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"compare: l={l} k={k} r={r:g}")
        print(f"  proposed   n={n:<12} density={payload['proposed_density']:.6g}")
        print(f"  benchmark  n={n_ex:<12} density={payload['benchmark_density']:.6g}")
        print(f"  gap={payload['gap']}  ratio={payload['count_ratio']:.6g}")
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    try:
        specs = {
            "fig4": SweepSpec("radius", args.r_start, args.r_stop, args.r_step, {"k": (2, 7)}),
            "fig5": SweepSpec("coverage_k", args.k_min, args.k_max, 1, {"r": (10.0, 20.0)}),
            "fig6": SweepSpec("layers", args.l_min, args.l_max, 1, {"k": (3, 10)}),
            "fig7": SweepSpec("coverage_k", args.k_min, args.k_max, 1, {"l": (3, 5)}),
            "fig8": SweepSpec(
                "joint", args.k_min, args.k_max, 1,
                {"l_values": list(range(args.l_min, args.l_max + 1))},
            ),
        }
    except ValueError as exc:  # a stop below its start
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.output)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-test"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_USAGE

    for figure_id in FIGURE_IDS:
        table = emit_figure_table(figure_id, specs[figure_id])
        write_figure_csv(table, out_dir / f"{figure_id}.csv", __version__)
    print(f"sweep: wrote {len(FIGURE_IDS)} figure files to {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "plan":
            return run_plan(args)
        if args.subcommand == "verify":
            return run_verify(args)
        if args.subcommand == "compare":
            return run_compare(args)
        return run_sweep(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

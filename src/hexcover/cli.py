"""Command-line front end: plan, verify, compare, sweep.

Exit codes: 0 success / coverage pass, 1 coverage fail, 2 usage, input or
memory error (or a numpy that fails to import for plan and verify, or a
scipy for verify), 3 internal invariant violation.  A closed stdout changes
no exit code: every file is written before the summary lines, which then go
nowhere (``_say``).  All randomness flows from --seed.

Importing this module, building its parser, ``--help``, ``--version``,
argparse's usage errors, ``compare`` and ``sweep`` run on the standard
library and ``analytics`` alone, and load neither ``dataclasses`` nor
``inspect``.  Every ``plan`` or ``verify`` run, its own refusals included,
first binds the numpy-backed callees into this module's globals
(``_bind_callees``), and verify's first KD-tree build imports scipy.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analytics import (
    DEFAULT_KS,
    DEFAULT_LS,
    DEFAULT_RADII,
    FIGURE_IDS,
    FLOAT_LIMIT,
    InvariantViolation,
    SweepSpec,
    benchmark_count,
    count_by_kind,
    count_gap,
    count_ratio,
    density_benchmark,
    density_proposed,
    emit_figure_table,
    finite,
    hexagon_count,
    small_hexagon_formula_count,
    total_count,
    vertex_count,
    write_figure_csv,
)

# The numpy-backed names plan and verify call, by the module that defines
# them.  ``_bind_callees`` binds them into this module's globals, where
# ``run_plan`` and ``run_verify`` look them up.
_CALLEES = {
    ".benchmark": ("OFFSET_Y_BOUND", "place_benchmark"),
    ".deployment": ("place_proposed", "placed_by_kind"),
    ".sensor_io": ("SensorFileError", "deployment_parameters", "load_deployment",
                   "read_sensors_csv", "write_sensors_csv", "write_sensors_json"),
    ".tiling": ("build_solar_model",),
    ".verifier": ("MAX_PROBES", "probe_estimate", "verify_coverage"),
}

EXIT_OK = 0
EXIT_COVERAGE_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
# Record budget of one plan run, counted before anything is built: the
# closed-form count for the proposed strategy; for the scheme k sensors in
# each of at most 4 tiles per patch hexagon (a tile has a quarter of a
# hexagon's area); and for a JSON plan also the patch's 6l**2 vertices, which
# it embeds with their incident hexagons.  A proposed CSV plan peaks at about
# 700 bytes per sensor at k = 1, where the patch outweighs the sensors, and
# 280-360 from k = 2 (the formatted columns); a JSON plan at 700 bytes per
# sensor or vertex at k = 1, 570-620 at k = 2 and 3 and 400-490 from k = 10;
# the scheme at 95-443 per budgeted record: 443 at k = 1 (l = 289, 0.44 GB),
# where its clip's (tiles, 7) node indices outweigh the sensors, 410 at k = 2
# (l = 204) and 370-380 from k = 10 on patches whose kept tiles near the
# bound.  So the budget caps a plan near 0.7 GB (tracemalloc, plans of 10**4
# records or more: l = 1 to 200, k = 1 to 30000; the scheme l = 1 to 289,
# k = 1 to 250000).
MAX_SENSORS = 1_000_000


def _checked(parse, accept, expected: str):
    """An argparse ``type=`` that parses with ``parse`` and rejects values failing ``accept``."""

    def convert(text: str):
        try:
            value = parse(text)
            accepted = accept(value)
        except (ValueError, ArithmeticError):  # unparsable, or too large to test
            accepted = False
        if not accepted:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")


def _radius_in_range(radius: float) -> bool:
    """Verify's radii, and so plan's: within ``FLOAT_LIMIT`` and its reciprocal."""
    return 1 / FLOAT_LIMIT <= radius <= FLOAT_LIMIT


_radius = _checked(float, _radius_in_range, f"a radius within [1/{FLOAT_LIMIT:g}, {FLOAT_LIMIT:g}]")
_offset = _checked(Fraction, lambda v: abs(float(v)) <= FLOAT_LIMIT, f"a rational number within ±{FLOAT_LIMIT:g}")


def _add_patch_args(parser: argparse.ArgumentParser, radius_type) -> None:
    parser.add_argument("--layers", type=_positive_int, default=1, help="hexagon rings in the patch (default: 1)")
    parser.add_argument("--coverage", type=_positive_int, default=1, help="coverage target k (default: 1)")
    parser.add_argument("--radius", type=radius_type, default=1.0, help="sensing radius / hexagon side in meters (default: 1)")


def _say(*lines: str) -> None:
    """Print ``lines`` to stdout; a reader that has gone (a closed pipe) changes neither the run nor its exit code."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        # the rest of stdout, and its flush at exit, go to the null device instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _bind_callees() -> None:
    """Import the ``_CALLEES`` into this module's globals; an ImportError if numpy fails.

    A name already bound is kept: perfbench/spans.py and the tests swap
    some of them for wrappers, which must see every call.
    """
    namespace = globals()
    for module, names in _CALLEES.items():
        source = importlib.import_module(module, __package__)
        for name in names:
            namespace.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    """A callee named before the first plan or verify, as in ``from hexcover.cli import load_deployment``."""
    if any(name in names for names in _CALLEES.values()):
        _bind_callees()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexcover",
        description="Plan and verify k-coverage sensor deployments on hexagonal tilings.",
    )
    parser.add_argument("--version", action="version", version=f"hexcover {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    plan = subparsers.add_parser("plan", help="place sensors and write them to a file")
    _add_patch_args(plan, _radius)
    plan.add_argument("--strategy", choices=("proposed", "benchmark"), default="proposed",
                      help="placement strategy (default: proposed)")
    plan.add_argument("--seed", type=_non_negative_int, default=0, help="RNG seed for the benchmark strategy (default: 0)")
    plan.add_argument("--parity", choices=("even", "odd"), default="even",
                      help="alternate-vertex class used first (default: even)")
    plan.add_argument("--offset-x", type=_offset, default=Fraction(0),
                      help="benchmark tiling x offset, rational multiple of the radius; "
                           "write a negative one as --offset-x=-1/4 (default: 0)")
    plan.add_argument("--offset-y", type=_offset, default=Fraction(0),
                      help="benchmark tiling y offset, rational multiple of the radius; "
                           "write a negative one as --offset-y=-1/3 (default: 0)")
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
    _add_patch_args(compare, _positive_float)
    compare.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format (default: text)")

    sweep = subparsers.add_parser("sweep", help="write the figure CSVs (fig4..fig8)")
    sweep.add_argument("--output", default="figures", help="output directory (default: figures)")
    sweep.add_argument("--r-start", type=_positive_float, default=DEFAULT_RADII.start, help="radius sweep start (default: %(default)g)")
    sweep.add_argument("--r-stop", type=_positive_float, default=DEFAULT_RADII.stop, help="radius sweep stop (default: %(default)g)")
    sweep.add_argument("--r-step", type=_positive_float, default=DEFAULT_RADII.step, help="radius sweep step (default: %(default)g)")
    sweep.add_argument("--k-min", type=_positive_int, default=DEFAULT_KS[0], help="coverage sweep start (default: %(default)s)")
    sweep.add_argument("--k-max", type=_positive_int, default=DEFAULT_KS[-1], help="coverage sweep stop (default: %(default)s)")
    sweep.add_argument("--l-min", type=_positive_int, default=DEFAULT_LS[0], help="layer sweep start (default: %(default)s)")
    sweep.add_argument("--l-max", type=_positive_int, default=DEFAULT_LS[-1], help="layer sweep stop (default: %(default)s)")

    return parser


def run_plan(args: argparse.Namespace) -> int:
    if args.strategy == "proposed":
        records = total_count(args.layers, args.coverage)
    else:
        records = 4 * args.coverage * hexagon_count(args.layers)
    if args.format == "json":
        records += vertex_count(args.layers)
    if records > MAX_SENSORS:
        print(
            f"error: plan would write about 10^{math.log10(records):.1f} sensor and patch-vertex records, "
            f"above the limit of {MAX_SENSORS}; use fewer --layers or a lower --coverage",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.strategy == "benchmark" and abs(args.offset_y) >= OFFSET_Y_BOUND:
        print(f"error: --offset-y {float(args.offset_y):g} is not below {OFFSET_Y_BOUND:g} in magnitude, past which "
              "the small tiling's rows are spaced wider than the patch band", file=sys.stderr)
        return EXIT_USAGE
    model = build_solar_model(args.layers, args.radius)
    if max(map(abs, model.bounding_box())) > FLOAT_LIMIT:
        print(f"error: --radius {args.radius:g} and --layers {args.layers} give a patch reaching beyond "
              f"±{FLOAT_LIMIT:g}, which verify refuses", file=sys.stderr)
        return EXIT_USAGE
    if args.strategy == "proposed":
        from dataclasses import replace  # loaded already, by the numpy-backed callees

        # place_proposed raises InvariantViolation unless placed == formula.
        deployment = place_proposed(model, args.coverage, parity=args.parity)
        deployment = replace(deployment, meta={**deployment.meta, "seed": args.seed})
        kinds = placed_by_kind(deployment)
        by_kind = " ".join(
            f"{kind}={kinds[kind]}/{formula}" for kind, formula in count_by_kind(args.layers, args.coverage).items()
        )
        details = (
            f"formula={total_count(args.layers, args.coverage)} {by_kind} "
            f"density={density_proposed(args.coverage, args.radius):.6g}"
        )
    else:
        deployment = place_benchmark(
            model, args.coverage, seed=args.seed, offset=(args.offset_x, args.offset_y)
        )
        # k sensors in each kept tile, the tiles numbered 0 to m - 1
        details = (
            f"formula={benchmark_count(args.layers, args.coverage)} "
            f"small_hexagons={deployment.sensor_count() // args.coverage} "
            f"small_hexagons_formula={small_hexagon_formula_count(args.layers)} "
            f"density={density_benchmark(args.coverage, args.radius):.6g}"
        )
    placed = deployment.sensor_count()
    seed = "" if args.strategy == "proposed" else f"seed={args.seed} "
    summary = (
        f"plan: strategy={args.strategy} l={args.layers} k={args.coverage} r={args.radius:g} "
        f"{seed}n={placed} {details}"
    )

    (write_sensors_csv if args.format == "csv" else write_sensors_json)(args.output, deployment)
    _say(summary, f"wrote {placed} sensors to {args.output}")
    return EXIT_OK


class _Refused(Exception):
    """A verify run refused from the file's meta pairs and the flags; its text follows ``error:``."""


def run_verify(args: argparse.Namespace) -> int:
    path = Path(args.input)
    if not path.exists():
        print(f"error: sensor file not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    flags = {"layers": args.layers, "radius": args.radius, "k": args.coverage}

    def admit(meta: dict[str, str], meta_line: int) -> None:
        layers, radius, _ = deployment_parameters(meta, meta_line, **flags)
        if not _radius_in_range(radius):
            raise _Refused(f"radius {radius:g} is outside [1/{FLOAT_LIMIT:g}, {FLOAT_LIMIT:g}]")
        probes = probe_estimate(layers, radius, args.grid_step, args.mc_samples)
        if probes > MAX_PROBES:
            raise _Refused(
                f"verify would sample about 10^{math.log10(probes):.1f} points, above the limit of {MAX_PROBES}; "
                "use a coarser --grid-step, fewer --mc-samples or a smaller patch"
            )

    try:
        # admit runs before the data rows are split, so a refusal costs one scan of the lines
        sensor_file = read_sensors_csv(path, admit=admit)
    except SensorFileError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    loaded = load_deployment(sensor_file, **flags)
    try:
        report = verify_coverage(
            loaded,
            grid_step=args.grid_step,
            seed=args.seed,
            mc_samples=args.mc_samples,
            fail_fast=args.fail_fast,
        )
    except ImportError as exc:  # scipy, imported on the first KD-tree build; main has imported numpy
        print(f"error: verify counts disks with scipy, which failed to import: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = report.to_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    _say(
        f"verify: target_k={report.target_k} samples={report.samples} "
        f"min_coverage={report.min_coverage} result={'pass' if report.passed else 'fail'}"
    )
    return EXIT_OK if report.passed else EXIT_COVERAGE_FAIL


def run_compare(args: argparse.Namespace) -> int:
    l, k, r = args.layers, args.coverage, args.radius
    n = total_count(l, k)
    n_ex = benchmark_count(l, k)
    try:
        densities = finite((f(k, r) for f in (density_proposed, density_benchmark)), "--coverage and --radius")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "layers": l,
        "coverage": k,
        "radius": r,
        "proposed_count": n,
        "benchmark_count": n_ex,
        "gap": count_gap(l, k),
        "count_ratio": count_ratio(l, k),
        "proposed_density": densities[0],
        "benchmark_density": densities[1],
    }
    if args.format == "json":
        _say(json.dumps(payload, indent=2))
    else:
        _say(
            f"compare: l={l} k={k} r={r:g}",
            f"  proposed   n={n:<12} density={payload['proposed_density']:.6g}",
            f"  benchmark  n={n_ex:<12} density={payload['benchmark_density']:.6g}",
            f"  gap={payload['gap']}  ratio={payload['count_ratio']:.6g}",
        )
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    ks = range(args.k_min, args.k_max + 1)
    ls = range(args.l_min, args.l_max + 1)
    try:
        radii = SweepSpec(args.r_start, args.r_stop, args.r_step)
        tables = [emit_figure_table(figure_id, radii, ks, ls) for figure_id in FIGURE_IDS]
    except (ValueError, ArithmeticError) as exc:  # an empty or oversized range, or a value beyond floats
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for table in tables:
        write_figure_csv(table, out_dir / f"{table.figure_id}.csv", __version__)
    _say(f"sweep: wrote {len(tables)} figure files to {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand in ("plan", "verify"):
        try:
            _bind_callees()
        except ImportError as exc:  # numpy, which every module in _CALLEES imports
            print(f"error: {args.subcommand} needs numpy, which failed to import: {exc}", file=sys.stderr)
            return EXIT_USAGE
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
    except MemoryError:  # not a coverage result, so never exit 1
        print("error: out of memory; use fewer --layers or a lower --coverage, "
              "or for verify a coarser --grid-step or fewer --mc-samples", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

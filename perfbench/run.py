"""plan -> verify benchmark for hexcover.

    python3 perfbench/run.py --workload scheme-l10 --seed 7 --seconds 48 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each cycle calls ``hexcover.cli.main(["plan", ...])`` and then
``hexcover.cli.main(["verify", ...])`` in this process: a closed loop with
one caller on one thread.  Every cycle's outputs are checked (see
``workloads.py``); a wrong cycle counts as failed.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``cycle_s``, ``plan_s``, ``verify_s``: medians over the measured cycles,
  scaled to nominal host speed by the host factor (``reference.py``'s
  ``NOMINAL_S`` over the median time of the reference kernel, which runs in
  a child interpreter before every measured cycle); the raw medians are in
  the run record;
* ``verify_probes_per_s``: median of report ``samples`` / ``verify_s``,
  divided by the same factor;
* ``setup_s``: median over fresh interpreters of the time from spawn until
  ``hexcover.cli`` (with numpy and scipy) is imported and its argument parser
  built;
* ``peak_rss_mb``: peak resident memory of this process after its first
  (warm-up) cycle, i.e. of a fresh process that ran one cycle.

``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics of ``spans.py`` plus the tracing overhead.

The last line of standard output is the result object; the line before it is
the run record (machine, versions, seeds, sample counts, percentiles), which
is also written with the spans under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from machine import machine_record
from reference import NOMINAL_S, ReferenceProcess
from spans import Tracer, layer_metrics, ratio
from workloads import DEFAULT_SEED, WORKLOADS, load_report, plan_seed, verify_seed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 5
MIN_CYCLES = 3
SETUP_TIMEOUT_S = 60

SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hexcover.cli\n"
    "hexcover.cli.build_parser()\n"
    "print(time.monotonic())\n"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="hexcover plan -> verify benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import hexcover from this checkout's src/, or exit non-zero if it is not there."""
    src = ROOT / "src"
    if not (src / "hexcover" / "cli.py").is_file():
        sys.exit(f"error: no hexcover sources under {src}")
    sys.path.insert(0, str(src))
    import hexcover.cli

    if Path(hexcover.__file__).resolve().parent != src / "hexcover":
        sys.exit(f"error: imported hexcover from {hexcover.__file__}, not from {src}")
    return hexcover


def measure_setup() -> tuple[list[float], list[str]]:
    """Spawn-to-ready times of fresh interpreters, in seconds."""
    times, problems = [], []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        try:
            child = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src")],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"setup child not ready within {SETUP_TIMEOUT_S} s")
            continue
        try:
            times.append(float(child.stdout.strip().splitlines()[-1]) - start)
        except (ValueError, IndexError):
            problems.append(f"setup child exit {child.returncode}: {child.stderr.strip()[-200:]}")
    return times, problems


@dataclass
class Cycle:
    plan_s: float
    verify_s: float
    samples: int
    csv_sha256: str
    problems: list[str]

    @property
    def cycle_s(self) -> float:
        return self.plan_s + self.verify_s


def _invoke(main, argv: list[str]):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a crash is a failed cycle, not a failed run
        return f"{type(exc).__name__}: {exc}"


def _untraced(name: str, fn, *args):
    return fn(*args)


def run_cycle(hexcover, workload, seed: int, work: Path, tracer: Tracer | None = None) -> Cycle:
    csv_path, report_path = work / "sensors.csv", work / "report.json"
    for path in (csv_path, report_path):
        path.unlink(missing_ok=True)
    plan_argv = workload.plan_argv(seed, str(csv_path))
    verify_argv = workload.verify_argv(seed, str(csv_path), str(report_path))
    main = hexcover.cli.main
    call = _untraced if tracer is None else tracer.call
    sink = io.StringIO()
    gc.collect()  # start every cycle from the same heap state
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        plan_rc = call("cli.plan", _invoke, main, plan_argv)
        t1 = time.perf_counter()
        verify_rc = call("cli.verify", _invoke, main, verify_argv)
        t2 = time.perf_counter()

    csv_bytes = csv_path.read_bytes() if csv_path.exists() else b""
    report = load_report(report_path)
    return Cycle(
        plan_s=t1 - t0,
        verify_s=t2 - t1,
        samples=report.get("samples", 0),
        csv_sha256=hashlib.sha256(csv_bytes).hexdigest(),
        problems=workload.check(seed, plan_rc, verify_rc, csv_bytes, report),
    )


def tail_percentile(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples above it (nearest rank).

    None when that percentile would not exceed the median (under 20 samples).
    """
    n = len(values)
    p = math.floor(100 * (n - 10) / n)
    if p <= 50:
        return None
    rank = math.ceil(p * n / 100)
    return {"p": p, "value": sorted(values)[rank - 1], "n": n}


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail": tail_percentile(values),
        "min": min(values),
        "max": max(values),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    hexcover = import_program()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    work.mkdir(parents=True, exist_ok=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "plan_seed": plan_seed(args.seed),
        "verify_seed": verify_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller, 1 thread",
        "machine": machine_record(),
    }
    problems: list[str] = []
    cycles: list[Cycle] = []

    if args.trace == 0:
        setup_times, setup_problems = measure_setup()
        problems += setup_problems

    cycles.append(run_cycle(hexcover, workload, args.seed, work))  # warm-up
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    measured: list[Cycle] = []
    traced: list[Cycle] = []
    reference_s: list[float] = []
    tracer = Tracer(hexcover) if args.trace else None
    with ReferenceProcess() as reference:
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds or len(measured) < MIN_CYCLES
               or (tracer is not None and len(traced) < MIN_CYCLES)):
            if tracer is not None and len(traced) < len(measured):
                tracer.cycle = len(traced)
                tracer.install()
                try:
                    traced.append(run_cycle(hexcover, workload, args.seed, work, tracer))
                finally:
                    tracer.uninstall()
            else:
                reference_s.append(reference.run())
                measured.append(run_cycle(hexcover, workload, args.seed, work))
    cycles += measured + traced

    failed = sum(1 for c in cycles if c.problems)
    for index, cycle in enumerate(cycles):
        problems += [f"cycle {index}: {p}" for p in cycle.problems]
    if len({c.csv_sha256 for c in cycles}) != 1:
        problems.append("the CSV differs between cycles of one seed")

    cycle_s = [c.cycle_s for c in measured]
    record["timings_s"] = {
        "cycle": summary(cycle_s),
        "plan": summary([c.plan_s for c in measured]),
        "verify": summary([c.verify_s for c in measured]),
    }
    record["attempted"] = len(cycles)
    record["failed"] = failed
    record["error_rate"] = failed / len(cycles)

    # Host-speed factor: NOMINAL_S over this run's median reference time.
    host = NOMINAL_S / statistics.median(reference_s)
    record["reference_s"] = summary(reference_s)
    record["host_factor"] = host

    if args.trace == 0:
        record["setup_s"] = summary(setup_times) if setup_times else None
        record["peak_rss_mb"] = peak_rss_mb
        metrics = {
            "cycle_s": metric(statistics.median(cycle_s) * host, "s"),
            "plan_s": metric(statistics.median(c.plan_s for c in measured) * host, "s"),
            "verify_s": metric(statistics.median(c.verify_s for c in measured) * host, "s"),
            "verify_probes_per_s": metric(
                statistics.median(c.samples / c.verify_s for c in measured) / host, "1/s"
            ),
            # 0 only when no interpreter got ready; the run is then marked incorrect
            "setup_s": metric(statistics.median(setup_times) if setup_times else 0.0, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        times, exact, unstable = layer_metrics(
            list(zip(tracer.cycles(), (c.cycle_s for c in traced)))
        )
        problems += [f"count {name} did not repeat between cycles" for name in unstable]
        accounted = times.pop("trace.accounted_share")
        traced_s = statistics.median(c.cycle_s for c in traced)
        untraced_s = statistics.median(cycle_s)
        times["trace.cycle_s"] = traced_s
        times["trace.untraced_cycle_s"] = untraced_s
        times["trace.overhead_s"] = traced_s - untraced_s
        ratios = {
            "verifier.clip_keep_ratio": ratio(exact["verifier.grid_kept"], exact["verifier.grid_raw"]),
            "benchmark.kept_ratio": ratio(exact["benchmark.kept"], exact["benchmark.candidates"]),
            "trace.accounted_share": accounted,
        }
        metrics = {name: metric(value, "s") for name, value in times.items()}
        metrics.update({name: metric(value, "count") for name, value in exact.items()})
        metrics.update({name: metric(value, "ratio") for name, value in ratios.items()})
        record["traced_cycles"] = len(traced)
        tracer.write_jsonl(OUT / f"{tag}.spans.jsonl")

    for path in work.iterdir():
        path.unlink()
    work.rmdir()

    correct = not problems
    record["problems"] = problems[:50]
    record["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    result = {"correct": correct, "attempted": len(cycles), "failed": failed, "metrics": metrics}
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

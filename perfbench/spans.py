"""Spans around the public calls of each hexcover module, recorded from outside.

The program is not edited: ``Tracer.install`` swaps timing wrappers into the
module attributes through which the plan and verify paths look their callees
up, and ``Tracer.uninstall`` puts the originals back, so untraced cycles run
the pristine program.  Spans (name, start, end, parent id, cycle id, counts)
stay in memory until ``write_jsonl``.

A layer is a module: the text before the first dot of a span name.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "tiling", "deployment", "benchmark", "verifier", "sensor_io")


class Span:
    __slots__ = ("id", "parent", "cycle", "name", "start", "end", "counts")

    def __init__(self, span_id: int, parent: int | None, cycle: int, name: str):
        self.id = span_id
        self.parent = parent
        self.cycle = cycle
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "cycle": self.cycle, "name": self.name,
            "start_s": self.start, "end_s": self.end, "counts": self.counts,
        }


def _targets(hexcover) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counts(args, result) or None) for each wrapped call."""
    cli, sensor_io, verifier = hexcover.cli, hexcover.sensor_io, hexcover.verifier
    benchmark, tiling = hexcover.benchmark, hexcover.tiling

    def model_counts(args, model):
        return {"hexagons": len(model.hexagons), "vertices": model.vertex_count()}

    def clip_counts(args, inside):
        model, points = args[0], args[1]
        return {"raw": len(points), "kept": int(inside.sum()), "hexagons": len(model.hexagons)}

    def query_counts(args, counts):
        points, sensors = args[0], args[1]
        built = int(len(points) > 0 and len(sensors) > 0)
        return {"probes": len(points), "hits": int(counts.sum()), "tree_builds": built}

    def report_counts(args, report):
        return {"samples": report.samples, "failing_points": len(report.failing_points)}

    return [
        (cli, "build_solar_model", "tiling.build_solar_model", model_counts),
        (sensor_io, "build_solar_model", "tiling.build_solar_model", model_counts),
        (tiling.SolarModel, "bounding_box", "tiling.bounding_box", None),
        (cli, "place_proposed", "deployment.place_proposed", lambda a, d: {"sensors": len(d.sensors)}),
        (cli, "place_benchmark", "benchmark.place_benchmark", lambda a, d: {"sensors": d.sensor_count()}),
        (benchmark, "small_hexagon_centers", "benchmark.small_hexagon_centers",
         lambda a, centers: {"kept": len(centers)}),
        (cli, "write_sensors_csv", "sensor_io.write_sensors_csv",
         lambda a, _: {"bytes": os.path.getsize(a[0])}),
        (sensor_io, "sensor_rows", "sensor_io.sensor_rows", None),
        (cli, "read_sensors_csv", "sensor_io.read_sensors_csv", lambda a, f: {"rows": len(f.rows)}),
        (cli, "load_deployment", "sensor_io.load_deployment", None),
        (cli, "verify_coverage", "verifier.verify_coverage", report_counts),
        (verifier, "structured_points", "verifier.structured_points", lambda a, p: {"probes": len(p)}),
        (verifier, "grid_points", "verifier.grid_points", lambda a, p: {"probes": len(p)}),
        (verifier, "region_contains", "verifier.region_contains", clip_counts),
        (verifier, "monte_carlo_points", "verifier.monte_carlo_points", lambda a, p: {"probes": len(p)}),
        (verifier, "coverage_counts", "verifier.coverage_counts", query_counts),
    ]


class Tracer:
    def __init__(self, hexcover):
        self.hexcover = hexcover
        self.spans: list[Span] = []
        self.cycle = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.cycle, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if counts is not None:
            span.counts.update(counts(args, result))
        return result

    def _bump(self, key: str) -> None:
        if self._stack:
            counts = self._stack[-1].counts
            counts[key] = counts.get(key, 0) + 1

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        for owner, attribute, name, counts in _targets(self.hexcover):
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, counts))
        # Every candidate small hexagon the comparison scheme scans is built
        # through benchmark.Hexagon, so counting constructions inside the
        # small_hexagon_centers span counts the candidates scanned.
        benchmark = self.hexcover.benchmark
        hexagon = benchmark.Hexagon
        self._saved.append((benchmark, "Hexagon", hexagon))

        def counted_hexagon(*args, **kwargs):
            self._bump("hexagons_built")
            return hexagon(*args, **kwargs)

        benchmark.Hexagon = counted_hexagon

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)

        return traced

    # -- output --------------------------------------------------------------

    def cycles(self) -> list[list[Span]]:
        grouped: list[list[Span]] = [[] for _ in range(self.cycle + 1)]
        for span in self.spans:
            grouped[span.cycle].append(span)
        return grouped

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    result = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            result[span.parent] -= span.duration
    return result


def cycle_layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer timings and exact work counts of one traced cycle."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.duration
        self_s[span.name] += own[span.id]
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}:{key}"] += value

    def last(name: str, key: str) -> int:
        values = [s.counts[key] for s in spans if s.name == name and key in s.counts]
        return values[-1] if values else 0

    times = {
        "verifier.grid_s": total["verifier.grid_points"],
        "verifier.clip_s": total["verifier.region_contains"],
        "verifier.structured_s": total["verifier.structured_points"],
        "verifier.query_s": total["verifier.coverage_counts"],
        "verifier.mc_s": total["verifier.monte_carlo_points"],
        "verifier.report_s": self_s["verifier.verify_coverage"],
        "deployment.place_s": total["deployment.place_proposed"],
        "benchmark.centers_s": total["benchmark.small_hexagon_centers"],
        "benchmark.sample_s": self_s["benchmark.place_benchmark"],
        "tiling.build_s": total["tiling.build_solar_model"],
        "tiling.bbox_s": total["tiling.bounding_box"],
        "sensor_io.write_s": total["sensor_io.write_sensors_csv"],
        "sensor_io.format_s": total["sensor_io.sensor_rows"],
        "sensor_io.read_s": total["sensor_io.read_sensors_csv"],
        "sensor_io.load_s": self_s["sensor_io.load_deployment"],
        "cli.plan_self_s": self_s["cli.plan"],
        "cli.verify_self_s": self_s["cli.verify"],
    }
    for layer in LAYERS:
        times[f"{layer}.self_s"] = sum(
            own[span.id] for span in spans if span.name.split(".", 1)[0] == layer
        )

    raw = counts["verifier.region_contains:raw"]
    candidates = counts["benchmark.small_hexagon_centers:hexagons_built"]
    exact = {
        "verifier.grid_raw": raw,
        "verifier.grid_kept": counts["verifier.region_contains:kept"],
        "verifier.clip_tests": raw * last("verifier.region_contains", "hexagons"),
        "verifier.structured_probes": counts["verifier.structured_points:probes"],
        "verifier.disk_hits": counts["verifier.coverage_counts:hits"],
        "verifier.tree_builds": counts["verifier.coverage_counts:tree_builds"],
        "verifier.failing_points": counts["verifier.verify_coverage:failing_points"],
        "deployment.sensors": counts["deployment.place_proposed:sensors"],
        "benchmark.candidates": candidates,
        "benchmark.kept": counts["benchmark.small_hexagon_centers:kept"],
        "tiling.build_calls": calls["tiling.build_solar_model"],
        "tiling.hexagons": last("tiling.build_solar_model", "hexagons"),
        "tiling.vertices": last("tiling.build_solar_model", "vertices"),
        "sensor_io.bytes": counts["sensor_io.write_sensors_csv:bytes"],
        "sensor_io.rows": counts["sensor_io.read_sensors_csv:rows"],
    }
    return times, exact


def ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(cycles: list[tuple[list[Span], float]]) -> tuple[dict[str, float], dict[str, int], list[str]]:
    """Medians over traced (spans, cycle wall time) pairs, the exact counts, and counts that did not repeat.

    ``trace.accounted_share`` is, per cycle, the layers' summed self time over
    the cycle's wall time: how much of ``cycle_s`` the spans explain.
    """
    per_cycle = []
    for spans, wall in cycles:
        times, exact = cycle_layer_metrics(spans)
        times["trace.accounted_share"] = sum(times[f"{layer}.self_s"] for layer in LAYERS) / wall
        per_cycle.append((times, exact))
    times = {
        name: statistics.median(t[name] for t, _ in per_cycle) for name in per_cycle[0][0]
    }
    exact = per_cycle[0][1]
    unstable = [
        name for name in exact if any(c[name] != exact[name] for _, c in per_cycle[1:])
    ]
    return times, exact, unstable

"""The benchmark's outside-in tracer still finds every name it wraps and reads.

``perfbench/spans.py`` swaps timing wrappers into module attributes and reads
result attributes (``len(d.sensors)``, ``d.sensor_count()``, ``f.rows``); a
renamed attribute would otherwise break only traced benchmark runs.  The
CLI binds its numpy-backed callees on first use, so the tracer is also run
in fresh interpreters, installed before and after the first plan.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hexcover
from hexcover.analytics import hexagon_count, total_count, vertex_count
from hexcover.benchmark import small_hexagon_centers
from hexcover.cli import main
from hexcover.tiling import build_solar_model

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_cycle(spans, tmp_path, plan_flags):
    csv_path = tmp_path / "sensors.csv"
    tracer = spans.Tracer(hexcover)
    tracer.install()
    try:
        assert main(["plan", "--layers", "2", "--coverage", "4", *plan_flags, "--output", str(csv_path)]) == 0
        assert main(["verify", "--input", str(csv_path), "--mc-samples", "200"]) in (0, 1)
    finally:
        tracer.uninstall()
    return spans.cycle_layer_metrics(tracer.spans)[1]


def test_proposed_counts(spans, tmp_path):
    exact = traced_cycle(spans, tmp_path, ["--strategy", "proposed"])
    assert exact["deployment.sensors"] == total_count(2, 4)
    assert exact["sensor_io.rows"] == total_count(2, 4)
    assert exact["verifier.structured_probes"] > 0
    assert exact["tiling.vertices"] == vertex_count(2) == 24
    assert exact["tiling.hexagons"] == hexagon_count(2)


def test_scheme_counts(spans, tmp_path):
    exact = traced_cycle(spans, tmp_path, ["--strategy", "benchmark", "--seed", "3"])
    kept = len(small_hexagon_centers(build_solar_model(2)))
    assert exact["benchmark.kept"] == kept
    assert exact["sensor_io.rows"] == 4 * kept


# perfbench's order in a fresh interpreter: import hexcover.cli, an untraced
# plan and verify when "warm", then install the tracer and run a traced cycle.
FRESH_CHILD = """
import importlib.util, json, sys
spans_path, strategy, order, csv_path = sys.argv[1:]
spec = importlib.util.spec_from_file_location("perfbench_spans", spans_path)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import hexcover.cli

def cycle(call):
    plan = ["plan", "--layers", "2", "--coverage", "4", "--strategy", strategy, "--seed", "3", "--output", csv_path]
    verify = ["verify", "--input", csv_path, "--mc-samples", "200"]
    return [call("cli.plan", hexcover.cli.main, plan), call("cli.verify", hexcover.cli.main, verify)]

codes = [cycle(lambda name, fn, argv: fn(argv))] if order == "warm" else []
targets = spans._targets(hexcover)
tracer = spans.Tracer(hexcover)
tracer.install()
try:
    wrapped = [getattr(owner, name).__wrapped__ is original for owner, name, original in tracer._saved[:len(targets)]]
    codes.append(cycle(tracer.call))
finally:
    tracer.uninstall()
print(json.dumps({
    "targets": [name for _, _, name, _ in targets],
    "wrapped": wrapped,
    "codes": codes,
    "recorded": sorted({span.name for span in tracer.spans}),
}))
"""

# Targets a cycle of each strategy never calls; nothing calls verifier.region_contains.
UNCALLED = {
    "proposed": {"benchmark.place_benchmark", "benchmark.small_hexagon_centers", "verifier.region_contains"},
    "benchmark": {"deployment.place_proposed", "verifier.region_contains"},
}


@pytest.mark.parametrize("order", ["warm", "cold"])
@pytest.mark.parametrize("strategy", ["proposed", "benchmark"])
def test_every_target_resolves_and_records_in_a_fresh_interpreter(tmp_path, strategy, order):
    src = str(Path(hexcover.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", FRESH_CHILD, str(SPANS), strategy, order, str(tmp_path / "sensors.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["wrapped"] == [True] * len(result["targets"])
    verify_code = 0 if strategy == "proposed" else 1
    assert result["codes"] == [[0, verify_code]] * (2 if order == "warm" else 1)
    assert set(result["recorded"]) == set(result["targets"]) - UNCALLED[strategy] | {"cli.plan", "cli.verify"}

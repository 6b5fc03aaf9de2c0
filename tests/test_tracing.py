"""The benchmark's outside-in tracer still finds every name it wraps and reads.

``perfbench/spans.py`` swaps timing wrappers into module attributes and reads
result attributes (``len(d.sensors)``, ``d.sensor_count()``, ``f.rows``); a
renamed attribute would otherwise break only traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import pytest

import hexcover
from hexcover.benchmark import small_hexagon_centers
from hexcover.cli import main
from hexcover.deployment import total_count
from hexcover.tiling import build_solar_model, hexagon_count, vertex_count

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

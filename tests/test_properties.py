"""Property tests: sensor-file round trips and the verify exit-code contract.

Examples are derandomized and bounded so the suite stays fast and repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcover.benchmark import place_benchmark
from hexcover.cli import main
from hexcover.deployment import place_proposed
from hexcover.sensor_io import load_deployment, read_sensors_csv, write_sensors_csv
from hexcover.tiling import PARITY_NAMES, build_solar_model

BOUNDED = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def assert_round_trip(deployment, directory):
    path = directory / "sensors.csv"
    write_sensors_csv(path, deployment)
    loaded = load_deployment(read_sensors_csv(path))
    assert (loaded.model.layers, loaded.r, loaded.k) == (deployment.model.layers, deployment.r, deployment.k)
    assert loaded.strategy == deployment.strategy
    assert np.array_equal(loaded.provenance, deployment.provenance)
    assert np.array_equal(loaded.hexagon, deployment.hexagon)
    # ".12g" keeps 12 significant digits: relative error at most 5e-12
    assert np.allclose(loaded.sensors, deployment.sensors, rtol=6e-12, atol=0.0)


@BOUNDED
@given(
    layers=st.integers(1, 3),
    k=st.integers(1, 9),
    parity=st.sampled_from(PARITY_NAMES),
    radius=st.sampled_from([1.0, 2.5, 10.0]),
)
def test_proposed_round_trip(tmp_path_factory, layers, k, parity, radius):
    deployment = place_proposed(build_solar_model(layers, radius), k, parity=parity)
    assert_round_trip(deployment, tmp_path_factory.mktemp("proposed"))


@BOUNDED
@given(
    layers=st.integers(1, 3),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    radius=st.sampled_from([1.0, 2.5, 10.0]),
)
def test_scheme_round_trip(tmp_path_factory, layers, k, seed, radius):
    deployment = place_benchmark(build_solar_model(layers, radius), k, seed=seed)
    assert_round_trip(deployment, tmp_path_factory.mktemp("scheme"))


def _texts(*examples):
    """Plausible field values, boundary cases and arbitrary text without separators."""
    junk = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=",\r\n"), max_size=8)
    return st.one_of(st.sampled_from(examples), junk)


_numbers = st.one_of(
    st.floats().map(repr), st.integers(-(10**30), 10**30).map(str), _texts("nan", "-inf", "1e999", "0x10")
)
_meta_values = {
    "l": st.one_of(st.integers(-1, 3).map(str), _texts("1000000", "9" * 400, "2.5", "")),
    "r": st.one_of(st.sampled_from(["1", "2.5", "1e-6", "1e149"]), _numbers),
    "k": st.one_of(st.integers(0, 12).map(str), _numbers),
    "strategy": _texts("proposed", "benchmark"),
    "seed": _numbers,
}
_meta_pair = st.sampled_from(sorted(_meta_values)).flatmap(
    lambda key: _meta_values[key].map(lambda value: f"{key}={value}")
)
_meta_line = st.lists(_meta_pair, max_size=6).map(lambda pairs: "# meta: " + " ".join(pairs))
_row = st.tuples(
    st.one_of(st.floats(-5, 5).map(repr), _numbers),
    st.one_of(st.floats(-5, 5).map(repr), _numbers),
    _texts("center", "vertex:even", "segment:1:1", "random"),
    st.one_of(st.integers(-1, 40).map(str), _texts("shared", "1" * 19)),
    _texts("proposed", "benchmark"),
).map(",".join)
_line = st.one_of(
    _row, _meta_line, st.just("x,y,provenance,hexagon,strategy"), _texts("#", "# note", "1,2,3")
).map(str.encode)
_file = st.lists(st.one_of(_line, st.binary(max_size=12)), max_size=12).map(b"\n".join)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(content=_file)
def test_fuzzed_sensor_files_exit_0_1_or_2(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "sensors.csv"
    path.write_bytes(content)
    assert main(["verify", "--input", str(path), "--mc-samples", "0"]) in (0, 1, 2)

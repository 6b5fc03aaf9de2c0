"""Tests for sensor-file export and import."""

import dataclasses
import json

import numpy as np
import pytest

from hexcover import sensor_io
from hexcover.benchmark import place_benchmark
from hexcover.deployment import place_proposed
from hexcover.sensor_io import (
    SensorFileError,
    load_deployment,
    read_sensors_csv,
    write_sensors_csv,
    write_sensors_json,
)
from hexcover.tiling import build_solar_model
from sensor_io_reference import assert_reads_like_reference, column_outcome, reference_csv, reference_outcome


@pytest.fixture(scope="module")
def model():
    return build_solar_model(2, side=2.0)


class TestCsvRoundTrip:
    def test_proposed_roundtrip(self, model, tmp_path):
        deployment = place_proposed(model, 3)
        path = tmp_path / "sensors.csv"
        write_sensors_csv(path, deployment)
        parsed = read_sensors_csv(path)
        assert parsed.meta["strategy"] == "proposed"
        assert parsed.meta["k"] == "3"
        assert parsed.meta["l"] == "2"
        assert float(parsed.meta["r"]) == 2.0
        assert len(parsed.rows) == len(deployment.sensors)
        loaded = load_deployment(parsed)
        assert np.allclose(loaded.sensors, deployment.sensors, atol=1e-10)
        assert np.array_equal(loaded.provenance, deployment.provenance)
        assert np.array_equal(loaded.hexagon, deployment.hexagon)
        assert loaded.meta == {"seed": "0", "parity": "even"}

    def test_benchmark_roundtrip_records_seed(self, model, tmp_path):
        deployment = place_benchmark(model, 2, seed=7)
        path = tmp_path / "bench.csv"
        write_sensors_csv(path, deployment)
        parsed = read_sensors_csv(path)
        assert parsed.meta["strategy"] == "benchmark"
        assert parsed.meta["seed"] == "7"
        assert len(parsed.rows) == deployment.sensor_count()

    def test_byte_identical_on_rerun(self, model, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_sensors_csv(a, place_benchmark(model, 2, seed=7))
        write_sensors_csv(b, place_benchmark(model, 2, seed=7))
        assert a.read_bytes() == b.read_bytes()

    def test_shared_vertices_marked(self, model, tmp_path):
        deployment = place_proposed(model, 2)
        path = tmp_path / "sensors.csv"
        write_sensors_csv(path, deployment)
        parsed = read_sensors_csv(path)
        vertex_rows = [row for row in parsed.rows if row[2].startswith("vertex")]
        assert vertex_rows
        assert all(row[3] == -1 for row in vertex_rows)
        assert "shared" in path.read_text()


class TestJson:
    def test_json_mirrors_csv(self, model, tmp_path):
        deployment = place_proposed(model, 2)
        path = tmp_path / "sensors.json"
        write_sensors_json(path, deployment)
        payload = json.loads(path.read_text())
        assert payload["meta"]["strategy"] == "proposed"
        assert len(payload["sensors"]) == len(deployment.sensors)
        assert payload["model"]["hexagon_count"] == 7
        provenances = {s["provenance"] for s in payload["sensors"]}
        assert "center" in provenances

    def test_benchmark_json(self, model, tmp_path):
        deployment = place_benchmark(model, 2, seed=1)
        path = tmp_path / "bench.json"
        write_sensors_json(path, deployment)
        payload = json.loads(path.read_text())
        assert payload["meta"]["seed"] == "1"
        assert payload["model"]["hexagon_count"] == 7
        assert all(s["provenance"] == "random" for s in payload["sensors"])

    def test_extra_meta_recorded(self, model, tmp_path):
        # a meta pair the strategy did not set is written in the default's place
        path = tmp_path / "sensors.csv"
        deployment = place_proposed(model, 1)
        write_sensors_csv(path, dataclasses.replace(deployment, meta={**deployment.meta, "seed": 9}))
        meta = read_sensors_csv(path).meta
        assert meta["seed"] == "9"
        assert list(meta) == ["tool", "version", "strategy", "r", "k", "l", "seed", "parity"]


class TestMalformedFiles:
    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,provenance,hexagon,strategy\n1,2,center,0,proposed\n1,2,3\n")
        with pytest.raises(SensorFileError) as info:
            read_sensors_csv(path)
        assert info.value.line == 3
        assert "line 3" in str(info.value)

    def test_bad_coordinate_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("abc,2,center,0,proposed\n")
        with pytest.raises(SensorFileError) as info:
            read_sensors_csv(path)
        assert info.value.line == 1

    @pytest.mark.parametrize("row", ["nan,nan", "inf,0", "0,-inf"])
    def test_non_finite_coordinate_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y,provenance,hexagon,strategy\n1,2,center,0,proposed\n{row},center,1,proposed\n")
        with pytest.raises(SensorFileError) as info:
            read_sensors_csv(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("field", ["x", "-1", "1.5", "", "1" * 19, "Shared"])
    def test_bad_hexagon_field_reports_line(self, tmp_path, field):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y,provenance,hexagon,strategy\n1,2,center,0,proposed\n1,2,center,{field},proposed\n")
        with pytest.raises(SensorFileError) as info:
            read_sensors_csv(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("value", ["l=x", "l=0", "l=2.5", "r=nan", "r=inf", "r=-1", "k=0"])
    def test_bad_meta_value_reports_meta_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y,provenance,hexagon,strategy\n# meta: tool=hexcover {value}\n")
        with pytest.raises(SensorFileError) as info:
            load_deployment(read_sensors_csv(path))
        assert info.value.line == 2
        assert value in str(info.value)

    def test_flags_replace_bad_meta_values(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# meta: l=x r=nan k=0\n")
        loaded = load_deployment(read_sensors_csv(path), layers=2, radius=3.0, k=1)
        assert (loaded.model.layers, loaded.r, loaded.k) == (2, 3.0, 1)

    def test_empty_file_is_empty_deployment(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        parsed = read_sensors_csv(path)
        assert parsed.rows == []
        loaded = load_deployment(parsed)
        assert loaded.sensors.shape == (0, 2)
        assert loaded.provenance.shape == loaded.hexagon.shape == (0,)
        assert loaded.model.layers == 1


class TestLoadDeployment:
    def test_meta_drives_model(self, model, tmp_path):
        path = tmp_path / "sensors.csv"
        write_sensors_csv(path, place_proposed(model, 3))
        loaded = load_deployment(read_sensors_csv(path))
        assert loaded.model.layers == 2
        assert loaded.r == 2.0
        assert loaded.k == 3

    def test_flags_override_meta(self, model, tmp_path):
        path = tmp_path / "sensors.csv"
        write_sensors_csv(path, place_proposed(model, 3))
        loaded = load_deployment(read_sensors_csv(path), k=4)
        assert loaded.k == 4


HEADER = b"x,y,provenance,hexagon,strategy"
ROW = b"1.5,-2,center,0,proposed"


class TestColumnReaderMatchesLineReader:
    """Crafted files on which a column reader could part from the line-by-line one."""

    @pytest.mark.parametrize(
        "content",
        [
            b"# meta: l=1 k=1\r\n" + HEADER + b"\r\n" + ROW + b"\r\n" + ROW + b"\r\n",  # CRLF
            b"# meta: l=1\r" + HEADER + b"\r" + ROW + b"\r1,2,center,shared,proposed",  # lone CR
            b"\n\n" + HEADER + b"\n\n" + ROW + b"\n   \n\t\n" + ROW + b"\n\n",  # blank lines
            HEADER + b"\n" + ROW + b"\n# note, with, four, commas, here\n" + HEADER + b"\n  " + HEADER + b"  \n" + ROW,
            b"# meta: k=2\n" + ROW + b"\n## meta: k=3 l=2\n" + ROW + b"\n#meta:r=2.5\n",  # meta lines mid-file
            b"  1.5 ,\t-2 , center , 0 , proposed  \n",  # spaces around fields
            b" 1_0,2_5.5,center,1,proposed\n",  # underscores in numbers
            "1,2,center,\u0661\u0662,proposed\n3,4,center, \u0663 ,proposed\n".encode(),  # Arabic-Indic digits
            "1,2,center,\u00b2,proposed\n".encode(),  # a digit that is not decimal
            "\u0661.5,2,center,0,proposed\n".encode(),  # Unicode digits in a coordinate
            b"1,2,cent\xff\xfeer,0,propo\xc3sed\n",  # non-UTF-8 bytes in text fields
            b"1,2,center,\xff,proposed\n",  # non-UTF-8 byte in the hexagon field
            b"1\xff,2,center,0,proposed\n",  # non-UTF-8 byte in a coordinate
            ROW + b"\n" + ROW,  # no final newline
            b"1,2,a\x00,0,b\x00\n0,0,\x00,shared,\x00\n",  # trailing NULs in text fields
            b"-0,0,center,0,proposed\n0,-0.0,center,1,proposed\n",  # signed zeros
            b"1e150,-1e150,center,0,proposed\n",  # at the coordinate limit
            b"1,2,center,0,proposed\n1e151,0,center,0,proposed\n",  # beyond it
            b"1,2,center,0,proposed\nnan,0,center,0,proposed\n",
            b"1,2,center,0,proposed\n1,2,center,0,proposed,extra\n",  # six fields
            b"1,2,center,0,proposed,x\n1,2,center,0\n",  # six then four: five on average
            b"1,2,center,0\n1,2,center,0,proposed,x\n",
            b"1,2,center,0,proposed,3,4,5\n6,7\n",  # eight then two: every column still parses
            b"1,2,center,0,proposed\n,,,,\n",  # empty fields
            b"1,2,center,123456789012345678,proposed\n1,2,center,1234567890123456789,proposed\n",
            b"1,2,center,-1,proposed\n",
            b"1,2,center,Shared,proposed\n",
            b"1,2,center, shared ,proposed\n",
            b"\x1c1,2,center,0,proposed\x1f\n",  # separators that str.strip removes
            b"1,2,center,0,proposed\x0b\x0c\n\x85\n",
            "1,2,center,0,proposed\u2028tail,3\n".encode(),  # a line separator that is not a line end
            b"",
        ],
    )
    def test_crafted_file(self, tmp_path, content):
        path = tmp_path / "sensors.csv"
        path.write_bytes(content)
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("chunk", [sensor_io.READ_CHUNK, 1000, 1])
    def test_first_bad_line_is_named_among_many(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(sensor_io, "READ_CHUNK", chunk)
        rows = [b"%d.5,%d,center,%d,proposed" % (i, -i, i % 7) for i in range(3000)]
        path = tmp_path / "sensors.csv"
        path.write_bytes(HEADER + b"\n" + b"\n".join(rows) + b"\n")
        assert_reads_like_reference(path)
        rows[1700] = b"1,2,center,x,proposed"
        rows[2500] = b"1,2,3"
        path.write_bytes(HEADER + b"\n" + b"\n".join(rows) + b"\n")
        assert column_outcome(path) == reference_outcome(path) == (
            "error", "line 1702: hexagon must be 'shared' or an index below 10**18, got 'x'", 1702
        )

    def test_rows_view(self, model, tmp_path):
        path = tmp_path / "sensors.csv"
        write_sensors_csv(path, place_proposed(model, 3))
        rows = read_sensors_csv(path).rows
        listed = list(rows)
        assert len(rows) == len(listed) and rows == listed
        assert all(type(value) is float for value in listed[0][:2]) and type(listed[0][3]) is int

    def test_signed_zeros_keep_their_texts(self, model, tmp_path):
        # -0.0 and 0.0 are equal floats but print as "-0" and "0"; the lookup table tells them apart by their bits
        deployment = place_proposed(model, 3)
        sensors = np.tile([[0.0, -0.0], [-0.0, 0.0]], (len(deployment.sensors) // 2 + 1, 1))[: len(deployment.sensors)]
        deployment = dataclasses.replace(deployment, sensors=sensors)
        write_sensors_csv(tmp_path / "columns.csv", deployment)
        reference_csv(tmp_path / "rows.csv", deployment)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        assert "-0,0,center" in (tmp_path / "columns.csv").read_text()
        assert_reads_like_reference(tmp_path / "columns.csv")

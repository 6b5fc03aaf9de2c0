"""End-to-end tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from hexcover import benchmark, cli, sensor_io, verifier
from hexcover.analytics import count_by_kind, total_count, vertex_count
from hexcover.benchmark import place_benchmark
from hexcover.cli import main
from hexcover.sensor_io import read_sensors_csv, write_sensors_csv
from hexcover.tiling import build_solar_model
from float_geometry import near_tiles
from stream_reference import reference_tile_draws


def run(argv):
    return main(argv)


class TestPlan:
    def test_proposed_small_patch(self, tmp_path, capsys):
        out = tmp_path / "sensors.csv"
        code = run(["plan", "--layers", "1", "--coverage", "2", "--radius", "1",
                    "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "n=4" in stdout
        assert "formula=4" in stdout
        parsed = read_sensors_csv(out)
        assert len(parsed.rows) == 4

    def test_benchmark_reports_both_counts(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run(["plan", "--strategy", "benchmark", "--layers", "2", "--coverage", "2",
                    "--seed", "7", "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        # enumeration places 2 sensors in each of the 19 contained tiles; the
        # printed closed form claims 24 tiles and is reported alongside
        assert "n=38" in stdout
        assert "formula=48" in stdout
        assert "small_hexagons=19" in stdout
        assert "small_hexagons_formula=24" in stdout
        assert len(read_sensors_csv(out).rows) == 38

    def test_zero_coverage_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["plan", "--coverage", "0", "--output", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_zero_layers_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(["plan", "--layers", "0", "--output", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_json_output_includes_model(self, tmp_path):
        out = tmp_path / "sensors.json"
        code = run(["plan", "--layers", "2", "--coverage", "3", "--format", "json",
                    "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["sensors"]) == 31
        assert payload["model"]["hexagon_count"] == 7
        assert payload["meta"]["strategy"] == "proposed"

    def test_benchmark_offset_flag(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run(["plan", "--strategy", "benchmark", "--layers", "1", "--coverage", "1",
                    "--offset-x", "1/4", "--output", str(out)])
        assert code == 0
        assert "small_hexagons=" in capsys.readouterr().out

    def test_negative_rational_offsets_in_the_equals_form(self, tmp_path):
        out, expected = tmp_path / "bench.csv", tmp_path / "expected.csv"
        assert run(["plan", "--strategy", "benchmark", "--layers", "3", "--coverage", "2", "--radius", "2.5",
                    "--seed", "5", "--offset-x=-1/4", "--offset-y=-1/3", "--output", str(out)]) == 0
        offset = (Fraction(-1, 4), Fraction(-1, 3))
        write_sensors_csv(expected, place_benchmark(build_solar_model(3, 2.5), 2, seed=5, offset=offset))
        assert out.read_bytes() == expected.read_bytes()
        # written apart, argparse reads "-1/4" as an option, so the flag has no value
        with pytest.raises(SystemExit) as info:
            run(["plan", "--strategy", "benchmark", "--offset-x", "-1/4", "--output", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    @pytest.mark.parametrize("layers,k", [(1, 1), (2, 2), (3, 3), (2, 7)])
    def test_summary_breaks_the_count_down_by_kind(self, tmp_path, capsys, layers, k):
        assert run(["plan", "--layers", str(layers), "--coverage", str(k), "--output", str(tmp_path / "s.csv")]) == 0
        printed = dict(
            (kind, (int(placed), int(formula)))
            for kind, placed, formula in re.findall(r"(\w+)=(\d+)/(\d+)", capsys.readouterr().out)
        )
        assert printed == {kind: (n, n) for kind, n in count_by_kind(layers, k).items()}

    @pytest.mark.parametrize(
        "flags",
        [
            ["--layers", str(10**6)],
            ["--coverage", str(10**9)],
            ["--strategy", "benchmark", "--layers", str(10**5)],
            ["--layers", "9" * 400],
            # 478 801 sensors and 960 000 embedded patch vertices
            ["--format", "json", "--layers", "400", "--coverage", "1"],
        ],
        ids=["layers", "coverage", "scheme-layers", "400-digit-layers", "json-vertices"],
    )
    def test_oversized_plans_are_refused_before_building(self, tmp_path, capsys, flags):
        started = time.perf_counter()
        code = run(["plan", *flags, "--output", str(tmp_path / "sensors.csv")])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_size_limit_is_the_closed_form_count(self, tmp_path, monkeypatch):
        out = tmp_path / "sensors.csv"
        monkeypatch.setattr(cli, "MAX_SENSORS", total_count(2, 3) - 1)
        assert run(["plan", "--layers", "2", "--coverage", "3", "--output", str(out)]) == 2
        assert not out.exists()
        monkeypatch.setattr(cli, "MAX_SENSORS", total_count(2, 3))
        assert run(["plan", "--layers", "2", "--coverage", "3", "--output", str(out)]) == 0
        # the scheme's budget is k sensors in each of at most 4 tiles per patch hexagon
        for k, budget in [(2, 4 * 2 * 7), (100, 4 * 100 * 7)]:
            scheme = ["plan", "--strategy", "benchmark", "--layers", "2", "--coverage", str(k), "--output", str(out)]
            monkeypatch.setattr(cli, "MAX_SENSORS", budget - 1)
            assert run(scheme) == 2
            monkeypatch.setattr(cli, "MAX_SENSORS", budget)
            assert run(scheme) == 0
        json_plan = ["plan", "--format", "json", "--layers", "2", "--coverage", "1", "--output", str(out)]
        monkeypatch.setattr(cli, "MAX_SENSORS", total_count(2, 1) + vertex_count(2) - 1)
        assert run(json_plan) == 2
        monkeypatch.setattr(cli, "MAX_SENSORS", total_count(2, 1) + vertex_count(2))
        assert run(json_plan) == 0

    def test_scheme_budget_counts_kept_tiles_not_scanned_ones(self, tmp_path):
        # one tile is kept: 3500 sensors, far below the budget of 4 tiles per patch hexagon
        out = tmp_path / "scheme.csv"
        assert run(["plan", "--strategy", "benchmark", "--layers", "1", "--coverage", "3500", "--output", str(out)]) == 0
        assert len(read_sensors_csv(out).rows) == 3500

    def test_scheme_plan_equals_the_per_tile_generators_byte_for_byte(self, tmp_path, monkeypatch):
        # a seed of three 32-bit words and an odd k, which leaves one 32-bit half unused per tile
        plan = ["plan", "--strategy", "benchmark", "--layers", "3", "--coverage", "5", "--seed", str(2**64 + 5)]
        assert run([*plan, "--output", str(tmp_path / "stepped.csv")]) == 0
        monkeypatch.setattr(benchmark, "_tile_draws", reference_tile_draws)
        assert run([*plan, "--output", str(tmp_path / "generators.csv")]) == 0
        assert (tmp_path / "stepped.csv").read_bytes() == (tmp_path / "generators.csv").read_bytes()

    def test_scheme_refusal_at_k1_is_four_tiles_per_hexagon(self, tmp_path, monkeypatch):
        # 4 H(l) stays within the budget up to l = 289: 4 H(289) = 998 788
        class Built(Exception):
            pass

        def build(layers, radius):
            raise Built

        monkeypatch.setattr(cli, "build_solar_model", build)
        plan = ["plan", "--strategy", "benchmark", "--coverage", "1", "--output", str(tmp_path / "scheme.csv")]
        with pytest.raises(Built):
            run([*plan, "--layers", "289"])
        assert run([*plan, "--layers", "290"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_parity_flag_changes_vertex_class(self, tmp_path):
        even = tmp_path / "even.csv"
        odd = tmp_path / "odd.csv"
        assert run(["plan", "--layers", "1", "--coverage", "2", "--output", str(even)]) == 0
        assert run(["plan", "--layers", "1", "--coverage", "2", "--parity", "odd",
                    "--output", str(odd)]) == 0
        even_rows = {r for r in read_sensors_csv(even).rows if r[2].startswith("vertex")}
        odd_rows = {r for r in read_sensors_csv(odd).rows if r[2].startswith("vertex")}
        assert even_rows and odd_rows
        assert {r[:2] for r in even_rows}.isdisjoint({r[:2] for r in odd_rows})


class TestInternalErrors:
    def test_count_mismatch_is_exit_three(self, tmp_path, monkeypatch):
        # place_proposed checks its enumeration against the closed form
        import hexcover.deployment as deployment_module

        monkeypatch.setattr(deployment_module, "total_count", lambda layers, k: -1)
        code = run(["plan", "--layers", "1", "--coverage", "1",
                    "--output", str(tmp_path / "x.csv")])
        assert code == 3


class TestOutOfMemory:
    """Running out of memory is not a coverage result: exit 2, one line naming the size flags, nothing written."""

    @staticmethod
    def _out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB")

    def _assert_refused(self, code, capsys, written):
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        for flag in ("--layers", "--coverage", "--grid-step", "--mc-samples"):
            assert flag in err
        assert not written.exists()

    def test_plan(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "place_proposed", self._out_of_memory)
        out = tmp_path / "sensors.csv"
        code = run(["plan", "--layers", "2", "--coverage", "3", "--output", str(out)])
        self._assert_refused(code, capsys, out)

    def test_verify(self, tmp_path, monkeypatch, capsys):
        sensors, report = tmp_path / "sensors.csv", tmp_path / "report.json"
        assert run(["plan", "--layers", "2", "--coverage", "3", "--output", str(sensors)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "verify_coverage", self._out_of_memory)
        code = run(["verify", "--input", str(sensors), "--output", str(report)])
        self._assert_refused(code, capsys, report)

    def _verify_threads(self, tmp_path, capsys):
        """Exit code of verify on a fresh plan, checking that it leaves as many threads as it found."""
        sensors, report = tmp_path / "sensors.csv", tmp_path / "report.json"
        assert run(["plan", "--layers", "2", "--coverage", "3", "--output", str(sensors)]) == 0
        capsys.readouterr()
        threads = threading.active_count()
        code = run(["verify", "--input", str(sensors), "--output", str(report)])
        assert threading.active_count() == threads
        return code, report

    @pytest.mark.parametrize("limited", [False, True])
    def test_verify_grid_counting(self, tmp_path, monkeypatch, capsys, limited):
        # on the worker thread, or inline under an address-space limit
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: limited)
        monkeypatch.setattr(verifier, "lattice_counts", self._out_of_memory)
        code, report = self._verify_threads(tmp_path, capsys)
        self._assert_refused(code, capsys, report)

    def test_verify_query_while_the_grid_is_counted(self, tmp_path, monkeypatch, capsys):
        # the worker still counts when the query fails; verify waits for it before it returns
        monkeypatch.setattr(verifier, "_address_space_limited", lambda: False)
        failed, finished, counts = threading.Event(), [], verifier.lattice_counts

        def slow_counts(*args):
            failed.wait(timeout=10)
            time.sleep(0.2)  # still counting when the query's error reaches verify
            finished.append(True)
            return counts(*args)

        def failing_query(*args):
            failed.set()
            self._out_of_memory()

        monkeypatch.setattr(verifier, "lattice_counts", slow_counts)
        monkeypatch.setattr(verifier, "coverage_counts", failing_query)
        code, report = self._verify_threads(tmp_path, capsys)
        assert finished == [True]
        self._assert_refused(code, capsys, report)


class TestUnderAnAddressSpaceLimit:
    """verify under ``ulimit -v`` exits 0 to 3 with at most one error line, never an abort in a query thread."""

    CHILD = "import sys\nfrom hexcover.cli import main\nsys.exit(main(sys.argv[1:]))\n"

    def test_verify_finishes_or_refuses_at_every_limit(self, tmp_path):
        import resource

        sensors = tmp_path / "sensors.csv"
        assert run(["plan", "--layers", "40", "--coverage", "3", "--radius", "10", "--output", str(sensors)]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # The l = 40 plan needs about 0.4 GB; from 330 000 to 380 000 KB a
        # second query thread used to die in glibc ("cannot allocate memory
        # for thread-local data") with no exit code of verify's own.
        for kilobytes in (300_000, 330_000, 350_000, 380_000):
            def limit(size=kilobytes * 1024):
                resource.setrlimit(resource.RLIMIT_AS, (size, size))

            child = subprocess.run(
                [sys.executable, "-c", self.CHILD, "verify", "--input", str(sensors)],
                capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300, preexec_fn=limit,
            )
            assert 0 <= child.returncode <= 3, (kilobytes, child.returncode, child.stderr[-400:])
            assert "Traceback" not in child.stderr, kilobytes
            if child.returncode == 2:
                assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1, child.stderr[-400:]


class TestVerify:
    def _plan(self, tmp_path, *, layers, coverage):
        out = tmp_path / "sensors.csv"
        assert run(["plan", "--layers", str(layers), "--coverage", str(coverage),
                    "--output", str(out)]) == 0
        return out

    def test_pass_at_recorded_target(self, tmp_path, capsys):
        out = self._plan(tmp_path, layers=2, coverage=3)
        code = run(["verify", "--input", str(out), "--mc-samples", "1000",
                    "--output", str(tmp_path / "report.json")])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["min_coverage"] >= 3

    def test_fail_above_actual_coverage(self, tmp_path):
        out = self._plan(tmp_path, layers=2, coverage=3)
        code = run(["verify", "--input", str(out), "--coverage", "4",
                    "--mc-samples", "1000"])
        assert code == 1

    def test_empty_file_fails_target_one(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = run(["verify", "--input", str(empty), "--coverage", "1",
                    "--mc-samples", "100"])
        assert code == 1

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n")
        code = run(["verify", "--input", str(bad)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "# meta: tool=hexcover l=x\n",
            "# meta: tool=hexcover l=0\n",
            "# meta: tool=hexcover r=nan\n",
            "# meta: tool=hexcover l=1\nx,y,provenance,hexagon,strategy\nnan,nan,center,0,proposed\n",
        ],
        ids=["l=x", "l=0", "r=nan", "nan-row"],
    )
    def test_bad_file_values_are_usage_errors(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = run(["verify", "--input", str(bad), "--mc-samples", "10"])
        assert code == 2
        line = 3 if "nan,nan" in text else 1
        assert f"line {line}" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        code = run(["verify", "--input", str(tmp_path / "nope.csv")])
        assert code == 2

    def test_fail_fast_flag(self, tmp_path):
        out = self._plan(tmp_path, layers=1, coverage=1)
        code = run(["verify", "--input", str(out), "--coverage", "5",
                    "--mc-samples", "100", "--fail-fast"])
        assert code == 1

    def test_flag_overrides_shrink_the_region(self, tmp_path):
        # verifying an l=1 plan against an l=2 region must fail: the outer
        # ring has no sensors at all
        out = self._plan(tmp_path, layers=1, coverage=1)
        code = run(["verify", "--input", str(out), "--layers", "2",
                    "--mc-samples", "500"])
        assert code == 1

    @pytest.mark.parametrize(
        "meta,flags",
        [
            ("l=1 r=1", ["--grid-step", "1e-6"]),
            ("l=1 r=1", ["--mc-samples", "1000000000000"]),
            ("l=1000000 r=1", ["--mc-samples", "0"]),
            ("l=" + "9" * 400 + " r=1", ["--mc-samples", "0"]),
            ("l=1 r=1e200", ["--mc-samples", "0"]),
            ("l=1 r=5e-324", ["--mc-samples", "0"]),
            ("l=1 r=1", ["--layers", "1000000"]),
        ],
        ids=["grid-step", "mc-samples", "layers", "400-digit-layers", "huge-radius", "tiny-radius", "layers-flag"],
    )
    def test_oversized_runs_are_refused_before_sampling(self, tmp_path, capsys, monkeypatch, meta, flags):
        sensors = tmp_path / "sensors.csv"
        sensors.write_text(f"# meta: tool=hexcover k=1 {meta}\n0,0,center,0,proposed\n")
        # refused from the meta pairs and the flags, before any data row is split
        monkeypatch.setattr(sensor_io, "_columns", lambda data: pytest.fail("a refused file reached the row split"))
        started = time.perf_counter()
        code = run(["verify", "--input", str(sensors), *flags])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_flags_win_over_an_oversized_meta(self, tmp_path):
        sensors = tmp_path / "sensors.csv"
        sensors.write_text("# meta: tool=hexcover k=1 l=1000000 r=1\n0,0,center,0,proposed\n")
        assert run(["verify", "--input", str(sensors), "--layers", "1", "--mc-samples", "100"]) == 0

    def test_non_utf8_bytes_are_usage_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# meta: l=1\n0,0,center,0,proposed\n\xff\xfe,0,center,0,proposed\n")
        assert run(["verify", "--input", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_grid_step_is_usage_error(self, tmp_path):
        out = self._plan(tmp_path, layers=1, coverage=1)
        with pytest.raises(SystemExit) as info:
            run(["verify", "--input", str(out), "--grid-step", "0"])
        assert info.value.code == 2


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--radius", "nan"],
            ["plan", "--radius", "inf"],
            ["plan", "--layers", "2.5"],
            ["plan", "--strategy", "benchmark", "--seed", "-1"],
            ["compare", "--radius", "inf"],
            ["compare", "--coverage", "0"],
            ["verify", "--input", "sensors.csv", "--grid-step", "nan"],
            ["verify", "--input", "sensors.csv", "--radius", "-inf"],
            ["verify", "--input", "sensors.csv", "--mc-samples", "-1"],
            ["verify", "--input", "sensors.csv", "--seed", "-1"],
            ["sweep", "--r-step", "0"],
            ["sweep", "--r-start", "0"],
            ["sweep", "--k-min", "0"],
        ],
        ids=" ".join,
    )
    def test_rejected_at_parse_time(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 2
        assert "expected" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestExtremeNumbers:
    """Numbers beyond what plan, verify and compare can carry are usage errors, not exit 1."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["plan", "--radius", "1e-200"], "--radius"),
            (["plan", "--radius", "1e200"], "--radius"),
            (["plan", "--strategy", "benchmark", "--offset-x", "1e400"], "--offset-x"),
            (["plan", "--strategy", "benchmark", "--offset-y", "1e400"], "--offset-y"),
            (["compare", "--radius", "1e-200"], "--radius"),
            (["compare", "--radius", "1e-160", "--format", "json"], "--radius"),
            (["compare", "--coverage", "1" + "0" * 400], "--coverage"),
            (["compare", "--radius", "1e160"], "--coverage and --radius"),  # 3 sqrt(3) r^2 overflows: density 0
        ],
        ids=["plan-tiny-radius", "plan-huge-radius", "plan-offset-x", "plan-offset-y", "compare-tiny-radius",
             "compare-infinite-density", "compare-huge-coverage", "compare-overflowing-area"],
    )
    def test_refused_with_the_flag_named(self, argv, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        try:
            code = run(argv)
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        assert code == 2
        assert flag in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_compare_prints_densities_just_below_the_area_overflow(self, capsys):
        # 3 sqrt(3) r^2 stays finite up to r ~ 5.9e153 (compare-overflowing-area above is refused)
        assert run(["compare", "--radius", "5e153", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["proposed_density"] > 0.0 and payload["benchmark_density"] > 0.0

    @pytest.mark.parametrize("radius", ["1e-150", "1e150"])
    def test_plans_at_the_radius_limits_verify(self, radius, tmp_path):
        # one layer: its vertices reach the radius, which verify still reads
        out = tmp_path / "sensors.csv"
        assert run(["plan", "--radius", radius, "--coverage", "3", "--output", str(out)]) == 0
        assert run(["verify", "--input", str(out), "--mc-samples", "100"]) == 0

    # At l = 2 the patch reaches 5r/2 along x and 3 sqrt(3) r/2 along y:
    # both beyond 1e150 at r = 1e150, only the y extent at r = 3.9e149.
    @pytest.mark.parametrize("radius", ["1e150", "3.9e149"])
    @pytest.mark.parametrize("strategy", ["proposed", "benchmark"])
    def test_patches_reaching_beyond_the_limit_are_refused(self, strategy, radius, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["plan", "--strategy", strategy, "--radius", radius, "--layers", "2"]) == 2
        err = capsys.readouterr().err
        assert "--radius" in err and "--layers" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("strategy, verdict", [("proposed", 0), ("benchmark", 1)])
    def test_patches_just_inside_the_limit_verify(self, strategy, verdict, tmp_path):
        # the y extent is 0.987e150 at r = 3.8e149
        out = tmp_path / "sensors.csv"
        assert run(["plan", "--strategy", strategy, "--radius", "3.8e149", "--layers", "2", "--coverage", "3",
                    "--output", str(out)]) == 0
        assert run(["verify", "--input", str(out), "--mc-samples", "100"]) == verdict

    def test_offsets_at_the_limit_plan(self, tmp_path, monkeypatch, capsys):
        # x offsets are reduced modulo the tiling's x-period, y offsets stay below OFFSET_Y_BOUND = 4096 sides
        plan = ["plan", "--strategy", "benchmark", "--layers", "3", "--offset-x=1e150"]
        assert run([*plan, "--offset-y=-4095.999999999999", "--output", str(tmp_path / "window.csv")]) == 0

        def widened(model, offset):
            tiles, _, _ = near_tiles(model, offset)
            xs, ys, rows, columns = benchmark._tile_lattice(tiles, benchmark._tile_frame(offset), model.side)
            return tiles[benchmark.region_mask(model, xs, ys)[rows[:, 1:], columns[:, 1:]].all(axis=1)]

        monkeypatch.setattr(benchmark, "small_hexagon_centers", widened)
        assert run([*plan, "--offset-y=-4095.999999999999", "--output", str(tmp_path / "widened.csv")]) == 0
        window = (tmp_path / "window.csv").read_bytes()
        assert window == (tmp_path / "widened.csv").read_bytes()
        assert window.count(b",random,") == 57  # a square of labels around the small origin kept none
        capsys.readouterr()
        assert run([*plan, "--offset-y=-4096", "--output", str(tmp_path / "past.csv")]) == 2
        captured = capsys.readouterr()
        assert "--offset-y" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "past.csv").exists()


class TestCompare:
    def test_gap_example(self, capsys):
        assert run(["compare", "--layers", "1", "--coverage", "2", "--radius", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "gap=8" in stdout

    def test_k1_gap_zero(self, capsys):
        assert run(["compare", "--layers", "1", "--coverage", "1"]) == 0
        assert "gap=0" in capsys.readouterr().out

    def test_large_ratio_json(self, capsys):
        assert run(["compare", "--layers", "1000", "--coverage", "1000",
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["count_ratio"] - 0.6) < 0.01
        assert payload["gap"] == payload["benchmark_count"] - payload["proposed_count"]


class TestSweep:
    def test_writes_five_figures(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert run(["sweep", "--output", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv"]
        for name in files:
            lines = (out / name).read_text().splitlines()
            assert lines[0].startswith("# meta:")
            assert "," in lines[1]

    def test_fig8_gap_nonnegative(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["sweep", "--output", str(out)]) == 0
        lines = (out / "fig8.csv").read_text().splitlines()
        header = lines[1].split(",")
        gap_column = header.index("gap")
        for line in lines[2:]:
            assert int(line.split(",")[gap_column]) >= 0

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run(["sweep", "--output", str(first)]) == 0
        assert run(["sweep", "--output", str(second)]) == 0
        for name in ("fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_unwritable_path_is_usage_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run(["sweep", "--output", str(blocker / "figs")])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--r-stop", "0.5"], ["--k-min", "3", "--k-max", "2"]])
    def test_empty_range_is_usage_error(self, tmp_path, flags):
        out = tmp_path / "figs"
        assert run(["sweep", "--output", str(out), *flags]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            # 1.0 + 1e-300 == 1.0, so only the row limit ends the radius loop
            (["--r-step", "1e-300"], "--r-step"),
            (["--k-max", "1000000000000"], "--k-max"),
            # fig6 would have 10^7 rows and fig8 10^8
            (["--l-max", "10000000"], "--l-max"),
            # len() of a range past sys.maxsize raises an OverflowError that names no flag
            (["--l-max", "1" + "0" * 20], "--l-min and --l-max"),
            (["--k-max", "1" + "0" * 20], "--k-min and --k-max"),
        ],
        ids=["tiny-r-step", "huge-k-max", "huge-l-max", "l-max-past-index-limit", "k-max-past-index-limit"],
    )
    def test_oversized_sweeps_are_refused_before_writing(self, tmp_path, capsys, flags, named):
        out = tmp_path / "figs"
        started = time.perf_counter()
        code = run(["sweep", "--output", str(out), *flags])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--r-start", "1e-200", "--r-stop", "1e-200"], "--r-start and --r-stop"),  # r * r underflows to 0
            (["--r-start", "1e-160", "--r-stop", "1e-160"], "--r-start and --r-stop"),  # densities overflow to inf
            (["--r-start", "6e153", "--r-stop", "6.02e153", "--r-step", "1e151"], "--r-start and --r-stop"),  # 3 sqrt(3) r^2 overflows
            (["--k-min", "1" + "0" * 310, "--k-max", "1" + "0" * 310], "--k-min and --k-max"),  # k beyond floats
            (["--l-min", "1" + "0" * 200, "--l-max", "1" + "0" * 200], "--l-min and --l-max"),  # counts beyond floats
        ],
        ids=["r-squared-zero", "density-inf", "r-squared-inf", "k-beyond-float", "l-counts-beyond-float"],
    )
    def test_values_beyond_floats_are_usage_errors(self, tmp_path, capsys, flags, named):
        out = tmp_path / "figs"
        assert run(["sweep", "--output", str(out), *flags]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_range_overrides(self, tmp_path):
        out = tmp_path / "figs"
        assert run(["sweep", "--output", str(out), "--r-stop", "5", "--k-max", "4",
                    "--l-max", "3"]) == 0
        fig4 = (out / "fig4.csv").read_text().splitlines()
        assert len(fig4) == 2 + 5
        fig8 = (out / "fig8.csv").read_text().splitlines()
        assert len(fig8) == 2 + 4 * 3


class TestPlanVerifyPipeline:
    def test_benchmark_file_verifies_against_its_meta(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["plan", "--strategy", "benchmark", "--layers", "1", "--coverage", "2",
                    "--seed", "3", "--output", str(out)]) == 0
        # random placement covers the small tiles but not the patch fringe, so
        # this is expected to fail the target honestly rather than error
        code = run(["verify", "--input", str(out), "--mc-samples", "500"])
        assert code in (0, 1)


class TestClosedStdout:
    """A reader that closes stdout before the summary line changes neither the files written nor the exit code."""

    CHILD = "import sys\nfrom hexcover.cli import main\nsys.exit(main(sys.argv[1:]))\n"

    def _closed_stdout(self, argv, buffered, tmp_path):
        """Exit code and stderr of a fresh interpreter running ``main(argv)`` into a pipe with no reader."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:  # each print writes at once, so print itself meets the closed pipe
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            child = subprocess.run([sys.executable, "-c", self.CHILD, *argv], stdout=write, stderr=subprocess.PIPE,
                                   text=True, env=env, cwd=tmp_path, timeout=300)
        finally:
            os.close(write)
        return child.returncode, child.stderr

    @pytest.mark.parametrize("buffered", [False, True])
    def test_plan_and_verify_keep_their_exit_codes(self, tmp_path, capsys, buffered):
        plans = {"proposed": ["--layers", "2", "--coverage", "3"],
                 "scheme": ["--strategy", "benchmark", "--layers", "2", "--coverage", "3", "--seed", "7"]}
        for name, flags in plans.items():
            expected, written = tmp_path / f"{name}-expected.csv", tmp_path / f"{name}.csv"
            assert run(["plan", *flags, "--output", str(expected)]) == 0
            assert self._closed_stdout(["plan", *flags, "--output", str(written)], buffered, tmp_path) == (0, "")
            assert written.read_bytes() == expected.read_bytes()
        for name, verdict in (("proposed", 0), ("scheme", 1)):
            sensors = str(tmp_path / f"{name}.csv")
            expected, written = tmp_path / f"{name}-expected.json", tmp_path / f"{name}.json"
            assert run(["verify", "--input", sensors, "--mc-samples", "1000", "--output", str(expected)]) == verdict
            argv = ["verify", "--input", sensors, "--mc-samples", "1000", "--output", str(written)]
            assert self._closed_stdout(argv, buffered, tmp_path) == (verdict, "")
            assert written.read_bytes() == expected.read_bytes()
        capsys.readouterr()


class TestScipyIsLoadedByVerifyOnly:
    """numpy is loaded by the first plan or verify and scipy by verify's first KD-tree build; nothing else needs them.

    Nor does anything before the first plan load ``dataclasses`` or ``inspect``.
    A site-packages ``.pth`` file may import modules at start-up, so a module
    counts as loaded only if it was not loaded before the child's first line.
    """

    CHILD = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io, json\n"
        "if sys.argv[1] != 'with-both':\n"
        "    sys.modules[sys.argv[1].removeprefix('without-')] = None\n"
        "def loaded():\n"
        "    return [sys.modules.get(name) is not None and name not in before\n"
        "            for name in ('numpy', 'scipy', 'dataclasses', 'inspect')]\n"
        "import hexcover, hexcover.cli\n"
        "hexcover.cli.build_parser()\n"
        "steps = [['import', 0, *loaded(), '']]\n"
        "for name, argv in json.loads(sys.argv[2]):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = hexcover.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    steps.append([name, code, *loaded(), err.getvalue()])\n"
        "print(json.dumps(steps))\n"
    )

    def _child(self, mode: str, tmp_path):
        """[step, exit code, numpy, scipy, dataclasses and inspect loaded, stderr] after each step of a fresh interpreter.

        Each step's stderr is captured on its own; whatever the child writes
        outside the steps (at import, say) must be nothing.
        """
        sensors = str(tmp_path / "sensors.csv")
        runs = [
            ["compare", ["compare", "--layers", "3", "--coverage", "5", "--radius", "10"]],
            ["sweep", ["sweep", "--output", str(tmp_path / "figures"), "--l-max", "3", "--k-max", "3", "--r-stop", "3"]],
            ["version", ["--version"]],
            ["usage", ["plan", "--layers", "0"]],
            ["plan", ["plan", "--layers", "2", "--coverage", "3", "--output", sensors]],
            ["verify", ["verify", "--input", sensors, "--mc-samples", "100"]],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", self.CHILD, mode, json.dumps(runs)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert child.stderr == ""
        return json.loads(child.stdout.splitlines()[-1])

    @staticmethod
    def _assert_stderr(steps, errors: dict[str, str]) -> None:
        """Only the usage step and the steps in ``errors`` write to stderr.

        The usage step writes argparse's usage and error lines; a step in
        ``errors`` writes one ``error:`` line naming the module it maps to.
        """
        for name, *_, stderr in steps:
            if name == "usage":
                assert stderr.startswith("usage: hexcover plan ") and "error: argument --layers" in stderr
            elif name in errors:
                assert stderr.startswith("error: ") and stderr.count("\n") == 1 and errors[name] in stderr
            else:
                assert stderr == "", name

    def test_only_verify_imports_scipy(self, tmp_path):
        steps = self._child("with-both", tmp_path)
        # the numpy-backed modules define dataclasses, and dataclasses imports inspect
        assert [step[:6] for step in steps] == [
            ["import", 0, False, False, False, False], ["compare", 0, False, False, False, False],
            ["sweep", 0, False, False, False, False], ["version", 0, False, False, False, False],
            ["usage", 2, False, False, False, False],
            ["plan", 0, True, False, True, True], ["verify", 0, True, True, True, True],
        ]
        self._assert_stderr(steps, {})

    def test_verify_without_scipy_is_a_usage_error(self, tmp_path):
        steps = self._child("without-scipy", tmp_path)
        assert [step[:2] for step in steps] == [
            ["import", 0], ["compare", 0], ["sweep", 0], ["version", 0], ["usage", 2], ["plan", 0], ["verify", 2],
        ]
        self._assert_stderr(steps, {"verify": "scipy"})

    def test_plan_and_verify_without_numpy_are_usage_errors(self, tmp_path):
        steps = self._child("without-numpy", tmp_path)
        assert [step[:2] for step in steps] == [
            ["import", 0], ["compare", 0], ["sweep", 0], ["version", 0], ["usage", 2], ["plan", 2], ["verify", 2],
        ]
        self._assert_stderr(steps, {"plan": "numpy", "verify": "numpy"})
        assert not any("scipy" in stderr for *_, stderr in steps)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["figures"]

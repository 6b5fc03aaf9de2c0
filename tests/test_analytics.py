"""Tests for densities, ratios, and the figure tables."""

import math

import numpy as np
import pytest

from float_geometry import hexagon_area
from hexcover.analytics import (
    DEFAULT_KS,
    DEFAULT_LS,
    DEFAULT_RADII,
    FIGURE_IDS,
    MAX_ROWS,
    FigureTable,
    SweepSpec,
    count_ratio,
    density_benchmark,
    density_gain,
    density_proposed,
    density_ratio_limit,
    emit_figure_table,
    figure_csv_lines,
)
from hexcover.benchmark import benchmark_count
from hexcover.deployment import total_count

SQRT3 = math.sqrt(3.0)


class TestDensities:
    def test_proposed_examples(self):
        assert density_proposed(1, 1.0) == pytest.approx(2.0 / (3.0 * SQRT3), rel=1e-12)
        assert density_proposed(2, 10.0) == pytest.approx(8.0 / (3.0 * SQRT3 * 100.0), rel=1e-12)
        assert density_proposed(4, 1.0) == pytest.approx(20.0 / (3.0 * SQRT3), rel=1e-12)

    def test_benchmark_examples(self):
        assert density_benchmark(1, 1.0) == pytest.approx(8.0 / (3.0 * SQRT3), rel=1e-12)
        assert density_benchmark(2, 2.0) == pytest.approx(16.0 / (12.0 * SQRT3), rel=1e-12)

    def test_benchmark_to_proposed_ratio(self):
        for k in range(1, 20):
            ratio = density_benchmark(k, 3.0) / density_proposed(k, 3.0)
            assert ratio == pytest.approx(4.0 * k / (3.0 * k - 2.0), rel=1e-12)

    def test_gain_examples(self):
        assert density_gain(1, 1.0) == pytest.approx(6.0 / (3.0 * SQRT3), rel=1e-12)
        assert density_gain(7, 10.0) == pytest.approx(18.0 / (3.0 * SQRT3 * 100.0), rel=1e-12)

    def test_gain_identity_at_random_parameters(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            k = int(rng.integers(1, 60))
            r = float(rng.uniform(0.1, 80.0))
            gap = density_benchmark(k, r) - density_proposed(k, r)
            assert gap == pytest.approx(density_gain(k, r), rel=1e-12)
            assert gap > 0.0

    @pytest.mark.parametrize("density", [density_proposed, density_benchmark, density_gain])
    def test_an_infinite_area_overflows_instead_of_reading_zero(self, density):
        # 3 sqrt(3) r^2 overflows from r ~ 5.9e153, though the density at 1e160 is about 1e-320
        with pytest.raises(OverflowError):
            density(1, 1e160)
        assert density(1, 5e153) > 0.0

    def test_proposed_density_is_isolated_hexagon_density(self):
        # exactly the single-hexagon count divided by the hexagon area
        for k in range(1, 12):
            r = 2.5
            assert density_proposed(k, r) == pytest.approx(
                total_count(1, k) / hexagon_area(r), rel=1e-12
            )

    def test_patch_density_converges_to_shared_vertex_limit(self):
        # per-hexagon cost in a large patch: vertices are shared three ways,
        # so the limit is 1, 2, or 3(k-2) sensors per hexagon for k = 1, 2, >=3
        # (below the isolated-hexagon figure 3k-2 that density_proposed uses)
        r = 1.0
        area = hexagon_area(r)
        for k in (1, 2, 3, 5, 10):
            effective = 1 if k == 1 else (2 if k == 2 else 3 * (k - 2))
            layers = 50
            hexagons = 1 + 3 * layers * (layers - 1)
            empirical = total_count(layers, k) / (hexagons * area)
            assert empirical == pytest.approx(effective / area, rel=0.02)


class TestRatioLimits:
    def test_probe_values(self):
        assert density_ratio_limit(10) == pytest.approx(0.7, rel=1e-12)
        assert density_ratio_limit(1) == pytest.approx(0.25, rel=1e-12)
        assert abs(density_ratio_limit(10**6) - 0.75) < 5e-7

    def test_count_ratio_limit(self):
        assert abs(count_ratio(1000, 1000) - 0.6) < 0.01


class TestSweepSpec:
    def test_values_inclusive(self):
        spec = SweepSpec(1, 5, 1)
        assert spec.values() == [1, 2, 3, 4, 5]

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            SweepSpec(1, 5, 0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SweepSpec(5, 1, 1)

    def test_values_stop_at_the_row_limit(self):
        assert len(SweepSpec(1.0, float(MAX_ROWS), 1.0).values()) == MAX_ROWS
        with pytest.raises(ValueError, match="--r-step"):
            SweepSpec(1.0, float(MAX_ROWS + 1), 1.0).values()

    def test_step_below_float_spacing_ends(self):
        # 1.0 + 1e-300 == 1.0: only the row limit ends this loop
        with pytest.raises(ValueError, match="rows per figure"):
            SweepSpec(1.0, 2.0, 1e-300).values()


class TestFigureTables:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            emit_figure_table("fig9")

    @pytest.mark.parametrize(
        "figure_id, ks, ls, flags",
        [
            ("fig5", range(1, MAX_ROWS + 2), DEFAULT_LS, "--k-min and --k-max"),
            ("fig7", range(1, 10**12), DEFAULT_LS, "--k-min and --k-max"),
            ("fig6", DEFAULT_KS, range(1, 10**7), "--l-min and --l-max"),
            ("fig6", DEFAULT_KS, range(1, 10**20), "--l-min and --l-max"),  # len() would overflow
            ("fig8", range(1, 1001), range(1, MAX_ROWS // 1000 + 2), "--k-min, --k-max, --l-min and --l-max"),
            ("fig5", range(3, 3), DEFAULT_LS, "empty sweep range: --k-min and --k-max"),
            ("fig8", DEFAULT_KS, range(5, 4), "empty sweep range"),
        ],
    )
    def test_oversized_or_empty_ranges_rejected(self, figure_id, ks, ls, flags):
        with pytest.raises(ValueError, match=flags):
            emit_figure_table(figure_id, DEFAULT_RADII, ks, ls)

    def test_ranges_at_the_limit_build(self):
        grid = emit_figure_table("fig8", DEFAULT_RADII, range(1, 1001), range(1, MAX_ROWS // 1000 + 1))
        assert len(grid.columns["gap"]) == MAX_ROWS
        layers = emit_figure_table("fig6", DEFAULT_RADII, DEFAULT_KS, range(1, MAX_ROWS + 1))
        assert len(layers.columns["l"]) == MAX_ROWS

    def test_all_defaults_build(self):
        for figure_id in FIGURE_IDS:
            table = emit_figure_table(figure_id)
            assert table.figure_id == figure_id
            lengths = {len(col) for col in table.columns.values()}
            assert len(lengths) == 1

    def test_fig6_values(self):
        table = emit_figure_table("fig6")
        row = table.columns["l"].index(2)
        assert table.columns["proposed_k3"][row] == 31
        assert table.columns["cga_k3"][row] == 72

    def test_fig5_values(self):
        table = emit_figure_table("fig5")
        row = table.columns["k"].index(2)
        assert table.columns["proposed_r10"][row] == pytest.approx(
            density_proposed(2, 10.0), rel=1e-12
        )
        assert table.columns["cga_r20"][row] == pytest.approx(
            density_benchmark(2, 20.0), rel=1e-12
        )

    def test_fig7_values(self):
        table = emit_figure_table("fig7")
        row = table.columns["k"].index(5)
        assert table.columns["proposed_l3"][row] == total_count(3, 5)
        assert table.columns["cga_l5"][row] == benchmark_count(5, 5)

    def test_fig4_decreases_with_radius(self):
        table = emit_figure_table("fig4")
        for name, series in table.columns.items():
            if name == "r":
                continue
            assert all(a > b for a, b in zip(series, series[1:]))

    def test_fig8_gap_nonnegative_and_zero_at_k1(self):
        table = emit_figure_table("fig8")
        for k, l, gap in zip(table.columns["k"], table.columns["l"], table.columns["gap"]):
            assert gap >= 0
            if k == 1:
                assert gap == 0

    def test_fig8_matches_direct_formulas(self):
        table = emit_figure_table("fig8")
        for k, l, n, n_ex in zip(
            table.columns["k"], table.columns["l"], table.columns["proposed"], table.columns["cga"]
        ):
            assert n == total_count(l, k)
            assert n_ex == benchmark_count(l, k)

    def test_fig8_gap_linear_in_k_on_general_branch(self):
        # both schemes grow by a constant per coverage step once k >= 3, so
        # second differences along k vanish exactly there; the k = 1 and k = 2
        # special cases break exact linearity across the seam
        table = emit_figure_table("fig8")
        gap = {}
        for k, l, value in zip(table.columns["k"], table.columns["l"], table.columns["gap"]):
            gap[(k, l)] = value
        ks = sorted({k for k, _ in gap})
        ls = sorted({l for _, l in gap})
        for l in ls:
            for k in ks:
                if k >= 3 and k + 2 <= max(ks):
                    second = gap[(k + 2, l)] - 2 * gap[(k + 1, l)] + gap[(k, l)]
                    assert second == 0

    def test_fig8_gap_quadratic_in_l_everywhere(self):
        table = emit_figure_table("fig8")
        gap = {}
        for k, l, value in zip(table.columns["k"], table.columns["l"], table.columns["gap"]):
            gap[(k, l)] = value
        ks = sorted({k for k, _ in gap})
        ls = sorted({l for _, l in gap})
        for k in ks:
            for l in ls:
                if l + 3 <= max(ls):
                    third = (
                        gap[(k, l + 3)]
                        - 3 * gap[(k, l + 2)]
                        + 3 * gap[(k, l + 1)]
                        - gap[(k, l)]
                    )
                    assert third == 0

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FigureTable("fig4", {"a": [1, 2], "b": [1]})


class TestCsvEmission:
    def test_lines_are_deterministic(self):
        table = emit_figure_table("fig5")
        assert figure_csv_lines(table, "0.1.0") == figure_csv_lines(table, "0.1.0")

    def test_header_and_meta(self):
        lines = figure_csv_lines(emit_figure_table("fig4"), "0.1.0")
        assert lines[0].startswith("# meta: tool=hexcover")
        assert lines[1].split(",")[0] == "r"
        assert len(lines) == 2 + len(DEFAULT_RADII.values())

    def test_floats_use_six_significant_digits(self):
        lines = figure_csv_lines(emit_figure_table("fig4"), "0.1.0")
        first_density = lines[2].split(",")[1]
        assert first_density == format(density_proposed(2, 1.0), ".6g")

"""The paper's closed forms: counts, densities, asymptotic ratios and the figure-table sweeps.

All series here come from the closed forms; nothing is sampled.  This is
the package's one home for them: the hexagon, vertex and sensor counts, the
per-kind counts of the proposed placement, the comparison scheme's counts,
``InvariantViolation`` and ``FLOAT_LIMIT`` are defined here and nowhere else,
and no other module re-exports them.  The module runs on the standard
library alone, and builds its records from plain tuples, so ``compare``,
``sweep`` and the CLI's argument checks load neither numpy nor
``dataclasses``.

A sweep is set by the three ranges ``hexcover sweep`` exposes: radii, k and
l.  ``SERIES`` holds what each of fig4-fig7 keeps fixed and which pair of
closed forms it draws; fig8 is the k x l grid.  The default ranges are tool
defaults (the source material fixes none), so the CSV meta line marks them
as such.
"""

from __future__ import annotations

import math
from collections import namedtuple


class InvariantViolation(RuntimeError):
    """An internal consistency check failed (not a user error)."""


# Largest magnitude of a sensor coordinate, a radius or a reciprocal radius
# that verify accepts: squared distances then stay finite normal floats,
# which the disk test and the KD-tree compare.
FLOAT_LIMIT = 1e150


def hexagon_count(layers: int) -> int:
    """Closed-form hexagon count of a ``layers``-ring patch: 1 + 3l(l-1)."""
    return 1 + 3 * layers * (layers - 1)


def vertex_count(layers: int) -> int:
    """Closed-form distinct-vertex count of a ``layers``-ring patch: 6 l^2."""
    return 6 * layers * layers


def per_hexagon_count(k: int) -> int:
    """Sensors needed for k-coverage of one hexagon on its own: 3k - 2."""
    return 3 * k - 2


def total_count(layers: int, k: int) -> int:
    """Closed-form sensor count for the whole patch."""
    if k == 1:
        return hexagon_count(layers)
    if k == 2:
        return 6 * layers * layers - 3 * layers + 1
    return (
        9 * (k - 2) * layers * layers
        - 3 * (3 * k - 8) * layers
        + (3 * k - 8)
    )


def count_by_kind(layers: int, k: int) -> dict[str, int]:
    """Closed-form sensor counts by provenance kind; they sum to ``total_count``."""
    hexagons = hexagon_count(layers)
    return {
        "center": hexagons,
        "vertex": 3 * layers * layers * min(k - 1, 2),  # no class at k = 1, one at k = 2, both from k = 3
        "segment": 3 * max(k - 3, 0) * hexagons,
    }


def small_hexagon_formula_count(layers: int) -> int:
    """The printed tile count for the comparison scheme: 15 l^2 - 27 l + 18."""
    return 15 * layers * layers - 27 * layers + 18


def benchmark_count(layers: int, k: int) -> int:
    """Closed-form sensor count of the comparison scheme."""
    if k == 1:
        return hexagon_count(layers)
    return k * small_hexagon_formula_count(layers)


def count_gap(layers: int, k: int) -> int:
    """benchmark_count minus the proposed strategy's total_count (never negative)."""
    gap = benchmark_count(layers, k) - total_count(layers, k)
    if gap < 0:
        raise InvariantViolation(
            f"benchmark count fell below the proposed count at l={layers}, k={k}"
        )
    return gap


_DENOM = 3.0 * math.sqrt(3.0)

FIGURE_IDS = ("fig4", "fig5", "fig6", "fig7", "fig8")


def _area(r: float) -> float:
    """3 sqrt(3) r^2; an OverflowError where it is infinite, which would read every density as 0."""
    if (area := _DENOM * r * r) == math.inf:
        raise OverflowError(f"3 sqrt(3) r^2 overflows at r = {r:g}")
    return area


def density_proposed(k: int, r: float) -> float:
    """Sensors per unit area of the proposed scheme: 2(3k-2) / (3 sqrt(3) r^2)."""
    return 2.0 * (3 * k - 2) / _area(r)


def density_benchmark(k: int, r: float) -> float:
    """Sensors per unit area of the comparison scheme: 8k / (3 sqrt(3) r^2)."""
    return 8.0 * k / _area(r)


def density_gain(k: int, r: float) -> float:
    """How much denser the comparison scheme is: (2k+4) / (3 sqrt(3) r^2)."""
    return (2.0 * k + 4.0) / _area(r)


def density_ratio_limit(k_probe: int) -> float:
    """proposed/benchmark density ratio at a probe coverage: (3k-2)/(4k) -> 3/4."""
    return (3.0 * k_probe - 2.0) / (4.0 * k_probe)


def count_ratio(layers: int, k: int) -> float:
    """proposed/benchmark sensor-count ratio for a finite patch (-> 3/5)."""
    return total_count(layers, k) / benchmark_count(layers, k)


# Rows per figure table.  A sweep builds all five tables before it writes any,
# and at most four can reach the limit together (a k range that long leaves
# fig8 one l, and the reverse).  With four full tables a sweep peaks at
# 670-870 bytes per row for the default magnitudes and 4.3-5.1 kB per row
# for ints near the float limit (counts of l ~ 1e152 or k ~ 1e300), so this
# caps it near 0.5 GB (tracemalloc, 10^4 and 10^5 rows).
MAX_ROWS = 100_000

NOTE = "axis ranges are tool defaults, not normative"


def finite(values, flags: str) -> list:
    """``values`` (a generator, say) as a list; a ValueError naming ``flags`` if one overflows or is not finite."""
    try:
        out = list(values)
        if all(math.isfinite(value) for value in out):
            return out
    except ArithmeticError:
        pass
    raise ValueError(f"{flags} give values beyond the float range")


def _check_rows(rows: int, flags: str) -> None:
    if rows == 0:
        raise ValueError(f"empty sweep range: {flags}")
    if rows > MAX_ROWS:
        raise ValueError(f"{flags} give {rows} rows per figure, above the limit of {MAX_ROWS}")


class SweepSpec(namedtuple("SweepSpec", "start stop step")):
    """The radius sweep: ``start`` to ``stop`` inclusive in steps of ``step``."""

    __slots__ = ()

    def __new__(cls, start: float, stop: float, step: float):
        if step <= 0:
            raise ValueError(f"sweep step must be positive, got {step}")
        if stop < start:
            raise ValueError("empty sweep range: --r-start and --r-stop")
        return super().__new__(cls, start, stop, step)

    def values(self) -> list[float]:
        """The radii by repeated addition, at most ``MAX_ROWS`` of them.

        The bound also ends a step too small to move the sum.
        """
        out = []
        value = self.start
        while value <= self.stop + 1e-9 * self.step:
            if len(out) == MAX_ROWS:
                raise ValueError(
                    f"--r-start, --r-stop and --r-step give more than {MAX_ROWS} rows per figure, the limit"
                )
            out.append(value)
            value += self.step
        return out


# Named numeric columns (a dict of equal-length lists) behind one figure.
FigureTable = namedtuple("FigureTable", "figure_id columns")


DEFAULT_RADII = SweepSpec(1.0, 30.0, 1.0)
DEFAULT_KS = range(1, 11)
DEFAULT_LS = range(1, 11)

# Figs. 4-7 each sweep one axis and draw the proposed and the comparison
# closed form at two values of one fixed parameter: (swept axis, fixed
# parameter, its values, proposed(x, value), comparison(x, value)).  A value
# beyond the float range can only come from the swept axis, named by its flags.
SERIES = {
    "fig4": ("r", "k", (2, 7), lambda r, k: density_proposed(k, r), lambda r, k: density_benchmark(k, r)),
    "fig5": ("k", "r", (10, 20), density_proposed, density_benchmark),
    "fig6": ("l", "k", (3, 10), total_count, benchmark_count),
    "fig7": ("k", "l", (3, 5), lambda k, l: total_count(l, k), lambda k, l: benchmark_count(l, k)),
}
AXIS_FLAGS = {"r": "--r-start and --r-stop", "k": "--k-min and --k-max", "l": "--l-min and --l-max"}


def emit_figure_table(
    figure_id: str,
    radii: SweepSpec = DEFAULT_RADII,
    ks: range = DEFAULT_KS,
    ls: range = DEFAULT_LS,
) -> FigureTable:
    """Evaluate the closed forms behind one figure over the swept ranges.

    fig4: density vs sensing radius, fig5: density vs coverage target, fig6:
    sensor counts vs layer count, fig7: sensor counts vs coverage target, each
    for both schemes at the two values ``SERIES`` fixes.  fig8: count gap
    (benchmark - proposed) over the (k, l) grid, k-major.

    Raises ``ValueError`` for an empty range, one above ``MAX_ROWS`` rows, or
    one whose values leave the float range, naming the flags that set it.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}, expected one of {FIGURE_IDS}")
    # len() of a range raises OverflowError past sys.maxsize, naming no flag.
    k_rows, l_rows = (max(0, -((values.start - values.stop) // values.step)) for values in (ks, ls))
    _check_rows(k_rows, AXIS_FLAGS["k"])
    _check_rows(l_rows, AXIS_FLAGS["l"])
    if figure_id == "fig8":
        flags = "--k-min, --k-max, --l-min and --l-max"
        _check_rows(k_rows * l_rows, flags)
        rows = [(k, l, total_count(l, k), benchmark_count(l, k)) for k in ks for l in ls]
        columns = {name: [row[i] for row in rows] for i, name in enumerate(("k", "l", "proposed", "cga"))}
        columns["gap"] = [cga - proposed for _, _, proposed, cga in rows]
        return FigureTable(figure_id, {name: finite(series, flags) for name, series in columns.items()})

    axis, fixed, values, proposed, comparison = SERIES[figure_id]
    xs = radii.values() if axis == "r" else list(ks if axis == "k" else ls)
    columns = {axis: xs}
    for value in values:
        columns[f"proposed_{fixed}{value}"] = finite((proposed(x, value) for x in xs), AXIS_FLAGS[axis])
        columns[f"cga_{fixed}{value}"] = finite((comparison(x, value) for x in xs), AXIS_FLAGS[axis])
    return FigureTable(figure_id, columns)


def format_column(series: list) -> list[str]:
    """CSV cells of one figure column: ``str`` of each value if all are ints, else ``.6g``."""
    kinds = set(map(type, series))
    if bool in kinds:
        raise TypeError("boolean in figure column")
    return list(map(str if kinds <= {int} else "{:.6g}".format, series))


def figure_csv_lines(table: FigureTable, version: str) -> list[str]:
    lines = [f"# meta: tool=hexcover version={version} figure={table.figure_id} note={NOTE}"]
    lines.append(",".join(table.columns))
    # strict: a ValueError, not a truncated table, if the columns differ in length
    lines.extend(map(",".join, zip(*map(format_column, table.columns.values()), strict=True)))
    return lines


def write_figure_csv(table: FigureTable, path, version: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(figure_csv_lines(table, version)) + "\n")

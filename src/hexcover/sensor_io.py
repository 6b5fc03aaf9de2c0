"""Sensor-file export and import (CSV and JSON).

Both formats carry the run parameters in a meta header so a file alone is
enough to rebuild the patch for verification.  Exports are byte-stable: the
sensor order is fixed by the placement contract and floats are printed with a
fixed format.  A CSV file loads back as a ``Deployment`` with the same
provenance and hexagon columns.

Files are written and read a column at a time: each distinct coordinate or
hexagon value is formatted once, and each distinct hexagon field text parsed
once.  A file the column reader rejects is read again row by row
(``_check_row``), which names its first bad line.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analytics import FLOAT_LIMIT, InvariantViolation
from .deployment import Deployment
from .tiling import build_solar_model, model_to_dict

CSV_HEADER = "x,y,provenance,hexagon,strategy"
SHARED = "shared"  # hexagon field of a shared vertex sensor (hexagon -1)
# Data rows ``read_sensors_csv`` splits into fields at a time: one string per
# field of 2**16 rows is about 20 MB besides the file's lines.
READ_CHUNK = 1 << 16
# Meta keys with a Deployment field of their own; the rest is Deployment.meta.
_FIELD_KEYS = ("tool", "version", "strategy", "r", "k", "l")


class SensorFileError(ValueError):
    """Malformed sensor file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _meta_pairs(deployment: Deployment) -> dict[str, str]:
    pairs = {
        "tool": "hexcover",
        "version": __version__,
        "strategy": deployment.strategy,
        "r": _fmt(deployment.r),
        "k": deployment.k,
        "l": deployment.model.layers,
        "seed": 0,
        **deployment.meta,
    }
    return {key: str(value) for key, value in pairs.items()}


def _texts(values: np.ndarray, spec: str) -> list[str]:
    """``format(value, spec)`` of each entry of a float64 or int64 column, once per distinct value.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own texts.
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    table = np.array(list(map(format, distinct.view(values.dtype).tolist(), itertools.repeat(spec))), dtype=object)
    return table[inverse].tolist()


def sensor_rows(deployment: Deployment) -> tuple[list[str], list[str], list[str], list[str], list[str]]:
    """The five CSV fields of every sensor as text, one list per column (x, y, provenance, hexagon, strategy)."""
    sensors, hexagon = deployment.sensors, deployment.hexagon.astype(np.int64, copy=False)
    hexagons = _texts(hexagon, "d")
    for shared in np.flatnonzero(hexagon < 0).tolist():
        hexagons[shared] = SHARED
    return (
        _texts(sensors[:, 0], ".12g"),
        _texts(sensors[:, 1], ".12g"),
        deployment.provenance.tolist(),
        hexagons,
        [deployment.strategy] * len(sensors),
    )


def write_sensors_csv(path, deployment) -> None:
    meta = " ".join(f"{key}={value}" for key, value in _meta_pairs(deployment).items())
    lines = ["# meta: " + meta, CSV_HEADER]
    lines.extend(map(",".join, zip(*sensor_rows(deployment))))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_sensors_json(path, deployment) -> None:
    payload = {
        "meta": _meta_pairs(deployment),
        "sensors": [
            {"x": float(x), "y": float(y), "provenance": prov, "hexagon": hexagon, "strategy": strategy}
            for x, y, prov, hexagon, strategy in zip(*sensor_rows(deployment))
        ],
        "model": model_to_dict(deployment.model),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


@dataclass(eq=False)
class SensorFile:
    """Parsed sensor file: meta pairs plus one column per field.

    ``sensors`` holds the (n, 2) coordinates, ``provenance`` and ``strategy``
    the fields' text as written, and ``hexagon`` the owning hexagon index,
    -1 for a shared vertex.  ``rows`` lists them as (x, y, provenance,
    hexagon, strategy) tuples.
    """

    meta: dict[str, str]
    sensors: np.ndarray
    provenance: list[str]
    hexagon: np.ndarray
    strategy: list[str]
    meta_line: int = 0  # line number of the (last) meta header, 0 if none

    @property
    def rows(self) -> list[tuple[float, float, str, int, str]]:
        return list(zip(*self.sensors.T.tolist(), self.provenance, self.hexagon.tolist(), self.strategy))


def _hexagon_index(text: str) -> int:
    """The hexagon field's index, -1 for ``shared``; ValueError unless it is that or a decimal below 10**18."""
    hexagon = text.strip()
    if hexagon == SHARED:
        return -1
    if not (hexagon.isdecimal() and len(hexagon) <= 18):
        raise ValueError(text)
    return int(hexagon)


def _check_row(number: int, line: str) -> None:
    """Raise the SensorFileError of a malformed data row: the row-by-row form of ``_columns``' rules."""
    parts = line.split(",")
    if len(parts) != 5:
        raise SensorFileError(number, f"expected 5 columns, got {len(parts)}")
    try:
        x = float(parts[0])
        y = float(parts[1])
    except ValueError as exc:
        raise SensorFileError(number, f"bad coordinate: {exc}") from None
    if not (abs(x) <= FLOAT_LIMIT and abs(y) <= FLOAT_LIMIT):
        raise SensorFileError(number, f"coordinate not finite or beyond {FLOAT_LIMIT:g}: {parts[0]},{parts[1]}")
    try:
        _hexagon_index(parts[3])
    except ValueError:
        raise SensorFileError(number, f"hexagon must be {SHARED!r} or an index below 10**18, got {parts[3]!r}") from None


def _hexagon_indices(texts: list[str]) -> list[int]:
    """``_hexagon_index`` of each text, once per distinct text."""
    table = dict.fromkeys(texts)
    for text in table:
        table[text] = _hexagon_index(text)
    return list(map(table.__getitem__, texts))


def _columns(data: list[str]) -> tuple[np.ndarray, list[str], np.ndarray, list[str]]:
    """(sensors, provenance, hexagon, strategy) of the data rows; ValueError if a row breaks one of ``_check_row``'s rules.

    The rows are split ``READ_CHUNK`` at a time, so only one chunk's
    coordinate and hexagon texts exist at once.
    """
    sensors = np.empty((len(data), 2))
    hexagon = np.empty(len(data), dtype=np.int64)
    provenance: list[str] = []
    strategy: list[str] = []
    for start in range(0, len(data), READ_CHUNK):
        rows = data[start : start + READ_CHUNK]
        n = len(rows)
        # Rows joined by a "\n" field: only a separator can be that field, so
        # they sit every sixth field exactly when every row has 5 fields.
        fields = ",\n,".join(rows).split(",")
        if len(fields) != 6 * n - 1 or fields[5::6].count("\n") != n - 1:
            raise ValueError("a row without exactly 5 fields")
        chunk = slice(start, start + n)
        sensors[chunk, 0] = list(map(float, fields[0::6]))
        sensors[chunk, 1] = list(map(float, fields[1::6]))
        hexagon[chunk] = _hexagon_indices(fields[3::6])
        provenance += fields[2::6]
        strategy += fields[4::6]
    if not (np.abs(sensors) <= FLOAT_LIMIT).all():
        raise ValueError("a coordinate not finite or beyond FLOAT_LIMIT")
    return sensors, provenance, hexagon, strategy


def read_sensors_csv(path, admit=None) -> SensorFile:
    """Parse a sensor CSV a column at a time; a malformed row raises SensorFileError naming the first bad line.

    ``admit(meta, meta_line)``, when given, is called once the meta pairs are
    known and before any data row is split, so a caller can refuse a file
    from its header alone; whatever it raises propagates.
    """
    # Bytes that are not UTF-8 become U+FFFD: text fields keep it, and in a
    # number or an index it fails like any other bad field, with its line.
    # The whole text is read in text mode, so \r\n and \r end lines as \n does.
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        lines = list(map(str.strip, handle.read().split("\n")))
    meta: dict[str, str] = {}
    meta_line = 0
    data = []
    for number, line in enumerate(lines, start=1):
        if line[:1] == "#":
            body = line.lstrip("#").strip()
            if body.startswith("meta:"):
                meta_line = number
                for item in body[len("meta:"):].split():
                    if "=" in item:
                        key, value = item.split("=", 1)
                        meta[key] = value
        elif line and line != CSV_HEADER:
            data.append(line)
    if admit is not None:
        admit(meta, meta_line)
    try:
        columns = _columns(data)
    except ValueError:  # the first malformed row, found row by row
        for number, line in enumerate(lines, start=1):
            if line and line[0] != "#" and line != CSV_HEADER:
                _check_row(number, line)
        raise InvariantViolation("the column reader rejected a sensor file that every row check accepts") from None
    return SensorFile(meta, *columns, meta_line=meta_line)


def deployment_parameters(
    meta: dict[str, str],
    meta_line: int,
    layers: int | None = None,
    radius: float | None = None,
    k: int | None = None,
) -> tuple[int, float, int]:
    """(layers, radius, k) from a file's meta pairs, each replaced by its flag when given.

    Raises SensorFileError at ``meta_line`` when a meta value that is used is
    not a positive integer (``l``, ``k``) or a positive finite number (``r``).
    """

    def chosen(flag, key: str, parse, default):
        if flag is not None:
            return flag
        text = meta.get(key)
        if text is None:
            return default
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf:
            raise SensorFileError(meta_line, f"meta {key}={text} is not positive and finite")
        return value

    return chosen(layers, "l", int, 1), chosen(radius, "r", float, 1.0), chosen(k, "k", int, 1)


def load_deployment(
    sensor_file: SensorFile,
    layers: int | None = None,
    radius: float | None = None,
    k: int | None = None,
) -> Deployment:
    """Rebuild the patch from the meta header (flags win over the file) with the file's columns.

    The deployment shares the file's ``sensors`` and ``hexagon`` arrays,
    which it makes read-only.
    """
    layers, radius, k = deployment_parameters(sensor_file.meta, sensor_file.meta_line, layers, radius, k)
    return Deployment(
        model=build_solar_model(layers, radius),
        k=k,
        strategy=sensor_file.meta.get("strategy", "unknown"),
        sensors=sensor_file.sensors,
        provenance=np.array(sensor_file.provenance, dtype=str),
        hexagon=sensor_file.hexagon,
        meta={key: value for key, value in sensor_file.meta.items() if key not in _FIELD_KEYS},
    )

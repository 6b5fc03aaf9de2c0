"""Row-at-a-time references for the sensor-file writer and reader.

These are the writer and reader that ``hexcover.sensor_io`` replaced with
column-at-a-time ones: the writer formats every field of every row, and the
reader parses and checks the file line by line.  Tests compare the column
code with them byte for byte, row for row and error for error
(``assert_reads_like_reference``).
"""

import json

import numpy as np

from hexcover.analytics import FLOAT_LIMIT
from hexcover.sensor_io import CSV_HEADER, SHARED, SensorFileError, _meta_pairs, load_deployment, read_sensors_csv
from hexcover.tiling import model_to_dict


def _fmt(value: float) -> str:
    return format(value, ".12g")


def reference_rows(deployment) -> list[tuple[str, str, str, str, str]]:
    strategy = deployment.strategy
    return [
        (_fmt(x), _fmt(y), provenance, SHARED if hexagon < 0 else str(hexagon), strategy)
        for (x, y), provenance, hexagon in zip(
            deployment.sensors.tolist(), deployment.provenance.tolist(), deployment.hexagon.tolist()
        )
    ]


def reference_csv(path, deployment) -> None:
    meta = " ".join(f"{key}={value}" for key, value in _meta_pairs(deployment).items())
    lines = ["# meta: " + meta, CSV_HEADER]
    lines.extend(",".join(row) for row in reference_rows(deployment))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def reference_json(path, deployment) -> None:
    payload = {
        "meta": _meta_pairs(deployment),
        "sensors": [
            {"x": float(x), "y": float(y), "provenance": prov, "hexagon": hexagon, "strategy": strategy}
            for x, y, prov, hexagon, strategy in reference_rows(deployment)
        ],
        "model": model_to_dict(deployment.model),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def reference_read(path) -> tuple[dict[str, str], list[tuple[float, float, str, int, str]], int]:
    """(meta, rows, meta_line) of a sensor CSV; raises SensorFileError at the first bad line."""
    meta: dict[str, str] = {}
    meta_line = 0
    rows: list[tuple[float, float, str, int, str]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("meta:"):
                    meta_line = number
                    for item in body[len("meta:"):].split():
                        if "=" in item:
                            key, value = item.split("=", 1)
                            meta[key] = value
                continue
            if line == CSV_HEADER:
                continue
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
            hexagon = parts[3].strip()
            if hexagon != SHARED and not (hexagon.isdecimal() and len(hexagon) <= 18):
                raise SensorFileError(number, f"hexagon must be {SHARED!r} or an index below 10**18, got {parts[3]!r}")
            rows.append((x, y, parts[2], -1 if hexagon == SHARED else int(hexagon), parts[4]))
    return meta, rows, meta_line


def reference_load_columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sensors, provenance, hexagon) arrays the row-at-a-time loader built from the rows."""
    return (
        np.array([row[:2] for row in rows], dtype=float).reshape(-1, 2),
        np.array([row[2] for row in rows], dtype=str),
        np.array([row[3] for row in rows], dtype=int),
    )


def float_bits(rows) -> list[tuple]:
    """Rows with each coordinate as its float.hex, so -0.0 and 0.0 compare unequal."""
    return [(float.hex(x), float.hex(y), *rest) for x, y, *rest in rows]


def reference_outcome(path) -> tuple:
    """("file", meta, rows, meta_line) of a sensor CSV read line by line, or ("error", message, line)."""
    try:
        meta, rows, meta_line = reference_read(path)
    except SensorFileError as exc:
        return "error", str(exc), exc.line
    return "file", meta, float_bits(rows), meta_line


def column_outcome(path) -> tuple:
    """``reference_outcome`` of the column reader: ("file", meta, rows, meta_line) or ("error", message, line)."""
    try:
        parsed = read_sensors_csv(path)
    except SensorFileError as exc:
        return "error", str(exc), exc.line
    return "file", parsed.meta, float_bits(parsed.rows), parsed.meta_line


def assert_reads_like_reference(path) -> None:
    """The column reader accepts what the line reader accepts, with the same rows and loaded
    columns, and rejects the rest with the same message and line."""
    expected = reference_outcome(path)
    assert column_outcome(path) == expected
    if expected[0] == "file":
        loaded = load_deployment(read_sensors_csv(path), layers=1, radius=1.0, k=1)
        sensors, provenance, hexagon = reference_load_columns(read_sensors_csv(path).rows)
        assert np.array_equal(loaded.sensors.view(np.uint64), sensors.view(np.uint64))
        assert np.array_equal(loaded.provenance, provenance) and loaded.provenance.dtype == provenance.dtype
        assert np.array_equal(loaded.hexagon, hexagon) and loaded.hexagon.dtype == hexagon.dtype

"""Sensor-file export and import (CSV and JSON).

Both formats carry the run parameters in a meta header so a file alone is
enough to rebuild the patch for verification.  Exports are byte-stable: the
sensor order is fixed by the placement contract and floats are printed with a
fixed format.  A CSV file loads back as a ``Deployment`` with the same
provenance and hexagon columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .deployment import Deployment
from .tiling import build_solar_model, model_to_dict
from .verifier import FLOAT_LIMIT

CSV_HEADER = "x,y,provenance,hexagon,strategy"
SHARED = "shared"  # hexagon field of a shared vertex sensor (hexagon -1)
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


def sensor_rows(deployment: Deployment) -> list[tuple[str, str, str, str, str]]:
    strategy = deployment.strategy
    return [
        (_fmt(x), _fmt(y), provenance, SHARED if hexagon < 0 else str(hexagon), strategy)
        for (x, y), provenance, hexagon in zip(
            deployment.sensors.tolist(), deployment.provenance.tolist(), deployment.hexagon.tolist()
        )
    ]


def write_sensors_csv(path, deployment) -> None:
    meta = " ".join(f"{key}={value}" for key, value in _meta_pairs(deployment).items())
    lines = ["# meta: " + meta, CSV_HEADER]
    lines.extend(",".join(row) for row in sensor_rows(deployment))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_sensors_json(path, deployment) -> None:
    payload = {
        "meta": _meta_pairs(deployment),
        "sensors": [
            {"x": float(x), "y": float(y), "provenance": prov, "hexagon": hexagon, "strategy": strategy}
            for x, y, prov, hexagon, strategy in sensor_rows(deployment)
        ],
        "model": model_to_dict(deployment.model),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


@dataclass
class SensorFile:
    """Parsed sensor file: meta pairs plus rows (x, y, provenance, hexagon, strategy).

    ``hexagon`` is the owning hexagon index, -1 for a shared vertex.
    """

    meta: dict[str, str]
    rows: list[tuple[float, float, str, int, str]]
    meta_line: int = 0  # line number of the (last) meta header, 0 if none


def read_sensors_csv(path) -> SensorFile:
    meta: dict[str, str] = {}
    meta_line = 0
    rows: list[tuple[float, float, str, int, str]] = []
    # Bytes that are not UTF-8 become U+FFFD: text fields keep it, and in a
    # number or an index it fails like any other bad field, with its line.
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
    return SensorFile(meta=meta, rows=rows, meta_line=meta_line)


def deployment_parameters(
    sensor_file: SensorFile,
    layers: int | None = None,
    radius: float | None = None,
    k: int | None = None,
) -> tuple[int, float, int]:
    """(layers, radius, k) from the meta header, each replaced by its flag when given.

    Raises SensorFileError when a meta value that is used is not a positive
    integer (``l``, ``k``) or a positive finite number (``r``).
    """

    def chosen(flag, key: str, parse, default):
        if flag is not None:
            return flag
        text = sensor_file.meta.get(key)
        if text is None:
            return default
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not 0 < value < math.inf:
            raise SensorFileError(sensor_file.meta_line, f"meta {key}={text} is not positive and finite")
        return value

    return chosen(layers, "l", int, 1), chosen(radius, "r", float, 1.0), chosen(k, "k", int, 1)


def load_deployment(
    sensor_file: SensorFile,
    layers: int | None = None,
    radius: float | None = None,
    k: int | None = None,
) -> Deployment:
    """Rebuild the patch from the meta header (flags win over the file) with the file's columns."""
    layers, radius, k = deployment_parameters(sensor_file, layers, radius, k)
    rows = sensor_file.rows
    return Deployment(
        model=build_solar_model(layers, radius),
        k=k,
        strategy=sensor_file.meta.get("strategy", "unknown"),
        sensors=np.array([row[:2] for row in rows], dtype=float).reshape(-1, 2),
        provenance=np.array([row[2] for row in rows], dtype=str),
        hexagon=np.array([row[3] for row in rows], dtype=int),
        meta={key: value for key, value in sensor_file.meta.items() if key not in _FIELD_KEYS},
    )

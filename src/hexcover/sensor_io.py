"""Sensor-file export and import (CSV and JSON).

Both formats carry the run parameters in a meta header so a file alone is
enough to rebuild the patch for verification.  Exports are byte-stable: the
sensor order is fixed by the placement contract and floats are printed with a
fixed format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .benchmark import BenchmarkDeployment
from .deployment import Deployment
from .tiling import SolarModel, build_solar_model, model_to_dict

CSV_HEADER = "x,y,provenance,hexagon,strategy"


class SensorFileError(ValueError):
    """Malformed sensor file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _meta_line(deployment, extra_meta: dict | None = None) -> str:
    pairs = {
        "tool": "hexcover",
        "version": __version__,
        "strategy": deployment.strategy,
        "r": _fmt(deployment.r),
        "k": deployment.k,
        "l": deployment.model.layers,
        "seed": 0,
    }
    if isinstance(deployment, Deployment):
        pairs["parity"] = deployment.parity
    if isinstance(deployment, BenchmarkDeployment):
        pairs["seed"] = deployment.seed
        pairs["offset"] = f"{deployment.offset[0]}:{deployment.offset[1]}"
    if extra_meta:
        pairs.update(extra_meta)
    return "# meta: " + " ".join(f"{key}={value}" for key, value in pairs.items())


def sensor_rows(deployment) -> list[tuple[str, str, str, str, str]]:
    rows = []
    if isinstance(deployment, Deployment):
        scale = deployment.model.side
        for sensor in deployment.sensors:
            x, y = sensor.position.to_xy(scale)
            hexagon = "shared" if sensor.hexagon is None else str(sensor.hexagon)
            rows.append((_fmt(x), _fmt(y), sensor.provenance(), hexagon, deployment.strategy))
    elif isinstance(deployment, BenchmarkDeployment):
        for (x, y), owner in zip(deployment.positions, deployment.hexagon_index):
            rows.append((_fmt(x), _fmt(y), "random", str(int(owner)), deployment.strategy))
    else:
        raise TypeError(f"cannot serialize {type(deployment).__name__}")
    return rows


def write_sensors_csv(path, deployment, extra_meta: dict | None = None) -> None:
    lines = [_meta_line(deployment, extra_meta), CSV_HEADER]
    lines.extend(",".join(row) for row in sensor_rows(deployment))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_sensors_json(
    path, deployment, include_model: bool = True, extra_meta: dict | None = None
) -> None:
    meta = dict(
        item.split("=", 1)
        for item in _meta_line(deployment, extra_meta)[len("# meta: "):].split(" ")
    )
    payload = {
        "meta": meta,
        "sensors": [
            {"x": float(x), "y": float(y), "provenance": prov, "hexagon": hexagon, "strategy": strategy}
            for x, y, prov, hexagon, strategy in sensor_rows(deployment)
        ],
    }
    if include_model:
        payload["model"] = model_to_dict(deployment.model)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


@dataclass
class SensorFile:
    """Parsed sensor file: meta pairs plus raw rows."""

    meta: dict[str, str]
    rows: list[tuple[float, float, str, str, str]]
    meta_line: int = 0  # line number of the (last) meta header, 0 if none

    def positions(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, 2))
        return np.array([[row[0], row[1]] for row in self.rows])


def read_sensors_csv(path) -> SensorFile:
    meta: dict[str, str] = {}
    meta_line = 0
    rows: list[tuple[float, float, str, str, str]] = []
    with open(path, "r", encoding="utf-8") as handle:
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
            if not (math.isfinite(x) and math.isfinite(y)):
                raise SensorFileError(number, f"non-finite coordinate: {parts[0]},{parts[1]}")
            rows.append((x, y, parts[2], parts[3], parts[4]))
    return SensorFile(meta=meta, rows=rows, meta_line=meta_line)


@dataclass
class LoadedDeployment:
    """Verifier-ready view of a sensor file."""

    model: SolarModel
    k: int
    strategy: str
    _positions: np.ndarray

    @property
    def r(self) -> float:
        return self.model.side

    def positions_xy(self) -> np.ndarray:
        return self._positions


def load_deployment(
    sensor_file: SensorFile,
    layers: int | None = None,
    radius: float | None = None,
    k: int | None = None,
) -> LoadedDeployment:
    """Rebuild the patch from the meta header (flags win over the file).

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

    model = build_solar_model(chosen(layers, "l", int, 1), chosen(radius, "r", float, 1.0))
    return LoadedDeployment(
        model=model,
        k=chosen(k, "k", int, 1),
        strategy=sensor_file.meta.get("strategy", "unknown"),
        _positions=sensor_file.positions(),
    )

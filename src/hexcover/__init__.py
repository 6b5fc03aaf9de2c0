"""hexcover: plan and verify k-coverage sensor deployments on hexagonal tilings.

The public names and the submodules are imported on first access (PEP 562),
so ``import hexcover`` loads no numpy; the closed forms in ``analytics`` and
the CLI's ``compare`` and ``sweep`` run on the standard library alone.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    "EquilateralTriangle": "geometry",
    "Hexagon": "geometry",
    "LatticePoint": "geometry",
    "PackingWitness": "geometry",
    "count_packed_small_hexagons": "geometry",
    "packing_diameter": "geometry",
    "SolarModel": "tiling",
    "build_solar_model": "tiling",
    "Deployment": "deployment",
    "place_proposed": "deployment",
    "place_benchmark": "benchmark",
    "CoverageReport": "verifier",
    "minimum_sensors_lower_bound": "verifier",
    "residual_coverage": "verifier",
    "verify_coverage": "verifier",
    "benchmark_count": "analytics",
    "count_gap": "analytics",
    "density_benchmark": "analytics",
    "density_gain": "analytics",
    "density_proposed": "analytics",
    "density_ratio_limit": "analytics",
    "emit_figure_table": "analytics",
    "hexagon_count": "analytics",
    "per_hexagon_count": "analytics",
    "total_count": "analytics",
}
_SUBMODULES = ("analytics", "benchmark", "cli", "deployment", "geometry", "sensor_io", "tiling", "verifier")

__all__ = ["__version__", *sorted(_SOURCES)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

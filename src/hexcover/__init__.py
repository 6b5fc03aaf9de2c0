"""hexcover: plan and verify k-coverage sensor deployments on hexagonal tilings."""

__version__ = "0.1.0"

from .geometry import (
    EquilateralTriangle,
    Hexagon,
    LatticePoint,
    PackingWitness,
    count_packed_small_hexagons,
    packing_diameter,
)
from .tiling import SolarModel, build_solar_model, hexagon_count
from .deployment import (
    Deployment,
    per_hexagon_count,
    place_proposed,
    total_count,
)
from .benchmark import (
    benchmark_count,
    count_gap,
    place_benchmark,
)
from .verifier import CoverageReport, minimum_sensors_lower_bound, residual_coverage, verify_coverage
from .analytics import (
    density_benchmark,
    density_gain,
    density_proposed,
    density_ratio_limit,
    emit_figure_table,
)

__all__ = [
    "__version__",
    "CoverageReport",
    "Deployment",
    "EquilateralTriangle",
    "Hexagon",
    "LatticePoint",
    "PackingWitness",
    "SolarModel",
    "benchmark_count",
    "build_solar_model",
    "count_gap",
    "count_packed_small_hexagons",
    "density_benchmark",
    "density_gain",
    "density_proposed",
    "density_ratio_limit",
    "emit_figure_table",
    "hexagon_count",
    "minimum_sensors_lower_bound",
    "packing_diameter",
    "per_hexagon_count",
    "place_benchmark",
    "place_proposed",
    "residual_coverage",
    "total_count",
    "verify_coverage",
]

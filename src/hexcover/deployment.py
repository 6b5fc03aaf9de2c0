"""Sensor placement on a solar-model patch, checked against the closed-form counts in ``analytics``.

The strategy is cumulative in the coverage target k:

* k = 1: one sensor at every hexagon center.
* k = 2: additionally every vertex of one parity class ("alternate vertices").
* k = 3: additionally the other parity class (all vertices occupied).
* k > 3: each further step adds, per hexagon, three sensors on the
  center-to-vertex segments; steps alternate between the odd-indexed and the
  even-indexed segments, and the j-th sensor ever placed on a given segment
  sits at parameter 1/(j+1) from the center so positions never collide.

Sharing matters: a vertex sensor serves up to three hexagons but is placed
once, while segment sensors are strictly interior and owned by one hexagon.

Placement works on lattice coefficients: centers and vertices are integer
pairs, and the segment sensors of one round are integer numerators over one
small denominator.  Their correctly rounded quotients are fine enough that
float order and float equality are the exact ones (checked at run time), so
the duplicate check and the export order, both read off one stable (x, y)
sort (``tiling.row_runs``), are exact.  The result is a ``Deployment``, the
one sensor-layout type that the comparison scheme and sensor-file loading
also return.  It is a struct of arrays: meter coordinates, a provenance
string and an owning hexagon (-1 for a shared vertex) per sensor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analytics import InvariantViolation, total_count
from .tiling import (
    EVEN,
    ODD,
    PARITY_NAMES,
    VERTEX_OFFSETS,
    SolarModel,
    row_runs,
    units_xy,
)


@dataclass(frozen=True, eq=False)
class Deployment:
    """A sensor layout on ``model`` for coverage target ``k``, one array row per sensor.

    ``sensors`` holds (n, 2) coordinates in meters.  ``provenance`` names how
    each sensor was placed (``center``, ``vertex:even``, ``segment:3:2`` for
    segment 3 in extra round 2, ``random``); ``hexagon`` is the owning hexagon
    index, small hexagon for the comparison scheme, or -1 for a shared vertex.
    ``meta`` holds the strategy's own header pairs (``parity``, or ``seed``
    and ``offset``).  The arrays are read-only.
    """

    model: SolarModel
    k: int
    strategy: str
    sensors: np.ndarray
    provenance: np.ndarray
    hexagon: np.ndarray
    meta: dict[str, object]

    def __post_init__(self) -> None:
        for column in (self.sensors, self.provenance, self.hexagon):
            column.setflags(write=False)

    @property
    def r(self) -> float:
        return self.model.side

    def sensor_count(self) -> int:
        return len(self.sensors)


def placed_by_kind(deployment: Deployment) -> dict[str, int]:
    """Placed sensors by provenance kind, keyed as ``analytics.count_by_kind``."""
    return {kind: int(np.char.startswith(deployment.provenance, kind).sum()) for kind in ("center", "vertex", "segment")}


def place_proposed(model: SolarModel, k: int, parity: str = EVEN) -> Deployment:
    """Place sensors for k-coverage of the patch; deterministic and exact.

    ``parity`` selects which alternate-vertex class is used first at k = 2.
    Sensors are ordered by rank (centers, even vertices, odd vertices, then
    segment sensors) and then by their exact lattice coefficients (x, y).
    """
    if k < 1:
        raise ValueError(f"coverage target must be >= 1, got {k}")
    if parity not in PARITY_NAMES:
        raise ValueError(f"parity must be one of {PARITY_NAMES}, got {parity!r}")
    vertex_parities = (parity, ODD if parity == EVEN else EVEN)[: min(k, 3) - 1]
    # Extra round ``step`` = 1 .. k-3 uses the segments toward vertices 0, 2, 4
    # when its target step + 3 is even, else 1, 3, 5.  Rounds of equal parity
    # share segments: this one places the ordinal-th sensor on each, ordinal =
    # (step + 1)//2, at 1/(ordinal + 1) from the center C, which is the point
    # (d*C + V)/d for d = ordinal + 1 and the vertex offset V.
    steps = np.arange(1, max(k - 2, 1))
    segment_vertices = (steps[:, None] + 1) % 2 + np.array([0, 2, 4])
    d = ((steps + 1) // 2 + 1)[:, None, None, None]
    # Distinct rationals with denominators <= d_max differ by at least
    # 1/d_max**2 and adjacent floats below 3l are at most 3l * 2**-52 apart, so under
    # this bound float order and float equality are the exact ones.
    if 3 * model.layers * int(d.max(initial=1)) ** 2 >= 2**50:
        raise InvariantViolation(f"lattice coefficients at l={model.layers}, k={k} are too fine for exact float order")

    vertices = [model.vertex_class(p) for p in vertex_parities]
    segments = (d * model.centers + VERTEX_OFFSETS[segment_vertices][:, :, None, :]) / d
    units = np.concatenate([model.centers, *vertices, segments.reshape(-1, 2)]).astype(float)
    by_xy, starts = row_runs(units)
    if not starts.all():
        raise InvariantViolation("duplicate sensor positions after placement")
    expected = total_count(model.layers, k)
    if len(units) != expected:
        raise InvariantViolation(f"placed {len(units)} sensors, closed form expects {expected}")

    # One block of sensors per provenance label, with its rank.
    cells, segment_blocks = len(model.centers), segment_vertices.size
    labels = ["center", *(f"vertex:{p}" for p in vertex_parities)]
    labels += [f"segment:{vi + 1}:{step}" for step, row in zip(steps.tolist(), segment_vertices.tolist()) for vi in row]
    sizes = [cells, *map(len, vertices)] + [cells] * segment_blocks
    ranks = [0, *(PARITY_NAMES.index(p) + 1 for p in vertex_parities)] + [3] * segment_blocks
    owners = np.arange(cells)
    hexagon = np.concatenate([owners, np.full(sum(map(len, vertices)), -1), np.tile(owners, segment_blocks)])
    rank = np.repeat(np.array(ranks, dtype=np.uint8), sizes)
    # rank first, then (x, y): a stable sort by rank keeps the (x, y) order within each rank
    order = by_xy[np.argsort(rank[by_xy], kind="stable")]
    return Deployment(
        model=model,
        k=k,
        strategy="proposed",
        sensors=units_xy(units[order], model.side),
        provenance=np.repeat(labels, sizes)[order],
        hexagon=hexagon[order],
        meta={"parity": parity},
    )


def remove_sensors(deployment: Deployment, indices: list[int]) -> Deployment:
    """Deployment without the sensors at the given indices (for failure studies)."""
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate sensor indices")
    keep = np.ones(deployment.sensor_count(), dtype=bool)
    for index in indices:
        if not 0 <= index < len(keep):
            raise ValueError(f"sensor index {index} out of range")
        keep[index] = False
    return replace(
        deployment,
        sensors=deployment.sensors[keep],
        provenance=deployment.provenance[keep],
        hexagon=deployment.hexagon[keep],
    )

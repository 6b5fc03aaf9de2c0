"""Brute-force references for the patch's vertices, the proposed placement and triangle coverage.

The first two are the Fraction constructions the integer-coefficient code
replaced: every vertex and sensor is a ``LatticePoint`` of two
``Fraction``s, shared vertices are deduplicated in a dict, duplicates are
checked with a set and sensors are sorted by exact keys.  The third tests
every (triangle, sensor) pair with verify's float disk predicate, and the
fourth finds the same pairs among the sensors within eff of each centroid.
Tests compare the fast code with them bit for bit.
"""

import functools
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

from hexcover.tiling import EVEN, ODD, PARITY_NAMES, build_solar_model
from hexcover.verifier import DISK_TOL


def exact_registry(model):
    """{vertex: (parity, incident hexagon indices)} in first-occurrence order."""
    registry = {}
    for index, hexagon in enumerate(model.hexagons):
        for angle_index, vertex in enumerate(hexagon.vertices()):
            parity = PARITY_NAMES[angle_index % 2]
            if vertex not in registry:
                registry[vertex] = (parity, [])
            assert registry[vertex][0] == parity, "vertex parity disagrees between incident hexagons"
            registry[vertex][1].append(index)
    return registry


@functools.lru_cache(maxsize=4)
def _exact_sorted(layers, k, parity):
    """(rank, position, provenance, hexagon) of every sensor, in export order."""
    model = build_solar_model(layers)
    registry = exact_registry(model)
    other = ODD if parity == EVEN else EVEN
    placed = [(0, hexagon.center, "center", index) for index, hexagon in enumerate(model.hexagons)]
    for vertex_parity in (parity, other)[: min(k, 3) - 1]:
        rank = 2 if vertex_parity == ODD else 1
        placed.extend(
            (rank, p, f"vertex:{vertex_parity}", -1) for p, (c, _) in registry.items() if c == vertex_parity
        )
    spokes = [[v - hexagon.center for v in hexagon.vertices()] for hexagon in model.hexagons]
    for step in range(1, k - 2):
        vertex_indices = (0, 2, 4) if (step + 3) % 2 == 0 else (1, 3, 5)
        t = Fraction(1, (step + 1) // 2 + 1)
        for index, hexagon in enumerate(model.hexagons):
            for vi in vertex_indices:
                position = hexagon.center + spokes[index][vi] * t
                placed.append((3, position, f"segment:{vi + 1}:{step}", index))
    assert len({p for _, p, _, _ in placed}) == len(placed), "duplicate sensor positions"
    placed.sort(key=lambda s: (s[0], s[1].x, s[1].y))
    return tuple(placed)


def exact_placement(model, k, parity=EVEN):
    """(sensors, provenance, hexagon) of the proposed placement, from exact points."""
    placed = _exact_sorted(model.layers, k, parity)
    return (
        np.array([p.to_xy(model.side) for _, p, _, _ in placed]),
        np.array([s[2] for s in placed]),
        np.array([s[3] for s in placed]),
    )


def dense_covering(triangles, sensors, radius):
    """(triangles, sensors) mask: the sensor's disk of radius r * sqrt(1 + DISK_TOL) holds all three corners."""
    eff = radius * np.sqrt(1.0 + DISK_TOL)
    dx = triangles[:, None, :, 0] - sensors[None, :, None, 0]
    dy = triangles[:, None, :, 1] - sensors[None, :, None, 1]
    return (dx * dx + dy * dy <= eff * eff).all(axis=2)


def eff_radius_pairs(triangles, sensors, radius):
    """``covering_pairs`` with every sensor within eff of a centroid as a candidate, in triangle order."""
    eff = radius * np.sqrt(1.0 + DISK_TOL)
    hits = cKDTree(sensors).query_ball_point(triangles.mean(axis=1), eff)
    triangle = np.repeat(np.arange(len(triangles)), [len(h) for h in hits])
    sensor = np.array([i for h in hits for i in h], dtype=np.intp)
    corners = triangles[triangle] - sensors[sensor][:, None, :]
    holds = ((corners[..., 0] * corners[..., 0] + corners[..., 1] * corners[..., 1]) <= eff * eff).all(axis=1)
    return triangle[holds], sensor[holds]

"""The comparison scheme's per-tile random streams, drawn one generator per tile.

This is the loop ``benchmark.place_benchmark`` ran before it stepped every
tile's stream at once: tile i builds ``default_rng([seed, i])`` and draws its
k triangle indices, then k u and k v.  Tests compare the stepped streams with
it bit for bit.
"""

import numpy as np


def reference_tile_draws(seed, count, k):
    """(tri, u, v), each (count, k): tile i's draws from its own ``default_rng([seed, i])``."""
    tri = np.empty((count, k), dtype=np.int64)
    u, v = np.empty((count, k)), np.empty((count, k))
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        tri[index] = rng.integers(0, 6, size=k)
        u[index] = rng.random(k)
        v[index] = rng.random(k)
    return tri, u, v

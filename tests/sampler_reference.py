"""The hexagon sampler's float expression on explicit triangle corners.

This is the expression ``tiling.triangle_samples`` evaluated before it took
per-hexagon tables: every sample gathers its three corners and computes
origin + u(a - origin) + v(b - origin).  Tests compare the sampler with it
bit for bit.
"""

import numpy as np


def reference_triangle_samples(origin, a, b, u, v):
    """Points origin + u(a - origin) + v(b - origin); pairs with u + v > 1 are reflected to (1 - u, 1 - v) in place."""
    fold = u + v > 1.0
    u[fold] = 1.0 - u[fold]
    v[fold] = 1.0 - v[fold]
    return origin + u[:, None] * (a - origin) + v[:, None] * (b - origin)

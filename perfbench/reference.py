"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark host's speed drifts by tens of percent over minutes (other
tenants share the cores), which is wider than any useful bound.  The kernel
mixes the three kinds of work a cycle does: exact ``Fraction`` arithmetic in
the interpreter, bulk numpy comparisons on a few hundred thousand points, and
a KD-tree disk count.  Its inputs are fixed, it never calls hexcover, and it
runs in its own interpreter (``ReferenceProcess``): run in the benchmark's
process, its time followed the heap state each workload left behind.  So a
change to the program cannot move it; only the host can.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
from scipy.spatial import cKDTree

# Median kernel time on the host the bounds were set on (2-vCPU Intel Xeon,
# Python 3.11, numpy 2.4, scipy 1.17); adjusted timings are in seconds at
# that speed.
NOMINAL_S = 0.2


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.points = rng.random((300_000, 2)) * 100.0
        self.sensors = rng.random((5_000, 2)) * 100.0
        self.probes = rng.random((20_000, 2)) * 100.0

    def run(self) -> float:
        """Wall time of one pass, in seconds."""
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 6_000):
            total += Fraction(1, i % 97 + 1) * Fraction(3, 2)
        inside = np.zeros(len(self.points), dtype=bool)
        for c in range(20):
            dx = self.points[:, 0] - c
            dy = self.points[:, 1] - c
            inside |= (np.abs(dy) <= 8.6) & (np.abs(1.732 * dx + dy) * 0.5 <= 8.6)
        cKDTree(self.sensors).query_ball_point(self.probes, 3.0, return_length=True)
        return time.perf_counter() - start


class ReferenceProcess:
    """Runs the kernel on request in a child interpreter; use as a context manager."""

    def __enter__(self):
        self.child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def run(self) -> float:
        self.child.stdin.write("run\n")
        self.child.stdin.flush()
        return float(self.child.stdout.readline())

    def __exit__(self, *exc_info):
        self.child.stdin.close()
        try:
            self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()


def serve() -> None:
    kernel = ReferenceKernel()
    kernel.run()  # warm-up
    for _ in sys.stdin:
        print(kernel.run(), flush=True)


if __name__ == "__main__":
    serve()

"""Workload definitions and the output checks run on every cycle.

A cycle is ``hexcover plan`` followed by ``hexcover verify`` on the plan's
CSV.  Every cycle is checked; a cycle that fails any check is a failed
operation, however fast it ran.

Checks that hold for every seed:

* exit codes: plan 0; verify 0 for the proposed strategy, 1 for the scheme;
* proposed: the sensor count equals the closed form, computed here
  independently of the program, the CSV body (everything after the meta line)
  hashes to the pinned value, and ``min_coverage >= k``;
* scheme: exactly k sensors in each of the pinned number of kept small
  hexagons, and ``min_coverage < k``;
* the report's ``samples`` equals the pinned probe count (the structured and
  grid probes do not depend on the seed, the Monte Carlo count is fixed), and
  its histogram sums to it.

At ``DEFAULT_SEED`` the whole CSV and ``min_coverage`` are also pinned.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

DEFAULT_SEED = 7
MC_SAMPLES = 50_000


def plan_seed(seed: int) -> int:
    return seed


def verify_seed(seed: int) -> int:
    return seed + 1


def closed_form_count(layers: int, k: int) -> int:
    """Sensor count of the proposed strategy, restated from the source paper."""
    if k == 1:
        return 1 + 3 * layers * (layers - 1)
    if k == 2:
        return 6 * layers * layers - 3 * layers + 1
    return 9 * (k - 2) * layers * layers - 3 * (3 * k - 8) * layers + (3 * k - 8)


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str  # "proposed" or "benchmark" (the comparison scheme)
    layers: int
    k: int
    radius: int
    samples: int  # report probe count, seed-independent
    verify_exit: int
    small_hexagons: int = 0  # scheme only: kept half-side tiles
    body_sha256: str = ""  # proposed only: CSV body, seed-independent
    default_min_coverage: int = 0  # at DEFAULT_SEED
    default_csv_sha256: str = ""  # whole CSV at DEFAULT_SEED

    def expected_sensors(self) -> int:
        if self.strategy == "proposed":
            return closed_form_count(self.layers, self.k)
        return self.k * self.small_hexagons

    def plan_argv(self, seed: int, csv_path: str) -> list[str]:
        return [
            "plan", "--strategy", self.strategy,
            "--layers", str(self.layers), "--coverage", str(self.k), "--radius", str(self.radius),
            "--seed", str(plan_seed(seed)), "--output", csv_path,
        ]

    def verify_argv(self, seed: int, csv_path: str, report_path: str) -> list[str]:
        return [
            "verify", "--input", csv_path, "--seed", str(verify_seed(seed)),
            "--mc-samples", str(MC_SAMPLES), "--output", report_path,
        ]

    def check(self, seed: int, plan_rc, verify_rc, csv_bytes: bytes, report: dict) -> list[str]:
        """Problems found in one cycle's outputs; empty when the cycle is correct."""
        problems = []
        if plan_rc != 0:
            problems.append(f"plan exit {plan_rc}, expected 0")
        if verify_rc != self.verify_exit:
            problems.append(f"verify exit {verify_rc}, expected {self.verify_exit}")

        lines = csv_bytes.decode("utf-8", "replace").splitlines()
        rows = [line.split(",") for line in lines[2:]]
        if len(rows) != self.expected_sensors():
            problems.append(f"{len(rows)} sensors, expected {self.expected_sensors()}")
        if self.strategy == "proposed":
            body = "\n".join(lines[1:]).encode()
            if hashlib.sha256(body).hexdigest() != self.body_sha256:
                problems.append("CSV body hash differs from the pinned one")
        else:
            owners = Counter(row[3] if len(row) == 5 else "?" for row in rows)
            if len(owners) != self.small_hexagons or set(owners.values()) != {self.k}:
                problems.append(f"not {self.k} sensors in each of {self.small_hexagons} small hexagons")

        samples = report.get("samples")
        min_coverage = report.get("min_coverage")
        if samples != self.samples:
            problems.append(f"samples {samples}, expected {self.samples}")
        if sum(report.get("coverage_histogram", {}).values()) != self.samples:
            problems.append("coverage histogram does not sum to the probe count")
        if not isinstance(min_coverage, int):
            problems.append(f"min_coverage {min_coverage!r} is not an integer")
        elif self.strategy == "proposed" and min_coverage < self.k:
            problems.append(f"min_coverage {min_coverage} below k={self.k}")
        elif self.strategy == "benchmark" and min_coverage >= self.k:
            problems.append(f"min_coverage {min_coverage} reaches k={self.k}")
        if report.get("passed") != (self.verify_exit == 0):
            problems.append(f"report passed={report.get('passed')!r}")

        if seed == DEFAULT_SEED:
            if min_coverage != self.default_min_coverage:
                problems.append(f"min_coverage {min_coverage}, pinned {self.default_min_coverage}")
            if hashlib.sha256(csv_bytes).hexdigest() != self.default_csv_sha256:
                problems.append("CSV hash differs from the pinned one")
        return problems


def load_report(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="plan-verify-l10", strategy="proposed", layers=10, k=10, radius=10,
            samples=336_646, verify_exit=0,
            body_sha256="a1ba92361cdfaf5fcce7baa98da10d5883189355b4f2a4fddccef523395cf598",
            default_min_coverage=13,
            default_csv_sha256="d72298b1caec98b5df3992da41be04d0f1c8867479b6d577880276bae34b0862",
        ),
        Workload(
            name="dense-k60-l5", strategy="proposed", layers=5, k=60, radius=10,
            samples=114_565, verify_exit=0,
            body_sha256="ce9eb6729d8279817324be632c362b4f7914df682c736311158dfdb03cf4875f",
            default_min_coverage=88,
            default_csv_sha256="9e5fd5d28053c2e7fc48facf8eb1e538e3af8c92e5e86a6f431ad5e3f19e8a0a",
        ),
        Workload(
            name="scheme-l10", strategy="benchmark", layers=10, k=10, radius=10,
            samples=336_646, verify_exit=1, small_hexagons=1027,
            default_min_coverage=2,
            default_csv_sha256="45a1fdd1207439b4e32b149aee63c3b0d21e14dcf8f31b76b8e88038a4375c94",
        ),
    )
}

"""Byte goldens: plan exports and verify reports must not change.

The hashes were taken from the output of these exact command lines (default
verify settings: grid step r/20, 50 000 Monte Carlo samples, seed 0).  A
refactor that changes one byte of a sensor file or a report fails here.
"""

import hashlib

import pytest

from hexcover.cli import main

GOLDENS = {
    "proposed-l3-k7-odd": (
        ["--layers", "3", "--coverage", "7", "--radius", "2.5", "--parity", "odd"],
        0,
        "4cb5cedd8e42a79db7a4b21e801652fbc607723bb3ddb5678a1010aa71555502",
        "f4fc43013241a02bc50666fad14d9e4ac31cd957fa38c4c0be06ddb56a75a351",
    ),
    "scheme-l3-k2": (
        ["--strategy", "benchmark", "--layers", "3", "--coverage", "2", "--seed", "5"],
        1,
        "1f90b744eb7a285ba6888e5eee206dffb100fbcb215c47b87818b0cf45b25357",
        "911902de73e50ef7568a4c1a67d34c36519bf94038e70a3d2a6a4ef0b85600ed",
    ),
    "scheme-l3-k2-offset": (
        ["--strategy", "benchmark", "--layers", "3", "--coverage", "2", "--seed", "5",
         "--offset-x", "1/4", "--offset-y", "1/3"],
        1,
        "ff270a87521f97984bc0c1ca06f3cb01c3844869130eada581c88d5e43e35cd7",
        "e0503ad9676493e7ee5528d5b9f75f74898a334001045fdf8afec634259bc175",
    ),
}


# ``plan --format json`` with the flags of proposed-l3-k7-odd.  The file embeds
# the patch, so this pins its vertex order, classes and incident lists.
JSON_SHA = "efa90ac4b2e23d04eaa5f09cdb43c9fb2b7db64255676ee11b522ae57d05a9c5"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_plan_and_verify_bytes(name, tmp_path):
    plan_args, verify_exit, csv_sha, report_sha = GOLDENS[name]
    csv = tmp_path / "sensors.csv"
    report = tmp_path / "report.json"
    assert main(["plan", *plan_args, "--output", str(csv)]) == 0
    assert sha256(csv) == csv_sha
    assert main(["verify", "--input", str(csv), "--output", str(report)]) == verify_exit
    assert sha256(report) == report_sha


def test_plan_json_bytes(tmp_path):
    out = tmp_path / "sensors.json"
    assert main(["plan", *GOLDENS["proposed-l3-k7-odd"][0], "--format", "json", "--output", str(out)]) == 0
    assert sha256(out) == JSON_SHA

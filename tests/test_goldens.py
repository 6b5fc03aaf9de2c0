"""Byte goldens: plan exports, verify reports and figure tables must not change.

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


# ``sweep`` with its default ranges and with every range overridden.
SWEEP_GOLDENS = {
    "default": (
        [],
        {
            "fig4": "f9b1faff4f3793afd4ecc71541da2df670e385b4b1e2718ebcca1489f7431e3b",
            "fig5": "9b815b6bb267ffb18e22b550ef0ec19833851c0fcb1e2dd1d982775420670b3a",
            "fig6": "02e06b7da4a7bfb9bc2bd8a223b799c5354bd1f8cf60196cd9d77331e47467aa",
            "fig7": "e394bc4a63630ac4507e763620370f451814979b15569d74a9167afa59ff7de0",
            "fig8": "23087b5f123c6e10f77bce54b4837ed8386f5ac4fd4729ce22f216658655b3e7",
        },
    ),
    "overrides": (
        ["--r-start", "0.5", "--r-step", "0.25", "--r-stop", "3", "--k-min", "2",
         "--l-min", "2", "--l-max", "6"],
        {
            "fig4": "9ac4dce4cccbf9b296a2ddfa96ce8e208ca16dc331c77b2ca64fcf600cb929f3",
            "fig5": "0de71c4e5977f6d44cd0ab38d73a1635dc0f4c09940c3697ce3fd29643bc9531",
            "fig6": "19412b3506040749cb72453c45a7b229796fff1a171b21ad4b6673eea6d0e61d",
            "fig7": "5150293083cb716171d0fe8ef52fba048659408d27186cfd4d2ddf1f6ffc8354",
            "fig8": "8f1978377990ec5a3b8887bf776d570e240035d12b18ee868af2bc0dbf1b4abd",
        },
    ),
}


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


@pytest.mark.parametrize("name", sorted(SWEEP_GOLDENS))
def test_sweep_bytes(name, tmp_path):
    flags, hashes = SWEEP_GOLDENS[name]
    assert main(["sweep", "--output", str(tmp_path), *flags]) == 0
    assert {figure: sha256(tmp_path / f"{figure}.csv") for figure in hashes} == hashes

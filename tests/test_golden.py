"""Byte-for-byte golden outputs at seed 0.

The expected files are the benchmark's reference outputs in
perfbench/reference/, read in place: `verify` text, the CSV of the
latency, stream and usage grids, and the built-in profile document.
"""

from pathlib import Path

import pytest

from upm_sim import harness
from upm_sim.machine import builtin_mi300a, serialize_profile

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def reference(name: str) -> str:
    return (REFERENCE / name).read_text(encoding="utf-8")


def test_verify_text_matches_golden(profile):
    text = "\n".join(harness.verify(profile, seed=0).lines()) + "\n"
    assert text == reference("verify.txt")


@pytest.mark.parametrize("bench", ["latency", "stream", "usage"])
def test_grid_csv_matches_golden(profile, bench):
    rows = harness.run(profile, harness.WorkloadSpec(benchmark=bench, seed=0))
    assert harness.report(rows, "csv") == reference(f"{bench}.csv")


def test_profile_dump_matches_golden():
    assert serialize_profile(builtin_mi300a()) == reference("builtin.profile")

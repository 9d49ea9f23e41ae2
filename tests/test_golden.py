"""Byte-for-byte golden outputs at seed 0, and `verify` at seed 7.

The benchmark's reference outputs in perfbench/reference/ are read in
place: `verify` text, the CSV of the latency, stream and usage grids, and
the built-in profile document. The CSV of the other four grids (alloc,
fault, atomics, memcpy) and the `verify` text at seed 7 live in
tests/golden/. A second seed catches a measurement that ignores the seed.
tests/golden/xnack0/ holds the alloc, usage, stream, latency and fault
grids of the built-in profile with xnack off: managed memory placed up
front, the xnack-off cost curves and the GPU rows that fault fatally on
heap memory (the AccessViolation rows of latency and fault).
"""

from dataclasses import replace
from pathlib import Path

import pytest

from upm_sim import harness
from upm_sim.machine import builtin_mi300a, serialize_profile

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
GOLDEN = Path(__file__).resolve().parent / "golden"


def reference(name: str) -> str:
    return (REFERENCE / name).read_text(encoding="utf-8")


def test_verify_text_matches_golden(profile):
    text = "\n".join(harness.verify(profile, seed=0).lines()) + "\n"
    assert text == reference("verify.txt")


def test_verify_text_at_seed_7_matches_golden(profile):
    text = "\n".join(harness.verify(profile, seed=7).lines()) + "\n"
    assert text == (GOLDEN / "verify_seed7.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("directory,bench,xnack", [
    *(pytest.param(REFERENCE, b, True, id=b)
      for b in ("latency", "stream", "usage")),
    *(pytest.param(GOLDEN, b, True, id=b)
      for b in ("alloc", "fault", "atomics", "memcpy")),
    *(pytest.param(GOLDEN / "xnack0", b, False, id=f"xnack0-{b}")
      for b in ("alloc", "usage", "stream", "latency", "fault")),
])
def test_grid_csv_matches_golden(profile, directory, bench, xnack):
    profile = replace(profile, xnack=xnack)
    rows = harness.run(profile, harness.WorkloadSpec(benchmark=bench, seed=0))
    expected = (directory / f"{bench}.csv").read_text(encoding="utf-8")
    assert harness.report(rows, "csv") == expected


def test_profile_dump_matches_golden():
    assert serialize_profile(builtin_mi300a()) == reference("builtin.profile")

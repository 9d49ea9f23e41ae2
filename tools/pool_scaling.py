"""How the frame pool's cost grows with the HBM capacity.

    python3 tools/pool_scaling.py [--capacities 128 1024 4096] [--seed 11]
                                  [--builds 15] [--runs 1]

For each capacity (GiB) of the built-in profile it prints one row: the
best time of --builds MemoryManager builds in this process, the
tracemalloc size a new build holds, and the wall time and maximum RSS of
--runs cold `upm-sim run latency --seed S` processes (the median wall
time, the largest RSS). upm_sim is imported from the src directory next
to this one. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from upm_sim.machine import GiB, builtin_mi300a, serialize_profile  # noqa: E402
from upm_sim.memmgr import MemoryManager  # noqa: E402


def build_cost(profile, seed: int, builds: int) -> tuple[float, int]:
    """(best build time in s, bytes a new build holds). Each timed build
    has its own seed, so none reuses the previous one's boot order."""
    np.random.SeedSequence(seed)  # numpy.random is imported before timing
    best = float("inf")
    for i in range(builds):
        t0 = time.perf_counter()
        MemoryManager(profile, seed=seed + 1 + i)
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        manager = MemoryManager(profile, seed=seed)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del manager
    return best, held


def cold_latency(profile_path: str, seed: int) -> tuple[float, int]:
    """(wall s, max RSS in bytes) of one cold `upm-sim run latency`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = "import sys; from upm_sim.cli import main; sys.exit(main())"
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", code, "run", "latency", "--seed", str(seed),
         "--profile", profile_path], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)  # this child's own usage
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped above
    if child.returncode:
        raise SystemExit(f"run latency exited with {child.returncode}")
    return wall, usage.ru_maxrss * 1024  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capacities", type=int, nargs="+",
                        default=[128, 1024, 4096], metavar="GIB")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--builds", type=int, default=15)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args(argv)
    print("| `hbm_capacity` | build | held after build | `run latency` "
          "| max RSS |")
    print("|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for gib in args.capacities:
            profile = replace(builtin_mi300a(), hbm_capacity=gib * GiB)
            path = os.path.join(tmp, f"hbm{gib}.profile")
            Path(path).write_text(serialize_profile(profile), encoding="utf-8")
            build, held = build_cost(profile, args.seed, args.builds)
            runs = [cold_latency(path, args.seed) for _ in range(args.runs)]
            wall = statistics.median(w for w, _ in runs)
            rss = max(r for _, r in runs)
            print(f"| {gib} GiB | {build * 1e3:.2f} ms | {held / 1e6:.2f} MB "
                  f"| {wall:.2f} s | {rss / 1e6:.0f} MB |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

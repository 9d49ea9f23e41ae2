"""One run of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py <workload> <seed> <mode>

mode is ``setup`` (set up, then exit), ``count`` (run with exact counts,
no clock reads inside the program) or ``trace`` (counts plus spans).
Set-up is interpreter start, ``import upm_sim``, building the built-in
profile and loading the committed profile document; the worker reports
the CLOCK_MONOTONIC time at which set-up ended so that the parent, which
noted the time it started this process, can take the difference.
upm_sim is imported from the ``src`` directory next to this one.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROFILE_DOC = HERE / "reference" / "builtin.profile"


def run_workload(harness, profile, workload: str, seed: int) -> str:
    """The text a CLI user gets from `verify` or `run <workload>`."""
    if workload == "verify":
        return "\n".join(harness.verify(profile, seed=seed).lines()) + "\n"
    spec = harness.WorkloadSpec(benchmark=workload, seed=seed)
    return harness.report(harness.run(profile, spec), "csv")


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    import upm_sim
    if Path(upm_sim.__file__).resolve().parent != (SRC / "upm_sim").resolve():
        print(f"worker: upm_sim imported from {upm_sim.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import spans
    recorder = spans.Recorder(upm_sim, timed=(mode == "trace"))
    recorder.install()
    try:
        machine = upm_sim.machine
        text = PROFILE_DOC.read_text(encoding="utf-8")
        builtin = machine.builtin_mi300a()
        profile = machine.load_profile(text)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        profile_ok = (profile == builtin
                      and machine.serialize_profile(builtin) == text)
        result = {"ready": ready, "profile_ok": profile_ok}
        if mode != "setup":
            cpu0, wall0 = time.process_time(), time.perf_counter()
            output = recorder.call(spans.ROOT, run_workload, upm_sim.harness,
                                   profile, workload, seed)
            wall1, cpu1 = time.perf_counter(), time.process_time()
            result.update(wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0,
                          output=output)
    finally:
        restored = recorder.uninstall()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    recorder.read_caches()
    result.update(restored=restored, peak_rss_mb=rss_kib * 1024 / 1e6,
                  counts=recorder.counts, calls=recorder.calls)
    if recorder.timed:
        result.update(self_s=recorder.self_times(), spans=recorder.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Smoke test of the benchmark's span recorder against the package.

perfbench/spans.py patches upm_sim callables by name and reads their
arguments by position; a renamed method or a moved argument would
otherwise show up only as a failed benchmark run.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import upm_sim
from upm_sim import harness, perf
from upm_sim.machine import KiB, MiB, builtin_mi300a
from upm_sim.memmgr import Agent, AllocatorKind, MemoryManager

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_counts_every_hook_and_uninstalls():
    spans = load_spans()
    builtin = builtin_mi300a()
    # Small operands, and a profile and seed no other test uses, so both
    # lru_caches miss once and then hit once.
    profile = replace(builtin, bw_model=replace(
        builtin.bw_model, gpu_stream_array_bytes=4 * MiB,
        cpu_stream_array_bytes=4 * MiB))
    seed = 424_243
    caches = (perf.build_triad_workset, harness.build_cpu_stream_stats)
    before = [cache.cache_info() for cache in caches]
    recorder = spans.Recorder(upm_sim, timed=True)
    recorder.install()
    try:
        for _ in range(2):
            # CPU faults, then GPU minor faults and the TRIAD TLB count.
            perf.build_triad_workset(profile, AllocatorKind.LIBC_ON_DEMAND,
                                     Agent.CPU, seed)
            harness.build_cpu_stream_stats(
                profile, AllocatorKind.LIBC_ON_DEMAND, Agent.CPU, seed)
        m = MemoryManager(profile, seed=seed)
        a = m.allocate(AllocatorKind.LIBC_ON_DEMAND, 64 * KiB)
        m.touch(a, None, Agent.GPU)                      # GPU major faults
        m.release(a)
    finally:
        restored = recorder.uninstall()
    assert restored
    recorder.read_caches()
    assert {name for name, n in recorder.counts.items() if n == 0} == set()
    for (prefix, _, _), info in zip(spans._CACHES, before):
        assert recorder.counts[f"{prefix}.hits"] == info.hits + 1
        assert recorder.counts[f"{prefix}.misses"] == info.misses + 1
    assert recorder.counts["memmgr.faults.gpu_major"] == 16
    assert recorder.counts["memmgr.frames_released"] >= 16

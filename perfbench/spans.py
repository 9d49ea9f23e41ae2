"""Span and count recording around upm_sim's public callables.

The recorder patches module functions and class methods of an imported
upm_sim from outside the package, records one span (name, parent, start,
end) per call when timing is on, and accumulates exact counts of
simulated work at the same boundaries. Untimed recorders keep only the
counts and read no clock. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import time

# (span name, object path inside upm_sim, attribute). Object paths name a
# module or a class; harness and perf call these through module or class
# attributes, so patching the attribute reaches every internal call.
SPANS = (
    ("machine.builtin_mi300a", "machine", "builtin_mi300a"),
    ("machine.load_profile", "machine", "load_profile"),
    ("memmgr.construct", "memmgr.MemoryManager", "__init__"),
    ("memmgr.allocate", "memmgr.MemoryManager", "allocate"),
    ("memmgr.touch", "memmgr.MemoryManager", "touch"),
    ("memmgr.release", "memmgr.MemoryManager", "release"),
    ("pagetable.map_range", "pagetable.DualTable", "map_range"),
    ("pagetable.propagate", "pagetable.DualTable", "propagate"),
    ("pagetable.unmap_range", "pagetable.DualTable", "unmap_range"),
    ("tlb.triad_misses", "tlb", "triad_misses"),
    ("perf.build_triad_workset", "perf", "build_triad_workset"),
    ("perf.channel_load", "perf", "channel_load"),
    ("perf.chase_latency", "perf", "chase_latency"),
    ("fault.sample", "fault.LatencyModel", "sample"),
    ("fault.throughput", "fault", "throughput"),
    ("atomics.throughput", "atomics", "throughput"),
    ("harness.measure_chase", "harness", "measure_chase"),
    ("harness.build_cpu_stream_stats", "harness", "build_cpu_stream_stats"),
    ("harness.usage_matrix", "harness", "usage_matrix"),
    ("harness.report", "harness", "report"),
)

# The span the worker opens around one harness.verify or harness.run plus
# its rendering; its self time is the harness remainder.
ROOT = "harness.workload"
SPAN_NAMES = tuple(name for name, _, _ in SPANS) + (ROOT,)

COUNTS = (
    "memmgr.managers", "memmgr.pages_mapped", "memmgr.frames_released",
    "memmgr.faults.cpu", "memmgr.faults.gpu_minor", "memmgr.faults.gpu_major",
    "pagetable.pages_mapped", "pagetable.pages_propagated",
    "tlb.misses", "tlb.page_steps",
    "perf.workset_cache.hits", "perf.workset_cache.misses",
    "harness.stream_stats_cache.hits", "harness.stream_stats_cache.misses",
)

# lru_cache'd callables whose cache_info() feeds the cache counts.
_CACHES = (("perf.workset_cache", "perf", "build_triad_workset"),
           ("harness.stream_stats_cache", "harness",
            "build_cpu_stream_stats"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_hooks(upm_sim, counts):
    """Per-span (before, after) hooks that add to the counts dict.

    ``before(args, kwargs)`` runs ahead of the call and returns a state
    passed on to ``after(state, result, args, kwargs)``, which runs only
    when the call returns normally.
    """
    kinds = upm_sim.fault.FaultKind
    fault_names = ((kinds.CPU, "memmgr.faults.cpu"),
                   (kinds.GPU_MINOR, "memmgr.faults.gpu_minor"),
                   (kinds.GPU_MAJOR, "memmgr.faults.gpu_major"))

    def construct(state, result, args, kwargs):
        counts["memmgr.managers"] += 1

    def allocate(state, result, args, kwargs):
        counts["memmgr.pages_mapped"] += result.mapped_pages

    def touch_before(args, kwargs):
        return _arg(args, kwargs, 1, "alloc").mapped_pages

    def touch(state, result, args, kwargs):
        alloc = _arg(args, kwargs, 1, "alloc")
        counts["memmgr.pages_mapped"] += alloc.mapped_pages - state
        for kind, name in fault_names:
            counts[name] += result.count(kind)

    def release_before(args, kwargs):
        return sum(n for _, n in _arg(args, kwargs, 1, "alloc").frame_runs)

    def release(state, result, args, kwargs):
        counts["memmgr.frames_released"] += state

    def map_range(state, result, args, kwargs):
        counts["pagetable.pages_mapped"] += len(_arg(args, kwargs, 3, "frames"))

    def propagate(state, result, args, kwargs):
        counts["pagetable.pages_propagated"] += result

    def triad_misses(state, result, args, kwargs):
        arrays = _arg(args, kwargs, 1, "arrays")
        iterations = _arg(args, kwargs, 2, "iterations")
        counts["tlb.misses"] += result
        counts["tlb.page_steps"] += iterations * sum(n for _, n in arrays)

    return {
        "memmgr.construct": (None, construct),
        "memmgr.allocate": (None, allocate),
        "memmgr.touch": (touch_before, touch),
        "memmgr.release": (release_before, release),
        "pagetable.map_range": (None, map_range),
        "pagetable.propagate": (None, propagate),
        "tlb.triad_misses": (None, triad_misses),
    }


def _resolve(upm_sim, path):
    obj = upm_sim
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Recorder:
    """Patches upm_sim's callables; records counts, and spans if timed."""

    def __init__(self, upm_sim, timed: bool):
        self.upm_sim = upm_sim
        self.timed = timed
        self.counts = dict.fromkeys(COUNTS, 0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        # [name, parent index or -1, start, end] in perf_counter seconds.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        self.calls[name] += 1
        if not self.timed:
            return fn(*args, **kwargs)
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, hooks):
        before, after = hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            result = self.call(name, fn, *args, **kwargs)
            if after:
                after(state, result, args, kwargs)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        hooks = _count_hooks(self.upm_sim, self.counts)
        for name, path, attr in SPANS:
            owner = _resolve(self.upm_sim, path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(name, original, hooks.get(name, (None, None))))

    def uninstall(self) -> bool:
        """Restore every patched callable; True when all are back."""
        patched, self._originals = self._originals, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        return all(_resolve(self.upm_sim, path).__dict__[attr] is original
                   for (_, path, attr), (_, _, original)
                   in zip(SPANS, patched))

    # -- results -------------------------------------------------------------

    def read_caches(self):
        """Copy cache_info() of the lru-cached builders into the counts."""
        for prefix, path, attr in _CACHES:
            info = getattr(_resolve(self.upm_sim, path), attr).cache_info()
            self.counts[f"{prefix}.hits"] = info.hits
            self.counts[f"{prefix}.misses"] = info.misses

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the duration of children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, _, start, end), inner in zip(self.spans, child):
            totals[name] += (end - start) - inner
        return totals

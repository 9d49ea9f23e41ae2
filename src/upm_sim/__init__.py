"""Deterministic simulator of a CPU-GPU unified-physical-memory subsystem.

The package models one APU: its HBM stacks and channel interleave, the
shared memory-side cache, dual page tables with fragment fields, the
fragment-aware GPU TLB, allocator kinds with their placement behavior,
page-fault cost, and atomics contention. A benchmark harness replays the
characterization workloads and a verify command checks the calibrated
model against its anchored expectations.
"""

from .machine import MachineProfile, builtin_mi300a, load_profile, \
    serialize_profile, validate
from .memmgr import (Agent, AllocatorKind, MemoryManager, Policy,
                     UsageCounter, alloc_time_model, classify, free_time_model)
from .fault import FaultKind, Scenario, prefault_pipeline, \
    throughput as fault_throughput
from .perf import (ChannelLoad, LatencyBreakdown, channel_load, chase_latency,
                   memcpy_bandwidth, triad_bandwidth)
from .atomics import AtomicsResult, AtomicsWorkload, Dtype, collision_rate
from .harness import WorkloadSpec, report, run, verify

__version__ = "0.1.0"

__all__ = [
    "MachineProfile", "builtin_mi300a", "load_profile", "serialize_profile",
    "validate", "Agent", "AllocatorKind", "MemoryManager",
    "Policy", "UsageCounter", "alloc_time_model", "classify",
    "free_time_model", "FaultKind", "Scenario", "prefault_pipeline",
    "fault_throughput", "ChannelLoad",
    "LatencyBreakdown", "channel_load", "chase_latency",
    "memcpy_bandwidth", "triad_bandwidth", "AtomicsResult",
    "AtomicsWorkload", "Dtype", "collision_rate", "WorkloadSpec", "report",
    "run", "verify", "__version__",
]

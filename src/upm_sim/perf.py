"""Analytic latency and bandwidth models.

Dependent-load (pointer-chase) latency is a capacity-weighted mix of the
agent's hierarchy levels; the memory-side cache contributes with an
effective capacity scaled by the allocation's channel balance, because the
cache is partitioned into per-channel slices and unevenly placed data can
only use the slices its channels map to.

Streaming (TRIAD) bandwidth on the GPU starts from a blended peak (the
share of traffic served by the memory-side cache at its higher bandwidth)
degraded by address-translation stalls: fewer and larger fragments mean
fewer TLB misses and less walk time. CPU streaming saturates at a cap that
depends on how the memory was placed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import memmgr, tlb as tlb_mod
from .machine import MachineProfile
from .memmgr import (KINDS, AccessViolation, Agent, Allocation,
                     AllocatorKind, MemoryManager, Policy, classify)
from .pagetable import Unmapped


@dataclass(frozen=True)
class ChannelLoad:
    bytes_per_channel: tuple[int, ...]

    @property
    def balance(self) -> float:
        counts = np.asarray(self.bytes_per_channel, dtype=np.float64)
        peak = counts.max()
        if peak <= 0:
            raise ValueError("channel load is empty")
        return float(counts.mean() / peak)


def channel_load(profile: MachineProfile,
                 allocs: Allocation | list[Allocation]) -> ChannelLoad:
    """Per-channel byte load of fully mapped allocations: channels take
    interleave_granularity (= page_size) pieces of memory in rotation.
    Counted from the frame runs that map each allocation's pages."""
    if isinstance(allocs, Allocation):
        allocs = [allocs]
    channels = profile.channels
    counts = np.zeros(channels, dtype=np.int64)
    for alloc in allocs:
        _, sizes, frames, _ = alloc.region.runs
        if sizes.sum() != alloc.n_pages:
            raise Unmapped(f"allocation {alloc.id} not fully mapped")
        counts += _run_channels(channels, frames, sizes)
    return ChannelLoad(tuple(int(c) * profile.page_size for c in counts))


def _run_channels(channels: int, starts: np.ndarray,
                  sizes: np.ndarray) -> np.ndarray:
    """Frames per channel of the runs (starts, sizes): a run of n frames
    from s holds n // channels frames of every channel and one more of
    the n % channels channels from s % channels on, wrapping."""
    whole = int((sizes // channels).sum())
    first = starts % channels
    ends = sizes % channels
    ends += first
    # Runs covering each of 2 * channels positions, folded onto channels.
    cover = np.cumsum(np.bincount(first, minlength=2 * channels)
                      - np.bincount(ends, minlength=2 * channels))
    return whole + cover[:channels] + cover[channels:]


@dataclass(frozen=True)
class LatencyBreakdown:
    fractions: dict[str, float]
    weighted_ns: float


def _hierarchy(profile: MachineProfile, agent: Agent,
               balance: float) -> list[tuple[str, int | float, float]]:
    ic_eff = profile.ic_capacity * balance
    if agent is Agent.GPU:
        g = profile.gpu
        levels = [("l1", g.l1_capacity, g.l1_latency),
                  ("l2", g.l2_capacity, g.l2_latency),
                  ("ic", max(ic_eff, g.l2_capacity), g.ic_latency),
                  ("hbm", float("inf"), g.hbm_latency)]
    else:
        c = profile.cpu
        levels = [("l1", c.l1_capacity, c.l1_latency),
                  ("l2", c.l2_capacity, c.l2_latency),
                  ("l3", c.l3_capacity, c.l3_latency),
                  ("ic", max(ic_eff, c.l3_capacity), c.ic_latency),
                  ("hbm", float("inf"), c.hbm_latency)]
    return levels


def chase_latency(profile: MachineProfile, agent: Agent, working_set: int,
                  load: ChannelLoad | float = 1.0) -> LatencyBreakdown:
    """Average dependent-load latency over a uniformly chased working set."""
    if working_set <= 0:
        raise ValueError("working_set must be positive")
    balance = load.balance if isinstance(load, ChannelLoad) else float(load)
    fractions: dict[str, float] = {}
    weighted = 0.0
    prev = 0.0
    for name, cap, lat in _hierarchy(profile, agent, balance):
        served = max(0.0, min(working_set, cap) - prev)
        frac = served / working_set
        fractions[name] = frac
        weighted += frac * lat
        prev = max(prev, min(working_set, cap))
    return LatencyBreakdown(fractions=fractions, weighted_ns=weighted)


# --------------------------------------------------------------------------
# Streaming bandwidth
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TriadWorkset:
    """Placement-derived inputs of the GPU streaming model."""
    array_bytes: int
    balance: float
    tlb_misses: int
    miss_per_access: float


@functools.lru_cache(maxsize=64)
def build_triad_workset(profile: MachineProfile, kind: AllocatorKind,
                        init_agent: Agent, seed: int = 0) -> TriadWorkset:
    """Allocate and initialize the three TRIAD operands, then measure
    their channel balance and translation miss rate.

    Calls with one placement key (memmgr.placement_key) give the same
    workset, and so do both init agents of up-front memory, whose first
    touch maps nothing. So only the key with the CPU as init agent of
    up-front memory is simulated; any other call reads its workset
    through this cache."""
    spec = classify(kind, profile.xnack)
    key = memmgr.placement_key(profile, kind)
    agent = Agent.CPU if spec.physical is Policy.UP_FRONT else init_agent
    if (*key, agent) != (profile, kind, init_agent):
        return build_triad_workset(*key, agent, seed)
    manager = MemoryManager(profile, seed=seed)
    array_bytes = profile.bw_model.gpu_stream_array_bytes
    allocs = [manager.allocate(kind, array_bytes) for _ in range(3)]
    for alloc in allocs:
        manager.touch(alloc, None, init_agent)
        if spec.gpu_access and alloc.policy is Policy.ON_DEMAND \
                and init_agent is Agent.CPU:
            # The first kernel pass resolves replayable faults; steady
            # state sees the propagated table.
            manager.touch(alloc, None, Agent.GPU)
    balance = channel_load(profile, allocs).balance
    misses, miss_rate = 0, 0.0
    if spec.gpu_access:
        arrays = [(a.va_base, a.n_pages) for a in allocs]
        iterations = profile.bw_model.triad_iterations
        misses = tlb_mod.triad_misses(manager.table, arrays, iterations,
                                      profile.gpu.tlb_entries)
        elements = array_bytes // profile.bw_model.stream_element_bytes
        miss_rate = misses / (iterations * 3 * elements)
    return TriadWorkset(array_bytes=array_bytes, balance=balance,
                        tlb_misses=misses, miss_per_access=miss_rate)


def gpu_triad_workset(profile: MachineProfile, kind: AllocatorKind,
                      init_agent: Agent, seed: int = 0) -> TriadWorkset | None:
    """The GPU streaming rules: AccessViolation when the GPU cannot reach
    kind, None when its rate is fixed (static managed data), else the
    workset the TRIAD model reads."""
    if not classify(kind, profile.xnack).gpu_access:
        raise AccessViolation(f"GPU cannot stream {kind.value} memory")
    if KINDS[kind].fixed_gpu_bw:
        return None
    return build_triad_workset(profile, kind, init_agent, seed)


def gpu_stream_bandwidth(profile: MachineProfile, balance: float,
                         miss_per_access: float, working_bytes: int) -> float:
    """GPU TRIAD model: cache-blended peak over translation stalls."""
    bw = profile.bw_model
    phi = min(1.0, profile.ic_capacity * balance / working_bytes)
    blend = 1.0 / (1.0 - (1.0 - profile.hbm_peak_bw / profile.ic_peak_bw) * phi)
    stall = 1.0 + miss_per_access * bw.walk_penalty
    return profile.hbm_peak_bw * bw.gpu_peak_fraction * blend / stall


def triad_bandwidth(profile: MachineProfile, agent: Agent,
                    kind: AllocatorKind, init_agent: Agent = Agent.CPU,
                    threads: int = 1,
                    workset: TriadWorkset | None = None) -> float:
    """Achievable TRIAD bandwidth (bytes/s) for one agent and allocator.

    A GPU workset, when given, comes from gpu_triad_workset for kind.
    """
    spec = classify(kind, profile.xnack)
    if agent is Agent.GPU:
        if workset is None:
            workset = gpu_triad_workset(profile, kind, init_agent)
            if workset is None:
                return profile.bw_model.static_managed_bw
        return gpu_stream_bandwidth(profile, workset.balance,
                                    workset.miss_per_access,
                                    3 * workset.array_bytes)
    if threads < 1:
        raise ValueError("CPU streaming needs at least one thread")
    bw = profile.bw_model
    if spec.physical is Policy.UP_FRONT or init_agent is Agent.GPU:
        cap = bw.cpu_bw_upfront
    else:
        cap = bw.cpu_bw_ondemand
    return min(threads * bw.cpu_per_thread_bw, cap)


def memcpy_bandwidth(profile: MachineProfile, src_kind: AllocatorKind,
                     dst_kind: AllocatorKind, sdma: bool) -> float:
    """Explicit-copy bandwidth between two allocations."""
    bw = profile.bw_model
    src, dst = KINDS[src_kind].device, KINDS[dst_kind].device
    if src and dst:
        return bw.memcpy_d2d_bw
    if (src or dst) and sdma:
        return bw.memcpy_sdma_bw
    return bw.memcpy_nosdma_bw

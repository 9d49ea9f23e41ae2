"""Allocator kinds, physical frame placement, first touch, usage counters.

Six allocator kinds are modeled, mirroring the platform's allocator matrix:
standard heap memory (on-demand), heap memory registered for GPU access,
device allocations, pinned host allocations, managed unified allocations
(up-front or on-demand depending on fault replay support) and static
managed variables.

Physical frames come from a buddy-style pool over power-of-two runs whose
largest order is one 512 KiB block. Placement reproduces the observable
behavior of the real allocators:

* device allocations take whole blocks, so every block is one fragment
  and channel load is perfectly even;
* host-path allocations (pinned, registered, managed, and faulting heap
  memory) receive 16-page contiguous batches, the kernel's per-CPU
  free-list refill grain;
* CPU first-touch draws those batches from channel groups with a Zipf
  bias, modeling the free-list's physical-address bias; GPU first touch
  takes whole blocks and therefore restores even channel load.

Frames drawn for a batch but not yet mapped stay reserved for the rest of
that batch's virtual block (they sit in the kernel's per-CPU cache, not in
the free pool). Each allocation keeps those reservations in an int64 array
indexed by virtual batch (CPU) or block (GPU), -1 where nothing is drawn.

The pool keeps whole free blocks in a bytearray alive map. They are drawn
from a boot-time permutation, read by a cursor from its end, after any
released blocks, which a plain list returns last-released first; sequential
draws use a heap built from the alive map. The permutation is computed
once per seed and pool size and shared, read-only, by every pool of that
seed; only the latest one is kept. Runs smaller than a block sit in one
dict per order, 16-page runs in one dict per channel group. All scattered
batches of one placement are drawn in a single ``take_batches`` call. A
draw that runs out of frames part-way returns what it took and restores
the scatter generator, so a failed allocate or touch leaves the pool and
the group stream as it found them.
"""

from __future__ import annotations

import enum
import functools
import heapq
from dataclasses import dataclass, field

import numpy as np

from . import pagetable
from .fault import FaultKind, LatencyModel, Scenario
from .machine import MachineProfile


class Agent(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"


class Policy(enum.Enum):
    UP_FRONT = "up_front"
    ON_DEMAND = "on_demand"


class AllocatorKind(enum.Enum):
    LIBC_ON_DEMAND = "libc_on_demand"        # plain heap memory
    REGISTERED_HOST = "registered_host"      # heap memory + GPU registration
    DEVICE_UP_FRONT = "device_up_front"      # device allocator
    PINNED_HOST = "pinned_host"              # page-locked host allocator
    MANAGED_UNIFIED = "managed_unified"      # managed unified allocator
    STATIC_MANAGED = "static_managed"        # static managed variables


class UsageCounter(enum.Enum):
    LIBNUMA = "libnuma"
    MEMINFO = "meminfo"
    HIP_MEM_GET_INFO = "hip_mem_get_info"
    PROCESS_RSS = "process_rss"


class PlacementMode(enum.Enum):
    CONTIGUOUS_BEST_EFFORT = "contiguous_best_effort"
    INCREMENTAL_SCATTER = "incremental_scatter"


class OutOfMemory(Exception):
    pass


class ZeroSize(Exception):
    pass


class AccessViolation(Exception):
    """Fatal (non-replayable) GPU access to memory it may not touch."""


class DoubleFree(Exception):
    pass


class UseAfterFree(Exception):
    pass


@dataclass(frozen=True)
class AccessSpec:
    gpu_access: bool
    cpu_access: bool
    physical: Policy


def classify(kind: AllocatorKind, xnack: bool) -> AccessSpec:
    """Access matrix of the allocator kinds (exact, total over kind x xnack)."""
    if kind is AllocatorKind.LIBC_ON_DEMAND:
        return AccessSpec(gpu_access=bool(xnack), cpu_access=True,
                          physical=Policy.ON_DEMAND)
    if kind is AllocatorKind.REGISTERED_HOST:
        return AccessSpec(True, True, Policy.UP_FRONT)
    if kind is AllocatorKind.DEVICE_UP_FRONT:
        return AccessSpec(True, True, Policy.UP_FRONT)
    if kind is AllocatorKind.PINNED_HOST:
        return AccessSpec(True, True, Policy.UP_FRONT)
    if kind is AllocatorKind.MANAGED_UNIFIED:
        return AccessSpec(True, True,
                          Policy.ON_DEMAND if xnack else Policy.UP_FRONT)
    if kind is AllocatorKind.STATIC_MANAGED:
        return AccessSpec(True, True, Policy.UP_FRONT)
    raise ValueError(f"unknown kind {kind!r}")


@dataclass(frozen=True)
class FramePolicy:
    mode: PlacementMode = PlacementMode.INCREMENTAL_SCATTER
    seed: int = 0
    scatter_degree: float = 1.0


class FaultBatch:
    """Vectorized faults (kind, virtual page, latency) of one touch call."""

    _KIND_CODES = {FaultKind.CPU: 0, FaultKind.GPU_MINOR: 1,
                   FaultKind.GPU_MAJOR: 2}

    def __init__(self, kinds=None, pages=None, latencies_us=None):
        self.kinds = np.asarray(kinds if kinds is not None else [], dtype=np.uint8)
        self.pages = np.asarray(pages if pages is not None else [], dtype=np.int64)
        self.latencies_us = np.asarray(
            latencies_us if latencies_us is not None else [], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.kinds)

    def count(self, kind: FaultKind) -> int:
        return int(np.count_nonzero(self.kinds == self._KIND_CODES[kind]))

    @classmethod
    def merge(cls, batches) -> "FaultBatch":
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls()
        return cls(np.concatenate([b.kinds for b in batches]),
                   np.concatenate([b.pages for b in batches]),
                   np.concatenate([b.latencies_us for b in batches]))


# --------------------------------------------------------------------------
# Frame pool: buddy structure over power-of-two runs, largest order = block
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _boot_order(entropy: int, spawn_key: tuple, n_blocks: int) -> np.ndarray:
    """Read-only boot-time block order of the pool seeded by
    SeedSequence(entropy, spawn_key). Every pool of one seed shares it;
    only the latest is kept, so a sweep over seeds keeps memory flat."""
    ss = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    order = np.random.default_rng(ss).permutation(n_blocks)
    order.flags.writeable = False
    return order


class FramePool:
    def __init__(self, profile: MachineProfile, ss: np.random.SeedSequence):
        self.block_pages = profile.placement.frame_block_pages
        self.batch_pages = profile.placement.kernel_batch_pages
        self.block_order = self.block_pages.bit_length() - 1
        self.batch_order = self.batch_pages.bit_length() - 1
        if 1 << self.block_order != self.block_pages:
            raise ValueError("frame_block_pages must be a power of two")
        if 1 << self.batch_order != self.batch_pages:
            raise ValueError("kernel_batch_pages must be a power of two")
        self.groups_n = self.block_pages // self.batch_pages
        self.n_blocks = profile.total_frames // self.block_pages
        self.total_frames = self.n_blocks * self.block_pages
        self.used_frames = 0
        # Boot-time free-list order is not address-sorted; a deterministic
        # shuffle stands in for it and keeps blocks non-adjacent. Blocks
        # are drawn from its end; released blocks are drawn first, last
        # released first.
        self._boot_order = _boot_order(ss.entropy, ss.spawn_key,
                                       self.n_blocks)
        self._boot_left = self.n_blocks
        self._released: list[int] = []
        self._block_alive = bytearray(b"\x01") * self.n_blocks
        self._block_sorted: list[int] | None = None  # lazy, sequential draws
        self._runs: dict[int, dict[int, None]] = {
            o: {} for o in range(self.block_order) if o != self.batch_order}
        self._group_runs: list[dict[int, None]] = [
            {} for _ in range(self.groups_n)]
        self._seq_pending: list[int] = []

    @property
    def free_frames(self) -> int:
        return self.total_frames - self.used_frames

    # -- internal stores -------------------------------------------------

    def _store(self, order: int, start: int) -> dict[int, None]:
        if order == self.batch_order:
            return self._group_runs[(start >> self.batch_order) % self.groups_n]
        return self._runs[order]

    def _pop_block(self) -> int | None:
        alive = self._block_alive
        while self._released:
            b = self._released.pop()
            if alive[b]:
                alive[b] = 0
                return b
        while self._boot_left:
            self._boot_left -= 1
            b = int(self._boot_order[self._boot_left])
            if alive[b]:
                alive[b] = 0
                return b
        return None

    def _alive_blocks(self) -> np.ndarray:
        return np.flatnonzero(np.frombuffer(self._block_alive, dtype=np.uint8))

    def _pop_block_sorted(self) -> int | None:
        if self._block_sorted is None:
            self._block_sorted = self._alive_blocks().tolist()  # a heap
        alive = self._block_alive
        while self._block_sorted:
            b = heapq.heappop(self._block_sorted)
            if alive[b]:
                alive[b] = 0
                return b
        return None

    def _take_run(self, order: int) -> int:
        """Remove and return one free run of 2^order pages (may split)."""
        if order >= self.block_order:
            b = self._pop_block()
            if b is None:
                raise OutOfMemory("no contiguous block available")
            return b << self.block_order
        if order == self.batch_order:
            for g in range(self.groups_n):
                if self._group_runs[g]:
                    start, _ = self._group_runs[g].popitem()
                    return start
        else:
            store = self._runs[order]
            if store:
                start, _ = store.popitem()
                return start
        upper = self._take_run(order + 1)
        half = 1 << order
        self._store(order, upper + half)[upper + half] = None
        return upper

    # -- draws -------------------------------------------------------------

    def take_contiguous(self, n_pages: int) -> list[tuple[int, int]]:
        """Largest-run-first power-of-two decomposition; exact page count."""
        if n_pages > self.free_frames:
            raise OutOfMemory(f"{n_pages} pages requested, "
                              f"{self.free_frames} free")
        runs: list[tuple[int, int]] = []
        left = n_pages
        try:
            while left:
                order = min(self.block_order, left.bit_length() - 1)
                start = None
                for o in range(order, -1, -1):
                    try:
                        start = self._take_run(o)
                    except OutOfMemory:
                        continue
                    order = o
                    break
                if start is None:
                    raise OutOfMemory("free frames too fragmented")
                size = 1 << order
                runs.append((start, size))
                self.used_frames += size
                left -= size
        except OutOfMemory:
            for start, size in runs:
                self.release_run(start, size)
            raise
        return runs

    def take_batches(self, groups: list[int]) -> list[int]:
        """One 16-page aligned run per listed channel group, in order.

        A dry group store is refilled by splitting the next free block
        into one slot per group; with no block left, by splitting the
        32- and 64-page runs, then from the other groups. If one draw
        fails, the runs already drawn go back to the pool before
        OutOfMemory propagates.
        """
        group_runs = self._group_runs
        slots = [g << self.batch_order for g in range(self.groups_n)]
        starts: list[int] = []
        append = starts.append
        try:
            for group in groups:
                store = group_runs[group]
                if not store:
                    b = self._pop_block()
                    if b is not None:
                        base = b << self.block_order
                        for run, slot in zip(group_runs, slots):
                            run[base + slot] = None
                    else:
                        store = self._refill_dry(group)
                append(store.popitem()[0])
        except OutOfMemory:
            self.used_frames += len(starts) * self.batch_pages
            for start in starts:
                self.release_run(start, self.batch_pages)
            raise
        self.used_frames += len(starts) * self.batch_pages
        return starts

    def _refill_dry(self, group: int) -> dict[int, None]:
        """A non-empty 16-page store for group once no block is left."""
        for o in range(self.batch_order + 1, self.block_order):
            if self._runs.get(o):
                start, _ = self._runs[o].popitem()
                for k in range(1 << (o - self.batch_order)):
                    slot = start + (k << self.batch_order)
                    self._store(self.batch_order, slot)[slot] = None
                break
        for g in range(self.groups_n):
            alt = self._group_runs[(group + g) % self.groups_n]
            if alt:
                return alt
        raise OutOfMemory("no 16-page run available")

    def take_block_run(self) -> int:
        """One whole block (128 pages), split from higher stores if needed."""
        start = self._take_run(self.block_order)
        self.used_frames += self.block_pages
        return start

    def take_batch_sequential(self) -> int:
        """Next 16-page run in ascending frame order."""
        if not self._seq_pending:
            b = self._pop_block_sorted()
            if b is None:
                raise OutOfMemory("no contiguous block available")
            base = b << self.block_order
            self._seq_pending = [
                base + (g << self.batch_order)
                for g in range(self.groups_n - 1, -1, -1)]
        start = self._seq_pending.pop()
        self.used_frames += self.batch_pages
        return start

    # -- release -----------------------------------------------------------

    def release_run(self, start: int, n_pages: int):
        self.used_frames -= n_pages
        while n_pages:
            max_align = (start & -start).bit_length() - 1 if start else self.block_order
            order = min(self.block_order, max_align, n_pages.bit_length() - 1)
            self._free_run(start, order)
            start += 1 << order
            n_pages -= 1 << order

    def _claim(self, start: int, order: int) -> bool:
        """Remove [start, +2^order) from the free stores if entirely free,
        possibly assembled from finer free pieces."""
        store = self._store(order, start)
        if start in store:
            del store[start]
            return True
        if order == 0:
            return False
        half = 1 << (order - 1)
        if self._claim(start, order - 1):
            if self._claim(start + half, order - 1):
                return True
            self._free_run(start, order - 1)
        return False

    def _free_run(self, start: int, order: int):
        while order < self.block_order:
            buddy = start ^ (1 << order)
            if self._claim(buddy, order):
                start = min(start, buddy)
                order += 1
            else:
                self._store(order, start)[start] = None
                return
        b = start >> self.block_order
        self._block_alive[b] = 1
        self._released.append(b)
        if self._block_sorted is not None:
            heapq.heappush(self._block_sorted, b)

    def free_intervals(self) -> list[tuple[int, int]]:
        """Sorted maximal (start, n_pages) intervals of free frames."""
        pieces: list[tuple[int, int]] = [
            (b << self.block_order, self.block_pages)
            for b in self._alive_blocks().tolist()]
        for o, d in self._runs.items():
            pieces.extend((s, 1 << o) for s in d)
        for g in self._group_runs:
            pieces.extend((s, self.batch_pages) for s in g)
        pieces.extend((s, self.batch_pages) for s in self._seq_pending)
        pieces.sort()
        merged: list[list[int]] = []
        for s, n in pieces:
            if merged and merged[-1][0] + merged[-1][1] == s:
                merged[-1][1] += n
            else:
                merged.append([s, n])
        return [(s, n) for s, n in merged]

    def snapshot(self):
        """Canonical free-set contents for conservation tests."""
        return tuple(self.free_intervals()), self.used_frames


# --------------------------------------------------------------------------
# Allocations and the manager
# --------------------------------------------------------------------------

@dataclass
class Allocation:
    id: int
    kind: AllocatorKind
    va_base: int                   # first virtual page number
    n_pages: int
    size: int                      # requested bytes
    policy: Policy
    frame_policy: FramePolicy
    creation_time_model: float     # seconds, from alloc_time_model
    live: bool = True
    first_touch_agent: Agent | None = None
    mapped_pages: int = 0
    frame_runs: list = field(default_factory=list)
    # First frame reserved for each virtual batch / block, -1 if none yet.
    pending_cpu_batches: np.ndarray | None = field(default=None, repr=False)
    pending_gpu_blocks: np.ndarray | None = field(default=None, repr=False)
    cpu_chunk_pages: int | None = None
    cpu_chunks_mapped: set = field(default_factory=set)
    scatter_rng: np.random.Generator | None = field(default=None, repr=False)

    def page_range(self) -> tuple[int, int]:
        return self.va_base, self.va_base + self.n_pages


class MemoryManager:
    """Single-threaded simulator instance: tables, pool, counters, RNG."""

    def __init__(self, profile: MachineProfile, seed: int = 0):
        self.profile = profile
        ss = np.random.SeedSequence(seed)
        pool_ss, scatter_ss, fault_ss = ss.spawn(3)
        self._scatter_rng = np.random.default_rng(scatter_ss)
        self._fault_rng = np.random.default_rng(fault_ss)
        self.pool = FramePool(profile, pool_ss)
        self.table = pagetable.DualTable(profile.max_fragment)
        self.allocations: dict[int, Allocation] = {}
        self._next_id = 1
        self._latency = LatencyModel(profile)
        self._numa_bytes = 0
        self._hip_bytes = 0
        self._rss_bytes = 0
        self._static_alloc: Allocation | None = None
        self._chunk_pages = profile.hip_cpu_map_granularity // profile.page_size

    # -- allocation ------------------------------------------------------

    def _default_policy(self, kind: AllocatorKind) -> FramePolicy:
        if kind is AllocatorKind.DEVICE_UP_FRONT:
            return FramePolicy(PlacementMode.CONTIGUOUS_BEST_EFFORT, 0, 0.0)
        spec = classify(kind, self.profile.xnack)
        if spec.physical is Policy.UP_FRONT:
            degree = self.profile.placement.host_upfront_scatter_degree
        else:
            degree = self.profile.placement.cpu_touch_scatter_degree
        return FramePolicy(PlacementMode.INCREMENTAL_SCATTER, 0, degree)

    def allocate(self, kind: AllocatorKind, size: int,
                 policy: FramePolicy | None = None) -> Allocation:
        if size <= 0:
            raise ZeroSize(f"allocation size must be positive, got {size}")
        page = self.profile.page_size
        n_pages = -(-size // page)
        spec = classify(kind, self.profile.xnack)
        frame_policy = policy or self._default_policy(kind)
        alloc = Allocation(
            id=self._next_id, kind=kind, va_base=0, n_pages=n_pages,
            size=size, policy=spec.physical, frame_policy=frame_policy,
            creation_time_model=alloc_time_model(self.profile, kind, size,
                                                 self.profile.xnack))
        if frame_policy.seed:
            alloc.scatter_rng = np.random.default_rng(frame_policy.seed)
        if spec.physical is Policy.UP_FRONT:
            # Place first: a placement that fails leaves no frames, no
            # virtual reservation and no used id behind.
            if n_pages > self.pool.free_frames:
                raise OutOfMemory(
                    f"{n_pages} pages needed, {self.pool.free_frames} free")
            try:
                frames = self._place_up_front(alloc, n_pages)
            except OutOfMemory:
                for start, n in alloc.frame_runs:
                    self.pool.release_run(start, n)
                raise
        va_base = alloc.va_base = self.table.reserve(n_pages, align_pages=512)
        self._next_id += 1
        if spec.physical is Policy.UP_FRONT:
            self.table.map_range(pagetable.SYSTEM, va_base, frames)
            if spec.gpu_access:
                self.table.propagate(va_base, n_pages)
            alloc.mapped_pages = n_pages
            self._numa_bytes += n_pages * page
            if kind is AllocatorKind.DEVICE_UP_FRONT:
                self._hip_bytes += n_pages * page
            else:
                self._rss_bytes += n_pages * page
        self.allocations[alloc.id] = alloc
        return alloc

    def static_managed(self, size: int) -> Allocation:
        """The singleton static allocation of the simulated program."""
        if self._static_alloc is None or not self._static_alloc.live:
            self._static_alloc = self.allocate(AllocatorKind.STATIC_MANAGED, size)
        return self._static_alloc

    def _place_up_front(self, alloc: Allocation, n_pages: int) -> np.ndarray:
        if alloc.frame_policy.mode is PlacementMode.CONTIGUOUS_BEST_EFFORT:
            runs = self.pool.take_contiguous(n_pages)
            alloc.frame_runs.extend(runs)
            return np.concatenate([
                np.arange(start, start + size, dtype=np.int64)
                for start, size in runs])
        batch = self.pool.batch_pages
        full = n_pages // batch
        tail = n_pages - full * batch
        starts = self._draw_batches(alloc, full)
        parts = []
        if full:
            parts.append((starts[:, None] + np.arange(batch)).reshape(-1))
        if tail:
            runs = self.pool.take_contiguous(tail)
            alloc.frame_runs.extend(runs)
            parts.extend(np.arange(s, s + n, dtype=np.int64) for s, n in runs)
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def _group_weights(self, degree: float) -> np.ndarray | None:
        theta = self.profile.placement.scatter_zipf_scale * (1.0 - degree)
        if theta <= 0:
            return None
        g = self.pool.groups_n
        w = np.arange(1, g + 1, dtype=np.float64) ** (-theta)
        return w / w.sum()

    def _draw_batches(self, alloc: Allocation, count: int) -> np.ndarray:
        """Draw count 16-page batch starts under the allocation's policy."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        pool = self.pool
        degree = alloc.frame_policy.scatter_degree
        if alloc.frame_policy.mode is PlacementMode.INCREMENTAL_SCATTER \
                and degree == 0.0:
            starts = self._draw_runs(lambda _: pool.take_batch_sequential(),
                                     range(count), pool.batch_pages)
        else:
            rng = alloc.scatter_rng or self._scatter_rng
            state = rng.bit_generator.state
            weights = self._group_weights(degree)
            if weights is None:
                groups = rng.integers(0, pool.groups_n, size=count)
            else:
                groups = rng.choice(pool.groups_n, size=count, p=weights)
            try:
                starts = pool.take_batches(groups.tolist())
            except OutOfMemory:
                # A failed draw leaves the group stream as it found it.
                rng.bit_generator.state = state
                raise
        batch = pool.batch_pages
        alloc.frame_runs.extend([(start, batch) for start in starts])
        return np.array(starts, dtype=np.int64)

    def _draw_runs(self, take, args, run_pages: int) -> list[int]:
        """[take(arg) for arg in args]; if one draw fails, the runs already
        drawn go back to the pool before OutOfMemory propagates."""
        starts: list[int] = []
        append = starts.append
        try:
            for arg in args:
                append(take(arg))
        except OutOfMemory:
            for start in starts:
                self.pool.release_run(start, run_pages)
            raise
        return starts

    # -- touch -----------------------------------------------------------

    def touch(self, alloc: Allocation, page_range: tuple[int, int] | None,
              agent: Agent) -> FaultBatch:
        """First-touch [lo, hi) page offsets of alloc by the given agent.

        Returns the fault events produced: one per newly mapped page for
        on-demand kinds, one per newly CPU-mapped visibility chunk for
        up-front kinds. Already-covered pages produce none.
        """
        if not alloc.live:
            raise UseAfterFree(f"allocation {alloc.id} released")
        lo, hi = page_range if page_range is not None else (0, alloc.n_pages)
        if not (0 <= lo <= hi <= alloc.n_pages):
            raise ValueError(f"page range [{lo}, {hi}) outside allocation")
        spec = classify(alloc.kind, self.profile.xnack)
        if agent is Agent.GPU and not spec.gpu_access:
            raise AccessViolation(
                f"GPU access to {alloc.kind.value} is fatal here")
        if lo == hi:
            batch = FaultBatch()
        elif alloc.policy is Policy.ON_DEMAND:
            if agent is Agent.CPU:
                batch = self._touch_on_demand_cpu(alloc, lo, hi)
            else:
                batch = self._touch_on_demand_gpu(alloc, lo, hi)
        elif agent is Agent.CPU:
            batch = self._touch_up_front_cpu(alloc, lo, hi)
        else:
            batch = FaultBatch()
        # Set only once the touch has succeeded, so a failed one leaves
        # no trace.
        if alloc.first_touch_agent is None:
            alloc.first_touch_agent = agent
        return batch

    def _region(self, alloc: Allocation):
        region, off = self.table._region_at(alloc.va_base)
        assert off == 0
        return region

    def _touch_on_demand_cpu(self, alloc, lo, hi) -> FaultBatch:
        region = self._region(alloc)
        fresh = np.nonzero(region.sys_flags[lo:hi] == 0)[0]
        if not len(fresh):
            return FaultBatch()
        offs = fresh + lo
        frames = self._frames_for_batches(alloc, offs, self.pool.batch_pages,
                                          gpu=False)
        self._map_scattered(alloc, offs, frames)
        page = self.profile.page_size
        alloc.mapped_pages += len(offs)
        self._numa_bytes += len(offs) * page
        self._rss_bytes += len(offs) * page
        lat = self._latency.sample(Scenario.CPU1, self._fault_rng, len(offs))
        return FaultBatch(np.zeros(len(offs), dtype=np.uint8),
                          alloc.va_base + offs, lat)

    def _touch_on_demand_gpu(self, alloc, lo, hi) -> FaultBatch:
        region = self._region(alloc)
        sys_mask = region.sys_flags[lo:hi] != 0
        gpu_mask = region.gpu_flags[lo:hi] != 0
        minor = np.nonzero(sys_mask & ~gpu_mask)[0] + lo
        major = np.nonzero(~sys_mask)[0] + lo
        if len(major):
            frames = self._frames_for_batches(alloc, major,
                                              self.pool.block_pages, gpu=True)
            self._map_scattered(alloc, major, frames)
            page = self.profile.page_size
            alloc.mapped_pages += len(major)
            self._numa_bytes += len(major) * page
            self._rss_bytes += len(major) * page
        if len(major) or len(minor):
            self.table.propagate(alloc.va_base + lo, hi - lo)
        batches = []
        if len(minor):
            lat = self._latency.sample(Scenario.GPU_MINOR, self._fault_rng,
                                       len(minor))
            batches.append(FaultBatch(np.full(len(minor), 1, dtype=np.uint8),
                                      alloc.va_base + minor, lat))
        if len(major):
            lat = self._latency.sample(Scenario.GPU_MAJOR, self._fault_rng,
                                       len(major))
            batches.append(FaultBatch(np.full(len(major), 2, dtype=np.uint8),
                                      alloc.va_base + major, lat))
        return FaultBatch.merge(batches)

    def _touch_up_front_cpu(self, alloc, lo, hi) -> FaultBatch:
        # Device and host up-front memory becomes CPU-visible in coarse
        # chunks; after GPU first touch the mapping grain is finer.
        if alloc.cpu_chunk_pages is None:
            if alloc.first_touch_agent is Agent.GPU:
                alloc.cpu_chunk_pages = self.profile.placement.gpu_init_cpu_map_pages
            else:
                alloc.cpu_chunk_pages = self._chunk_pages
        grain = alloc.cpu_chunk_pages
        c0, c1 = lo // grain, -(-hi // grain)
        fresh = [c for c in range(c0, c1) if c not in alloc.cpu_chunks_mapped]
        if not fresh:
            return FaultBatch()
        alloc.cpu_chunks_mapped.update(fresh)
        pages = alloc.va_base + np.asarray(fresh, dtype=np.int64) * grain
        lat = self._latency.sample(Scenario.CPU1, self._fault_rng, len(fresh))
        return FaultBatch(np.zeros(len(fresh), dtype=np.uint8), pages, lat)

    def _frames_for_batches(self, alloc, offs: np.ndarray, grain: int,
                            gpu: bool) -> np.ndarray:
        """Frames for ascending scattered page offsets, reserving
        grain-sized runs per virtual block so contiguity forms as blocks
        fill."""
        pending = alloc.pending_gpu_blocks if gpu else alloc.pending_cpu_batches
        if pending is None:
            pending = np.full(-(-alloc.n_pages // grain), -1, dtype=np.int64)
            if gpu:
                alloc.pending_gpu_blocks = pending
            else:
                alloc.pending_cpu_batches = pending
        blocks = offs // grain
        need = blocks[np.append(True, blocks[1:] != blocks[:-1])]
        missing = need[pending[need] < 0]
        if len(missing):
            if len(missing) * grain > self.pool.free_frames:
                raise OutOfMemory("not enough frames for first touch")
            if gpu:
                starts = self._draw_runs(lambda _: self.pool.take_block_run(),
                                         range(len(missing)), grain)
                alloc.frame_runs.extend([(start, grain) for start in starts])
            else:
                starts = self._draw_batches(alloc, len(missing))
            pending[missing] = starts
        return pending[blocks] + (offs - blocks * grain)

    def _map_scattered(self, alloc, offs: np.ndarray, frames: np.ndarray):
        """System-map possibly non-contiguous page offsets (segment-wise)."""
        if not len(offs):
            return
        cuts = np.nonzero(np.diff(offs) != 1)[0] + 1
        seg_bounds = np.concatenate(([0], cuts, [len(offs)]))
        for a, b in zip(seg_bounds[:-1], seg_bounds[1:]):
            self.table.map_range(pagetable.SYSTEM,
                                 alloc.va_base + int(offs[a]),
                                 frames[a:b])

    # -- release & usage ---------------------------------------------------

    def release(self, alloc: Allocation):
        if not alloc.live:
            raise DoubleFree(f"allocation {alloc.id} already released")
        alloc.live = False
        page = self.profile.page_size
        self.table.unmap_range(alloc.va_base, alloc.n_pages)
        for start, n in alloc.frame_runs:
            self.pool.release_run(start, n)
        alloc.frame_runs.clear()
        alloc.pending_cpu_batches = alloc.pending_gpu_blocks = None
        self._numa_bytes -= alloc.mapped_pages * page
        if alloc.policy is Policy.UP_FRONT:
            if alloc.kind is AllocatorKind.DEVICE_UP_FRONT:
                self._hip_bytes -= alloc.mapped_pages * page
            else:
                self._rss_bytes -= alloc.mapped_pages * page
        else:
            self._rss_bytes -= alloc.mapped_pages * page
        alloc.mapped_pages = 0

    def usage_view(self, counter: UsageCounter) -> int:
        """Bytes used as seen by one of the memory-usage interfaces."""
        if counter in (UsageCounter.LIBNUMA, UsageCounter.MEMINFO):
            return self._numa_bytes
        if counter is UsageCounter.HIP_MEM_GET_INFO:
            return self._hip_bytes
        if counter is UsageCounter.PROCESS_RSS:
            return self._rss_bytes
        raise ValueError(f"unknown counter {counter!r}")


# --------------------------------------------------------------------------
# Allocation / free cost models
# --------------------------------------------------------------------------

def _pages(profile: MachineProfile, size: int) -> int:
    return -(-size // profile.page_size)


def _affine_by_pages(profile, size, flat_limit, flat_s, anchor_size, anchor_s):
    if size <= flat_limit:
        return flat_s
    p0 = _pages(profile, flat_limit)
    p1 = _pages(profile, anchor_size)
    slope = (anchor_s - flat_s) / (p1 - p0)
    return flat_s + (_pages(profile, size) - p0) * slope


def alloc_time_model(profile: MachineProfile, kind: AllocatorKind, size: int,
                     xnack: bool) -> float:
    """Modeled allocation cost in seconds."""
    if size <= 0:
        raise ZeroSize(f"allocation size must be positive, got {size}")
    m = profile.alloc_model
    GIB = 1 << 30
    if kind is AllocatorKind.LIBC_ON_DEMAND:
        base = m.libc_small_ns * 1e-9
        if size <= m.libc_mmap_threshold:
            return base
        slope = (m.libc_1gib_us * 1e-6 - base) / (GIB - m.libc_mmap_threshold)
        return base + (size - m.libc_mmap_threshold) * slope
    if kind is AllocatorKind.DEVICE_UP_FRONT:
        return _affine_by_pages(profile, size, m.upfront_granularity,
                                m.device_small_us * 1e-6, GIB,
                                m.device_1gib_ms * 1e-3)
    if kind is AllocatorKind.PINNED_HOST:
        return _affine_by_pages(profile, size, m.upfront_granularity,
                                m.pinned_small_us * 1e-6, GIB,
                                m.pinned_1gib_ms * 1e-3)
    if kind is AllocatorKind.REGISTERED_HOST:
        return _affine_by_pages(profile, size, m.upfront_granularity,
                                m.registered_small_us * 1e-6, GIB,
                                m.registered_1gib_ms * 1e-3)
    if kind is AllocatorKind.MANAGED_UNIFIED:
        if xnack:
            return m.managed1_const_us * 1e-6
        return _affine_by_pages(profile, size, m.upfront_granularity,
                                m.managed0_small_us * 1e-6, GIB,
                                m.managed0_1gib_ms * 1e-3)
    if kind is AllocatorKind.STATIC_MANAGED:
        return m.static_const_us * 1e-6
    raise ValueError(f"unknown kind {kind!r}")


def free_time_model(profile: MachineProfile, kind: AllocatorKind, size: int,
                    xnack: bool) -> float:
    """Modeled deallocation cost in seconds."""
    if size <= 0:
        raise ZeroSize(f"allocation size must be positive, got {size}")
    m = profile.alloc_model
    GIB = 1 << 30
    if kind is AllocatorKind.LIBC_ON_DEMAND:
        alloc = alloc_time_model(profile, kind, size, xnack)
        if size <= m.libc_free_crossover:
            return alloc * m.libc_free_small_factor
        ratio = m.libc_free_slow_factor * \
            (size / (2 * m.libc_free_crossover)) ** 0.3
        return alloc * min(ratio, m.libc_free_cap)
    if kind is AllocatorKind.DEVICE_UP_FRONT:
        alloc = alloc_time_model(profile, kind, size, xnack)
        if size <= m.device_free_crossover:
            return alloc * m.device_free_small_factor
        ratio = m.device_free_cap * (size / (256 << 20)) ** 0.62
        return alloc * min(max(ratio, 1.05), m.device_free_cap)
    if kind in (AllocatorKind.PINNED_HOST, AllocatorKind.REGISTERED_HOST) or \
            (kind is AllocatorKind.MANAGED_UNIFIED and not xnack):
        return _affine_by_pages(profile, size, m.upfront_granularity,
                                m.pinned_free_small_us * 1e-6, GIB,
                                m.pinned_free_1gib_ms * 1e-3)
    if kind is AllocatorKind.MANAGED_UNIFIED:
        return m.managed1_free_us * 1e-6
    if kind is AllocatorKind.STATIC_MANAGED:
        return m.static_const_us * 1e-6
    raise ValueError(f"unknown kind {kind!r}")

"""Randomized property suites: oracle equivalence, conservation, LRU
stack behavior, monotonicity, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from upm_sim import harness, perf
from upm_sim.machine import GiB, KiB, MiB, builtin_mi300a
from upm_sim.memmgr import (Agent, AllocatorKind, MemoryManager, classify)
from upm_sim.pagetable import GPU, SYSTEM, AlreadyMapped, DualTable
from upm_sim.tlb import FragmentTlb
from tests.test_pagetable import brute_fragment

K = AllocatorKind


def small_profile():
    """128 GiB pool shrunk to 2 GiB to keep random-op sequences fast."""
    return replace(builtin_mi300a(), hbm_capacity=2 * GiB)


def random_mapping(rng, t, n):
    """Map a random mix of contiguous runs and scattered frames."""
    base = t.reserve(n)
    off = 0
    while off < n:
        run = min(int(rng.integers(1, 24)), n - off)
        if rng.random() < 0.5:
            start = int(rng.integers(0, 1 << 15))
            frames = np.arange(start, start + run)
        else:
            frames = rng.integers(0, 1 << 15, size=run)
        try:
            t.map_range(SYSTEM, base + off, frames)
        except AlreadyMapped:
            pass
        off += run + int(rng.integers(0, 4))
    return base


def test_fragment_oracle_equivalence_thousand_mappings():
    rng = np.random.default_rng(2024)
    checked = 0
    for i in range(1000):
        t = DualTable(31)
        n = int(rng.integers(2, 96))
        base = random_mapping(rng, t, n)
        region, _ = t._region_at(base)
        mapped = np.nonzero(region.sys_flags[:n])[0]
        sample = mapped if len(mapped) <= 6 else \
            rng.choice(mapped, size=6, replace=False)
        for off in sample:
            assert t.compute_fragment(base + int(off), SYSTEM) == \
                brute_fragment(region, int(off), SYSTEM, base)
            checked += 1
    assert checked > 2000


def test_fragment_oracle_large_mappings():
    rng = np.random.default_rng(77)
    for _ in range(20):
        t = DualTable(31)
        n = int(rng.integers(1 << 10, 1 << 12))
        base = t.reserve(n, align_pages=4096)
        start = int(rng.integers(0, 1 << 20)) & ~((1 << 12) - 1)
        t.map_range(SYSTEM, base, np.arange(start, start + n))
        region, _ = t._region_at(base)
        for off in rng.integers(0, n, size=8):
            assert t.compute_fragment(base + int(off), SYSTEM) == \
                brute_fragment(region, int(off), SYSTEM, base, f_cap=12)


def assert_fragments_match_oracle(t, base, offsets, table, f_cap):
    region, _ = t._region_at(base)
    flags = region.sys_flags if table == SYSTEM else region.gpu_flags
    for off in offsets:
        off = int(off)
        expected = brute_fragment(region, off, table, base, f_cap=f_cap) \
            if flags[off] else -1
        assert int(region.frag_of(table)[off]) == expected, (table, off)


def test_fragment_oracle_small_max_fragment():
    rng = np.random.default_rng(303)
    for _ in range(150):
        t = DualTable(3)
        n = int(rng.integers(2, 96))
        base = random_mapping(rng, t, n)
        assert_fragments_match_oracle(t, base, range(n), SYSTEM, f_cap=3)


def test_fragment_oracle_gpu_table_after_partial_propagate_and_unmap():
    rng = np.random.default_rng(515)
    for _ in range(60):
        t = DualTable(31)
        n = int(rng.integers(64, 256))
        base = t.reserve(n, align_pages=512)
        start = int(rng.integers(0, 1 << 12)) << 4
        frames = np.arange(start, start + n)
        # A few frame jumps break the map into several runs.
        for cut in rng.integers(1, n, size=int(rng.integers(0, 4))):
            frames[cut:] += int(rng.integers(1, 64))
        t.map_range(SYSTEM, base, frames)
        lo = int(rng.integers(0, n - 1))
        hi = int(rng.integers(lo + 1, n + 1))
        t.propagate(base + lo, hi - lo)
        a = int(rng.integers(1, n - 1))
        b = int(rng.integers(a + 1, n))
        # Pages next to each edge, plus a random sample.
        near = {e + d for e in (0, lo, hi, a, b, n) for d in (-2, -1, 0, 1)}
        sample = sorted({o for o in near if 0 <= o < n}
                        | set(rng.integers(0, n, size=16).tolist()))
        assert_fragments_match_oracle(t, base, sample, GPU, f_cap=12)
        t.unmap_range(base + a, b - a)
        for table in (SYSTEM, GPU):
            assert_fragments_match_oracle(t, base, sample, table, f_cap=12)


def test_fragment_oracle_across_recompute_chunks():
    chunk = DualTable._CHUNK
    t = DualTable(31)
    n = 3 * chunk + 777
    base = t.reserve(n + 1000, align_pages=1 << 18)
    frames = np.arange(n, dtype=np.int64) + (5 << 18) + 1000
    # Two frame jumps make three runs, so a chunk starts inside a run
    # that began in an earlier chunk.
    jumps = [k * chunk + 4096 for k in (1, 2)]
    for j in jumps:
        frames[j:] += 1 << 18
    # The window starts 1000 pages into the reservation, so every chunk
    # boundary falls inside a large aligned block.
    t.map_range(SYSTEM, base + 1000, frames)
    t.propagate(base + 1000, n)
    edges = [k * chunk for k in range(4)] + jumps + [n]
    offsets = sorted({1000 + e + d for e in edges for d in (-2, -1, 0, 1)
                      if 0 <= 1000 + e + d < n + 1000})
    for table in (SYSTEM, GPU):
        assert_fragments_match_oracle(t, base, offsets, table, f_cap=18)
    region, _ = t._region_at(base)
    assert max(int(region.sys_frag[o]) for o in offsets) >= 12


def test_frame_conservation_random_op_sequences():
    profile = small_profile()
    total_ops = 0
    for seq in range(40):
        rng = np.random.default_rng(1000 + seq)
        m = MemoryManager(profile, seed=seq)
        start_snapshot = m.pool.snapshot()
        total = m.pool.total_frames
        live = []
        for _ in range(250):
            total_ops += 1
            op = rng.random()
            if op < 0.45 or not live:
                kind = list(K)[int(rng.integers(0, 6))]
                size = int(rng.integers(1, 64)) * profile.page_size * 16
                alloc = m.allocate(kind, size)
                live.append(alloc)
            elif op < 0.8:
                alloc = live[int(rng.integers(0, len(live)))]
                blocks = alloc.n_pages // 16
                if blocks and alloc.policy.value == "on_demand":
                    b0 = int(rng.integers(0, blocks))
                    b1 = int(rng.integers(b0, blocks)) + 1
                    agent = Agent.CPU if rng.random() < 0.7 else Agent.GPU
                    spec = classify(alloc.kind, profile.xnack)
                    if agent is Agent.CPU or spec.gpu_access:
                        m.touch(alloc, (b0 * 16, b1 * 16), agent)
            else:
                alloc = live.pop(int(rng.integers(0, len(live))))
                m.release(alloc)
            # Invariant: every frame is either free or owned by a live
            # allocation's reservation.
            reserved = sum(n for a in live for (_, n) in a.frame_runs)
            assert m.pool.used_frames == reserved
            assert m.pool.used_frames + m.pool.free_frames == total
        # No frame is ever double-mapped across live allocations.
        mapped_frames = np.concatenate(
            [m._region(a).frames[:a.n_pages] for a in live] or
            [np.empty(0, dtype=np.int64)])
        mapped_frames = mapped_frames[mapped_frames >= 0]
        assert len(np.unique(mapped_frames)) == len(mapped_frames)
        for alloc in live:
            m.release(alloc)
        assert m.pool.snapshot() == start_snapshot
        assert m.pool.free_frames == total
    assert total_ops >= 10_000


def test_block_granular_touch_keeps_mapped_equals_reserved():
    # With block-granular touches, reservation never runs ahead of
    # mapping, so mapped + free == total holds literally.
    profile = small_profile()
    m = MemoryManager(profile, seed=5)
    total = m.pool.total_frames
    a = m.allocate(K.LIBC_ON_DEMAND, 8 * MiB)
    m.touch(a, (0, 1024), Agent.CPU)
    mapped = a.mapped_pages
    assert mapped + m.pool.free_frames == total


def test_lru_stack_property_capacity_sweep():
    rng = np.random.default_rng(31)
    for trial in range(5):
        universe = [(int(b), 0) for b in rng.integers(0, 200, size=50)]
        stream = [universe[int(i)] for i in rng.integers(0, 50, size=3000)]
        misses = []
        for capacity in (1, 2, 4, 8, 16, 32, 64, 128):
            t = FragmentTlb(capacity)
            for base, frag in stream:
                t.access_run(base, frag)
            misses.append(t.misses)
        assert all(a >= b for a, b in zip(misses, misses[1:]))


def test_chase_monotone_over_random_ladders():
    profile = builtin_mi300a()
    rng = np.random.default_rng(4)
    for agent in Agent:
        for _ in range(10):
            balance = float(rng.uniform(0.05, 1.0))
            sizes = np.sort(rng.integers(1 * KiB, 8 * GiB, size=30))
            lats = [perf.chase_latency(profile, agent, int(s), balance).weighted_ns
                    for s in sizes]
            assert all(a <= b + 1e-9 for a, b in zip(lats, lats[1:]))


@pytest.mark.parametrize("seed", [3, 141, 2718, 31337, 424242,
                                  7, 99, 1234, 88, 2024])
def test_bit_identical_reruns(seed):
    profile = builtin_mi300a()
    outputs = []
    for _ in range(2):
        texts = []
        for bench, grid in [
                ("latency", {"size": [4096, 64 * MiB], "kind": ["malloc"],
                             "agent": ["cpu"]}),
                ("fault", {"pages": [1, 10_000]}),
                ("alloc", {"size": [32, 1 * MiB]}),
                ("atomics", {"array_len": [1 << 10],
                             "cpu_threads": [1, 12], "gpu_threads": [64]})]:
            spec = harness.WorkloadSpec(bench, grid, seed=seed)
            texts.append(harness.report(harness.run(profile, spec)))
        outputs.append("".join(texts))
    assert outputs[0] == outputs[1]


def test_classify_total_and_exact():
    from tests.test_memmgr import CLASSIFY_TABLE
    seen = set()
    for kind in K:
        for xnack in (False, True):
            spec = classify(kind, xnack)
            assert (spec.gpu_access, spec.cpu_access, spec.physical) == \
                CLASSIFY_TABLE[(kind, xnack)]
            seen.add((kind, xnack))
    assert len(seen) == 12

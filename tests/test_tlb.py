import tracemalloc

import numpy as np
import pytest

from upm_sim.machine import MiB, builtin_mi300a
from upm_sim.memmgr import Agent, AllocatorKind, MemoryManager
from upm_sim.pagetable import GPU, SYSTEM, DualTable, FrameRuns, Unmapped
from upm_sim.tlb import FragmentTlb, triad_misses
from tests.test_pagetable import fragments, frame_runs


def lru_replay(accesses, capacity):
    """Brute-force LRU reference: page-by-page list shuffling."""
    entries = []
    misses = 0
    for key in accesses:
        if key in entries:
            entries.remove(key)
            entries.append(key)
        else:
            misses += 1
            entries.append(key)
            if len(entries) > capacity:
                entries.pop(0)
    return misses


def table_with_runs(n_runs, run_pages, pa_stride):
    """Runs of run_pages with fragment log2(run_pages), spaced apart in PA."""
    t = DualTable(31)
    base = t.reserve(n_runs * run_pages, align_pages=max(512, run_pages)).va_base
    for i in range(n_runs):
        frames = np.arange(i * pa_stride, i * pa_stride + run_pages)
        t.map_range(SYSTEM, base + i * run_pages, frame_runs(frames))
    t.propagate(base, n_runs * run_pages)
    return t, base


def page_bases(t, va_base, pages):
    """Each page's run base from the per-page fragments: its address with
    the fragment's low bits cleared."""
    frags = fragments(t, GPU, va_base, pages).astype(np.int64)
    return (np.arange(va_base, va_base + pages) >> frags) << frags


def accesses(t, base, pages, offsets, capacity):
    """Misses of a TLB of capacity over the pages base + offsets of a
    GPU-mapped range of pages."""
    bases = page_bases(t, base, pages)
    tlb = FragmentTlb(capacity)
    return sum(0 if tlb.access_run(int(bases[v])) else 1 for v in offsets)


def test_second_access_hits():
    t, base = table_with_runs(4, 16, 64)
    bases = page_bases(t, base, 64)
    tlb = FragmentTlb(8)
    assert tlb.access_run(int(bases[0])) is False
    assert tlb.access_run(int(bases[0])) is True
    assert tlb.access_run(int(bases[7])) is True  # same fragment run


def test_access_requires_gpu_mapping():
    t = DualTable(31)
    base = t.reserve(16).va_base
    t.map_range(SYSTEM, base, frame_runs([99]))
    with pytest.raises(Unmapped, match="not fully mapped in gpu table"):
        triad_misses(t, [(base, 1)], 1, 1)


def test_single_fragment_array_one_miss():
    t, base = table_with_runs(1, 256, 256)
    rng = np.random.default_rng(0)
    stream = rng.integers(0, 256, size=2000)
    assert accesses(t, base, 256, stream, 4) == 1


def test_sequential_sweep_64mib_2mib_runs():
    # 64 MiB of 2 MiB fragments: 32 runs, one miss each regardless of LRU.
    profile = builtin_mi300a()
    pages = 64 * MiB // profile.page_size
    run_pages = 2 * MiB // profile.page_size
    t, base = table_with_runs(pages // run_pages, run_pages, 2 * run_pages)
    frags = {int(f) for f in fragments(t, GPU, base, pages)}
    assert frags == {9}
    assert accesses(t, base, pages, range(pages), 32) == 32
    # brute-force LRU replay on the run-base stream agrees
    bases = page_bases(t, base, pages)
    assert lru_replay([int(b) for b in bases], 32) == 32


def test_lru_against_replay_oracle_random_streams():
    rng = np.random.default_rng(5)
    t, base = table_with_runs(32, 8, 32)
    bases = page_bases(t, base, 32 * 8)
    for capacity in (1, 2, 4, 7):
        stream = rng.integers(0, 32 * 8, size=1500)
        misses = accesses(t, base, 32 * 8, stream, capacity)
        ref = lru_replay([int(bases[v]) for v in stream], capacity)
        assert misses == ref


def test_miss_count_non_increasing_in_capacity():
    rng = np.random.default_rng(9)
    t, base = table_with_runs(64, 4, 16)
    stream = rng.integers(0, 64 * 4, size=4000)
    previous = None
    for capacity in (1, 2, 4, 8, 16, 32, 64):
        misses = accesses(t, base, 64 * 4, stream, capacity)
        if previous is not None:
            assert misses <= previous
        previous = misses


def test_miss_count_non_increasing_with_fragment_growth():
    # Same page set and stream; coarser fragments cannot miss more.
    rng = np.random.default_rng(11)
    pages = 512
    stream = rng.integers(0, pages, size=3000)
    results = []
    for run_pages in (1, 4, 16, 64):
        t, base = table_with_runs(pages // run_pages, run_pages, 2 * run_pages)
        results.append(accesses(t, base, pages, stream, 16))
    assert all(a >= b for a, b in zip(results, results[1:]))


def test_triad_single_fragment_arrays_three_misses():
    t = DualTable(31)
    arrays = []
    for i in range(3):
        base = t.reserve(1).va_base
        t.map_range(SYSTEM, base, frame_runs([1000 + i]))
        t.propagate(base, 1)
        arrays.append((base, 1))
    assert triad_misses(t, arrays, iterations=1, capacity=32) == 3


def test_triad_compressed_simulation_matches_page_replay():
    # Small triad: event-compressed counting equals a naive page-by-page
    # LRU replay of the interleaved translation stream.
    t = DualTable(31)
    arrays = []
    rng = np.random.default_rng(3)
    pages = 64
    for _ in range(3):
        base = t.reserve(pages).va_base
        off = 0
        while off < pages:
            run = min(int(rng.integers(1, 16)), pages - off)
            start = int(rng.integers(0, 1 << 12))
            t.map_range(SYSTEM, base + off, FrameRuns([start], [run]))
            off += run
        t.propagate(base, pages)
        arrays.append((base, pages))
    for capacity in (2, 4, 32):
        expected_stream = []
        bases = [page_bases(t, vb, np_) for vb, np_ in arrays]
        for p in range(pages):
            for b in bases:
                expected_stream.append(int(b[p]))
        for iterations in (1, 3):
            got = triad_misses(t, arrays, iterations, capacity)
            ref = lru_replay(expected_stream * iterations, capacity)
            assert got == ref, (capacity, iterations)


def test_triad_scales_linearly_when_reach_exceeded():
    t, base = table_with_runs(48, 16, 64)  # 48 runs > 32 entries
    arrays = [(base, 48 * 16)] * 3
    one = triad_misses(t, arrays, 1, 32)
    assert one == 48
    assert triad_misses(t, arrays, 10, 32) == 10 * one


def test_triad_cross_pass_reuse_when_reach_suffices():
    t, base = table_with_runs(16, 16, 64)  # 16 runs fit in 32 entries
    arrays = [(base, 256)] * 3
    assert triad_misses(t, arrays, 10, 32) == 16


def few_run_operand(rng, t, pages):
    """Map pages in at most four stretches of aligned frames, so a pass
    touches only a few fragment runs; returns (va_base, pages)."""
    base = t.reserve(pages, align_pages=512).va_base
    cuts = sorted(rng.choice(np.arange(1, pages), size=min(3, pages - 1),
                             replace=False).tolist()) if pages > 1 else []
    for lo, hi in zip([0] + cuts, cuts + [pages]):
        start = int(rng.integers(1, 1 << 10)) << 9
        t.map_range(SYSTEM, base + lo, FrameRuns([start], [hi - lo]))
    t.propagate(base, pages)
    return base, pages


def test_triad_misses_against_replay_oracle_random():
    rng = np.random.default_rng(2025)
    for _ in range(150):
        t = DualTable(31)
        n_ops = int(rng.integers(1, 5))
        pages = int(rng.integers(1, 97))
        arrays = [few_run_operand(rng, t, pages) for _ in range(n_ops)]
        if rng.random() < 0.25:
            arrays = [arrays[0]] * n_ops       # identical operands
        capacity = int(rng.integers(1, 65))
        iterations = int(rng.integers(1, 6))
        bases = [page_bases(t, vb, np_) for vb, np_ in arrays]
        stream = [int(b[p]) for p in range(pages) for b in bases]
        expected = lru_replay(stream * iterations, capacity)
        assert triad_misses(t, arrays, iterations, capacity) == expected, \
            (n_ops, pages, capacity, iterations)


def test_triad_misses_on_sub_ranges_against_replay_oracle():
    # Operands start and end inside the fragment runs of larger
    # reservations, so their first run is clipped to the range.
    rng = np.random.default_rng(77)
    for _ in range(120):
        t = DualTable(int(rng.integers(3, 10)))
        n_ops = int(rng.integers(1, 5))
        pages = int(rng.integers(1, 200))
        arrays = []
        for _ in range(n_ops):
            vb, total = few_run_operand(rng, t, pages + int(rng.integers(0, 300)))
            lo = int(rng.integers(0, total - pages + 1))
            arrays.append((vb + lo, pages))
        capacity = int(rng.integers(1, 40))
        iterations = int(rng.integers(1, 5))
        bases = [page_bases(t, vb, np_) for vb, np_ in arrays]
        stream = [int(b[p]) for p in range(pages) for b in bases]
        expected = lru_replay(stream * iterations, capacity)
        assert triad_misses(t, arrays, iterations, capacity) == expected, \
            (arrays, capacity, iterations)


def test_triad_misses_rejects_an_operand_page_not_gpu_mapped():
    t = DualTable(31)
    arrays = []
    for _ in range(3):
        base = t.reserve(64).va_base
        t.map_range(SYSTEM, base, FrameRuns([1 << 12], [64]))
        t.propagate(base, 64)
        arrays.append((base, 64))
    hole = t.reserve(64).va_base
    t.map_range(SYSTEM, hole, frame_runs(np.arange(1 << 13, (1 << 13) + 64)))
    t.propagate(hole, 20)
    t.propagate(hole + 21, 43)  # page 20 is mapped only in the system table
    for capacity in (1, 32):
        with pytest.raises(Unmapped, match="not fully mapped in gpu table"):
            triad_misses(t, arrays[:2] + [(hole, 64)], 2, capacity)
    # The GPU-mapped pages on either side of the hole still count.
    for sub in ((hole, 20), (hole + 21, 20)):
        ops = [(vb, 20) for vb, _ in arrays[:2]] + [sub]
        bases = [page_bases(t, vb, np_) for vb, np_ in ops]
        stream = [int(b[p]) for p in range(20) for b in bases]
        assert triad_misses(t, ops, 2, 32) == lru_replay(stream * 2, 32)


def test_triad_misses_memory_per_operand_page():
    # The replay reads fragment runs: besides one operand's transient
    # run read, it builds nothing page-sized.
    profile = builtin_mi300a()
    m = MemoryManager(profile, seed=11)
    allocs = [m.allocate(AllocatorKind.LIBC_ON_DEMAND, 64 * MiB)
              for _ in range(3)]
    for a in allocs:
        m.touch(a, None, Agent.CPU)
        m.touch(a, None, Agent.GPU)
    arrays = [(a.va_base, a.n_pages) for a in allocs]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        misses = triad_misses(m.table, arrays, 3, profile.gpu.tlb_entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert misses > 0
    assert (peak - base) / allocs[0].n_pages <= 16


def test_small_capacity_counts_on_real_placements():
    # Three CPU-touched, then GPU-touched 4 MiB heap arrays, placed as the
    # TRIAD workset places them: capacities below, at and (for one array
    # passed twice) above the operand count against the page-by-page LRU.
    m = MemoryManager(builtin_mi300a(), seed=11)
    allocs = [m.allocate(AllocatorKind.LIBC_ON_DEMAND, 4 * MiB)
              for _ in range(3)]
    for a in allocs:
        m.touch(a, None, Agent.CPU)
        m.touch(a, None, Agent.GPU)
    arrays = [(a.va_base, a.n_pages) for a in allocs]
    cases = [(arrays, capacity) for capacity in (1, 2, 3)]
    cases.append(([arrays[0]] * 2, 2))
    for ops, capacity in cases:
        bases = [page_bases(m.table, vb, n) for vb, n in ops]
        stream = [int(b) for step in zip(*bases) for b in step]
        for iterations in (1, 3):
            assert triad_misses(m.table, ops, iterations, capacity) == \
                lru_replay(stream * iterations, capacity), \
                (len(ops), capacity, iterations)


@pytest.mark.parametrize("capacity", [1, 32])
def test_zero_page_operands_miss_nothing(capacity):
    # Empty operands give no event step, below and at or above the
    # operand count alike.
    t, base = table_with_runs(1, 16, 64)
    assert triad_misses(t, [(base, 0), (base, 0)], 2, capacity) == 0

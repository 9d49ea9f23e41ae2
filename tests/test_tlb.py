import numpy as np
import pytest

from upm_sim.machine import MiB, builtin_mi300a
from upm_sim.pagetable import SYSTEM, DualTable, Unmapped
from upm_sim.tlb import FragmentTlb, run_bases, triad_misses


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
    base = t.reserve(n_runs * run_pages, align_pages=max(512, run_pages))
    for i in range(n_runs):
        frames = np.arange(i * pa_stride, i * pa_stride + run_pages)
        t.map_range(SYSTEM, base + i * run_pages, frames)
    t.propagate(base, n_runs * run_pages)
    return t, base


def test_second_access_hits():
    t, base = table_with_runs(4, 16, 64)
    tlb = FragmentTlb(8)
    assert tlb.access(t, base) is False
    assert tlb.access(t, base) is True
    assert tlb.access(t, base + 7) is True  # same fragment run


def test_access_requires_gpu_mapping():
    t = DualTable(31)
    base = t.reserve(16)
    t.map(SYSTEM, base, 99)
    tlb = FragmentTlb(4)
    with pytest.raises(Unmapped):
        tlb.access(t, base)


def test_single_fragment_array_one_miss():
    t, base = table_with_runs(1, 256, 256)
    tlb = FragmentTlb(4)
    rng = np.random.default_rng(0)
    stream = rng.integers(0, 256, size=2000)
    misses = sum(0 if tlb.access(t, base + int(v)) else 1 for v in stream)
    assert misses == 1


def test_sequential_sweep_64mib_2mib_runs():
    # 64 MiB of 2 MiB fragments: 32 runs, one miss each regardless of LRU.
    profile = builtin_mi300a()
    pages = 64 * MiB // profile.page_size
    run_pages = 2 * MiB // profile.page_size
    t, base = table_with_runs(pages // run_pages, run_pages, 2 * run_pages)
    frags = {int(f) for f in t.run_arrays(base, pages)[1]}
    assert frags == {9}
    tlb = FragmentTlb(32)
    misses = sum(0 if tlb.access(t, base + i) else 1 for i in range(pages))
    assert misses == 32
    # brute-force LRU replay on the run-base stream agrees
    bases = run_bases(t, base, pages)
    assert lru_replay([int(b) for b in bases], 32) == 32


def test_lru_against_replay_oracle_random_streams():
    rng = np.random.default_rng(5)
    t, base = table_with_runs(32, 8, 32)
    bases = run_bases(t, base, 32 * 8)
    for capacity in (1, 2, 4, 7):
        stream = rng.integers(0, 32 * 8, size=1500)
        tlb = FragmentTlb(capacity)
        misses = sum(0 if tlb.access(t, base + int(v)) else 1 for v in stream)
        ref = lru_replay([int(bases[v]) for v in stream], capacity)
        assert misses == ref


def test_miss_count_non_increasing_in_capacity():
    rng = np.random.default_rng(9)
    t, base = table_with_runs(64, 4, 16)
    stream = rng.integers(0, 64 * 4, size=4000)
    previous = None
    for capacity in (1, 2, 4, 8, 16, 32, 64):
        tlb = FragmentTlb(capacity)
        misses = sum(0 if tlb.access(t, base + int(v)) else 1 for v in stream)
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
        tlb = FragmentTlb(16)
        results.append(sum(0 if tlb.access(t, base + int(v)) else 1
                           for v in stream))
    assert all(a >= b for a, b in zip(results, results[1:]))


def test_triad_single_fragment_arrays_three_misses():
    t = DualTable(31)
    arrays = []
    for i in range(3):
        base = t.reserve(1)
        t.map(SYSTEM, base, 1000 + i)
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
        base = t.reserve(pages)
        off = 0
        while off < pages:
            run = min(int(rng.integers(1, 16)), pages - off)
            start = int(rng.integers(0, 1 << 12))
            t.map_range(SYSTEM, base + off, np.arange(start, start + run))
            off += run
        t.propagate(base, pages)
        arrays.append((base, pages))
    for capacity in (2, 4, 32):
        expected_stream = []
        bases = [run_bases(t, vb, np_) for vb, np_ in arrays]
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
    base = t.reserve(pages, align_pages=512)
    cuts = sorted(rng.choice(np.arange(1, pages), size=min(3, pages - 1),
                             replace=False).tolist()) if pages > 1 else []
    for lo, hi in zip([0] + cuts, cuts + [pages]):
        start = int(rng.integers(1, 1 << 10)) << 9
        t.map_range(SYSTEM, base + lo, np.arange(start, start + hi - lo))
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
        bases = [run_bases(t, vb, np_) for vb, np_ in arrays]
        stream = [int(b[p]) for p in range(pages) for b in bases]
        expected = lru_replay(stream * iterations, capacity)
        assert triad_misses(t, arrays, iterations, capacity) == expected, \
            (n_ops, pages, capacity, iterations)

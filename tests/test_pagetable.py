import tracemalloc

import numpy as np
import pytest

from upm_sim.pagetable import (FRAME_LIMIT, GPU, LEVEL, SYSTEM,
                               AlreadyMapped, DualTable, MirrorViolation,
                               Unmapped)
from upm_sim.tlb import run_bases


def brute_fragment(region, off, table, va_base, f_cap=12):
    """Independent oracle: naive scan over every aligned power-of-two run."""
    mapped = region.state >= LEVEL[table]
    frames = region.frames
    n = region.n_pages
    va = va_base + off
    best = 0
    for f in range(f_cap + 1):
        size = 1 << f
        lo = va - (va % size) - va_base
        hi = lo + size
        if lo < 0 or hi > n:
            continue
        if not mapped[lo:hi].all():
            continue
        window = frames[lo:hi]
        if np.any(np.diff(window) != 1):
            continue
        if window[0] % size != 0:
            continue
        best = f
    return best


def run_pages(starts, sizes):
    """The pages of runs (start, size), concatenated in run order."""
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        np.arange(s, s + n) for s, n in zip(starts.tolist(), sizes.tolist())])


def fragments(t, table, va_page, n_pages):
    """Fragment field of each page of [va_page, +n_pages) in one table,
    -1 where no fragment run covers it: fragment_runs expanded per page."""
    starts, orders = t.fragment_runs(table, va_page, n_pages)
    sizes = np.left_shift(1, orders, dtype=np.int64)
    pages = run_pages(starts, sizes) - va_page
    inside = (pages >= 0) & (pages < n_pages)
    out = np.full(n_pages, -1, dtype=np.int8)
    out[pages[inside]] = np.repeat(orders, sizes)[inside]
    return out


def fresh_table():
    return DualTable(max_fragment=31)


def fragment(t, va_page, table=GPU):
    """The fragment field of a mapped page in one table."""
    region, off = t._region_at(va_page)
    assert region.state[off] >= LEVEL[table]
    return int(fragments(t, table, va_page, 1)[0])


def test_map_and_lookup_single_page():
    t = fresh_table()
    base = t.reserve(16)
    t.map_range(SYSTEM, base, [4096])
    t.propagate(base, 1)
    region, off = t._region_at(base)
    assert region.state[off] == LEVEL[GPU] and region.frames[off] == 4096


def test_double_map_rejected():
    t = fresh_table()
    base = t.reserve(16)
    t.map_range(SYSTEM, base, [100])
    with pytest.raises(AlreadyMapped):
        t.map_range(SYSTEM, base, [101])


def test_gpu_map_requires_system_entry():
    t = fresh_table()
    base = t.reserve(16)
    with pytest.raises(MirrorViolation):
        t.map_range(GPU, base, [100])


def test_gpu_mirror_frame_must_match():
    t = fresh_table()
    base = t.reserve(16)
    t.map_range(SYSTEM, base, [100])
    with pytest.raises(MirrorViolation):
        t.map_range(GPU, base, [101])


def test_aligned_1024_run_gets_fragment_10():
    t = fresh_table()
    base = t.reserve(2048)
    t.map_range(SYSTEM, base, np.arange(1 << 17, (1 << 17) + 1024))
    t.propagate(base, 1024)
    frags = {fragment(t, base + i) for i in range(1024)}
    assert frags == {10}
    assert {fragment(t, base + i, SYSTEM) for i in range(1024)} == {10}


def test_sixteen_page_aligned_run_gets_fragment_4():
    t = fresh_table()
    base = t.reserve(64)
    t.map_range(SYSTEM, base, np.arange(1 << 12, (1 << 12) + 16))
    t.propagate(base, 16)
    assert [fragment(t, base + i) for i in range(16)] == [4] * 16


def test_three_page_run_fragments():
    t = fresh_table()
    base = t.reserve(64)
    t.map_range(SYSTEM, base, base + np.arange(3))  # delta 0, aligned start
    t.propagate(base, 3)
    assert [fragment(t, base + i) for i in range(3)] == [1, 1, 0]


def test_isolated_page_fragment_zero():
    t = fresh_table()
    base = t.reserve(16)
    t.map_range(SYSTEM, base + 3, [777])
    assert fragment(t, base + 3, SYSTEM) == 0


def test_scattered_frames_leave_fragment_zero():
    t = fresh_table()
    base = t.reserve(64)
    frames = np.array([10, 5000, 321, 9999, 42, 77, 1234, 88])
    t.map_range(SYSTEM, base, frames)
    t.propagate(base, 8)
    region, off = t._region_at(base)
    for i in range(8):
        assert fragment(t, base + i) == 0
        assert brute_fragment(region, i, GPU, base) == 0


def test_propagate_counts_and_idempotence():
    t = fresh_table()
    base = t.reserve(256)
    t.map_range(SYSTEM, base, np.arange(2048, 2048 + 100))
    assert t.propagate(base, 100) == 100
    assert t.propagate(base, 100) == 0


def test_propagate_requires_system_mapping():
    t = fresh_table()
    base = t.reserve(16)
    with pytest.raises(Unmapped):
        t.propagate(base, 4)


def test_fragment_partial_propagation_is_smaller():
    # GPU table mirrors a subset, so its fragments may be finer than the
    # system table's.
    t = fresh_table()
    base = t.reserve(64)
    t.map_range(SYSTEM, base, np.arange(4096, 4096 + 16))
    t.propagate(base, 8)
    assert fragment(t, base, SYSTEM) == 4
    assert fragment(t, base, GPU) == 3


def test_unmap_splits_runs():
    t = fresh_table()
    base = t.reserve(64)
    t.map_range(SYSTEM, base, np.arange(8192, 8192 + 16))
    t.propagate(base, 16)
    t.unmap_range(base + 8, 1)
    region, _ = t._region_at(base)
    assert region.state[8] == 0
    for i in list(range(8)) + list(range(9, 16)):
        assert fragment(t, base + i) == brute_fragment(
            region, i, GPU, base)


def test_fragment_oracle_random_maps():
    rng = np.random.default_rng(42)
    for _ in range(60):
        t = fresh_table()
        n = int(rng.integers(4, 128))
        base = t.reserve(n)
        # Random mix of contiguous runs and scatter, random alignment.
        offs = []
        frames = []
        off = 0
        while off < n:
            run = int(rng.integers(1, 20))
            run = min(run, n - off)
            if rng.random() < 0.5:
                start = int(rng.integers(0, 1 << 14))
                frames.extend(range(start, start + run))
            else:
                frames.extend(int(rng.integers(0, 1 << 14)) for _ in range(run))
            offs.extend(range(off, off + run))
            skip = int(rng.integers(0, 3))
            off += run + skip
        offs = np.asarray(offs)
        frames = np.asarray(frames)
        keep = rng.random(len(offs)) < 0.9
        offs, frames = offs[keep], frames[keep]
        # Split into the contiguous segments map_range accepts.
        cuts = np.nonzero(np.diff(offs) != 1)[0] + 1
        for seg_o, seg_f in zip(np.split(offs, cuts), np.split(frames, cuts)):
            if len(seg_o):
                try:
                    t.map_range(SYSTEM, base + int(seg_o[0]), seg_f)
                except AlreadyMapped:
                    pass
        region, _ = t._region_at(base)
        mapped = np.nonzero(region.state[:n])[0]
        for i in mapped:
            assert fragment(t, base + int(i), SYSTEM) == \
                brute_fragment(region, int(i), SYSTEM, base), \
                f"page {i} of map with n={n}"


def test_fragment_order_independence():
    rng = np.random.default_rng(7)
    frames = np.arange(4096, 4096 + 32)
    orders = [np.arange(32), np.arange(31, -1, -1), rng.permutation(32)]
    results = []
    for order in orders:
        t = fresh_table()
        base = t.reserve(64)
        for i in order:
            t.map_range(SYSTEM, base + int(i), [frames[i]])
        results.append([fragment(t, base + i, SYSTEM)
                        for i in range(32)])
    assert results[0] == results[1] == results[2]
    assert results[0] == [5] * 32


def test_range_crossing_its_reservation_is_rejected():
    t = fresh_table()
    base = t.reserve(16)
    t.map_range(SYSTEM, base, np.arange(4096, 4096 + 16))
    t.propagate(base, 16)
    with pytest.raises(Unmapped, match="crosses its reservation"):
        t.fragment_runs(GPU, base + 8, 16)
    with pytest.raises(Unmapped, match="crosses its reservation"):
        run_bases(t, base + 8, 16)
    with pytest.raises(Unmapped, match="crosses its reservation"):
        t.fragment_runs(SYSTEM, base + 8, 16)
    assert run_bases(t, base + 8, 8).tolist() == [base] * 8


def test_unmap_crossing_its_reservation_is_rejected():
    t = fresh_table()
    base = t.reserve(16)
    t.map_range(SYSTEM, base, np.arange(4096, 4096 + 16))
    t.propagate(base, 16)
    with pytest.raises(Unmapped, match="crosses its reservation"):
        t.unmap_range(base + 8, 16)
    # The rejected unmap changed nothing.
    region, _ = t._region_at(base)
    assert region.frames.tolist() == list(range(4096, 4096 + 16))
    assert (region.state == LEVEL[GPU]).all()
    t.unmap_range(base + 8, 8)
    assert region.frames[8:].tolist() == [-1] * 8


def test_map_propagate_and_unmap_read_no_fragments(monkeypatch):
    reads = []
    monkeypatch.setattr(DualTable, "fragment_runs",
                        lambda self, *args: reads.append(args))
    t = fresh_table()
    base = t.reserve(64)
    t.map_range(SYSTEM, base, np.arange(4096, 4096 + 32))
    t.map_range(GPU, base, np.arange(4096, 4096 + 8))
    t.propagate(base, 16)
    t.propagate(base, 32)
    t.unmap_range(base + 8, 4)
    t.unmap_range(base, 64)
    assert reads == []


def test_region_footprint_per_page():
    # A mapped page costs an int32 frame and one state byte.
    n_pages = (1 << 30) // 4096
    frames = np.arange(n_pages, dtype=np.int64)
    t = fresh_table()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        base = t.reserve(n_pages)
        t.map_range(SYSTEM, base, frames)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    region, _ = t._region_at(base)
    assert region.frames.dtype == np.int32
    np.testing.assert_array_equal(region.frames, frames)
    # 5 B a page, plus under 1 KiB for the region object itself.
    assert held - before <= 5 * n_pages + 1024


def test_reserve_holds_at_most_5_bytes_a_page():
    n_pages = 1 << 20
    t = fresh_table()
    tracemalloc.start()
    try:
        t.reserve(n_pages)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * n_pages + 1024


@pytest.mark.parametrize("bad", [FRAME_LIMIT, -1])
def test_map_range_rejects_frames_outside_int32(bad):
    t = fresh_table()
    base = t.reserve(4)
    with pytest.raises(ValueError):
        t.map_range(SYSTEM, base, np.array([0, bad], dtype=np.int64))
    region, _ = t._region_at(base)
    assert not region.state.any() and (region.frames == -1).all()
    t.map_range(SYSTEM, base, [FRAME_LIMIT - 2, FRAME_LIMIT - 1])
    assert region.frames[:2].tolist() == [FRAME_LIMIT - 2, FRAME_LIMIT - 1]

import tracemalloc

import numpy as np
import pytest

from upm_sim.memmgr import _ranges
from upm_sim.pagetable import (FRAME_LIMIT, GPU, LEVEL, SYSTEM,
                               AlreadyMapped, DualTable, FrameRuns, Unmapped)
from upm_sim.tlb import triad_misses


def expand(region):
    """(frames, state) of a region, one entry a page: each page's frame,
    -1 where it is unmapped, and its state. Tests read a region's runs only
    through this."""
    off, n, frame, state = region.runs
    pages = _ranges(off, n)
    frames = np.full(region.n_pages, -1, dtype=np.int64)
    frames[pages] = pages + np.repeat(frame - off, n)
    states = np.zeros(region.n_pages, dtype=np.uint8)
    states[pages] = np.repeat(state, n)
    return frames, states


def brute_fragment(pages, off, table, va_base, f_cap=12):
    """Independent oracle: naive scan over every aligned power-of-two run
    of pages, a region's (frames, state) as expand gives them."""
    frames, state = pages
    mapped = state >= LEVEL[table]
    n = len(frames)
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


def frame_runs(frames):
    """Frames given one a page, as the FrameRuns of their consecutive
    stretches."""
    frames = np.asarray(frames, dtype=np.int64)
    at = np.flatnonzero(np.diff(frames, prepend=frames[:1] - 2) != 1)
    return FrameRuns(frames[at], np.diff(at, append=len(frames)))


def fresh_table():
    return DualTable(max_fragment=31)


def test_map_and_lookup_single_page():
    t = fresh_table()
    reserved = t.reserve(16)
    base = reserved.va_base
    t.map_range(SYSTEM, base, frame_runs([4096]))
    t.propagate(base, 1)
    region, off = t._region_at(base)
    assert region is reserved  # reserve hands back the region it keeps
    frames, state = expand(region)
    assert state[off] == LEVEL[GPU] and frames[off] == 4096


def test_double_map_rejected():
    t = fresh_table()
    base = t.reserve(16).va_base
    t.map_range(SYSTEM, base, frame_runs([100]))
    with pytest.raises(AlreadyMapped):
        t.map_range(SYSTEM, base, frame_runs([101]))


def test_gpu_map_requires_system_entry():
    # GPU entries come only from propagate, which needs system entries.
    t = fresh_table()
    base = t.reserve(16).va_base
    with pytest.raises(ValueError, match="propagate"):
        t.map_range(GPU, base, frame_runs([100]))
    with pytest.raises(Unmapped):
        t.propagate(base, 1)
    assert t._region_at(base)[0].runs.shape == (4, 0)


def test_gpu_mirror_frame_must_match():
    # map_range cannot give a GPU entry a frame of its own: the GPU entry
    # propagate makes holds the system entry's frame.
    t = fresh_table()
    base = t.reserve(16).va_base
    t.map_range(SYSTEM, base, frame_runs([100]))
    with pytest.raises(ValueError, match="propagate"):
        t.map_range(GPU, base, frame_runs([101]))
    region, _ = t._region_at(base)
    assert expand(region)[1][0] == LEVEL[SYSTEM]
    t.propagate(base, 1)
    frames, state = expand(region)
    assert frames[0] == 100 and state[0] == LEVEL[GPU]


def test_aligned_1024_run_gets_fragment_10():
    t = fresh_table()
    base = t.reserve(2048).va_base
    t.map_range(SYSTEM, base, frame_runs(np.arange(1 << 17, (1 << 17) + 1024)))
    t.propagate(base, 1024)
    assert set(fragments(t, GPU, base, 1024).tolist()) == {10}
    assert set(fragments(t, SYSTEM, base, 1024).tolist()) == {10}


def test_sixteen_page_aligned_run_gets_fragment_4():
    t = fresh_table()
    base = t.reserve(64).va_base
    t.map_range(SYSTEM, base, frame_runs(np.arange(1 << 12, (1 << 12) + 16)))
    t.propagate(base, 16)
    assert fragments(t, GPU, base, 16).tolist() == [4] * 16


def test_three_page_run_fragments():
    t = fresh_table()
    base = t.reserve(64).va_base
    # delta 0, aligned start
    t.map_range(SYSTEM, base, frame_runs(base + np.arange(3)))
    t.propagate(base, 3)
    assert fragments(t, GPU, base, 3).tolist() == [1, 1, 0]


def test_isolated_page_fragment_zero():
    t = fresh_table()
    base = t.reserve(16).va_base
    t.map_range(SYSTEM, base + 3, frame_runs([777]))
    assert fragments(t, SYSTEM, base, 16)[3] == 0


def test_scattered_frames_leave_fragment_zero():
    t = fresh_table()
    base = t.reserve(64).va_base
    frames = np.array([10, 5000, 321, 9999, 42, 77, 1234, 88])
    t.map_range(SYSTEM, base, frame_runs(frames))
    t.propagate(base, 8)
    pages = expand(t._region_at(base)[0])
    frags = fragments(t, GPU, base, 8)
    for i in range(8):
        assert frags[i] == 0
        assert brute_fragment(pages, i, GPU, base) == 0


def test_propagate_counts_and_idempotence():
    t = fresh_table()
    base = t.reserve(256).va_base
    t.map_range(SYSTEM, base, frame_runs(np.arange(2048, 2048 + 100)))
    assert t.propagate(base, 100) == 100
    assert t.propagate(base, 100) == 0


def test_propagate_requires_system_mapping():
    t = fresh_table()
    base = t.reserve(16).va_base
    with pytest.raises(Unmapped):
        t.propagate(base, 4)


def test_fragment_partial_propagation_is_smaller():
    # GPU table mirrors a subset, so its fragments may be finer than the
    # system table's.
    t = fresh_table()
    base = t.reserve(64).va_base
    t.map_range(SYSTEM, base, frame_runs(np.arange(4096, 4096 + 16)))
    t.propagate(base, 8)
    assert fragments(t, SYSTEM, base, 64)[0] == 4
    assert fragments(t, GPU, base, 64)[0] == 3


def test_unmap_splits_runs():
    t = fresh_table()
    base = t.reserve(64).va_base
    t.map_range(SYSTEM, base, frame_runs(np.arange(8192, 8192 + 16)))
    t.propagate(base, 16)
    t.unmap_range(base + 8, 1)
    pages = expand(t._region_at(base)[0])
    assert pages[1][8] == 0
    frags = fragments(t, GPU, base, 64)
    for i in list(range(8)) + list(range(9, 16)):
        assert frags[i] == brute_fragment(pages, i, GPU, base)


def test_fragment_oracle_random_maps():
    rng = np.random.default_rng(42)
    for _ in range(60):
        t = fresh_table()
        n = int(rng.integers(4, 128))
        base = t.reserve(n).va_base
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
                    t.map_range(SYSTEM, base + int(seg_o[0]),
                                frame_runs(seg_f))
                except AlreadyMapped:
                    pass
        pages = expand(t._region_at(base)[0])
        mapped = np.nonzero(pages[1][:n])[0]
        frags = fragments(t, SYSTEM, base, n)
        for i in mapped:
            assert frags[i] == brute_fragment(pages, int(i), SYSTEM, base), \
                f"page {i} of map with n={n}"


def test_fragment_order_independence():
    rng = np.random.default_rng(7)
    frames = np.arange(4096, 4096 + 32)
    orders = [np.arange(32), np.arange(31, -1, -1), rng.permutation(32)]
    results = []
    for order in orders:
        t = fresh_table()
        base = t.reserve(64).va_base
        for i in order:
            t.map_range(SYSTEM, base + int(i), frame_runs([frames[i]]))
        results.append(fragments(t, SYSTEM, base, 32).tolist())
    assert results[0] == results[1] == results[2]
    assert results[0] == [5] * 32


def test_range_crossing_its_reservation_is_rejected():
    t = fresh_table()
    base = t.reserve(16).va_base
    t.map_range(SYSTEM, base, frame_runs(np.arange(4096, 4096 + 16)))
    t.propagate(base, 16)
    with pytest.raises(Unmapped, match="crosses its reservation"):
        t.fragment_runs(GPU, base + 8, 16)
    with pytest.raises(Unmapped, match="crosses its reservation"):
        triad_misses(t, [(base + 8, 16)], 1, 1)
    with pytest.raises(Unmapped, match="crosses its reservation"):
        t.fragment_runs(SYSTEM, base + 8, 16)
    # The range inside the reservation lies in one fragment run.
    assert triad_misses(t, [(base + 8, 8)], 1, 1) == 1


def test_unmap_crossing_its_reservation_is_rejected():
    t = fresh_table()
    base = t.reserve(16).va_base
    t.map_range(SYSTEM, base, frame_runs(np.arange(4096, 4096 + 16)))
    t.propagate(base, 16)
    with pytest.raises(Unmapped, match="crosses its reservation"):
        t.unmap_range(base + 8, 16)
    # The rejected unmap changed nothing.
    region, _ = t._region_at(base)
    frames, state = expand(region)
    assert frames.tolist() == list(range(4096, 4096 + 16))
    assert (state == LEVEL[GPU]).all()
    t.unmap_range(base + 8, 8)
    assert expand(region)[0][8:].tolist() == [-1] * 8


def test_map_propagate_and_unmap_read_no_fragments(monkeypatch):
    reads = []
    monkeypatch.setattr(DualTable, "fragment_runs",
                        lambda self, *args: reads.append(args))
    t = fresh_table()
    base = t.reserve(64).va_base
    t.map_range(SYSTEM, base, frame_runs(np.arange(4096, 4096 + 32)))
    t.propagate(base, 8)
    t.propagate(base, 16)
    t.propagate(base, 32)
    t.unmap_range(base + 8, 4)
    t.unmap_range(base, 64)
    assert reads == []


def test_region_footprint_per_page():
    # A region holds runs, not pages: 1 GiB of consecutive frames is one
    # run, well under the 5 B a page of one frame and state a page.
    n_pages = (1 << 30) // 4096
    frames = np.arange(n_pages, dtype=np.int64)
    t = fresh_table()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        base = t.reserve(n_pages).va_base
        t.map_range(SYSTEM, base, FrameRuns([0], [n_pages]))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    region, _ = t._region_at(base)
    np.testing.assert_array_equal(expand(region)[0], frames)
    assert region.runs.shape == (4, 1)
    # Under 2 KiB for the region object and its one run.
    assert held - before <= 2048


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


def test_reserve_rejects_a_range_past_int32():
    t = fresh_table()
    with pytest.raises(ValueError, match="under"):
        t.reserve(FRAME_LIMIT)
    assert t._regions == []
    t.reserve(FRAME_LIMIT - 1, align_pages=1)


@pytest.mark.parametrize("bad", [FRAME_LIMIT, -1])
def test_map_range_rejects_frames_outside_int32(bad):
    t = fresh_table()
    base = t.reserve(4).va_base
    # The runs check themselves when built, so no bad run reaches a table.
    for starts, sizes in (([0, bad], [1, 1]), ([bad - 1], [2]), ([0], [0])):
        with pytest.raises(ValueError):
            t.map_range(SYSTEM, base, FrameRuns(starts, sizes))
    region, _ = t._region_at(base)
    assert region.runs.shape == (4, 0)
    t.map_range(SYSTEM, base, FrameRuns([FRAME_LIMIT - 2], [2]))
    assert expand(region)[0][:2].tolist() == [FRAME_LIMIT - 2,
                                              FRAME_LIMIT - 1]


class PageTable:
    """The per-page reference for one reservation: a frame (-1 where
    unmapped) and a state a page, with the rules the run table keeps."""

    def __init__(self, n_pages):
        self.frames = np.full(n_pages, -1, dtype=np.int64)
        self.state = np.zeros(n_pages, dtype=np.uint8)

    def _range(self, off, n):
        if not 0 <= off < len(self.frames) or off + n > len(self.frames):
            raise Unmapped(off, n)
        return slice(off, off + n)

    def map_range(self, table, off, frames):
        """Map frames, given one a page, in the system table; GPU entries
        come only from propagate."""
        if len(frames) and not (frames.min() >= 0
                                and frames.max() < FRAME_LIMIT):
            raise ValueError(frames)
        if table != SYSTEM:
            raise ValueError(table)
        sel = self._range(off, len(frames))
        if self.state[sel].any():
            raise AlreadyMapped
        self.frames[sel], self.state[sel] = frames, LEVEL[SYSTEM]

    def propagate(self, off, n):
        state = self.state[self._range(off, n)]
        if not state.all():
            raise Unmapped(off, n)
        fresh = int(np.count_nonzero(state == LEVEL[SYSTEM]))
        state[:] = LEVEL[GPU]
        return fresh

    def unmap_range(self, off, n):
        sel = self._range(off, n)
        self.state[sel], self.frames[sel] = 0, -1

    def state_runs(self, off, n, state):
        mask = self.state[self._range(off, n)] == state
        edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
        return np.stack((edges[0::2], edges[1::2])) + off

    def fragment_runs(self, table, va_base, cap):
        """(starts, orders) of the fragment runs: a page gets the largest
        f whose 2^f-aligned window around it is mapped to consecutive
        frames that start 2^f-aligned; a run starts at each page aligned
        to its own fragment."""
        mapped, n = self.state >= LEVEL[table], len(self.frames)
        frag = np.where(mapped, 0, -1)
        for f in range(1, cap + 1):
            lo = np.arange(-va_base % (1 << f), n - (1 << f) + 1, 1 << f)
            window = lo[:, None] + np.arange(1 << f)
            good = mapped[window].all(1) & (self.frames[lo] % (1 << f) == 0) \
                & (np.diff(self.frames[window], axis=1) == 1).all(1)
            frag[window[good]] = f
        pages = np.arange(n) + va_base
        first = (frag >= 0) & (pages % (1 << np.maximum(frag, 0)) == 0)
        return pages[first], frag[first]


def random_frames(rng, n):
    """(starts, sizes) of n frames in consecutive stretches from random
    starts, now and then outside [0, FRAME_LIMIT)."""
    sizes = np.diff(np.unique(np.r_[0, rng.integers(0, n + 1, 3), n]))
    starts = rng.integers(0, 1 << 10, len(sizes)) << int(rng.integers(0, 5))
    if rng.random() < 0.05:
        starts[-1:] = rng.choice([-1, FRAME_LIMIT - 1])
    return starts, sizes


def outcome(call):
    """What call returns, or the type of the table error it raises."""
    try:
        return call()
    except (AlreadyMapped, Unmapped, ValueError) as exc:
        return type(exc)


def test_run_table_matches_the_per_page_reference():
    # Random map, propagate, unmap and state_runs calls on both tables,
    # with ranges that cover part of a run, several runs, or leave the
    # reservation.
    rng = np.random.default_rng(24)
    errors = set()
    for _ in range(60):
        cap = int(rng.choice([3, 31]))
        t, n = DualTable(cap), int(rng.integers(8, 80))
        base = t.reserve(n, align_pages=int(rng.choice([1, 8, 512]))).va_base
        region, ref = t._region_at(base)[0], PageTable(n)
        for _ in range(30):
            op = rng.choice(["map", "gpu", "propagate", "unmap", "state"])
            off = int(rng.integers(-2, n + 2))
            size, state = int(rng.integers(0, 24)), int(rng.integers(0, 3))
            frames = random_frames(rng, size)

            # The run table takes the frames as FrameRuns, which check
            # themselves when built; the reference one frame a page.
            def call(table, va_base, runs):
                at = va_base + off
                if op in ("map", "gpu"):
                    return table.map_range(GPU if op == "gpu" else SYSTEM,
                                           at, runs(*frames))
                if op == "state":
                    return (table.state_runs(at, size, state)
                            - va_base).tolist()
                if op == "propagate":
                    return table.propagate(at, size)
                return table.unmap_range(at, size)

            got, want = outcome(lambda: call(t, base, FrameRuns)), outcome(
                lambda: call(ref, 0, _ranges))
            assert got == want, (op, off, size)
            if isinstance(got, type):
                errors.add(got)
            np.testing.assert_array_equal(expand(region)[0], ref.frames)
            np.testing.assert_array_equal(expand(region)[1], ref.state)
            for table in (SYSTEM, GPU):
                for a, b in zip(t.fragment_runs(table, base, 1),
                                ref.fragment_runs(table, base, min(cap, 7))):
                    np.testing.assert_array_equal(a, b)
    assert errors == {AlreadyMapped, Unmapped, ValueError}

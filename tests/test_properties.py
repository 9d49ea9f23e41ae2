"""Randomized property suites: oracle equivalence, conservation, LRU
stack behavior, monotonicity, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from upm_sim import harness, perf
from upm_sim.machine import GiB, KiB, MiB, builtin_mi300a
from upm_sim.memmgr import (Agent, AllocatorKind, FaultBatch, FramePool,
                            MemoryManager, OutOfMemory, Policy, classify)
from upm_sim.pagetable import (GPU, LEVEL, SYSTEM, AlreadyMapped, DualTable,
                               FrameRuns)
from upm_sim.tlb import FragmentTlb
from tests.test_pagetable import (brute_fragment, expand, fragments,
                                  frame_runs, run_pages)

K = AllocatorKind


def small_profile():
    """128 GiB pool shrunk to 2 GiB to keep random-op sequences fast."""
    return replace(builtin_mi300a(), hbm_capacity=2 * GiB)


def random_mapping(rng, t, n):
    """Map a random mix of contiguous runs and scattered frames."""
    base = t.reserve(n).va_base
    off = 0
    while off < n:
        run = min(int(rng.integers(1, 24)), n - off)
        if rng.random() < 0.5:
            start = int(rng.integers(0, 1 << 15))
            frames = np.arange(start, start + run)
        else:
            frames = rng.integers(0, 1 << 15, size=run)
        try:
            t.map_range(SYSTEM, base + off, frame_runs(frames))
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
        pages = expand(t._region_at(base)[0])
        frags = fragments(t, SYSTEM, base, n)
        mapped = np.nonzero(pages[1][:n])[0]
        sample = mapped if len(mapped) <= 6 else \
            rng.choice(mapped, size=6, replace=False)
        for off in sample:
            assert frags[off] == \
                brute_fragment(pages, int(off), SYSTEM, base)
            checked += 1
    assert checked > 2000


def test_fragment_oracle_large_mappings():
    rng = np.random.default_rng(77)
    for _ in range(20):
        t = DualTable(31)
        n = int(rng.integers(1 << 10, 1 << 12))
        base = t.reserve(n, align_pages=4096).va_base
        start = int(rng.integers(0, 1 << 20)) & ~((1 << 12) - 1)
        t.map_range(SYSTEM, base, FrameRuns([start], [n]))
        pages = expand(t._region_at(base)[0])
        frags = fragments(t, SYSTEM, base, n)
        for off in rng.integers(0, n, size=8):
            assert frags[off] == \
                brute_fragment(pages, int(off), SYSTEM, base, f_cap=12)


def assert_fragments_match_oracle(t, base, offsets, table, f_cap):
    region, _ = t._region_at(base)
    pages = expand(region)
    mapped = pages[1] >= LEVEL[table]
    frags = fragments(t, table, base, region.n_pages)
    for off in offsets:
        off = int(off)
        expected = brute_fragment(pages, off, table, base, f_cap=f_cap) \
            if mapped[off] else -1
        assert int(frags[off]) == expected, (table, off)


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
        base = t.reserve(n, align_pages=512).va_base
        start = int(rng.integers(0, 1 << 12)) << 4
        frames = np.arange(start, start + n)
        # A few frame jumps break the map into several runs.
        for cut in rng.integers(1, n, size=int(rng.integers(0, 4))):
            frames[cut:] += int(rng.integers(1, 64))
        t.map_range(SYSTEM, base, frame_runs(frames))
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


def test_fragment_oracle_gpu_table_partial_mirror_then_complete():
    # The first propagate mirrors a middle window, so GPU runs end at its
    # edges; the second mirrors the rest, after which both tables hold
    # the same flags.
    rng = np.random.default_rng(717)
    for _ in range(25):
        t = DualTable(31)
        n = int(rng.integers(64, 160))
        base = t.reserve(n, align_pages=512).va_base
        start = int(rng.integers(0, 1 << 12)) << 4
        frames = np.arange(start, start + n)
        for cut in rng.integers(1, n, size=int(rng.integers(0, 4))):
            frames[cut:] += int(rng.integers(1, 64))
        t.map_range(SYSTEM, base, frame_runs(frames))
        lo = int(rng.integers(1, n - 1))
        hi = int(rng.integers(lo + 1, n))
        t.propagate(base + lo, hi - lo)
        assert_fragments_match_oracle(t, base, range(n), GPU, f_cap=12)
        t.propagate(base, n)
        assert_fragments_match_oracle(t, base, range(n), GPU, f_cap=12)


def test_fragment_oracle_gpu_table_mirror_stays_partial():
    # Every mapped page but one is mirrored, page by page in random order:
    # the GPU flags never equal the system flags.
    rng = np.random.default_rng(818)
    for _ in range(40):
        t = DualTable(31)
        n = int(rng.integers(16, 96))
        base = random_mapping(rng, t, n)
        region, _ = t._region_at(base)
        mapped = np.flatnonzero(expand(region)[1][:n])
        mirrored = rng.permutation(mapped[mapped != rng.choice(mapped)])
        for off in mirrored.tolist():
            t.propagate(base + off, 1)
        assert_fragments_match_oracle(t, base, range(n), GPU, f_cap=7)


def test_fragment_oracle_across_recompute_chunks():
    # A map of 3 x 64 Ki + 777 pages in three long runs, so fragments
    # of order 12 and more occur.
    chunk = 1 << 16
    t = DualTable(31)
    n = 3 * chunk + 777
    base = t.reserve(n + 1000, align_pages=1 << 18).va_base
    frames = np.arange(n, dtype=np.int64) + (5 << 18) + 1000
    # Two frame jumps make three runs, each starting inside a 64 Ki-page
    # stretch that an earlier run began.
    jumps = [k * chunk + 4096 for k in (1, 2)]
    for j in jumps:
        frames[j:] += 1 << 18
    # The window starts 1000 pages into the reservation, so every 64 Ki
    # mark falls inside a large aligned block.
    t.map_range(SYSTEM, base + 1000, frame_runs(frames))
    t.propagate(base + 1000, n)
    edges = [k * chunk for k in range(4)] + jumps + [n]
    offsets = sorted({1000 + e + d for e in edges for d in (-2, -1, 0, 1)
                      if 0 <= 1000 + e + d < n + 1000})
    for table in (SYSTEM, GPU):
        assert_fragments_match_oracle(t, base, offsets, table, f_cap=18)
    frags = fragments(t, SYSTEM, base, n + 1000)
    assert max(int(frags[o]) for o in offsets) >= 12


def test_fragment_oracle_windows_on_unmapped_edges():
    # Unmap windows whose first or last page is already unmapped, so a
    # window starts or ends on a page that is in no run.
    rng = np.random.default_rng(616)
    for _ in range(80):
        t = DualTable(31)
        n = int(rng.integers(8, 96))
        base = random_mapping(rng, t, n)
        region, _ = t._region_at(base)
        mapped = expand(region)[1][:n] != 0
        for off in np.flatnonzero(mapped):
            if rng.random() < 0.7:
                t.propagate(base + int(off), 1)
        holes = np.flatnonzero(~mapped)
        if not len(holes):
            continue
        for _ in range(2):
            edge = int(rng.choice(holes))
            other = int(rng.integers(0, n))
            lo, hi = min(edge, other), max(edge, other) + 1
            t.unmap_range(base + lo, hi - lo)
            for table in (SYSTEM, GPU):
                assert_fragments_match_oracle(t, base, range(n), table,
                                              f_cap=7)


@pytest.mark.parametrize("max_fragment", [3, 5])
def test_fragment_oracle_run_beyond_max_fragment_odd_delta(max_fragment):
    # One run of several times 2^max_fragment pages whose frame offset is
    # an odd multiple of 2^k: fragments are capped by k and max_fragment.
    for k in range(max_fragment + 2):
        t = DualTable(max_fragment)
        n = 5 * (1 << max_fragment) + 3
        base = t.reserve(n + 7, align_pages=512).va_base
        delta = (2 * k + 3) << k
        t.map_range(SYSTEM, base + 7, FrameRuns([base + 7 + delta], [n]))
        t.propagate(base + 7, n)
        for table in (SYSTEM, GPU):
            assert_fragments_match_oracle(t, base, range(n + 7), table,
                                          f_cap=max_fragment)


def random_op(rng, profile, live, tails=False):
    """One random operation on a manager whose live allocations are live:
    ("allocate", kind, size), ("touch", index, pages, agent),
    ("release", index), or None for a touch that does nothing. With tails,
    sizes are not whole 16-page batches."""
    op = rng.random()
    if op < 0.45 or not live:
        kind = list(K)[int(rng.integers(0, 6))]
        size = int(rng.integers(1, 64)) * profile.page_size * 16
        if tails:
            size += int(rng.integers(0, 16)) * profile.page_size
        return "allocate", kind, size
    if op < 0.8:
        index = int(rng.integers(0, len(live)))
        alloc = live[index]
        blocks = alloc.n_pages // 16
        if blocks and alloc.policy.value == "on_demand":
            b0 = int(rng.integers(0, blocks))
            b1 = int(rng.integers(b0, blocks)) + 1
            agent = Agent.CPU if rng.random() < 0.7 else Agent.GPU
            spec = classify(alloc.kind, profile.xnack)
            if agent is Agent.CPU or spec.gpu_access:
                return "touch", index, (b0 * 16, b1 * 16), agent
        return None
    return "release", int(rng.integers(0, len(live)))


def apply_op(m, live, op) -> bool:
    """Apply a random_op to m and its live list; False if it ran out of
    memory."""
    if op is None:
        return True
    name, *args = op
    try:
        if name == "allocate":
            live.append(m.allocate(*args))
        elif name == "touch":
            index, pages, agent = args
            m.touch(live[index], pages, agent)
        else:
            m.release(live.pop(args[0]))
    except OutOfMemory:
        return False
    return True


def test_frame_conservation_random_op_sequences():
    profile = small_profile()
    total_ops = 0
    for seq in range(40):
        rng = np.random.default_rng(1000 + seq)
        m = MemoryManager(profile, seed=seq)
        start_snapshot = snapshot(m.pool)
        total = m.pool.total_frames
        live = []
        for _ in range(250):
            total_ops += 1
            assert apply_op(m, live, random_op(rng, profile, live))
            # Every frame is either free or owned by a live allocation's
            # reservation, with no overlap; and the rest of check().
            m.check()
            assert m.pool.used_frames + m.pool.free_frames == total
        # No frame is ever double-mapped across live allocations.
        mapped_frames = np.concatenate(
            [expand(a.region)[0] for a in live] or
            [np.empty(0, dtype=np.int64)])
        mapped_frames = mapped_frames[mapped_frames >= 0]
        assert len(np.unique(mapped_frames)) == len(mapped_frames)
        for alloc in live:
            m.release(alloc)
        assert snapshot(m.pool) == start_snapshot
        assert m.pool.free_frames == total
    assert total_ops >= 10_000


def free_intervals(pool):
    """Sorted maximal (start, n_pages) intervals of free frames."""
    starts, sizes = pool.free_pieces()
    at = np.argsort(starts)
    s, e = starts[at], starts[at] + sizes[at]
    first = np.ones(len(s), dtype=bool)
    first[1:] = s[1:] != e[:-1]
    ends = np.maximum.reduceat(e, np.flatnonzero(first)) if len(s) else e
    return list(zip(s[first].tolist(), (ends - s[first]).tolist()))


def snapshot(pool):
    """Canonical free-set contents for conservation tests."""
    return tuple(free_intervals(pool)), pool.used_frames


def release_run(pool, start, n_pages):
    """Return one run, merging it piece by piece with free buddies."""
    pool.used_frames -= n_pages
    pool._merge_run(start, n_pages)


def per_run_release(m):
    """m, with its pool returning frames by one release_run per run, in
    list order: the reference for FramePool.release_runs."""
    pool = m.pool

    def release_runs(starts, sizes):
        starts = np.asarray(starts)
        for start, n in zip(starts.tolist(),
                            np.broadcast_to(sizes, starts.shape).tolist()):
            release_run(pool, start, n)
        pool._compact()

    pool.release_runs = release_runs
    return m


def pool_state(pool):
    """Everything a later draw can see: free set, used frames, each
    store's keys in order, released blocks, the whole-block count,
    cursors."""
    return (snapshot(pool), [list(d) for d in pool._runs.values()],
            [s.array[0].tolist() for s in pool._stacks], list(pool._released),
            pool._alive_count, pool._boot_left, pool._seq_next)


def count_merged_blocks(pool) -> list:
    """Wrap pool._merge_run to count the blocks it makes whole; the
    one-entry list that holds the count."""
    merge_run, merged = pool._merge_run, [0]

    def counted(start, n_pages):
        before = len(pool._released)
        merge_run(start, n_pages)
        merged[0] += len(pool._released) - before

    pool._merge_run = counted
    return merged


def test_bulk_release_matches_per_run_release_random_op_sequences():
    # A 32 MiB pool (64 blocks) runs out of memory now and then; a failed
    # operation leaves the pool and the scatter stream as it found them.
    # Host up-front kinds draw ascending (degree 0) between the scattered
    # CPU touches.
    profile = builtin_mi300a()
    profile = replace(profile, hbm_capacity=32 * MiB,
                      placement=replace(profile.placement,
                                        host_upfront_scatter_degree=0.0))
    failed = merge_whole = 0
    for seq in range(16):
        rng = np.random.default_rng(5000 + seq)
        bulk = MemoryManager(profile, seed=seq)
        ref = per_run_release(MemoryManager(profile, seed=seq))
        merged = count_merged_blocks(bulk.pool)
        live_bulk, live_ref = [], []
        state = pool_state(bulk.pool)
        for _ in range(150):
            op = random_op(rng, profile, live_bulk, tails=True)
            rng_state = bulk._scatter_rng.bit_generator.state
            before_merges = merged[0]
            done = apply_op(bulk, live_bulk, op)
            assert apply_op(ref, live_ref, op) == done
            failed += not done
            # Releases in which a merge, not the count, completes a block.
            merge_whole += merged[0] > before_merges
            bulk.check()
            ref.check()
            before, state = state, pool_state(bulk.pool)
            assert state == pool_state(ref.pool)
            if not done:
                assert state == before
                assert bulk._scatter_rng.bit_generator.state == rng_state
        while live_bulk:
            bulk.release(live_bulk.pop())
            ref.release(live_ref.pop())
            assert pool_state(bulk.pool) == pool_state(ref.pool)
        assert free_intervals(bulk.pool) == [(0, bulk.pool.total_frames)]
    assert failed > 50
    assert merge_whole > 0


def test_bulk_release_orders_merged_and_counted_blocks_by_last_run():
    # One call releases two blocks. Block a is whole only with its 8-page
    # free piece, below a slot, so its run merges into it; block b is
    # whole by count with its free slot, and its last run comes after a's
    # run. Per-run release frees a first, then b.
    profile = replace(builtin_mi300a(), hbm_capacity=32 * MiB)
    pools = [MemoryManager(profile, seed=4).pool,
             per_run_release(MemoryManager(profile, seed=4)).pool]
    for pool in pools:
        a, b = pool.take_blocks(2).tolist()
        pool.release_runs([a, b], [8, 16])
        pool.release_runs([b + 16, a + 8, b + 64], [48, 120, 64])
    bulk, ref = pools
    assert pool_state(bulk) == pool_state(ref)
    assert bulk._released[-2:] == [a >> bulk.block_order,
                                   b >> bulk.block_order]
    assert free_intervals(bulk) == [(0, bulk.total_frames)]


def one_by_one(pool):
    """pool, drawing batches and blocks one at a time, each block popped
    from the released list, then the boot order: the reference for the
    whole-array draws of take_batches, take_blocks and take_contiguous. A
    draw of more blocks or batches than are free takes none. A batch drawn
    from an empty group store splits the next block into one slot per
    group; once no block is left, it splits a 32- or 64-page run, the
    smallest first, and else takes the next group's slot."""
    alive = pool._block_alive

    def take(b):
        alive[b] = 0
        pool._alive_count -= 1
        return b

    def pop_block():
        while pool._released:
            b = pool._released.pop()
            if alive[b]:
                return take(b)
        while pool._boot_left:
            pool._boot_left -= 1
            b = pool._boot_order[pool._boot_left]
            if alive[b]:
                return take(b)
        return None

    def next_blocks(k):
        blocks = [pop_block() for _ in range(k)]
        assert None not in blocks
        return np.array(blocks, dtype=np.int64)

    def take_blocks(count):
        if count > alive.count(1):
            raise OutOfMemory(f"{count} blocks requested")
        pool.used_frames += count * pool.block_pages
        return next_blocks(count) << pool.block_order

    def refill_dry(group):
        for o in range(pool.batch_order + 1, pool.block_order):
            if pool._runs[o]:
                start, _ = pool._runs[o].popitem()
                for k in range(1 << (o - pool.batch_order)):
                    pool._put(pool.batch_order,
                              start + (k << pool.batch_order))
                break
        return next(g % pool.groups_n
                    for g in range(group, group + pool.groups_n)
                    if pool._stacks[g % pool.groups_n].n)

    def take_batch(group):
        if not pool._stacks[group].n:
            b = pop_block()
            if b is None:
                group = refill_dry(group)
            else:
                for g in range(pool.groups_n):
                    pool._put(pool.batch_order, (b << pool.block_order)
                              + (g << pool.batch_order))
        return pool._pop(group)

    def take_batches(groups):
        if len(groups) > pool.batch_room():
            raise OutOfMemory(f"{len(groups)} batches requested")
        starts = [take_batch(g) for g in groups]
        pool.used_frames += len(groups) * pool.batch_pages
        return np.array(starts, dtype=np.int64)

    pool._next_blocks = next_blocks
    pool.take_blocks = take_blocks
    pool.take_batches = take_batches
    return pool


def random_draw(rng, pool, held):
    """One random pool call: scattered batches in uniform or Zipf groups,
    sequential batches, whole blocks, a contiguous run, or the release of
    a random part of the held runs, largest draws enough to run dry."""
    gn, op = pool.groups_n, rng.random()
    # One draw in ten may ask for more than is free.
    free = int(pool.free_frames * (2.0 if rng.random() < 0.1 else 0.3)) + 1
    if op < 0.4:
        count = int(rng.integers(1, free // pool.batch_pages + 2))
        w = np.arange(1, gn + 1) ** -float(rng.choice([0.0, 1.5]))
        groups = rng.choice(gn, size=count, p=w / w.sum()).tolist()
        return "take_batches", groups, pool.batch_pages
    if op < 0.5:
        count = int(rng.integers(1, free // pool.batch_pages + 2))
        return "take_batches_sequential", count, pool.batch_pages
    if op < 0.6:
        count = int(rng.integers(1, free // pool.block_pages + 2))
        return "take_blocks", count, pool.block_pages
    if op < 0.75:
        return "take_contiguous", int(rng.integers(1, free + 1)), None
    keep = rng.random(len(held)) < rng.random()
    return "release_runs", [r for r, k in zip(held, keep) if not k], None


def apply_draw(pool, held, draw):
    """Apply a random_draw to pool and its held runs; the starts drawn, or
    None if it ran out of memory."""
    name, arg, pages = draw
    if name == "release_runs":
        pool.release_runs(*np.array(arg, dtype=np.int64).reshape(-1, 2).T)
        gone = set(arg)
        held[:] = [run for run in held if run not in gone]
        return []
    try:
        got = getattr(pool, name)(arg)
    except OutOfMemory:
        return None
    got = [run if pages is None else (int(run), pages) for run in got]
    held.extend(got)
    return got


@pytest.mark.parametrize("block,batch", [(128, 16), (32, 4), (64, 1),
                                         (16, 16), (256, 16)])
def test_whole_array_draws_match_one_by_one(block, batch):
    profile = builtin_mi300a()
    profile = replace(profile, hbm_capacity=24 * block * profile.page_size,
                      placement=replace(profile.placement,
                                        frame_block_pages=block,
                                        kernel_batch_pages=batch))
    failed = scattered = dry = 0
    for seq in range(12):
        rng = np.random.default_rng(7000 + seq)
        ss = np.random.SeedSequence(seq)
        pool, ref = FramePool(profile, ss), one_by_one(FramePool(profile, ss))
        held, held_ref = [], []
        state = pool_state(pool)
        for _ in range(80):
            draw = random_draw(rng, pool, held)
            free = pool.free_frames
            room = sum(s.n for s in pool._stacks) \
                + pool.groups_n * pool._alive_count
            got = apply_draw(pool, held, draw)
            assert apply_draw(ref, held_ref, draw) == got
            before, state = state, pool_state(pool)
            assert state == pool_state(ref)
            # A failed draw takes nothing, and a contiguous draw fails only
            # when it asks for more than is free.
            if got is None:
                assert state == before
                assert draw[0] != "take_contiguous" or draw[1] > free
                failed += 1
            scattered += draw[0] == "take_batches" and got is not None
            # More slots than the stores and the whole blocks hold: the
            # draw splits runs between a slot and a block, on the dry path.
            dry += draw[0] == "take_batches" and got is not None \
                and len(draw[1]) > room
    assert failed > 20 and scattered > 100
    assert dry > 0 or block == batch


@pytest.mark.parametrize("heap", [False, True], ids=["alone", "heap"])
@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
def test_bulk_release_matches_per_run_release_usage_matrix(kind, heap):
    # The 1 GiB allocate, touch, release of harness.usage_matrix, then the
    # three stream arrays it allocates next; optionally beside a live
    # 100 MiB heap that holds part of some of the released blocks.
    profile = builtin_mi300a()
    states = []
    for m in (MemoryManager(profile, seed=3),
              per_run_release(MemoryManager(profile, seed=3))):
        if heap:
            h = m.allocate(K.LIBC_ON_DEMAND, 100 * MiB)
            m.touch(h, (0, h.n_pages // 2), Agent.CPU)
        alloc = m.allocate(kind, 1 * GiB)
        m.touch(alloc, (0, alloc.n_pages // 2), Agent.CPU)
        m.touch(alloc, None, Agent.CPU)
        m.release(alloc)
        m.check()
        state = pool_state(m.pool)
        arrays = [m.allocate(kind, profile.bw_model.gpu_stream_array_bytes)
                  for _ in range(3)]
        for a in arrays:
            m.touch(a, None, Agent.CPU)
        states.append((state, [list(a.frame_runs) for a in arrays]))
    assert states[0] == states[1]


def faults_page_by_page(m, a, lo, hi, agent):
    """(kinds, pages) of touching [lo, hi), one page or chunk at a time,
    from the tables and chunk flags before the touch."""
    offs = np.arange(lo, hi)
    state = expand(a.region)[1][lo:hi]
    sys_mapped = state >= LEVEL[SYSTEM]
    gpu_mapped = state >= LEVEL[GPU]
    kinds, pages = [], []
    if lo == hi:
        pass
    elif a.policy is Policy.ON_DEMAND and agent is Agent.CPU:
        pages = offs[~sys_mapped].tolist()
        kinds = [0] * len(pages)
    elif a.policy is Policy.ON_DEMAND:
        minor = offs[sys_mapped & ~gpu_mapped].tolist()
        major = offs[~sys_mapped].tolist()
        kinds, pages = [1] * len(minor) + [2] * len(major), minor + major
    elif agent is Agent.CPU:
        grain = (m.profile.placement.gpu_init_cpu_map_pages
                 if a.first_touch_agent is Agent.GPU else m._chunk_pages)
        for c in range(lo // grain, -(-hi // grain)):
            if a.cpu_chunks_mapped is None or not a.cpu_chunks_mapped[c]:
                kinds.append(0)
                pages.append(c * grain)
    return (np.array(kinds, dtype=np.uint8),
            a.va_base + np.array(pages, dtype=np.int64))


def check_frames_page_by_page(m, a, lo, hi, agent, before):
    """Every page the touch mapped sits at its batch's (CPU) or block's
    (GPU) reservation plus its offset there, and the runs it drew are the
    reservations of the batches or blocks that had none, ascending."""
    sys_before, pending_before, n_runs = before
    region = a.region
    fresh = np.flatnonzero(sys_before[lo:hi] == 0) + lo
    grain = m.pool.block_pages if agent is Agent.GPU else m.pool.batch_pages
    pending = a.pending_gpu_blocks if agent is Agent.GPU \
        else a.pending_cpu_batches
    if not len(fresh):
        return
    np.testing.assert_array_equal(expand(region)[0][fresh],
                                  pending[fresh // grain] + fresh % grain)
    need = np.unique(fresh // grain)
    if pending_before is not None:
        need = need[pending_before[need] < 0]
    drawn = [start for start, _ in list(a.frame_runs)[n_runs:]]
    assert drawn == pending[need].tolist()


@pytest.mark.parametrize("xnack", [False, True], ids=["xnack0", "xnack1"])
@pytest.mark.parametrize("kind", list(K), ids=lambda k: k.value)
def test_touch_faults_and_frames_match_page_by_page(kind, xnack):
    profile = replace(small_profile(), xnack=xnack)
    spec = classify(kind, xnack)
    agents = [Agent.CPU, Agent.GPU] if spec.gpu_access else [Agent.CPU]
    checked = 0
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        m = MemoryManager(profile, seed=seed)
        a = m.allocate(kind, int(rng.integers(1, 4)) * MiB
                       + int(rng.integers(0, 64)) * 4096)
        batches = []
        for _ in range(24):
            agent = agents[int(rng.integers(len(agents)))]
            # Half of the ranges lie inside a batch or a block, or span a
            # few; one in twenty is the whole allocation.
            lo = int(rng.integers(0, a.n_pages + 1))
            most = 20 if rng.random() < 0.5 else a.n_pages // 3
            hi = min(lo + int(rng.integers(0, most)), a.n_pages)
            if rng.random() < 0.05:
                lo, hi = 0, a.n_pages
            region = a.region
            pending = a.pending_gpu_blocks if agent is Agent.GPU \
                else a.pending_cpu_batches
            before = (expand(region)[1],
                      None if pending is None else pending.copy(),
                      len(a.frame_runs))
            want = faults_page_by_page(m, a, lo, hi, agent)
            batch = m.touch(a, (lo, hi), agent)
            batches.append((batch, want))
            if a.policy is Policy.ON_DEMAND:
                check_frames_page_by_page(m, a, lo, hi, agent, before)
            m.check()
        # Half of the batches are read only after every later touch.
        order = rng.permutation(len(batches))
        for batch, (kinds, pages) in (batches[i] for i in order):
            counts = [batch.count(k) for k in FaultBatch._KIND_CODES]
            np.testing.assert_array_equal(np.repeat(np.arange(3), counts),
                                          kinds)
            np.testing.assert_array_equal(run_pages(*batch.runs), pages)
            assert len(batch) == len(kinds)
            checked += len(kinds)
    assert checked > 0


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
        universe = [int(b) for b in rng.integers(0, 200, size=50)]
        stream = [universe[int(i)] for i in rng.integers(0, 50, size=3000)]
        misses = []
        for capacity in (1, 2, 4, 8, 16, 32, 64, 128):
            t = FragmentTlb(capacity)
            for base in stream:
                t.access_run(base)
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


def test_stream_seed_sweep_reruns_bit_identical():
    # Pools of one seed share a cached boot order; running another seed
    # in between must not change what the first seed gives.
    profile = builtin_mi300a()
    outputs = {}
    for run, seed in enumerate((1, 2, 1)):
        perf.build_triad_workset.cache_clear()
        harness.build_cpu_stream_stats.cache_clear()
        spec = harness.WorkloadSpec("stream", {}, seed=seed)
        outputs[run] = harness.report(harness.run(profile, spec))
    assert outputs[0] == outputs[2]
    assert outputs[0] != outputs[1]


def test_classify_total_and_exact():
    from tests.test_memmgr import CLASSIFY_TABLE
    seen = set()
    for kind in K:
        for xnack in (False, True):
            spec = classify(kind, xnack)
            assert (spec.gpu_access, spec.physical) == \
                CLASSIFY_TABLE[(kind, xnack)]
            seen.add((kind, xnack))
    assert len(seen) == 12

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from upm_sim.fault import FaultKind
from upm_sim.machine import GiB, KiB, MiB, builtin_mi300a
from upm_sim.memmgr import (AccessViolation, Agent, AllocatorKind, BootOrder,
                            DoubleFree, FramePool, MemoryManager, OutOfMemory,
                            Policy,
                            UsageCounter, UseAfterFree, ZeroSize, _ranges,
                            alloc_time_model, classify, free_time_model,
                            placement_key, placement_twin)
from tests.test_pagetable import expand, run_pages
from tests.test_properties import free_intervals, pool_state, snapshot

K = AllocatorKind


# -- classify: the allocator access matrix, exact and total ---------------

CLASSIFY_TABLE = {
    # (kind, xnack): (gpu_access, policy)
    (K.LIBC_ON_DEMAND, False): (False, Policy.ON_DEMAND),
    (K.LIBC_ON_DEMAND, True): (True, Policy.ON_DEMAND),
    (K.REGISTERED_HOST, False): (True, Policy.UP_FRONT),
    (K.REGISTERED_HOST, True): (True, Policy.UP_FRONT),
    (K.DEVICE_UP_FRONT, False): (True, Policy.UP_FRONT),
    (K.DEVICE_UP_FRONT, True): (True, Policy.UP_FRONT),
    (K.PINNED_HOST, False): (True, Policy.UP_FRONT),
    (K.PINNED_HOST, True): (True, Policy.UP_FRONT),
    (K.MANAGED_UNIFIED, False): (True, Policy.UP_FRONT),
    (K.MANAGED_UNIFIED, True): (True, Policy.ON_DEMAND),
    (K.STATIC_MANAGED, False): (True, Policy.UP_FRONT),
    (K.STATIC_MANAGED, True): (True, Policy.UP_FRONT),
}


@pytest.mark.parametrize("kind", list(K))
@pytest.mark.parametrize("xnack", [False, True])
def test_classify_matrix(kind, xnack):
    spec = classify(kind, xnack)
    assert (spec.gpu_access, spec.physical) == \
        CLASSIFY_TABLE[(kind, xnack)]


# Every kind that is not its own placement twin, by xnack.
PLACEMENT_TWINS = {
    False: {K.PINNED_HOST: K.REGISTERED_HOST,
            K.MANAGED_UNIFIED: K.REGISTERED_HOST,
            K.STATIC_MANAGED: K.REGISTERED_HOST},
    True: {K.PINNED_HOST: K.REGISTERED_HOST,
           K.MANAGED_UNIFIED: K.LIBC_ON_DEMAND,
           K.STATIC_MANAGED: K.REGISTERED_HOST},
}


@pytest.mark.parametrize("xnack", [False, True])
def test_placement_twins(xnack):
    assert {kind: placement_twin(kind, xnack) for kind in K} == \
        {kind: PLACEMENT_TWINS[xnack].get(kind, kind) for kind in K}


# Every kind's placement key, by xnack: (the key profile's xnack, kind).
PLACEMENT_KEYS = {
    False: {K.LIBC_ON_DEMAND: (False, K.LIBC_ON_DEMAND),
            K.REGISTERED_HOST: (True, K.REGISTERED_HOST),
            K.DEVICE_UP_FRONT: (True, K.DEVICE_UP_FRONT),
            K.PINNED_HOST: (True, K.REGISTERED_HOST),
            K.MANAGED_UNIFIED: (True, K.REGISTERED_HOST),
            K.STATIC_MANAGED: (True, K.REGISTERED_HOST)},
    True: {K.LIBC_ON_DEMAND: (True, K.LIBC_ON_DEMAND),
           K.REGISTERED_HOST: (True, K.REGISTERED_HOST),
           K.DEVICE_UP_FRONT: (True, K.DEVICE_UP_FRONT),
           K.PINNED_HOST: (True, K.REGISTERED_HOST),
           K.MANAGED_UNIFIED: (True, K.LIBC_ON_DEMAND),
           K.STATIC_MANAGED: (True, K.REGISTERED_HOST)},
}


@pytest.mark.parametrize("xnack", [False, True])
def test_placement_keys(xnack):
    profile = replace(builtin_mi300a(), xnack=xnack)
    keys = {kind: placement_key(profile, kind) for kind in K}
    assert {kind: (p.xnack, twin) for kind, (p, twin) in keys.items()} == \
        PLACEMENT_KEYS[xnack]
    # A key's profile differs from the given one in xnack alone.
    for p, _ in keys.values():
        assert p == replace(profile, xnack=p.xnack)


# -- allocate / touch / release ------------------------------------------

def manager(seed=0, xnack=True):
    profile = builtin_mi300a()
    if not xnack:
        from dataclasses import replace
        profile = replace(profile, xnack=False)
    return MemoryManager(profile, seed=seed)


def test_pool_rejects_frames_past_int32():
    # A profile built without validate still cannot wrap frame numbers.
    big = replace(builtin_mi300a(), hbm_capacity=2**31 * 4 * KiB)
    with pytest.raises(ValueError, match="int32"):
        MemoryManager(big)


@pytest.mark.parametrize("key", ["frame_block_pages", "kernel_batch_pages"])
def test_pool_rejects_placement_sizes_not_a_power_of_two(key):
    # load_profile rejects these first, so the profile is built directly.
    p = builtin_mi300a()
    bad = replace(p, placement=replace(p.placement, **{key: 48}))
    with pytest.raises(ValueError, match=f"{key} must be a power of two"):
        FramePool(bad, np.random.SeedSequence(0))


def test_up_front_maps_everything():
    m = manager()
    a = m.allocate(K.DEVICE_UP_FRONT, 1 * GiB)
    assert a.n_pages == 262144
    assert a.mapped_pages == 262144


def test_on_demand_maps_nothing():
    m = manager()
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * GiB)
    assert a.mapped_pages == 0


def test_capacity_exhaustion():
    m = manager()
    with pytest.raises(OutOfMemory):
        m.allocate(K.DEVICE_UP_FRONT, 128 * GiB + 4096)


def test_zero_size_rejected():
    m = manager()
    with pytest.raises(ZeroSize):
        m.allocate(K.LIBC_ON_DEMAND, 0)
    with pytest.raises(ZeroSize):
        alloc_time_model(m.profile, K.LIBC_ON_DEMAND, 0)


def test_cpu_touch_produces_one_fault_per_fresh_page():
    m = manager()
    a = m.allocate(K.LIBC_ON_DEMAND, 4 * MiB)
    events = m.touch(a, (0, 100), Agent.CPU)
    assert len(events) == 100
    assert events.count(FaultKind.CPU) == 100
    assert len(m.touch(a, (0, 100), Agent.CPU)) == 0


def test_gpu_touch_of_cpu_touched_page_is_minor():
    m = manager()
    a = m.allocate(K.LIBC_ON_DEMAND, 4 * MiB)
    m.touch(a, (0, 1), Agent.CPU)
    events = m.touch(a, (0, 1), Agent.GPU)
    assert len(events) == 1
    assert events.count(FaultKind.GPU_MINOR) == 1


def test_gpu_touch_of_fresh_page_is_major():
    m = manager()
    a = m.allocate(K.LIBC_ON_DEMAND, 4 * MiB)
    events = m.touch(a, (0, 5), Agent.GPU)
    assert events.count(FaultKind.GPU_MAJOR) == 5


def test_gpu_touch_lists_minor_faults_before_major_ones():
    m = manager(seed=4)
    a = m.allocate(K.LIBC_ON_DEMAND, 4 * MiB)
    m.touch(a, (10, 20), Agent.CPU)
    batch = m.touch(a, (0, 30), Agent.GPU)
    assert [batch.count(FaultKind.CPU), batch.count(FaultKind.GPU_MINOR),
            batch.count(FaultKind.GPU_MAJOR)] == [0, 10, 20]
    assert (run_pages(*batch.runs) - a.va_base).tolist() == \
        list(range(10, 20)) + list(range(10)) + list(range(20, 30))


def test_cpu_first_touch_memory_per_page():
    # A first touch builds no page-sized arrays but the frames it maps,
    # and its fault batch keeps runs and counts, not one entry per page.
    m = manager(seed=11)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * GiB)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        batch = m.touch(a, None, Agent.CPU)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.count(FaultKind.CPU) == a.n_pages
    assert (peak - base) / a.n_pages <= 12
    assert (held - base) / a.n_pages <= 4


def test_gpu_first_touch_memory_per_page():
    # GPU first touch writes its frames into the page table in place.
    m = manager(seed=11)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * GiB)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        batch = m.touch(a, None, Agent.GPU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.count(FaultKind.GPU_MAJOR) == a.n_pages
    assert (peak - base) / a.n_pages <= 5


@pytest.mark.parametrize("kind", [K.DEVICE_UP_FRONT, K.PINNED_HOST])
def test_up_front_allocate_memory_per_page(kind):
    # Up-front placement builds no frames array beside the page table's.
    m = manager(seed=11)
    tracemalloc.start()
    try:
        m.allocate(kind, 1 * GiB)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - held) / (1 * GiB // m.profile.page_size) <= 3


UP_FRONT_CASES = [(kind, xnack) for kind in K for xnack in (False, True)
                  if classify(kind, xnack).physical is Policy.UP_FRONT]


@pytest.mark.parametrize("kind, xnack", UP_FRONT_CASES)
def test_up_front_frames_follow_the_runs(kind, xnack):
    m = manager(seed=3, xnack=xnack)
    for size in (1000, 5 * 4 * KiB, 1 * MiB + 4 * KiB, 1 * GiB):
        a = m.allocate(kind, size)
        np.testing.assert_array_equal(expand(a.region)[0],
                                      _ranges(*a.frame_runs.array))
    m.check()


@pytest.mark.parametrize("kind, xnack", UP_FRONT_CASES)
def test_up_front_frame_write_over_mixed_tails(kind, xnack):
    # Every stretch of equal-size runs is written: batches or blocks, then
    # tails of one, two and four smaller powers of two.
    m = manager(seed=5, xnack=xnack)
    device_tail = (2 * 128 + 64 + 32 + 8 + 1) * 4 * KiB
    for size in (4 * KiB, 64 * KiB + 4 * KiB, 1 * MiB + 20 * KiB,
                 device_tail):
        a = m.allocate(kind, size)
        np.testing.assert_array_equal(expand(a.region)[0],
                                      _ranges(*a.frame_runs.array))
    if kind is K.DEVICE_UP_FRONT:
        assert [n for _, n in a.frame_runs] == [128, 128, 64, 32, 8, 1]
    m.check()


def test_cpu_touch_around_a_gpu_run_draws_each_batch_once():
    # The GPU maps pages 5-8 inside the first CPU batch; the CPU touch
    # then faults in two segments that share that batch.
    m = manager(seed=2)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    m.touch(a, (5, 9), Agent.GPU)
    batch = m.touch(a, (0, 40), Agent.CPU)
    assert (run_pages(*batch.runs) - a.va_base).tolist() == \
        list(range(5)) + list(range(9, 40))
    batches = a.pending_cpu_batches
    assert [n for _, n in a.frame_runs] == [128, 16, 16, 16]
    assert [s for s, _ in a.frame_runs][1:] == batches[:3].tolist()
    frames = expand(a.region)[0]
    offs = np.r_[0:5, 9:40]
    np.testing.assert_array_equal(frames[offs],
                                  batches[offs // 16] + offs % 16)
    m.check()


def test_gpu_touch_without_replay_is_fatal():
    m = manager(xnack=False)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    with pytest.raises(AccessViolation):
        m.touch(a, None, Agent.GPU)


def test_up_front_cpu_touch_faults_per_chunk():
    m = manager()
    a = m.allocate(K.DEVICE_UP_FRONT, 4 * MiB)  # 1024 pages, 8 chunks
    events = m.touch(a, None, Agent.CPU)
    assert len(events) == 8
    assert events.count(FaultKind.CPU) == 8
    assert len(m.touch(a, None, Agent.CPU)) == 0


def test_up_front_gpu_first_touch_makes_cpu_chunks_finer():
    m = manager()
    a = m.allocate(K.DEVICE_UP_FRONT, 4 * MiB)
    assert len(m.touch(a, None, Agent.GPU)) == 0
    events = m.touch(a, None, Agent.CPU)
    grain = m.profile.placement.gpu_init_cpu_map_pages
    assert len(events) == -(-1024 // grain)


@pytest.mark.parametrize("kind", [K.REGISTERED_HOST, K.DEVICE_UP_FRONT])
@pytest.mark.parametrize("agent", list(Agent))
def test_up_front_first_touch_maps_nothing(kind, agent):
    # So placement, and a TRIAD workset, does not depend on which agent
    # first touches up-front memory.
    m = manager(seed=4)
    a = m.allocate(kind, 1 * MiB + 20 * KiB)
    table = a.region.runs.copy()
    runs, pool = [r.copy() for r in a.frame_runs.array], pool_state(m.pool)
    m.touch(a, None, agent)
    np.testing.assert_array_equal(a.region.runs, table)
    for before, after in zip(runs, a.frame_runs.array):
        np.testing.assert_array_equal(before, after)
    assert pool_state(m.pool) == pool
    assert a.pending_cpu_batches is None and a.pending_gpu_blocks is None


def test_release_restores_free_set():
    m = manager(seed=3)
    snap = snapshot(m.pool)
    allocs = [m.allocate(K.DEVICE_UP_FRONT, 1 * MiB) for _ in range(1000)]
    for a in allocs:
        m.release(a)
    assert snapshot(m.pool) == snap


def test_double_free_rejected():
    m = manager()
    a = m.allocate(K.PINNED_HOST, 1 * MiB)
    m.release(a)
    with pytest.raises(DoubleFree):
        m.release(a)


def test_released_allocation_leaves_the_manager():
    m = manager()
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    b = m.allocate(K.DEVICE_UP_FRONT, 1 * MiB)
    m.touch(a, None, Agent.CPU)
    m.release(a)
    assert list(m.allocations) == [b.id]
    m.check()
    with pytest.raises(DoubleFree):
        m.release(a)
    with pytest.raises(UseAfterFree):
        m.touch(a, None, Agent.CPU)
    assert list(m.allocations) == [b.id]


def test_release_drops_its_region():
    # Eight 1 GiB rounds on one manager hold at most one region between
    # them (5 B a page), and the released allocation stays unusable.
    m = manager()
    pages = 1 * GiB // m.profile.page_size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(8):
            a = m.allocate(K.DEVICE_UP_FRONT, 1 * GiB)
            m.release(a)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 5 * pages + 64 * KiB
    assert a.region is None and m.table._regions == []
    with pytest.raises(UseAfterFree):
        m.touch(a, None, Agent.CPU)
    with pytest.raises(DoubleFree):
        m.release(a)


def test_frame_conservation_counter():
    m = manager()
    total = m.pool.total_frames
    a = m.allocate(K.DEVICE_UP_FRONT, 8 * MiB)
    b = m.allocate(K.LIBC_ON_DEMAND, 8 * MiB)
    m.touch(b, None, Agent.CPU)
    assert m.pool.used_frames + m.pool.free_frames == total
    assert m.pool.used_frames == a.n_pages + b.n_pages
    m.release(a)
    m.release(b)
    assert m.pool.free_frames == total


# -- failed placements take nothing ---------------------------------------

def fragmented_manager(free_block=False, degree=None):
    """8 MiB pool whose free frames are every other page plus four whole
    16-page runs (and, if asked, one whole block): enough frames for a
    1 MiB request, but only four 16-page batches. degree, if given, is
    both scatter degrees."""
    profile = replace(builtin_mi300a(), hbm_capacity=8 * MiB)
    if degree is not None:
        profile = with_degrees(profile, cpu_touch_scatter_degree=degree,
                               host_upfront_scatter_degree=degree)
    m = MemoryManager(profile, seed=0)
    pages = [m.allocate(K.PINNED_HOST, profile.page_size)
             for _ in range(m.pool.total_frames)]
    by_frame = {int(a.frame_runs.array[0, 0]): a for a in pages}
    free = set(range(0, len(pages), 2))
    for run in (160, 512, 1040, 1600):
        free.update(range(run, run + 16))
    if free_block:
        free.update(range(1792, 1792 + m.pool.block_pages))
    for frame in sorted(free):
        m.release(by_frame[frame])
    return m


def reserved_frames(m):
    return sum(n for a in m.allocations.values() for _, n in a.frame_runs)


def test_failed_allocate_releases_partial_draws():
    # The draw fails before it takes anything, so nothing goes back.
    m = fragmented_manager()
    state = pool_state(m.pool)
    rng_state = m._scatter_rng.bit_generator.state
    next_va, next_id = m.table._next_va, m._next_id
    assert m.pool.free_frames > 256
    with pytest.raises(OutOfMemory):
        m.allocate(K.PINNED_HOST, 1 * MiB)
    assert m.pool.used_frames == reserved_frames(m)
    assert pool_state(m.pool) == state
    # No groups are drawn for the failed call either.
    assert m._scatter_rng.bit_generator.state == rng_state
    # No virtual reservation and no id is used up by the failed call.
    assert (m.table._next_va, m._next_id) == (next_va, next_id)
    a = m.allocate(K.PINNED_HOST, 4 * KiB)
    assert a.id == next_id and a.va_base >= next_va


@pytest.mark.parametrize("agent", [Agent.CPU, Agent.GPU])
def test_failed_touch_releases_partial_draws(agent):
    # The GPU draws whole blocks: one is free, the touch needs two.
    m = fragmented_manager(free_block=agent is Agent.GPU)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    state = pool_state(m.pool)
    rng_state = m._scatter_rng.bit_generator.state
    with pytest.raises(OutOfMemory):
        m.touch(a, None, agent)
    assert m.pool.used_frames == reserved_frames(m)
    assert pool_state(m.pool) == state
    assert m._scatter_rng.bit_generator.state == rng_state
    assert (a.mapped_pages, list(a.frame_runs), a.first_touch_agent) == \
        (0, [], None)
    assert a.pending_cpu_batches is None and a.pending_gpu_blocks is None
    # The allocation stays usable where frames do suffice.
    assert len(m.touch(a, (0, 16), agent)) == 16
    assert m.pool.used_frames == reserved_frames(m)


@pytest.mark.parametrize("op", ["allocate", "touch"])
def test_failed_sequential_draw_leaves_no_trace(op):
    # Two ascending batches take the lowest free block's first two slots,
    # so the next sequential draw would continue at its third; 1 MiB needs
    # sixteen batches, and only that block's last six follow in order.
    m = fragmented_manager(free_block=True, degree=0.0)
    m.allocate(K.PINNED_HOST, 32 * m.profile.page_size)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    assert m.pool._seq_next == 1792 + 32
    state = pool_state(m.pool)
    with pytest.raises(OutOfMemory):
        if op == "allocate":
            m.allocate(K.PINNED_HOST, 1 * MiB)
        else:
            m.touch(a, None, Agent.CPU)
    assert pool_state(m.pool) == state
    assert (a.mapped_pages, list(a.frame_runs)) == (0, [])
    # The six batches that do follow in order are still drawn in order.
    b = m.allocate(K.PINNED_HOST, 6 * 16 * m.profile.page_size)
    assert [start for start, _ in b.frame_runs] == \
        list(range(1792 + 32, 1792 + 128, 16))
    m.check()


def test_frame_runs_iterate_as_python_int_pairs():
    # perfbench's recorder sums n over alloc.frame_runs before each
    # release; the pairs must be plain ints and add up to what goes back.
    import upm_sim
    from tests.test_perfbench import load_spans
    m = manager(seed=4)
    heap = m.allocate(K.LIBC_ON_DEMAND, 1 * GiB)
    m.touch(heap, None, Agent.CPU)
    device = m.allocate(K.DEVICE_UP_FRONT, 1 * GiB + 20 * KiB)
    runs = [list(a.frame_runs) for a in (heap, device)]
    assert [len(r) for r in runs] == [16_384, 2048 + 2]
    for pairs in runs:
        assert all(type(pair) is tuple and len(pair) == 2
                   and type(pair[0]) is int and type(pair[1]) is int
                   for pair in pairs)
    recorder = load_spans().Recorder(upm_sim, timed=False)
    recorder.install()
    try:
        for a, pairs in zip((heap, device), runs):
            used = m.pool.used_frames
            m.release(a)
            assert used - m.pool.used_frames == sum(n for _, n in pairs) \
                == a.n_pages
    finally:
        assert recorder.uninstall()
    assert recorder.counts["memmgr.frames_released"] == \
        heap.n_pages + device.n_pages
    m.check()


def test_touch_spawns_no_seed(monkeypatch):
    # A touch keeps no RNG state of its own: touches by either agent, and
    # one that fails for lack of frames, spawn no SeedSequence child.
    spawned = []

    class Counting(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", Counting)
    m = MemoryManager(replace(builtin_mi300a(), hbm_capacity=8 * MiB))
    assert spawned  # the manager's own seeds pass through the counter
    spawned.clear()
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    m.touch(a, (0, 100), Agent.CPU)
    m.touch(a, None, Agent.GPU)
    m.touch(m.allocate(K.DEVICE_UP_FRONT, 1 * MiB), None, Agent.CPU)
    with pytest.raises(OutOfMemory):
        m.touch(m.allocate(K.LIBC_ON_DEMAND, 16 * MiB), None, Agent.GPU)
    assert spawned == []


def test_placement_determinism():
    def frames_of(seed):
        m = manager(seed=seed)
        a = m.allocate(K.LIBC_ON_DEMAND, 16 * MiB)
        m.touch(a, None, Agent.CPU)
        return expand(a.region)[0]

    f1, f2 = frames_of(11), frames_of(11)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, frames_of(12))


def test_managers_of_one_seed_share_a_read_only_boot_order():
    a, b = manager(seed=3), manager(seed=3)
    order = a.pool._boot_order
    assert b.pool._boot_order is order
    # What the order hands out is read-only: its end, and the end a later
    # read grows it to.
    n = len(order)
    end = order[n - 64:]
    with pytest.raises(ValueError):
        end[0] = end[1]
    longer = order[n - 4096:]
    assert not longer.flags.writeable
    np.testing.assert_array_equal(longer[-64:], end)
    # A draw moves each pool's own cursor, not the shared order.
    a.allocate(K.DEVICE_UP_FRONT, 1 * MiB)
    assert b.pool._boot_left == b.pool.n_blocks
    other = manager(seed=4).pool._boot_order
    assert not np.array_equal(other[n - 64:], end)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 4096, 4097, 262_144])
def test_boot_order_is_numpys_permutation_drawn_from_its_end(n):
    # Grown in uneven steps up to all n entries, each extension goes on
    # with the same 32-bit stream and gives what permutation(n) holds
    # there. A numpy release that changes its shuffle fails here.
    for seed in range(4):
        ss = np.random.SeedSequence(seed, spawn_key=(0,))
        want = np.random.default_rng(ss).permutation(n)
        order, rng = BootOrder(ss, n), np.random.default_rng(seed)
        k = 0
        while k < n:
            k = min(n, k + int(rng.integers(1, n // 3 + 2)))
            order._grow(k)
            np.testing.assert_array_equal(order[n - k:], want[n - k:])
        assert order[0] == want[0] and order[-1] == want[-1]


def test_a_4tib_pool_holds_its_alive_map_and_draws_what_it_reads():
    # A byte a block is all that a pool sizes by capacity: 8 MiB of alive
    # map at 4 TiB, where a full boot order and slot map held 142.6 MB.
    profile = replace(builtin_mi300a(), hbm_capacity=4096 * GiB)
    np.random.SeedSequence(0)  # import numpy.random before counting
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = MemoryManager(profile, seed=9)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    pool = m.pool
    assert held <= 14.3e6
    assert len(pool._boot_order._tail) == 0
    # A 64 MiB first touch draws the boot order only as far as _scan's
    # window: twice the blocks taken, and 16 more.
    a = m.allocate(K.LIBC_ON_DEMAND, 64 * MiB)
    m.touch(a, None, Agent.CPU)
    m.check()
    taken = pool.n_blocks - pool._boot_left
    assert 0 < taken and len(pool._boot_order._tail) <= max(2 * taken + 16,
                                                            1024)


def with_degrees(profile, **degrees):
    """profile with the given placement scatter degrees; 0 draws batches
    in ascending frame order."""
    return replace(profile, placement=replace(profile.placement, **degrees))


def test_scatter_degree_zero_is_sequential():
    m = MemoryManager(with_degrees(builtin_mi300a(),
                                   cpu_touch_scatter_degree=0.0,
                                   host_upfront_scatter_degree=0.0))
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    m.touch(a, None, Agent.CPU)
    b = m.allocate(K.PINNED_HOST, 1 * MiB)
    for alloc in (a, b):
        frames = expand(alloc.region)[0]
        assert np.all(np.diff(frames) == 1)
    assert expand(a.region)[0][0] == 0


def test_scatter_degree_quarter_draws_scattered_groups():
    # Every degree above 0 scatters: a CPU first touch takes the batches
    # that take_batches gives for the groups the scatter generator draws
    # with Zipf exponent scatter_zipf_scale * (1 - 0.25).
    profile = with_degrees(builtin_mi300a(), cpu_touch_scatter_degree=0.25)
    m, ref = MemoryManager(profile, seed=5), MemoryManager(profile, seed=5)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    m.touch(a, None, Agent.CPU)
    pool = ref.pool
    w = np.arange(1, pool.groups_n + 1, dtype=np.float64) \
        ** -(profile.placement.scatter_zipf_scale * 0.75)
    groups = ref._scatter_rng.choice(pool.groups_n, size=16, p=w / w.sum())
    starts = a.frame_runs.array[0]
    np.testing.assert_array_equal(starts, pool.take_batches(groups))
    assert np.any(np.diff(starts) != pool.batch_pages)


def test_sequential_draw_after_release_takes_lowest_free_block():
    # Blocks 0-2 go in order; block 0 is released before block 2, so the
    # released list alone would give block 2 first.
    profile = with_degrees(replace(builtin_mi300a(), hbm_capacity=4 * MiB),
                           host_upfront_scatter_degree=0.0)
    m = MemoryManager(profile, seed=0)
    block = m.pool.block_pages * profile.page_size
    allocs = [m.allocate(K.PINNED_HOST, block) for _ in range(3)]
    assert [int(a.frame_runs.array[0, 0]) for a in allocs] == [0, 128, 256]
    m.release(allocs[0])
    m.release(allocs[2])
    assert m.pool._released == [0, 2]
    again = m.allocate(K.PINNED_HOST, 2 * block)
    assert [start for start, _ in again.frame_runs] == \
        list(range(0, 128, 16)) + list(range(256, 384, 16))
    m.check()


# -- usage counters --------------------------------------------------------

def test_usage_device_alloc_visible_to_hip_not_rss():
    m = manager()
    m.allocate(K.DEVICE_UP_FRONT, 1 * GiB)
    assert m.usage_view(UsageCounter.HIP_MEM_GET_INFO) == 1 * GiB
    assert m.usage_view(UsageCounter.PROCESS_RSS) == 0
    assert m.usage_view(UsageCounter.LIBNUMA) == 1 * GiB


def test_usage_on_demand_needs_touch():
    m = manager()
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * GiB)
    assert m.usage_view(UsageCounter.LIBNUMA) == 0
    m.touch(a, (0, a.n_pages // 2), Agent.CPU)
    assert m.usage_view(UsageCounter.LIBNUMA) == 512 * MiB
    assert m.usage_view(UsageCounter.PROCESS_RSS) == 512 * MiB
    assert m.usage_view(UsageCounter.HIP_MEM_GET_INFO) == 0


def test_usage_meminfo_matches_libnuma():
    m = manager()
    m.allocate(K.PINNED_HOST, 64 * MiB)
    assert m.usage_view(UsageCounter.MEMINFO) == \
        m.usage_view(UsageCounter.LIBNUMA) == 64 * MiB


# -- allocation cost models -------------------------------------------------

def test_alloc_time_anchors():
    p = builtin_mi300a()
    assert alloc_time_model(p, K.LIBC_ON_DEMAND, 32) == pytest.approx(14e-9)
    assert alloc_time_model(p, K.LIBC_ON_DEMAND, 1 * GiB) == \
        pytest.approx(6e-6, rel=1e-6)
    assert alloc_time_model(p, K.DEVICE_UP_FRONT, 16 * KiB) == \
        pytest.approx(10e-6)
    assert alloc_time_model(p, K.DEVICE_UP_FRONT, 1 * GiB) == \
        pytest.approx(37e-3, rel=1e-6)


def test_alloc_time_monotone_non_decreasing():
    p = builtin_mi300a()
    sizes = [2, 32, 4096, 64 * KiB, 1 * MiB, 64 * MiB, 1 * GiB]
    for kind in K:
        for xnack in (False, True):
            times = [alloc_time_model(replace(p, xnack=xnack), kind, s)
                     for s in sizes]
            if kind is K.MANAGED_UNIFIED and xnack:
                assert len(set(times)) == 1  # constant, size-independent
            else:
                assert all(a <= b for a, b in zip(times, times[1:])), kind


def test_managed_replay_alloc_constant():
    p = builtin_mi300a()
    t1 = alloc_time_model(p, K.MANAGED_UNIFIED, 32)
    t2 = alloc_time_model(p, K.MANAGED_UNIFIED, 1 * GiB)
    assert t1 == t2


def test_free_crossovers():
    p = builtin_mi300a()

    def diff(kind, size):
        return free_time_model(p, kind, size) \
            - alloc_time_model(p, kind, size)

    assert diff(K.LIBC_ON_DEMAND, 8 * MiB) < 0
    assert diff(K.LIBC_ON_DEMAND, 16 * MiB) < 0
    assert diff(K.LIBC_ON_DEMAND, 32 * MiB) > 0
    ratio32 = free_time_model(p, K.LIBC_ON_DEMAND, 32 * MiB) / \
        alloc_time_model(p, K.LIBC_ON_DEMAND, 32 * MiB)
    assert 4.0 <= ratio32 <= 9.0
    assert diff(K.DEVICE_UP_FRONT, 1 * MiB) < 0
    assert diff(K.DEVICE_UP_FRONT, 2 * MiB) < 0
    assert diff(K.DEVICE_UP_FRONT, 4 * MiB) > 0
    ratio256 = free_time_model(p, K.DEVICE_UP_FRONT, 256 * MiB) / \
        alloc_time_model(p, K.DEVICE_UP_FRONT, 256 * MiB)
    assert ratio256 == pytest.approx(22.0, rel=0.01)


def test_sequential_leftovers_stay_reachable():
    # 256 frames in two blocks; nine ascending batches leave 112 free
    # frames, the last seven slots of the second block.
    profile = with_degrees(replace(builtin_mi300a(), hbm_capacity=1 * MiB),
                           host_upfront_scatter_degree=0.0)
    m = MemoryManager(profile, seed=0)
    allocs = [m.allocate(K.PINNED_HOST, 9 * 16 * profile.page_size)]
    assert m.pool.free_frames == 112
    allocs.append(m.allocate(K.LIBC_ON_DEMAND, 64 * KiB))
    m.touch(allocs[-1], None, Agent.CPU)                 # a scattered batch
    allocs.append(m.allocate(K.PINNED_HOST, 12 * KiB))   # a sub-batch tail
    m.check()
    for a in allocs:
        m.release(a)
    m.check()
    assert np.count_nonzero(m.pool._block_alive) == m.pool.n_blocks
    assert free_intervals(m.pool) == [(0, m.pool.total_frames)]


def test_failed_buddy_merge_keeps_the_store_order():
    # Two blocks, one slot per group each. Slots 160 and 176 merge into a
    # 32-page run whose buddy [128, 160) holds a free slot (128) and a
    # used one (144): the merge stops there, and group 0's store keeps
    # its order, so the next draw takes the slot released last.
    profile = replace(builtin_mi300a(), hbm_capacity=1 * MiB)
    pool = FramePool(profile, np.random.SeedSequence(0))
    s, t = pool.take_batches(range(8)), pool.take_batches(range(8))
    assert (s[0], t[0]) == (128, 0)
    pool.release_runs([s[0]], 16)
    pool.release_runs([t[0]], 16)
    assert pool._stacks[0].array[0].tolist() == [128, 0]
    pool.release_runs(s[2:4], 16)
    assert pool._stacks[0].array[0].tolist() == [128, 0]
    assert pool.take_batches([0]).tolist() == [0]


@pytest.mark.parametrize("size", [2, 16, 40, 128])
def test_release_rejects_a_run_that_crosses_a_block_boundary(size):
    # A run that ends one page past its block is refused before the pool
    # changes; the same run one page shorter goes back.
    profile = replace(builtin_mi300a(), hbm_capacity=1 * MiB)
    pool = FramePool(profile, np.random.SeedSequence(0))
    end = int(pool.take_blocks(1)[0]) + pool.block_pages
    before = pool_state(pool)
    with pytest.raises(ValueError, match="crosses a block boundary"):
        pool.release_runs([end - size + 1], size)
    assert pool_state(pool) == before
    pool.release_runs([end - size + 1], size - 1)
    assert pool.used_frames == pool.block_pages - size + 1


def _leak_a_free_slot(m, a, b):
    m.pool._pop(next(g for g, s in enumerate(m.pool._stacks) if len(s)))


def _free_a_live_run(m, a, b):
    # Swap a free slot for one of b's: the free frame count still adds up.
    _leak_a_free_slot(m, a, b)
    m.pool._put(m.pool.batch_order, int(b.frame_runs.array[0, 0]))


def _swap_a_whole_block_for_a_live_one(m, a, b):
    alive = m.pool._block_alive
    alive[alive.index(1)] = 0
    alive[int(b.frame_runs.array[0, 0]) >> m.pool.block_order] = 1


def _clear_a_slot_in_the_map(m, a, b):
    # The slot stays in its group's stack; only its block's row loses it.
    pool = m.pool
    g, stack = next((g, s) for g, s in enumerate(pool._stacks) if len(s))
    pool._slots[pool._row(int(stack.array[0, 0]) >> pool.block_order), g] = 0


def _hold_a_slot_twice(m, a, b):
    stack = next(s for s in m.pool._stacks if len(s))
    stack.extend((int(stack.array[0, -1]),))


# a maps pages 0-63 in runs of 16 frames (row 2 of its runs holds each
# run's first frame); b's last run is 16 frames too.

def _map_a_free_frame(m, a, b):
    a.region.runs[2, 0] = m.pool.free_pieces()[0][0]


def _map_a_frame_of_another_allocation(m, a, b):
    a.region.runs[2, 0] = b.region.runs[2, -1]


def _map_a_frame_twice(m, a, b):
    runs = a.region.runs
    runs[2, 1] = runs[2, 0]


def _swap_two_runs(m, a, b):
    a.region.runs[:, :2] = a.region.runs[:, 1::-1]


@pytest.mark.parametrize("damage, invariant", [
    (lambda m, a, b: setattr(m.pool, "used_frames", m.pool.used_frames + 16),
     "used frames"),
    (_leak_a_free_slot, "in no store"),
    (_free_a_live_run, "overlap"),
    (_swap_a_whole_block_for_a_live_one, "whole free block"),
    (_clear_a_slot_in_the_map, "slot map"),
    (_hold_a_slot_twice, "slot map"),
    (lambda m, a, b: setattr(m.pool, "_boot_left", 0), "left to boot"),
    (lambda m, a, b: setattr(m.pool, "_alive_count", m.pool._alive_count - 1),
     "whole-block count"),
    (_map_a_free_frame, "outside its allocation's runs"),
    (_map_a_frame_of_another_allocation, "mapped twice"),
    (_map_a_frame_twice, "mapped twice"),
    (_swap_two_runs, "out of order"),
], ids=["used", "leak", "overlap", "alive", "slot_map", "slot_twice",
        "unlisted", "count", "free_frame", "foreign_frame",
        "twice", "run_order"])
def test_check_names_a_broken_invariant(damage, invariant):
    m = manager(seed=1)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    m.touch(a, (0, 64), Agent.CPU)
    b = m.allocate(K.PINNED_HOST, 1 * MiB)
    m.check()
    damage(m, a, b)
    with pytest.raises(AssertionError, match=invariant):
        m.check()

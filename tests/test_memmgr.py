import numpy as np
import pytest

from upm_sim.fault import FaultKind
from upm_sim.machine import GiB, KiB, MiB, builtin_mi300a
from upm_sim.memmgr import (AccessViolation, Agent, AllocatorKind, DoubleFree,
                            FramePolicy, MemoryManager, OutOfMemory,
                            PlacementMode, Policy, UsageCounter, ZeroSize,
                            alloc_time_model, classify, free_time_model)

K = AllocatorKind


# -- classify: the allocator access matrix, exact and total ---------------

CLASSIFY_TABLE = {
    # (kind, xnack): (gpu_access, cpu_access, policy)
    (K.LIBC_ON_DEMAND, False): (False, True, Policy.ON_DEMAND),
    (K.LIBC_ON_DEMAND, True): (True, True, Policy.ON_DEMAND),
    (K.REGISTERED_HOST, False): (True, True, Policy.UP_FRONT),
    (K.REGISTERED_HOST, True): (True, True, Policy.UP_FRONT),
    (K.DEVICE_UP_FRONT, False): (True, True, Policy.UP_FRONT),
    (K.DEVICE_UP_FRONT, True): (True, True, Policy.UP_FRONT),
    (K.PINNED_HOST, False): (True, True, Policy.UP_FRONT),
    (K.PINNED_HOST, True): (True, True, Policy.UP_FRONT),
    (K.MANAGED_UNIFIED, False): (True, True, Policy.UP_FRONT),
    (K.MANAGED_UNIFIED, True): (True, True, Policy.ON_DEMAND),
    (K.STATIC_MANAGED, False): (True, True, Policy.UP_FRONT),
    (K.STATIC_MANAGED, True): (True, True, Policy.UP_FRONT),
}


@pytest.mark.parametrize("kind", list(K))
@pytest.mark.parametrize("xnack", [False, True])
def test_classify_matrix(kind, xnack):
    spec = classify(kind, xnack)
    assert (spec.gpu_access, spec.cpu_access, spec.physical) == \
        CLASSIFY_TABLE[(kind, xnack)]


# -- allocate / touch / release ------------------------------------------

def manager(seed=0, xnack=True):
    profile = builtin_mi300a()
    if not xnack:
        from dataclasses import replace
        profile = replace(profile, xnack=False)
    return MemoryManager(profile, seed=seed)


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
        alloc_time_model(m.profile, K.LIBC_ON_DEMAND, 0, True)


def test_cpu_touch_produces_one_fault_per_fresh_page():
    m = manager()
    a = m.allocate(K.LIBC_ON_DEMAND, 4 * MiB)
    events = m.touch(a, (0, 100), Agent.CPU)
    assert len(events) == 100
    assert events.count(FaultKind.CPU) == 100
    assert (events.latencies_us > 0).all()
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


def test_release_restores_free_set():
    m = manager(seed=3)
    snap = m.pool.snapshot()
    allocs = [m.allocate(K.DEVICE_UP_FRONT, 1 * MiB) for _ in range(1000)]
    for a in allocs:
        m.release(a)
    assert m.pool.snapshot() == snap


def test_double_free_rejected():
    m = manager()
    a = m.allocate(K.PINNED_HOST, 1 * MiB)
    m.release(a)
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


# -- failed placements roll back ------------------------------------------

def fragmented_manager(free_block=False):
    """8 MiB pool whose free frames are every other page plus four whole
    16-page runs (and, if asked, one whole block): enough frames for a
    1 MiB request, but only four 16-page batches."""
    from dataclasses import replace
    profile = replace(builtin_mi300a(), hbm_capacity=8 * MiB)
    m = MemoryManager(profile, seed=0)
    pages = [m.allocate(K.PINNED_HOST, profile.page_size)
             for _ in range(m.pool.total_frames)]
    by_frame = {a.frame_runs[0][0]: a for a in pages}
    free = set(range(0, len(pages), 2))
    for run in (160, 512, 1040, 1600):
        free.update(range(run, run + 16))
    if free_block:
        free.update(range(1792, 1792 + m.pool.block_pages))
    for frame in sorted(free):
        m.release(by_frame[frame])
    return m


def reserved_frames(m):
    return sum(n for a in m.allocations.values() if a.live
               for _, n in a.frame_runs)


def test_failed_allocate_releases_partial_draws():
    m = fragmented_manager()
    snap = m.pool.snapshot()
    rng_state = m._scatter_rng.bit_generator.state
    next_va, n_allocs = m.table._next_va, len(m.allocations)
    assert m.pool.free_frames > 256
    with pytest.raises(OutOfMemory):
        m.allocate(K.PINNED_HOST, 1 * MiB)
    assert m.pool.used_frames == reserved_frames(m)
    assert m.pool.snapshot() == snap
    # The group draws of the failed call are undone too.
    assert m._scatter_rng.bit_generator.state == rng_state
    # No virtual reservation and no id is used up by the failed call.
    assert (m.table._next_va, len(m.allocations)) == (next_va, n_allocs)
    a = m.allocate(K.PINNED_HOST, 4 * KiB)
    assert a.id == n_allocs + 1 and a.va_base >= next_va


@pytest.mark.parametrize("agent", [Agent.CPU, Agent.GPU])
def test_failed_touch_releases_partial_draws(agent):
    # The GPU draws whole blocks: one is free, the touch needs two.
    m = fragmented_manager(free_block=agent is Agent.GPU)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    snap = m.pool.snapshot()
    rng_state = m._scatter_rng.bit_generator.state
    with pytest.raises(OutOfMemory):
        m.touch(a, None, agent)
    assert m.pool.used_frames == reserved_frames(m)
    assert m.pool.snapshot() == snap
    assert m._scatter_rng.bit_generator.state == rng_state
    assert (a.mapped_pages, a.frame_runs, a.first_touch_agent) == (0, [], None)
    # The allocation stays usable where frames do suffice.
    assert len(m.touch(a, (0, 16), agent)) == 16
    assert m.pool.used_frames == reserved_frames(m)


def test_placement_determinism():
    def frames_of(seed):
        m = manager(seed=seed)
        a = m.allocate(K.LIBC_ON_DEMAND, 16 * MiB)
        m.touch(a, None, Agent.CPU)
        region = m._region(a)
        return region.frames[:a.n_pages].copy()

    f1, f2 = frames_of(11), frames_of(11)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, frames_of(12))


def test_managers_of_one_seed_share_a_read_only_boot_order():
    a, b = manager(seed=3), manager(seed=3)
    order = a.pool._boot_order
    assert b.pool._boot_order is order
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = order[1]
    # A draw moves each pool's own cursor, not the shared order.
    a.allocate(K.DEVICE_UP_FRONT, 1 * MiB)
    assert b.pool._boot_left == b.pool.n_blocks
    assert not np.array_equal(manager(seed=4).pool._boot_order, order)


def test_policy_seed_controls_scatter_stream():
    # Same manager seed: the policy seed alone decides the group draws.
    def groups_of(policy_seed):
        m = manager(seed=4)
        policy = FramePolicy(PlacementMode.INCREMENTAL_SCATTER,
                             policy_seed, 0.75)
        a = m.allocate(K.LIBC_ON_DEMAND, 4 * MiB, policy=policy)
        m.touch(a, None, Agent.CPU)
        region = m._region(a)
        return (region.frames[:a.n_pages] // 16 % 8).tolist()

    assert groups_of(1) == groups_of(1)
    assert groups_of(1) != groups_of(2)


def test_scatter_degree_zero_is_sequential():
    m = manager()
    policy = FramePolicy(PlacementMode.INCREMENTAL_SCATTER, 0, 0.0)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB, policy=policy)
    m.touch(a, None, Agent.CPU)
    region = m._region(a)
    frames = region.frames[:a.n_pages]
    assert np.all(np.diff(frames) == 1)


def test_static_managed_is_singleton():
    m = manager()
    a = m.static_managed(64 * MiB)
    b = m.static_managed(64 * MiB)
    assert a is b
    assert a.kind is K.STATIC_MANAGED
    assert a.mapped_pages == a.n_pages


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
    assert alloc_time_model(p, K.LIBC_ON_DEMAND, 32, True) == pytest.approx(14e-9)
    assert alloc_time_model(p, K.LIBC_ON_DEMAND, 1 * GiB, True) == \
        pytest.approx(6e-6, rel=1e-6)
    assert alloc_time_model(p, K.DEVICE_UP_FRONT, 16 * KiB, True) == \
        pytest.approx(10e-6)
    assert alloc_time_model(p, K.DEVICE_UP_FRONT, 1 * GiB, True) == \
        pytest.approx(37e-3, rel=1e-6)


def test_alloc_time_monotone_non_decreasing():
    p = builtin_mi300a()
    sizes = [2, 32, 4096, 64 * KiB, 1 * MiB, 64 * MiB, 1 * GiB]
    for kind in K:
        for xnack in (False, True):
            times = [alloc_time_model(p, kind, s, xnack) for s in sizes]
            if kind is K.MANAGED_UNIFIED and xnack:
                assert len(set(times)) == 1  # constant, size-independent
            else:
                assert all(a <= b for a, b in zip(times, times[1:])), kind


def test_managed_replay_alloc_constant():
    p = builtin_mi300a()
    t1 = alloc_time_model(p, K.MANAGED_UNIFIED, 32, True)
    t2 = alloc_time_model(p, K.MANAGED_UNIFIED, 1 * GiB, True)
    assert t1 == t2


def test_free_crossovers():
    p = builtin_mi300a()

    def diff(kind, size):
        return free_time_model(p, kind, size, True) \
            - alloc_time_model(p, kind, size, True)

    assert diff(K.LIBC_ON_DEMAND, 8 * MiB) < 0
    assert diff(K.LIBC_ON_DEMAND, 16 * MiB) < 0
    assert diff(K.LIBC_ON_DEMAND, 32 * MiB) > 0
    ratio32 = free_time_model(p, K.LIBC_ON_DEMAND, 32 * MiB, True) / \
        alloc_time_model(p, K.LIBC_ON_DEMAND, 32 * MiB, True)
    assert 4.0 <= ratio32 <= 9.0
    assert diff(K.DEVICE_UP_FRONT, 1 * MiB) < 0
    assert diff(K.DEVICE_UP_FRONT, 2 * MiB) < 0
    assert diff(K.DEVICE_UP_FRONT, 4 * MiB) > 0
    ratio256 = free_time_model(p, K.DEVICE_UP_FRONT, 256 * MiB, True) / \
        alloc_time_model(p, K.DEVICE_UP_FRONT, 256 * MiB, True)
    assert ratio256 == pytest.approx(22.0, rel=0.01)

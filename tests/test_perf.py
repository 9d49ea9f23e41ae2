import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from upm_sim import harness, memmgr, perf
from upm_sim.machine import GiB, KiB, MiB, builtin_mi300a
from upm_sim.memmgr import (AccessViolation, Agent, AllocatorKind,
                            MemoryManager)
from upm_sim.pagetable import Unmapped
from tests.test_pagetable import expand

K = AllocatorKind


@pytest.fixture(scope="module")
def profile():
    return builtin_mi300a()


def test_channel_load_contiguous_block_balanced(profile):
    m = MemoryManager(profile, seed=0)
    a = m.allocate(K.DEVICE_UP_FRONT, 512 * KiB)  # exactly one block
    load = perf.channel_load(profile, a)
    assert load.balance == 1.0
    assert sum(load.bytes_per_channel) == 512 * KiB


def test_channel_load_single_page(profile):
    m = MemoryManager(profile, seed=0)
    a = m.allocate(K.DEVICE_UP_FRONT, 4096)
    load = perf.channel_load(profile, a)
    nonzero = [b for b in load.bytes_per_channel if b]
    assert nonzero == [4096]


def test_channel_load_requires_mapping(profile):
    m = MemoryManager(profile, seed=0)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * MiB)
    with pytest.raises(Unmapped):
        perf.channel_load(profile, a)


def test_channel_load_matches_direct_recount(profile):
    m = MemoryManager(profile, seed=1)
    a = m.allocate(K.LIBC_ON_DEMAND, 256 * MiB)
    m.touch(a, None, Agent.CPU)
    load = perf.channel_load(profile, a)
    frames = expand(a.region)[0]
    counts = np.bincount(frames % profile.channels,
                         minlength=profile.channels) * profile.page_size
    assert tuple(int(c) for c in counts) == load.bytes_per_channel
    assert load.balance == pytest.approx(counts.mean() / counts.max())
    # CPU-touched heap memory concentrates on few channel groups.
    assert 0.28 <= load.balance <= 0.38


def test_channel_load_counts_every_slice(profile):
    # 4,096 up-front batches and a 5-page tail run.
    m = MemoryManager(profile, seed=2)
    a = m.allocate(K.PINNED_HOST, 256 * MiB + 20 * KiB)
    frames = expand(a.region)[0]
    counts = np.bincount(frames % profile.channels,
                         minlength=profile.channels) * profile.page_size
    load = perf.channel_load(profile, a)
    assert load.bytes_per_channel == tuple(int(c) for c in counts)


def page_recount(profile, m, allocs):
    """channel_load's bytes per channel, recounted page by page."""
    counts = np.zeros(profile.channels, dtype=np.int64)
    for a in allocs:
        frames = expand(a.region)[0]
        counts += np.bincount(frames % profile.channels,
                              minlength=profile.channels)
    return tuple(int(c) * profile.page_size for c in counts)


@pytest.mark.parametrize("first, second", [(Agent.CPU, Agent.GPU),
                                           (Agent.GPU, Agent.CPU)])
def test_channel_load_mixed_first_touch_in_one_block(profile, first, second):
    # Pages 5..39 of one 128-page block from the first agent, the rest
    # from the second; the size is no multiple of 16 or 128.
    m = MemoryManager(profile, seed=4)
    a = m.allocate(K.LIBC_ON_DEMAND, 1003 * 4 * KiB - 100)
    m.touch(a, (5, 40), first)
    m.touch(a, None, second)
    assert a.pending_cpu_batches is not None
    assert a.pending_gpu_blocks is not None
    assert perf.channel_load(profile, a).bytes_per_channel \
        == page_recount(profile, m, [a])


@pytest.mark.parametrize("seed", range(6))
def test_channel_load_matches_page_recount(profile, seed):
    # Several allocations, each with random partial CPU and GPU first
    # touches before a last whole touch maps what is left.
    rng = np.random.default_rng(seed)
    m = MemoryManager(profile, seed=seed)
    kinds = [K.LIBC_ON_DEMAND, K.MANAGED_UNIFIED, K.PINNED_HOST,
             K.DEVICE_UP_FRONT]
    allocs = []
    for _ in range(4):
        n_pages = int(rng.integers(1, 3000))
        a = m.allocate(kinds[rng.integers(len(kinds))],
                       n_pages * 4 * KiB - int(rng.integers(4 * KiB)))
        for _ in range(int(rng.integers(0, 6))):
            lo, hi = sorted(rng.integers(0, n_pages + 1, size=2).tolist())
            m.touch(a, (lo, hi), Agent(rng.choice(["cpu", "gpu"])))
        m.touch(a, None, Agent(rng.choice(["cpu", "gpu"])))
        assert perf.channel_load(profile, a).bytes_per_channel \
            == page_recount(profile, m, [a])
        allocs.append(a)
    assert perf.channel_load(profile, allocs).bytes_per_channel \
        == page_recount(profile, m, allocs)


def test_channel_load_memory_per_page(profile):
    # Channels are counted from the frame runs, not from a copy of the
    # frames.
    m = MemoryManager(profile, seed=11)
    a = m.allocate(K.LIBC_ON_DEMAND, 1 * GiB)
    m.touch(a, None, Agent.CPU)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        perf.channel_load(profile, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / a.n_pages <= 3


def test_chase_small_sets_hit_first_level_exactly(profile):
    assert perf.chase_latency(profile, Agent.GPU, 1 * KiB).weighted_ns == 57.0
    assert perf.chase_latency(profile, Agent.GPU, 16 * KiB).weighted_ns == 57.0
    assert perf.chase_latency(profile, Agent.CPU, 1 * KiB).weighted_ns == 1.0


def test_chase_fractions_sum_to_one(profile):
    for agent in Agent:
        for ws in (1 * KiB, 3 * MiB, 100 * MiB, 2 * GiB):
            b = perf.chase_latency(profile, agent, ws, 0.7)
            assert sum(b.fractions.values()) == pytest.approx(1.0)
            lats = [profile.gpu.l1_latency, profile.gpu.hbm_latency,
                    profile.cpu.l1_latency, profile.cpu.hbm_latency]
            assert min(lats) <= b.weighted_ns <= max(lats)


def test_chase_monotone_in_working_set(profile):
    rng = np.random.default_rng(2)
    for agent in Agent:
        for balance in (1.0, 0.6, 0.33):
            sizes = np.sort(rng.integers(1 * KiB, 4 * GiB, size=40))
            lats = [perf.chase_latency(profile, agent, int(s), balance).weighted_ns
                    for s in sizes]
            assert all(a <= b + 1e-9 for a, b in zip(lats, lats[1:]))


def test_chase_lower_balance_never_faster(profile):
    for ws in (128 * MiB, 256 * MiB, 512 * MiB):
        lat_hi = perf.chase_latency(profile, Agent.CPU, ws, 1.0).weighted_ns
        lat_lo = perf.chase_latency(profile, Agent.CPU, ws, 0.3).weighted_ns
        assert lat_lo >= lat_hi


def test_gpu_triad_lower_balance_never_faster(profile):
    hi = perf.gpu_stream_bandwidth(profile, 1.0, 1e-4, 768 * MiB)
    lo = perf.gpu_stream_bandwidth(profile, 0.3, 1e-4, 768 * MiB)
    assert lo <= hi


def test_gpu_device_bandwidth_peak_fraction(profile):
    ws = perf.build_triad_workset(profile, K.DEVICE_UP_FRONT, Agent.GPU, 0)
    bw = perf.triad_bandwidth(profile, Agent.GPU, K.DEVICE_UP_FRONT,
                              Agent.GPU, 1, ws)
    assert 0.65 <= bw / profile.hbm_peak_bw <= 0.69


def test_cpu_best_bandwidth_fraction(profile):
    bw = perf.triad_bandwidth(profile, Agent.CPU, K.DEVICE_UP_FRONT,
                              Agent.CPU, profile.cpu.cores)
    assert 0.035 <= bw / profile.hbm_peak_bw <= 0.045


def test_cpu_bandwidth_thread_scaling(profile):
    bws = [perf.triad_bandwidth(profile, Agent.CPU, K.LIBC_ON_DEMAND,
                                Agent.CPU, t) for t in range(1, 25)]
    assert all(a <= b for a, b in zip(bws, bws[1:]))
    assert bws[-1] == profile.bw_model.cpu_bw_ondemand
    assert bws[0] == profile.bw_model.cpu_per_thread_bw


def test_cpu_on_demand_cap_below_up_front(profile):
    od = perf.triad_bandwidth(profile, Agent.CPU, K.LIBC_ON_DEMAND,
                              Agent.CPU, 24)
    up = perf.triad_bandwidth(profile, Agent.CPU, K.PINNED_HOST,
                              Agent.CPU, 24)
    gpu_init = perf.triad_bandwidth(profile, Agent.CPU, K.LIBC_ON_DEMAND,
                                    Agent.GPU, 24)
    assert od < up == gpu_init


def test_gpu_stream_access_violation_without_replay(profile):
    from dataclasses import replace
    p0 = replace(profile, xnack=False)
    with pytest.raises(AccessViolation):
        perf.triad_bandwidth(p0, Agent.GPU, K.LIBC_ON_DEMAND, Agent.CPU, 1)


def test_static_managed_short_circuit(profile):
    bw = perf.triad_bandwidth(profile, Agent.GPU, K.STATIC_MANAGED)
    assert bw == profile.bw_model.static_managed_bw


def test_memcpy_table(profile):
    assert perf.memcpy_bandwidth(profile, K.LIBC_ON_DEMAND,
                                 K.DEVICE_UP_FRONT, True) == 58e9
    assert perf.memcpy_bandwidth(profile, K.LIBC_ON_DEMAND,
                                 K.DEVICE_UP_FRONT, False) == 850e9
    assert perf.memcpy_bandwidth(profile, K.PINNED_HOST,
                                 K.DEVICE_UP_FRONT, True) == 58e9
    assert perf.memcpy_bandwidth(profile, K.DEVICE_UP_FRONT,
                                 K.DEVICE_UP_FRONT, True) == 1900e9
    assert perf.memcpy_bandwidth(profile, K.DEVICE_UP_FRONT,
                                 K.DEVICE_UP_FRONT, False) == 1900e9


def _or_violation(experiment, *args):
    try:
        return experiment(*args)
    except AccessViolation:
        return AccessViolation


def placement_experiments(profile, seed):
    """From cold caches: per (kind, agent), the GPU workset and the
    CPU fault count of the streaming set-up with that init agent, and the
    128 MiB chase latency of that agent, each or its exception; and per
    kind, the usage table that check_usage_matrix reads, on 16 MiB."""
    for cache in (perf.build_triad_workset, harness.build_cpu_stream_stats,
                  harness._chase_load):
        cache.cache_clear()
    results = {}
    for kind in K:
        for agent in Agent:
            results[kind, agent] = (
                _or_violation(perf.build_triad_workset, profile, kind, agent,
                              seed),
                _or_violation(harness.build_cpu_stream_stats, profile, kind,
                              agent, seed),
                _or_violation(harness.measure_chase, profile, agent, kind,
                              128 * MiB, seed))
    tables = dict(harness._usage_tables(profile, 16 * MiB, seed, 4))
    return results, tables


@pytest.mark.parametrize("xnack", [False, True])
def test_placement_twins_run_the_experiments_of_their_kinds(
        profile, monkeypatch, xnack):
    # 4 MiB operands, and a seed no other test uses.
    profile = replace(profile, xnack=xnack, bw_model=replace(
        profile.bw_model, gpu_stream_array_bytes=4 * MiB,
        cpu_stream_array_bytes=4 * MiB))
    shared = placement_experiments(profile, seed=31)
    monkeypatch.setattr(memmgr, "placement_key",
                        lambda profile, kind: (profile, kind))
    separate = placement_experiments(profile, seed=31)
    assert separate == shared
    twinned, tables = shared
    if not xnack:
        # Managed memory with replay off runs the experiments of
        # registered memory with it on.
        on, on_tables = placement_experiments(replace(profile, xnack=True),
                                               seed=31)
        for agent in Agent:
            assert twinned[K.MANAGED_UNIFIED, agent] == \
                on[K.REGISTERED_HOST, agent]
        assert tables[K.MANAGED_UNIFIED] == on_tables[K.REGISTERED_HOST]
    # Kinds and init agents that place differently stay apart.
    cpu, gpu = Agent.CPU, Agent.GPU
    assert twinned[K.DEVICE_UP_FRONT, cpu][0].tlb_misses != \
        twinned[K.REGISTERED_HOST, cpu][0].tlb_misses
    assert twinned[K.DEVICE_UP_FRONT, cpu][1] != \
        twinned[K.DEVICE_UP_FRONT, gpu][1]
    assert twinned[K.DEVICE_UP_FRONT, cpu][2] != \
        twinned[K.LIBC_ON_DEMAND, cpu][2]
    assert tables[K.DEVICE_UP_FRONT] != tables[K.REGISTERED_HOST]
    if xnack:
        assert twinned[K.LIBC_ON_DEMAND, cpu][0] != \
            twinned[K.LIBC_ON_DEMAND, gpu][0]
    else:
        assert twinned[K.LIBC_ON_DEMAND, gpu] == (AccessViolation,) * 3

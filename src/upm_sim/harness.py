"""Benchmark drivers, CSV/table reporting, anchors, and verification.

Every benchmark evaluates a deterministic grid of points: a fixed seed and
profile give byte-identical output. The verify command replays a table of
anchored expectations (latency plateaus, bandwidth tiers, fault rates,
allocation costs, fault counts, contention trends) against the simulator
and reports one pass/fail line per anchor; hard failures flip the exit
status, soft anchors only warn.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import atomics as atomics_mod
from . import fault as fault_mod
from . import perf, tlb, units
from .machine import KiB, MiB, GiB, MachineProfile
from .memmgr import (AccessViolation, Agent, AllocatorKind, FaultKind,
                     MemoryManager, Policy, UsageCounter, alloc_time_model,
                     classify, free_time_model)

KIND_ALIASES = {
    "malloc": AllocatorKind.LIBC_ON_DEMAND,
    "libc": AllocatorKind.LIBC_ON_DEMAND,
    "libc_on_demand": AllocatorKind.LIBC_ON_DEMAND,
    "registered": AllocatorKind.REGISTERED_HOST,
    "registered_host": AllocatorKind.REGISTERED_HOST,
    "hiphostregister": AllocatorKind.REGISTERED_HOST,
    "device": AllocatorKind.DEVICE_UP_FRONT,
    "device_up_front": AllocatorKind.DEVICE_UP_FRONT,
    "hipmalloc": AllocatorKind.DEVICE_UP_FRONT,
    "pinned": AllocatorKind.PINNED_HOST,
    "pinned_host": AllocatorKind.PINNED_HOST,
    "hiphostmalloc": AllocatorKind.PINNED_HOST,
    "managed": AllocatorKind.MANAGED_UNIFIED,
    "managed_unified": AllocatorKind.MANAGED_UNIFIED,
    "hipmallocmanaged": AllocatorKind.MANAGED_UNIFIED,
    "static": AllocatorKind.STATIC_MANAGED,
    "static_managed": AllocatorKind.STATIC_MANAGED,
}


class UsageError(ValueError):
    """Bad benchmark name or grid parameter."""


def parse_kind(name: str) -> AllocatorKind:
    try:
        return KIND_ALIASES[name.strip().lower()]
    except KeyError:
        raise UsageError(f"unknown allocator kind {name!r}") from None


def parse_agent(name: str) -> Agent:
    try:
        return Agent(name.strip().lower())
    except ValueError:
        raise UsageError(f"unknown agent {name!r}") from None


def _point_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class WorkloadSpec:
    benchmark: str
    grid: dict = field(default_factory=dict)
    seed: int = 0


def parse_pair(text: str) -> tuple[AllocatorKind, AllocatorKind]:
    src, sep, dst = text.partition(":")
    if not sep:
        raise UsageError(f"expected SRC:DST, got {text!r}")
    return parse_kind(src), parse_kind(dst)


def _in(dimension: str):
    return functools.partial(units.parse_value, dimension=dimension)


def _any_case(parse):
    """parse, ignoring case and surrounding space, as kinds and agents do."""
    return lambda text: parse(text.strip().lower())


# The parser of a text grid value, by key name. Values that are not text
# reach the drivers unchanged.
_GRID_PARSERS = {
    "kind": parse_kind, "agent": parse_agent, "init": parse_agent,
    "scenario": _any_case(fault_mod.Scenario),
    "dtype": _any_case(atomics_mod.Dtype),
    "pair": parse_pair, "size": _in(units.BYTES), "sdma": _in(units.FLAG),
    **dict.fromkeys(("pages", "samples", "chunks", "threads", "array_len",
                     "cpu_threads", "gpu_threads"), _in(units.COUNT)),
}


def _row(benchmark, keys: dict, metric: str, value: float, unit: str) -> dict:
    return {"benchmark": benchmark, **keys, "metric": metric, "value": value,
            "unit": unit}


def _error_row(benchmark, keys: dict, exc: Exception) -> dict:
    return _row(benchmark, keys, "error", float("nan"),
                type(exc).__name__)


# --------------------------------------------------------------------------
# Shared experiment builders (cached; deterministic per profile/seed)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyPoint:
    balance: float
    latency_ns: float


def measure_chase(profile: MachineProfile, agent: Agent, kind: AllocatorKind,
                  size: int, seed: int = 0,
                  init_agent: Agent = Agent.CPU) -> LatencyPoint:
    """Allocate, first-touch, and evaluate the pointer chase at one size."""
    _check_chase_access(profile, agent, kind)
    load = _chase_load(profile, kind, size, seed, init_agent)
    breakdown = perf.chase_latency(profile, agent, size, load)
    return LatencyPoint(balance=load.balance, latency_ns=breakdown.weighted_ns)


def _check_chase_access(profile: MachineProfile, agent: Agent,
                        kind: AllocatorKind):
    if agent is Agent.GPU and not classify(kind, profile.xnack).gpu_access:
        raise AccessViolation(f"GPU cannot chase {kind.value} memory")


@functools.lru_cache(maxsize=64)
def _chase_load(profile: MachineProfile, kind: AllocatorKind, size: int,
                seed: int, init_agent: Agent = Agent.CPU) -> perf.ChannelLoad:
    """Channel load of one allocation after its first touch; placement does
    not depend on the chasing agent, so every agent shares one load."""
    manager = MemoryManager(profile, seed=seed)
    alloc = manager.allocate(kind, size)
    if classify(kind, profile.xnack).physical is Policy.ON_DEMAND:
        manager.touch(alloc, None, init_agent)
    return perf.channel_load(profile, manager, alloc)


@dataclass(frozen=True)
class CpuStreamStats:
    cpu_faults: int
    bandwidth: float


@functools.lru_cache(maxsize=64)
def build_cpu_stream_stats(profile: MachineProfile, kind: AllocatorKind,
                           init_agent: Agent, threads: int,
                           seed: int = 0) -> CpuStreamStats:
    """Simulate the CPU streaming setup and count CPU-side page faults.

    The fault count covers the process baseline residency, the first-touch
    initialization of the three operands, and the CPU's own access pass,
    which is where coarse-grained visibility faults of up-front kinds
    appear.
    """
    manager = MemoryManager(profile, seed=seed)
    page = profile.page_size
    faults = 0
    baseline = manager.allocate(AllocatorKind.LIBC_ON_DEMAND,
                                profile.placement.runtime_baseline_pages * page)
    faults += manager.touch(baseline, None, Agent.CPU).count(FaultKind.CPU)
    array_bytes = profile.bw_model.cpu_stream_array_bytes
    for _ in range(3):
        arr = manager.allocate(kind, array_bytes)
        faults += manager.touch(arr, None, init_agent).count(FaultKind.CPU)
        faults += manager.touch(arr, None, Agent.CPU).count(FaultKind.CPU)
    bandwidth = perf.triad_bandwidth(profile, Agent.CPU, kind, init_agent,
                                     threads)
    return CpuStreamStats(cpu_faults=faults, bandwidth=bandwidth)


# --------------------------------------------------------------------------
# Benchmarks
# --------------------------------------------------------------------------

_LATENCY_SIZES = [1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB,
                  1 * MiB, 4 * MiB, 16 * MiB, 64 * MiB, 128 * MiB,
                  256 * MiB, 512 * MiB, 1 * GiB, 2 * GiB, 4 * GiB]


def _bench_latency(profile, seed, agent=(Agent.GPU, Agent.CPU),
                   kind=(AllocatorKind.DEVICE_UP_FRONT,
                         AllocatorKind.LIBC_ON_DEMAND,
                         AllocatorKind.PINNED_HOST),
                   size=_LATENCY_SIZES):
    agents, kinds, sizes = agent, kind, size
    rows = []
    idx = 0
    for kind in kinds:
        for size in sizes:
            idx += 1
            for agent in agents:
                keys = {"agent": agent.value, "kind": kind.value, "size": size}
                try:
                    _check_chase_access(profile, agent, kind)
                except AccessViolation as exc:
                    rows.append(_error_row("latency", keys, exc))
                    continue
                load = _chase_load(profile, kind, size, _point_seed(seed, idx))
                breakdown = perf.chase_latency(profile, agent, size, load)
                rows.append(_row("latency", keys, "latency",
                                 breakdown.weighted_ns, "ns"))
    return rows


def _bench_stream(profile, seed, agent=(Agent.GPU, Agent.CPU),
                  kind=tuple(AllocatorKind), init=(Agent.CPU, Agent.GPU),
                  threads=()):
    agents, kinds, inits = agent, kind, init
    # No threads given means the profile's core count.
    threads_list = threads or [profile.cpu.cores]
    rows = []
    for agent in agents:
        for kind in kinds:
            for init in inits:
                # Threads set only CPU bandwidth: one row per GPU point.
                for threads in (threads_list if agent is Agent.CPU
                                else threads_list[:1]):
                    keys = {"agent": agent.value, "kind": kind.value,
                            "init": init.value, "threads": threads}
                    try:
                        if agent is Agent.GPU:
                            ws = perf.gpu_triad_workset(profile, kind, init,
                                                        seed)
                            bwv = perf.triad_bandwidth(profile, agent, kind,
                                                       init, threads, ws)
                            rows.append(_row("stream", keys, "bandwidth",
                                             bwv, "bytes/s"))
                            if ws is not None:
                                rows.append(_row("stream", keys,
                                                 tlb.COUNTER_NAME,
                                                 float(ws.tlb_misses),
                                                 "misses"))
                        else:
                            stats = build_cpu_stream_stats(profile, kind, init,
                                                           threads, seed)
                            rows.append(_row("stream", keys, "bandwidth",
                                             stats.bandwidth, "bytes/s"))
                            rows.append(_row("stream", keys, "cpu_page_faults",
                                             float(stats.cpu_faults), "faults"))
                    except AccessViolation as exc:
                        rows.append(_error_row("stream", keys, exc))
    return rows


_ALLOC_SIZES = [2, 8, 32, 128, 512, 2 * KiB, 8 * KiB, 16 * KiB, 64 * KiB,
                256 * KiB, 1 * MiB, 2 * MiB, 8 * MiB, 16 * MiB, 32 * MiB,
                128 * MiB, 512 * MiB, 1 * GiB]


def _bench_alloc(profile, seed, kind=tuple(AllocatorKind),
                 size=_ALLOC_SIZES, chunks=100):
    kinds, sizes = kind, size
    rows = []
    for kind in kinds:
        for size in sizes:
            keys = {"kind": kind.value, "size": size}
            a = alloc_time_model(profile, kind, size, profile.xnack)
            f = free_time_model(profile, kind, size, profile.xnack)
            rows.append(_row("alloc", keys, "alloc_time", a * 1e9, "ns"))
            rows.append(_row("alloc", keys, "free_time", f * 1e9, "ns"))
            rows.append(_row("alloc", keys, "loop_time",
                             (a + f) * chunks * 1e9, "ns"))
    return rows


_FAULT_PAGES = [1, 10, 100, 1000, 10_000, 100_000, 1_000_000, 10_000_000]


def _bench_fault(profile, seed, scenario=tuple(fault_mod.Scenario),
                 pages=_FAULT_PAGES, samples=100_000):
    if samples < 1:
        raise ValueError("samples must be >= 1")
    scenarios, pages_list = scenario, pages
    rows = []
    model = fault_mod.LatencyModel(profile)
    od_ok = classify(AllocatorKind.LIBC_ON_DEMAND, profile.xnack).gpu_access
    for si, scenario in enumerate(scenarios):
        gpu_side = scenario in (fault_mod.Scenario.GPU_MINOR,
                                fault_mod.Scenario.GPU_MAJOR)
        rng = np.random.default_rng(_point_seed(seed, 1000 + si))
        for pages in pages_list:
            keys = {"scenario": scenario.value, "pages": pages}
            if gpu_side and not od_ok:
                rows.append(_error_row("fault", keys,
                                       AccessViolation(scenario.value)))
                continue
            rate = fault_mod.throughput(profile, scenario, pages)
            rows.append(_row("fault", keys, "throughput", rate, "pages/s"))
        if gpu_side and not od_ok:
            continue
        lat = model.sample(scenario, rng, samples)
        keys = {"scenario": scenario.value, "pages": 1}
        rows.append(_row("fault", keys, "latency_mean",
                         float(lat.mean()), "us"))
        rows.append(_row("fault", keys, "latency_p95",
                         float(np.percentile(lat, 95)), "us"))
    for pages in pages_list:
        for overlap in (False, True):
            res = fault_mod.prefault_pipeline(profile, pages, overlap)
            name = "prefault_overlapped" if overlap else "prefault_sequential"
            keys = {"scenario": name, "pages": pages}
            rows.append(_row("fault", keys, "speedup_vs_gpu_major",
                             res.speedup_vs_gpu_major, "x"))
    return rows


_ATOMIC_GPU_THREADS = [64, 320, 1280, 3328, 6400, 13312]
_ATOMIC_CPU_THREADS = [1, 2, 3, 6, 12, 24]


def _bench_atomics(profile, seed, array_len=(1, 1 << 10, 1 << 20, 1 << 30),
                   dtype=tuple(atomics_mod.Dtype),
                   cpu_threads=_ATOMIC_CPU_THREADS,
                   gpu_threads=_ATOMIC_GPU_THREADS):
    hybrid_arrays = [n for n in array_len if n in (1 << 10, 1 << 20)]
    rows = []

    def emit(n, dtype, c, g):
        keys = {"array_len": n, "dtype": dtype.value, "cpu_threads": c,
                "gpu_threads": g}
        w = atomics_mod.AtomicsWorkload(cpu_threads=c, gpu_threads=g,
                                        array_len=n, dtype=dtype)
        res = atomics_mod.throughput(profile, w)
        if c:
            rows.append(_row("atomics", keys, "cpu_rate", res.cpu_rate,
                             "updates/s"))
        if g:
            rows.append(_row("atomics", keys, "gpu_rate", res.gpu_rate,
                             "updates/s"))
        rows.append(_row("atomics", keys, "collision_probability",
                         res.collision_probability, "p"))

    for n in array_len:
        for d in dtype:
            for c in cpu_threads:
                emit(n, d, c, 0)
            for g in gpu_threads:
                emit(n, d, 0, g)
    for n in hybrid_arrays:
        for d in dtype:
            for c in cpu_threads:
                for g in gpu_threads:
                    emit(n, d, c, g)
    return rows


_MEMCPY_PAIRS = (
    (AllocatorKind.LIBC_ON_DEMAND, AllocatorKind.DEVICE_UP_FRONT),
    (AllocatorKind.DEVICE_UP_FRONT, AllocatorKind.LIBC_ON_DEMAND),
    (AllocatorKind.PINNED_HOST, AllocatorKind.DEVICE_UP_FRONT),
    (AllocatorKind.DEVICE_UP_FRONT, AllocatorKind.DEVICE_UP_FRONT),
)


def _bench_memcpy(profile, seed, pair=_MEMCPY_PAIRS, sdma=(True, False)):
    rows = []
    for src, dst in pair:
        # A pair may hold kinds or their values, e.g. "device_up_front".
        src, dst = AllocatorKind(src), AllocatorKind(dst)
        for flag in sdma:
            keys = {"src": src.value, "dst": dst.value, "sdma": int(flag)}
            bwv = perf.memcpy_bandwidth(profile, src, dst, flag)
            rows.append(_row("memcpy", keys, "bandwidth", bwv, "bytes/s"))
    return rows


_USAGE_STAGES = ("after_alloc", "after_half_touch", "after_full_touch",
                 "after_release", "stream_setup")
_USAGE_COUNTERS = (UsageCounter.LIBNUMA, UsageCounter.MEMINFO,
                   UsageCounter.HIP_MEM_GET_INFO, UsageCounter.PROCESS_RSS)


def _usage_stages(profile: MachineProfile, manager: MemoryManager,
                  kind: AllocatorKind, size: int):
    """Simulate the usage stages in order, yielding each one's name when
    it is done."""
    alloc = manager.allocate(kind, size)
    yield "after_alloc"
    manager.touch(alloc, (0, alloc.n_pages // 2), Agent.CPU)
    yield "after_half_touch"
    manager.touch(alloc, None, Agent.CPU)
    yield "after_full_touch"
    manager.release(alloc)
    yield "after_release"
    arrays = [manager.allocate(kind, profile.bw_model.gpu_stream_array_bytes)
              for _ in range(3)]
    for a in arrays:
        manager.touch(a, None, Agent.CPU)
    yield "stream_setup"


def usage_matrix(profile: MachineProfile, kind: AllocatorKind,
                 size: int = 1 * GiB, seed: int = 0,
                 stages: int = len(_USAGE_STAGES)) -> dict[tuple[str, UsageCounter], int]:
    """Counter deltas per stage for one allocator kind, over its first
    `stages` stages; the later ones are not simulated."""
    manager = MemoryManager(profile, seed=seed)
    base = {c: manager.usage_view(c) for c in _USAGE_COUNTERS}
    out = {}
    for stage in itertools.islice(
            _usage_stages(profile, manager, kind, size), stages):
        for c in _USAGE_COUNTERS:
            out[(stage, c)] = manager.usage_view(c) - base[c]
    return out


def _bench_usage(profile, seed, kind=tuple(AllocatorKind), size=1 * GiB):
    rows = []
    for i, k in enumerate(kind):
        table = usage_matrix(profile, k, size, _point_seed(seed, i))
        for stage in _USAGE_STAGES:
            for counter in _USAGE_COUNTERS:
                keys = {"kind": k.value, "stage": stage,
                        "counter": counter.value}
                rows.append(_row("usage", keys, "bytes_used",
                                 float(table[(stage, counter)]), "bytes"))
    return rows


# Each benchmark: its driver and the long names the CLI accepts next to
# the short one. A driver takes (profile, seed) and one keyword argument
# per grid key, whose default is the default grid: a tuple or list of
# values, or a single value for a key that takes exactly one.
_BENCHMARKS = {
    "latency": (_bench_latency, ("latencysweep",)),
    "stream": (_bench_stream, ()),
    "alloc": (_bench_alloc, ("allocbench",)),
    "fault": (_bench_fault, ("faultbench",)),
    "atomics": (_bench_atomics, ("atomicsbench",)),
    "memcpy": (_bench_memcpy, ("memcpybench",)),
    "usage": (_bench_usage, ("usagereport",)),
}

BENCHMARK_NAMES = tuple(_BENCHMARKS)


def canonical_benchmark(name: str) -> str:
    low = name.strip().lower()
    return next((bench for bench, (_, aliases) in _BENCHMARKS.items()
                 if low in aliases), low)


def _grid_defaults(benchmark: str) -> dict:
    params = inspect.signature(_BENCHMARKS[benchmark][0]).parameters
    return {key: p.default for key, p in list(params.items())[2:]}


def grid_keys(benchmark: str) -> tuple[str, ...]:
    """The grid keys a benchmark reads: its driver's keyword arguments."""
    return tuple(_grid_defaults(benchmark))


def _parse_text(key: str, text: str):
    try:
        return _GRID_PARSERS[key](text)
    except ValueError as exc:
        raise UsageError(f"bad value {text!r} for grid key {key!r}: "
                         f"{exc}") from None


def run(profile: MachineProfile, spec: WorkloadSpec) -> list[dict]:
    """Evaluate one benchmark grid; one row per (point, metric). Text values
    are parsed by key; a key with a single-value default takes one value."""
    name = canonical_benchmark(spec.benchmark)
    if name not in _BENCHMARKS:
        raise UsageError(f"unknown benchmark {spec.benchmark!r}; "
                         f"choose from {', '.join(BENCHMARK_NAMES)}")
    defaults = _grid_defaults(name)
    grid = {}
    for key, values in spec.grid.items():
        if key not in defaults:
            raise UsageError(f"unknown grid key {key!r} for {name}; "
                             f"choose from {', '.join(defaults)}")
        values = [_parse_text(key, v) if isinstance(v, str) else v
                  for v in values]
        if not isinstance(defaults[key], (tuple, list)):
            if len(values) != 1:
                raise UsageError(f"grid key {key!r} of {name} takes one "
                                 f"value, got {len(values)}")
            values = values[0]
        grid[key] = values
    return _BENCHMARKS[name][0](profile, spec.seed, **grid)


def report(rows: list[dict], fmt: str = "csv") -> str:
    """Render rows; the columns are the first row's keys, in order."""
    if fmt not in ("csv", "table"):
        raise UsageError(f"unknown format {fmt!r}")
    header = (list(rows[0]) if rows
              else ["benchmark", "metric", "value", "unit"])
    table = [header]
    for row in rows:
        cells = []
        for col in header:
            v = row.get(col, "")
            if col == "value":
                cells.append("nan" if isinstance(v, float) and math.isnan(v)
                             else f"{v:.6f}")
            else:
                cells.append(str(v))
        table.append(cells)
    if fmt == "csv":
        return "\n".join(",".join(cells) for cells in table) + "\n"
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in table]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Anchors and verify
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Anchor:
    id: str
    lo: float
    hi: float
    unit: str
    basis: str           # which measured quantity this reproduces
    hard: bool = True


@dataclass
class AnchorResult:
    anchor: Anchor
    value: float
    passed: bool


def _between(anchor: Anchor, value: float) -> AnchorResult:
    return AnchorResult(anchor, value, anchor.lo <= value <= anchor.hi)


def evaluate_anchors(profile: MachineProfile, seed: int = 0) -> list[AnchorResult]:
    """Run every anchored expectation against the simulator."""
    res: list[AnchorResult] = []
    dev = AllocatorKind.DEVICE_UP_FRONT
    libc = AllocatorKind.LIBC_ON_DEMAND
    pin = AllocatorKind.PINNED_HOST
    reg = AllocatorKind.REGISTERED_HOST
    man = AllocatorKind.MANAGED_UNIFIED
    cpu, gpu = Agent.CPU, Agent.GPU

    def chase(agent, kind, size, s=seed):
        return measure_chase(profile, agent, kind, size, s).latency_ns

    # 1. dependent-load latency plateaus
    res.append(_between(Anchor("latency.gpu.1kib", 57.0, 57.0, "ns",
                               "GPU chase at 1 KiB (L1 plateau)"),
                        chase(gpu, dev, 1 * KiB)))
    res.append(_between(Anchor("latency.gpu.1mib", 100.0, 108.0, "ns",
                               "GPU chase at 1 MiB (L2 plateau)"),
                        chase(gpu, dev, 1 * MiB)))
    res.append(_between(Anchor("latency.gpu.128mib", 205.0, 218.0, "ns",
                               "GPU chase at 128 MiB (memory-side cache)"),
                        chase(gpu, dev, 128 * MiB)))
    res.append(_between(Anchor("latency.gpu.4gib", 333.0, 350.0, "ns",
                               "GPU chase at 4 GiB (HBM)"),
                        chase(gpu, dev, 4 * GiB)))
    res.append(_between(Anchor("latency.cpu.1kib", 1.0, 1.0, "ns",
                               "CPU chase at 1 KiB (L1 plateau)"),
                        chase(cpu, dev, 1 * KiB)))
    res.append(_between(Anchor("latency.cpu.4gib.device", 236.0, 241.0, "ns",
                               "CPU chase at 4 GiB, device memory"),
                        chase(cpu, dev, 4 * GiB)))
    res.append(_between(Anchor("latency.cpu.4gib.ondemand", 236.0, 241.0, "ns",
                               "CPU chase at 4 GiB, heap memory"),
                        chase(cpu, libc, 4 * GiB)))
    od512 = chase(cpu, libc, 512 * MiB)
    pin512 = chase(cpu, pin, 512 * MiB)
    dev512 = chase(cpu, dev, 512 * MiB)
    res.append(_between(Anchor("latency.cpu.512mib.ondemand", 225.0,
                               float("inf"), "ns",
                               "CPU chase at 512 MiB, CPU-touched heap"),
                        od512))
    res.append(_between(Anchor("latency.cpu.512mib.separation", 15.0,
                               float("inf"), "ns",
                               "up-front kinds beat CPU-touched heap at 512 MiB"),
                        od512 - max(pin512, dev512)))

    # 2. streaming bandwidth tiers
    profile0 = replace(profile, xnack=False)
    profile1 = replace(profile, xnack=True)

    def gpu_bw(prof, kind, init=cpu):
        ws = perf.gpu_triad_workset(prof, kind, init, seed)
        return perf.triad_bandwidth(prof, gpu, kind, init, 1, ws)

    res.append(_between(Anchor("bw.gpu.device", 3.5e12, 3.6e12, "bytes/s",
                               "GPU TRIAD on device memory"),
                        gpu_bw(profile, dev)))
    res.append(_between(Anchor("bw.gpu.pinned", 2.1e12, 2.2e12, "bytes/s",
                               "GPU TRIAD on pinned host memory"),
                        gpu_bw(profile, pin)))
    res.append(_between(Anchor("bw.gpu.registered", 2.1e12, 2.2e12, "bytes/s",
                               "GPU TRIAD on registered host memory"),
                        gpu_bw(profile, reg)))
    res.append(_between(Anchor("bw.gpu.managed.upfront", 2.1e12, 2.2e12,
                               "bytes/s",
                               "GPU TRIAD on managed memory, replay off"),
                        gpu_bw(profile0, man)))
    res.append(_between(Anchor("bw.gpu.libc", 1.8e12, 1.9e12, "bytes/s",
                               "GPU TRIAD on CPU-touched heap memory"),
                        gpu_bw(profile1, libc)))
    res.append(_between(Anchor("bw.gpu.managed.ondemand", 1.8e12, 1.9e12,
                               "bytes/s",
                               "GPU TRIAD on managed memory, replay on"),
                        gpu_bw(profile1, man)))
    res.append(_between(Anchor("bw.gpu.static", 103e9 * 0.95, 103e9 * 1.05,
                               "bytes/s", "GPU TRIAD on static managed data"),
                        perf.triad_bandwidth(profile, gpu,
                                             AllocatorKind.STATIC_MANAGED)))
    threads = profile.cpu.cores
    res.append(_between(Anchor("bw.cpu.upfront", 208e9 * 0.97, 208e9 * 1.03,
                               "bytes/s", "CPU TRIAD on up-front memory"),
                        perf.triad_bandwidth(profile, cpu, dev, cpu, threads)))
    res.append(_between(Anchor("bw.cpu.gpu_init", 208e9 * 0.97, 208e9 * 1.03,
                               "bytes/s", "CPU TRIAD on GPU-touched heap"),
                        perf.triad_bandwidth(profile, cpu, libc, gpu, threads)))
    res.append(_between(Anchor("bw.cpu.ondemand", 179e9, 182e9, "bytes/s",
                               "CPU TRIAD on CPU-touched heap"),
                        perf.triad_bandwidth(profile, cpu, libc, cpu, threads)))

    # 3. explicit-copy bandwidth
    res.append(_between(Anchor("memcpy.sdma", 58e9, 58e9, "bytes/s",
                               "host-device copy via DMA engine"),
                        perf.memcpy_bandwidth(profile, libc, dev, True)))
    res.append(_between(Anchor("memcpy.nosdma", 850e9, 850e9, "bytes/s",
                               "host-device copy without DMA engine"),
                        perf.memcpy_bandwidth(profile, libc, dev, False)))
    res.append(_between(Anchor("memcpy.d2d", 1900e9, 1900e9, "bytes/s",
                               "device-to-device copy"),
                        perf.memcpy_bandwidth(profile, dev, dev, True)))

    # 4. translation misses
    ws_dev = perf.build_triad_workset(profile, dev, cpu, seed)
    ws_libc = perf.build_triad_workset(profile1, libc, cpu, seed)
    ratio = ws_libc.tlb_misses / ws_dev.tlb_misses
    res.append(_between(Anchor("tlb.miss_ratio", 5.0, 10.0, "x",
                               "scattered vs contiguous TRIAD miss ratio"),
                        ratio))
    res.append(_between(Anchor("tlb.device_misses", 158e3 * 0.8, 158e3 * 1.2,
                               "misses",
                               "TRIAD misses on device memory (calibrated "
                               "iteration count)", hard=False),
                        float(ws_dev.tlb_misses)))

    # 5. fault throughput
    sat = {fault_mod.Scenario.CPU1: (1_000, 872e3),
           fault_mod.Scenario.CPU12: (10_000, 3.7e6),
           fault_mod.Scenario.GPU_MAJOR: (10_000, 1.1e6),
           fault_mod.Scenario.GPU_MINOR: (10_000_000, 9.0e6)}
    for scenario, (pages, plateau) in sat.items():
        value = fault_mod.throughput(profile, scenario, pages)
        res.append(_between(Anchor(f"fault.throughput.{scenario.value}",
                                   plateau * 0.9, plateau * 1.1, "pages/s",
                                   f"{scenario.value} fault rate at saturation"),
                            value))
    pipe = fault_mod.prefault_pipeline(profile, 10_000_000, overlap=False)
    res.append(_between(Anchor("fault.prefault.speedup", 2.2 * 0.85, 2.2 * 1.15,
                               "x", "prefault-then-fault gain at 10M pages"),
                        pipe.speedup_vs_gpu_major))
    single = fault_mod.prefault_pipeline(profile, 1, overlap=False)
    res.append(_between(Anchor("fault.prefault.single_page", 0.0, 1.0, "x",
                               "single-page prefault is slower than faulting"),
                        single.speedup_vs_gpu_major))

    # 6. fault latency distributions
    model = fault_mod.LatencyModel(profile)
    lat_expect = {fault_mod.Scenario.CPU1: (9.0, 11.0),
                  fault_mod.Scenario.GPU_MINOR: (16.0, 20.0),
                  fault_mod.Scenario.GPU_MAJOR: (18.0, 22.0)}
    for i, (scenario, (mean, p95)) in enumerate(lat_expect.items()):
        rng = np.random.default_rng(_point_seed(seed, 7000 + i))
        samples = model.sample(scenario, rng, 100_000)
        res.append(_between(Anchor(f"fault.latency_mean.{scenario.value}",
                                   mean * 0.98, mean * 1.02, "us",
                                   f"mean {scenario.value} fault latency"),
                            float(samples.mean())))
        res.append(_between(Anchor(f"fault.latency_p95.{scenario.value}",
                                   p95 * 0.95, p95 * 1.05, "us",
                                   f"tail {scenario.value} fault latency"),
                            float(np.percentile(samples, 95))))

    # 7. allocation cost
    xn = profile.xnack
    anchors7 = [
        ("alloc.libc.32b", libc, 32, 14e-9),
        ("alloc.libc.1gib", libc, 1 * GiB, 6e-6),
        ("alloc.device.16kib", dev, 16 * KiB, 10e-6),
        ("alloc.device.1gib", dev, 1 * GiB, 37e-3),
    ]
    for aid, kind, size, expect in anchors7:
        value = alloc_time_model(profile, kind, size, xn)
        res.append(_between(Anchor(aid, expect * 0.9, expect * 1.1, "s",
                                   "allocation cost anchor"),
                            value))
    small_sizes = [2, 32, 512, 4 * KiB, 16 * KiB]
    worst_cv = 0.0
    for kind in (dev, pin, reg):
        times = np.array([alloc_time_model(profile, kind, s, xn)
                          for s in small_sizes])
        # An all-zero series is flat: its CV counts as 0, not 0/0.
        if times.any():
            worst_cv = max(worst_cv, float(times.std() / times.mean()))
    res.append(_between(Anchor("alloc.upfront_flat", 0.0, 0.01, "cv",
                               "up-front cost constant below the minimum "
                               "physical allocation granularity"),
                        worst_cv))

    def diff(kind, size):
        return free_time_model(profile, kind, size, xn) \
            - alloc_time_model(profile, kind, size, xn)

    below = diff(libc, 16 * MiB) < 0 and diff(libc, 8 * MiB) < 0
    above = diff(libc, 32 * MiB) > 0
    res.append(_between(Anchor("alloc.libc_free_crossover", 1.0, 1.0, "bool",
                               "free/alloc cost crossover at 16 MiB"),
                        1.0 if (below and above) else 0.0))
    below = diff(dev, 2 * MiB) < 0 and diff(dev, 1 * MiB) < 0
    above = diff(dev, 4 * MiB) > 0
    res.append(_between(Anchor("alloc.device_free_crossover", 1.0, 1.0, "bool",
                               "free/alloc cost crossover at 2 MiB"),
                        1.0 if (below and above) else 0.0))

    # 8. CPU-side fault counts in the streaming setup
    libc_stats = build_cpu_stream_stats(profile1, libc, cpu, threads, seed)
    res.append(_between(Anchor("faults.stream.libc", 472e3 * 0.98, 472e3 * 1.02,
                               "faults", "CPU faults, CPU-init heap operands"),
                        float(libc_stats.cpu_faults)))
    dev_stats = build_cpu_stream_stats(profile, dev, cpu, threads, seed)
    res.append(_between(Anchor("faults.stream.upfront", 3700.0, 4600.0,
                               "faults",
                               "CPU faults, CPU-init up-front operands"),
                        float(dev_stats.cpu_faults)))
    dev_gpu_stats = build_cpu_stream_stats(profile, dev, gpu, threads, seed)
    res.append(_between(Anchor("faults.stream.gpu_init", 8000.0, 8900.0,
                               "faults",
                               "CPU faults, GPU-init up-front operands"),
                        float(dev_gpu_stats.cpu_faults)))

    # 9. atomics trends
    def rates(n, dtype, c, g):
        w = atomics_mod.AtomicsWorkload(c, g, n, dtype)
        return atomics_mod.throughput(profile, w)

    low_uint = rates(1 << 20, atomics_mod.Dtype.UINT64, 1, 0).cpu_rate
    low_fp = rates(1 << 20, atomics_mod.Dtype.FP64, 1, 0).cpu_rate
    res.append(_between(Anchor("atomics.cpu_dtype_ratio", 3.0 * 0.85,
                               3.0 * 1.15, "x",
                               "CPU integer/floating atomic rate ratio at "
                               "low contention"),
                        low_uint / low_fp))
    gu = rates(1 << 20, atomics_mod.Dtype.UINT64, 0, 3328).gpu_rate
    gf = rates(1 << 20, atomics_mod.Dtype.FP64, 0, 3328).gpu_rate
    res.append(_between(Anchor("atomics.gpu_dtype_equal", 0.0, 0.0,
                               "updates/s",
                               "GPU atomic rate is element-type independent"),
                        abs(gu - gf)))
    hybrid_ratios = []
    for c in range(1, profile.cpu.cores + 1):
        iso = rates(1 << 10, atomics_mod.Dtype.UINT64, c, 0).cpu_rate
        hyb = rates(1 << 10, atomics_mod.Dtype.UINT64, c, 3328).cpu_rate
        hybrid_ratios.append(hyb / iso)
    res.append(_between(Anchor("atomics.hybrid_cpu_min", 0.11, 0.25, "x",
                               "co-running CPU slowdown window, small array"),
                        min(hybrid_ratios)))
    res.append(_between(Anchor("atomics.hybrid_cpu_max", 0.11, 0.25, "x",
                               "co-running CPU slowdown window, small array"),
                        max(hybrid_ratios)))
    gpu_floor = 1.0
    for n in (1 << 10, 1 << 20):
        for dtype in atomics_mod.Dtype:
            for c in _ATOMIC_CPU_THREADS:
                for g in _ATOMIC_GPU_THREADS:
                    iso = rates(n, dtype, 0, g).gpu_rate
                    hyb = rates(n, dtype, c, g).gpu_rate
                    gpu_floor = min(gpu_floor, hyb / iso)
    res.append(_between(Anchor("atomics.gpu_floor", 0.79, 1.1, "x",
                               "co-running GPU throughput floor"),
                        gpu_floor))
    one_elem = [rates(1, atomics_mod.Dtype.UINT64, c, 0).cpu_rate
                for c in range(2, profile.cpu.cores + 1)]
    monotone = all(a > b for a, b in zip(one_elem, one_elem[1:]))
    res.append(_between(Anchor("atomics.one_element_decreasing", 1.0, 1.0,
                               "bool",
                               "single-element CPU rate decreases with "
                               "threads"),
                        1.0 if monotone else 0.0))
    gm = []
    for dtype in [atomics_mod.Dtype.UINT64]:
        for c in _ATOMIC_CPU_THREADS:
            for g in _ATOMIC_GPU_THREADS:
                iso = rates(1 << 20, dtype, 0, g).gpu_rate
                hyb = rates(1 << 20, dtype, c, g).gpu_rate
                gm.append(hyb / iso)
    geomean = float(np.exp(np.mean(np.log(gm))))
    res.append(_between(Anchor("atomics.hybrid_gpu_geomean", 0.99, 1.03, "x",
                               "co-running GPU geometric-mean ratio, mid "
                               "array"),
                        geomean))
    pocket = any(r > 1.0 for r in hybrid_ratios)
    res.append(_between(Anchor("atomics.hybrid_cpu_pocket", 1.0, 1.0, "bool",
                               "co-running CPU speedup pocket (not forced "
                               "by the model)", hard=False),
                        1.0 if pocket else 0.0))

    # 11. usage-counter visibility matrix
    res.append(_between(Anchor("usage.matrix", 1.0, 1.0, "bool",
                               "counter visibility matrix across kinds"),
                        1.0 if check_usage_matrix(profile, seed) else 0.0))
    return res


def expected_usage(profile: MachineProfile, kind: AllocatorKind,
                   stage: str, counter: UsageCounter, size: int,
                   touched: int) -> int:
    """Expected counter delta for the visibility matrix."""
    spec = classify(kind, profile.xnack)
    up_front = spec.physical is Policy.UP_FRONT
    if stage == "after_release":
        return 0
    if counter in (UsageCounter.LIBNUMA, UsageCounter.MEMINFO):
        return size if up_front else touched
    if counter is UsageCounter.HIP_MEM_GET_INFO:
        return size if kind is AllocatorKind.DEVICE_UP_FRONT else 0
    if kind is AllocatorKind.DEVICE_UP_FRONT:
        return 0
    return size if up_front else touched


def check_usage_matrix(profile: MachineProfile, seed: int = 0) -> bool:
    size = 1 * GiB
    checked = (("after_alloc", 0), ("after_half_touch", size // 2),
               ("after_full_touch", size), ("after_release", 0))
    for kind in AllocatorKind:
        table = usage_matrix(profile, kind, size, seed, stages=len(checked))
        for stage, touched in checked:
            for counter in _USAGE_COUNTERS:
                if table[(stage, counter)] != expected_usage(
                        profile, kind, stage, counter, size, touched):
                    return False
    return True


@dataclass
class VerifyReport:
    results: list[AnchorResult]

    @property
    def hard_failures(self) -> int:
        return sum(1 for r in self.results if r.anchor.hard and not r.passed)

    @property
    def soft_failures(self) -> int:
        return sum(1 for r in self.results if not r.anchor.hard and not r.passed)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            a = r.anchor
            if r.passed:
                status = "PASS"
            else:
                status = "FAIL" if a.hard else "WARN"
            if a.lo == a.hi:
                window = f"= {a.lo:g}"
            elif math.isinf(a.hi):
                window = f">= {a.lo:g}"
            else:
                window = f"in [{a.lo:g}, {a.hi:g}]"
            out.append(f"{status} {a.id:<34} {r.value:>14.4f} {a.unit:<9} "
                       f"expected {window}  ({a.basis})")
        out.append(f"{len(self.results)} anchors: "
                   f"{sum(r.passed for r in self.results)} passed, "
                   f"{self.hard_failures} hard failures, "
                   f"{self.soft_failures} soft warnings")
        return out


def verify(profile: MachineProfile, seed: int = 0) -> VerifyReport:
    return VerifyReport(evaluate_anchors(profile, seed))

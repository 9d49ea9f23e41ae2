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
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import atomics as atomics_mod
from . import fault as fault_mod
from . import memmgr, perf, tlb, units
from .machine import KiB, MiB, GiB, MachineProfile
from .memmgr import (KINDS, AccessViolation, Agent, AllocatorKind, FaultKind,
                     MemoryManager, Policy, UsageCounter, alloc_time_model,
                     classify, free_time_model)

KIND_ALIASES = {name.lower(): kind for kind, spec in KINDS.items()
                for name in (kind.value, *spec.aliases)}


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

def measure_chase(profile: MachineProfile, agent: Agent, kind: AllocatorKind,
                  size: int, seed: int = 0) -> float:
    """Allocate, first-touch on the CPU, and evaluate the pointer chase at
    one size; returns the dependent-load latency in ns."""
    if agent is Agent.GPU and not classify(kind, profile.xnack).gpu_access:
        raise AccessViolation(f"GPU cannot chase {kind.value} memory")
    load = _chase_load(*memmgr.placement_key(profile, kind), size, seed)
    return perf.chase_latency(profile, agent, size, load).weighted_ns


@functools.lru_cache(maxsize=64)
def _chase_load(profile: MachineProfile, kind: AllocatorKind, size: int,
                seed: int) -> perf.ChannelLoad:
    """Channel load of one allocation after its first touch, shared by
    every agent and, through measure_chase's placement key, every kind."""
    manager = MemoryManager(profile, seed=seed)
    alloc = manager.allocate(kind, size)
    if classify(kind, profile.xnack).physical is Policy.ON_DEMAND:
        manager.touch(alloc, None, Agent.CPU)
    return perf.channel_load(profile, alloc)


@functools.lru_cache(maxsize=64)
def build_cpu_stream_stats(profile: MachineProfile, kind: AllocatorKind,
                           init_agent: Agent, seed: int = 0) -> int:
    """Simulate the CPU streaming setup and count CPU-side page faults.

    The fault count covers the process baseline residency, the first-touch
    initialization of the three operands, and the CPU's own access pass,
    which is where coarse-grained visibility faults of up-front kinds
    appear.

    Calls with one placement key (memmgr.placement_key) fault alike, so
    only the key is simulated; any other call reads its count through
    this cache.
    """
    key = memmgr.placement_key(profile, kind)
    if key != (profile, kind):
        return build_cpu_stream_stats(*key, init_agent, seed)
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
    return faults


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
    for idx, (kind, size) in enumerate(itertools.product(kinds, sizes), 1):
        for agent in agents:
            keys = {"agent": agent.value, "kind": kind.value, "size": size}
            try:
                value = measure_chase(profile, agent, kind, size,
                                      _point_seed(seed, idx))
            except AccessViolation as exc:
                rows.append(_error_row("latency", keys, exc))
                continue
            rows.append(_row("latency", keys, "latency", value, "ns"))
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
                            extra = [] if ws is None else [
                                (tlb.COUNTER_NAME, ws.tlb_misses, "misses")]
                        else:
                            ws = None
                            faults = build_cpu_stream_stats(profile, kind,
                                                            init, seed)
                            extra = [("cpu_page_faults", faults, "faults")]
                        bwv = perf.triad_bandwidth(profile, agent, kind, init,
                                                   threads, ws)
                    except AccessViolation as exc:
                        rows.append(_error_row("stream", keys, exc))
                        continue
                    rows.append(_row("stream", keys, "bandwidth", bwv,
                                     "bytes/s"))
                    rows += [_row("stream", keys, metric, float(value), unit)
                             for metric, value, unit in extra]
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
            a = alloc_time_model(profile, kind, size)
            f = free_time_model(profile, kind, size)
            rows.append(_row("alloc", keys, "alloc_time", a * 1e9, "ns"))
            rows.append(_row("alloc", keys, "free_time", f * 1e9, "ns"))
            rows.append(_row("alloc", keys, "loop_time",
                             (a + f) * chunks * 1e9, "ns"))
    return rows


def _latency_stats(model: fault_mod.LatencyModel, scenario: fault_mod.Scenario,
                   seed: int, samples: int) -> tuple[float, float]:
    """Mean and p95, in us, of `samples` fault latencies drawn at seed."""
    lat = model.sample(scenario, np.random.default_rng(seed), samples)
    return float(lat.mean()), _p95(lat)


def _p95(x: np.ndarray) -> float:
    """np.percentile(x, 95), bit for bit: numpy's linear rule over the two
    order statistics around index (n - 1) * 0.95. np.percentile's first
    call imports numpy.ma, which nothing else here needs."""
    at = (len(x) - 1) * 0.95
    i = int(at)
    j = min(i + 1, len(x) - 1)
    part = np.partition(x, (i, j))
    a, b, t = float(part[i]), float(part[j]), at - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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
        mean, p95 = _latency_stats(model, scenario,
                                   _point_seed(seed, 1000 + si), samples)
        keys = {"scenario": scenario.value, "pages": 1}
        rows.append(_row("fault", keys, "latency_mean", mean, "us"))
        rows.append(_row("fault", keys, "latency_p95", p95, "us"))
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
    """Counters of a fresh manager per stage for one allocator kind, over
    its first `stages` stages; the later ones are not simulated."""
    manager = MemoryManager(profile, seed=seed)
    out = {}
    for stage in itertools.islice(
            _usage_stages(profile, manager, kind, size), stages):
        for c in _USAGE_COUNTERS:
            out[(stage, c)] = manager.usage_view(c)
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

_DEV, _LIBC = AllocatorKind.DEVICE_UP_FRONT, AllocatorKind.LIBC_ON_DEMAND
_PIN, _REG = AllocatorKind.PINNED_HOST, AllocatorKind.REGISTERED_HOST
_MAN = AllocatorKind.MANAGED_UNIFIED
_CPU, _GPU = Agent.CPU, Agent.GPU
_U64, _F64 = atomics_mod.Dtype.UINT64, atomics_mod.Dtype.FP64

# Scenario: (expected mean, expected p95) fault latency in us.
_FAULT_LATENCY = {fault_mod.Scenario.CPU1: (9.0, 11.0),
                  fault_mod.Scenario.GPU_MINOR: (16.0, 20.0),
                  fault_mod.Scenario.GPU_MAJOR: (18.0, 22.0)}


@dataclass(frozen=True)
class Anchor:
    id: str
    lo: float
    hi: float
    unit: str
    basis: str           # which measured quantity this reproduces
    measure: Callable[[_Measurements], float]
    hard: bool = True


@dataclass
class AnchorResult:
    anchor: Anchor
    value: float
    passed: bool


class _Measurements:
    """What the anchors of one verify call read: the profile, the seed, the
    profile with xnack off and on, and the values several anchors share,
    each measured once, when first read."""

    def __init__(self, profile: MachineProfile, seed: int):
        self.profile, self.seed = profile, seed
        self.xnack_off = replace(profile, xnack=False)
        self.xnack_on = replace(profile, xnack=True)

    def chase(self, agent: Agent, kind: AllocatorKind, size: int) -> float:
        return measure_chase(self.profile, agent, kind, size, self.seed)

    def gpu_bw(self, profile: MachineProfile, kind: AllocatorKind) -> float:
        ws = perf.gpu_triad_workset(profile, kind, _CPU, self.seed)
        return perf.triad_bandwidth(profile, _GPU, kind, _CPU, 1, ws)

    def cpu_bw(self, kind: AllocatorKind, init: Agent) -> float:
        return perf.triad_bandwidth(self.profile, _CPU, kind, init,
                                    self.profile.cpu.cores)

    def atomics(self, n: int, dtype: atomics_mod.Dtype, c: int,
                g: int) -> atomics_mod.AtomicsResult:
        w = atomics_mod.AtomicsWorkload(c, g, n, dtype)
        return atomics_mod.throughput(self.profile, w)

    def alloc_time(self, kind: AllocatorKind, size: int) -> float:
        return alloc_time_model(self.profile, kind, size)

    @functools.cached_property
    def heap_chase_512mib(self) -> float:
        return self.chase(_CPU, _LIBC, 512 * MiB)

    @functools.cached_property
    def device_workset(self) -> perf.TriadWorkset:
        return perf.build_triad_workset(self.profile, _DEV, _CPU, self.seed)

    @functools.cached_property
    def fault_latency(self) -> dict[fault_mod.Scenario, tuple[float, float]]:
        """(mean, p95) in us of 100,000 draws per scenario."""
        model = fault_mod.LatencyModel(self.profile)
        return {scenario: _latency_stats(model, scenario,
                                         _point_seed(self.seed, 7000 + i),
                                         100_000)
                for i, scenario in enumerate(_FAULT_LATENCY)}

    @functools.cached_property
    def hybrid_cpu_ratios(self) -> list[float]:
        """Co-running over isolated CPU atomic rate on a small array, per
        CPU thread count."""
        return [self.atomics(1 << 10, _U64, c, 3328).cpu_rate
                / self.atomics(1 << 10, _U64, c, 0).cpu_rate
                for c in range(1, self.profile.cpu.cores + 1)]


def _upfront_small_cv(m: _Measurements) -> float:
    """Worst coefficient of variation of the up-front kinds' cost over
    sizes below the allocation granularity."""
    times = np.array([[m.alloc_time(kind, s)
                       for s in (2, 32, 512, 4 * KiB, 16 * KiB)]
                      for kind in (_DEV, _PIN, _REG)])
    # An all-zero series is flat: its CV counts as 0, not 0/0.
    return max([0.0] + [float(t.std() / t.mean()) for t in times if t.any()])


def _free_alloc_crossover(m: _Measurements, kind: AllocatorKind,
                          below: tuple[int, ...], above: int) -> float:
    """1 when freeing costs less than allocating at every size in below
    and more at above, else 0."""
    def diff(size):
        return free_time_model(m.profile, kind, size) \
            - m.alloc_time(kind, size)

    return float(all(diff(s) < 0 for s in below) and diff(above) > 0)


def _gpu_hybrid_ratios(m: _Measurements, sizes: tuple[int, ...],
                       dtypes: tuple[atomics_mod.Dtype, ...]) -> list[float]:
    """Co-running over isolated GPU atomic rate, for every array size,
    element type, CPU and GPU thread count of the atomics grid."""
    return [m.atomics(n, dtype, c, g).gpu_rate
            / m.atomics(n, dtype, 0, g).gpu_rate
            for n in sizes for dtype in dtypes
            for c in _ATOMIC_CPU_THREADS for g in _ATOMIC_GPU_THREADS]


# Every anchored expectation, in the order verify reports them.
ANCHORS = (
    # 1. dependent-load latency plateaus
    Anchor("latency.gpu.1kib", 57.0, 57.0, "ns",
           "GPU chase at 1 KiB (L1 plateau)",
           lambda m: m.chase(_GPU, _DEV, 1 * KiB)),
    Anchor("latency.gpu.1mib", 100.0, 108.0, "ns",
           "GPU chase at 1 MiB (L2 plateau)",
           lambda m: m.chase(_GPU, _DEV, 1 * MiB)),
    Anchor("latency.gpu.128mib", 205.0, 218.0, "ns",
           "GPU chase at 128 MiB (memory-side cache)",
           lambda m: m.chase(_GPU, _DEV, 128 * MiB)),
    Anchor("latency.gpu.4gib", 333.0, 350.0, "ns",
           "GPU chase at 4 GiB (HBM)",
           lambda m: m.chase(_GPU, _DEV, 4 * GiB)),
    Anchor("latency.cpu.1kib", 1.0, 1.0, "ns",
           "CPU chase at 1 KiB (L1 plateau)",
           lambda m: m.chase(_CPU, _DEV, 1 * KiB)),
    Anchor("latency.cpu.4gib.device", 236.0, 241.0, "ns",
           "CPU chase at 4 GiB, device memory",
           lambda m: m.chase(_CPU, _DEV, 4 * GiB)),
    Anchor("latency.cpu.4gib.ondemand", 236.0, 241.0, "ns",
           "CPU chase at 4 GiB, heap memory",
           lambda m: m.chase(_CPU, _LIBC, 4 * GiB)),
    Anchor("latency.cpu.512mib.ondemand", 225.0, float("inf"), "ns",
           "CPU chase at 512 MiB, CPU-touched heap",
           lambda m: m.heap_chase_512mib),
    Anchor("latency.cpu.512mib.separation", 15.0, float("inf"), "ns",
           "up-front kinds beat CPU-touched heap at 512 MiB",
           lambda m: m.heap_chase_512mib - max(
               m.chase(_CPU, _PIN, 512 * MiB), m.chase(_CPU, _DEV, 512 * MiB))),

    # 2. streaming bandwidth tiers
    Anchor("bw.gpu.device", 3.5e12, 3.6e12, "bytes/s",
           "GPU TRIAD on device memory",
           lambda m: m.gpu_bw(m.profile, _DEV)),
    Anchor("bw.gpu.pinned", 2.1e12, 2.2e12, "bytes/s",
           "GPU TRIAD on pinned host memory",
           lambda m: m.gpu_bw(m.profile, _PIN)),
    Anchor("bw.gpu.registered", 2.1e12, 2.2e12, "bytes/s",
           "GPU TRIAD on registered host memory",
           lambda m: m.gpu_bw(m.profile, _REG)),
    Anchor("bw.gpu.managed.upfront", 2.1e12, 2.2e12, "bytes/s",
           "GPU TRIAD on managed memory, replay off",
           lambda m: m.gpu_bw(m.xnack_off, _MAN)),
    Anchor("bw.gpu.libc", 1.8e12, 1.9e12, "bytes/s",
           "GPU TRIAD on CPU-touched heap memory",
           lambda m: m.gpu_bw(m.xnack_on, _LIBC)),
    Anchor("bw.gpu.managed.ondemand", 1.8e12, 1.9e12, "bytes/s",
           "GPU TRIAD on managed memory, replay on",
           lambda m: m.gpu_bw(m.xnack_on, _MAN)),
    Anchor("bw.gpu.static", 103e9 * 0.95, 103e9 * 1.05, "bytes/s",
           "GPU TRIAD on static managed data",
           lambda m: perf.triad_bandwidth(m.profile, _GPU,
                                          AllocatorKind.STATIC_MANAGED)),
    Anchor("bw.cpu.upfront", 208e9 * 0.97, 208e9 * 1.03, "bytes/s",
           "CPU TRIAD on up-front memory",
           lambda m: m.cpu_bw(_DEV, _CPU)),
    Anchor("bw.cpu.gpu_init", 208e9 * 0.97, 208e9 * 1.03, "bytes/s",
           "CPU TRIAD on GPU-touched heap",
           lambda m: m.cpu_bw(_LIBC, _GPU)),
    Anchor("bw.cpu.ondemand", 179e9, 182e9, "bytes/s",
           "CPU TRIAD on CPU-touched heap",
           lambda m: m.cpu_bw(_LIBC, _CPU)),

    # 3. explicit-copy bandwidth
    Anchor("memcpy.sdma", 58e9, 58e9, "bytes/s",
           "host-device copy via DMA engine",
           lambda m: perf.memcpy_bandwidth(m.profile, _LIBC, _DEV, True)),
    Anchor("memcpy.nosdma", 850e9, 850e9, "bytes/s",
           "host-device copy without DMA engine",
           lambda m: perf.memcpy_bandwidth(m.profile, _LIBC, _DEV, False)),
    Anchor("memcpy.d2d", 1900e9, 1900e9, "bytes/s",
           "device-to-device copy",
           lambda m: perf.memcpy_bandwidth(m.profile, _DEV, _DEV, True)),

    # 4. translation misses
    Anchor("tlb.miss_ratio", 5.0, 10.0, "x",
           "scattered vs contiguous TRIAD miss ratio",
           lambda m: perf.build_triad_workset(m.xnack_on, _LIBC, _CPU,
                                              m.seed).tlb_misses
           / m.device_workset.tlb_misses),
    Anchor("tlb.device_misses", 158e3 * 0.8, 158e3 * 1.2, "misses",
           "TRIAD misses on device memory (calibrated iteration count)",
           lambda m: float(m.device_workset.tlb_misses), hard=False),

    # 5. fault throughput
    *(Anchor(f"fault.throughput.{scenario.value}", plateau * 0.9,
             plateau * 1.1, "pages/s",
             f"{scenario.value} fault rate at saturation",
             lambda m, scenario=scenario, pages=pages:
             fault_mod.throughput(m.profile, scenario, pages))
      for scenario, (pages, plateau) in (
          (fault_mod.Scenario.CPU1, (1_000, 872e3)),
          (fault_mod.Scenario.CPU12, (10_000, 3.7e6)),
          (fault_mod.Scenario.GPU_MAJOR, (10_000, 1.1e6)),
          (fault_mod.Scenario.GPU_MINOR, (10_000_000, 9.0e6)))),
    Anchor("fault.prefault.speedup", 2.2 * 0.85, 2.2 * 1.15, "x",
           "prefault-then-fault gain at 10M pages",
           lambda m: fault_mod.prefault_pipeline(
               m.profile, 10_000_000, overlap=False).speedup_vs_gpu_major),
    Anchor("fault.prefault.single_page", 0.0, 1.0, "x",
           "single-page prefault is slower than faulting",
           lambda m: fault_mod.prefault_pipeline(
               m.profile, 1, overlap=False).speedup_vs_gpu_major),

    # 6. fault latency distributions
    *(anchor for scenario, (mean, p95) in _FAULT_LATENCY.items()
      for anchor in (
          Anchor(f"fault.latency_mean.{scenario.value}", mean * 0.98,
                 mean * 1.02, "us", f"mean {scenario.value} fault latency",
                 lambda m, scenario=scenario: m.fault_latency[scenario][0]),
          Anchor(f"fault.latency_p95.{scenario.value}", p95 * 0.95,
                 p95 * 1.05, "us", f"tail {scenario.value} fault latency",
                 lambda m, scenario=scenario: m.fault_latency[scenario][1]))),

    # 7. allocation cost
    *(Anchor(aid, expect * 0.9, expect * 1.1, "s", "allocation cost anchor",
             lambda m, kind=kind, size=size: m.alloc_time(kind, size))
      for aid, kind, size, expect in (
          ("alloc.libc.32b", _LIBC, 32, 14e-9),
          ("alloc.libc.1gib", _LIBC, 1 * GiB, 6e-6),
          ("alloc.device.16kib", _DEV, 16 * KiB, 10e-6),
          ("alloc.device.1gib", _DEV, 1 * GiB, 37e-3))),
    Anchor("alloc.upfront_flat", 0.0, 0.01, "cv",
           "up-front cost constant below the minimum physical allocation "
           "granularity", _upfront_small_cv),
    Anchor("alloc.libc_free_crossover", 1.0, 1.0, "bool",
           "free/alloc cost crossover at 16 MiB",
           lambda m: _free_alloc_crossover(m, _LIBC, (16 * MiB, 8 * MiB),
                                           32 * MiB)),
    Anchor("alloc.device_free_crossover", 1.0, 1.0, "bool",
           "free/alloc cost crossover at 2 MiB",
           lambda m: _free_alloc_crossover(m, _DEV, (2 * MiB, 1 * MiB),
                                           4 * MiB)),

    # 8. CPU-side fault counts in the streaming setup
    Anchor("faults.stream.libc", 472e3 * 0.98, 472e3 * 1.02, "faults",
           "CPU faults, CPU-init heap operands",
           lambda m: float(build_cpu_stream_stats(m.xnack_on, _LIBC, _CPU,
                                                  m.seed))),
    Anchor("faults.stream.upfront", 3700.0, 4600.0, "faults",
           "CPU faults, CPU-init up-front operands",
           lambda m: float(build_cpu_stream_stats(m.profile, _DEV, _CPU,
                                                  m.seed))),
    Anchor("faults.stream.gpu_init", 8000.0, 8900.0, "faults",
           "CPU faults, GPU-init up-front operands",
           lambda m: float(build_cpu_stream_stats(m.profile, _DEV, _GPU,
                                                  m.seed))),

    # 9. atomics trends
    Anchor("atomics.cpu_dtype_ratio", 3.0 * 0.85, 3.0 * 1.15, "x",
           "CPU integer/floating atomic rate ratio at low contention",
           lambda m: m.atomics(1 << 20, _U64, 1, 0).cpu_rate
           / m.atomics(1 << 20, _F64, 1, 0).cpu_rate),
    Anchor("atomics.gpu_dtype_equal", 0.0, 0.0, "updates/s",
           "GPU atomic rate is element-type independent",
           lambda m: abs(m.atomics(1 << 20, _U64, 0, 3328).gpu_rate
                         - m.atomics(1 << 20, _F64, 0, 3328).gpu_rate)),
    Anchor("atomics.hybrid_cpu_min", 0.11, 0.25, "x",
           "co-running CPU slowdown window, small array",
           lambda m: min(m.hybrid_cpu_ratios)),
    Anchor("atomics.hybrid_cpu_max", 0.11, 0.25, "x",
           "co-running CPU slowdown window, small array",
           lambda m: max(m.hybrid_cpu_ratios)),
    Anchor("atomics.gpu_floor", 0.79, 1.1, "x",
           "co-running GPU throughput floor",
           lambda m: min(1.0, *_gpu_hybrid_ratios(m, (1 << 10, 1 << 20),
                                                  tuple(atomics_mod.Dtype)))),
    Anchor("atomics.one_element_decreasing", 1.0, 1.0, "bool",
           "single-element CPU rate decreases with threads",
           lambda m: float(all(a > b for a, b in itertools.pairwise(
               [m.atomics(1, _U64, c, 0).cpu_rate
                for c in range(2, m.profile.cpu.cores + 1)])))),
    Anchor("atomics.hybrid_gpu_geomean", 0.99, 1.03, "x",
           "co-running GPU geometric-mean ratio, mid array",
           lambda m: float(np.exp(np.mean(np.log(
               _gpu_hybrid_ratios(m, (1 << 20,), (_U64,))))))),
    Anchor("atomics.hybrid_cpu_pocket", 1.0, 1.0, "bool",
           "co-running CPU speedup pocket (not forced by the model)",
           lambda m: float(any(r > 1.0 for r in m.hybrid_cpu_ratios)),
           hard=False),

    # 11. usage-counter visibility matrix
    Anchor("usage.matrix", 1.0, 1.0, "bool",
           "counter visibility matrix across kinds",
           lambda m: float(check_usage_matrix(m.profile, m.seed))),
)


def evaluate_anchors(profile: MachineProfile, seed: int = 0) -> list[AnchorResult]:
    """Run every anchored expectation against the simulator."""
    measurements = _Measurements(profile, seed)
    return [AnchorResult(a, value, a.lo <= value <= a.hi)
            for a in ANCHORS for value in (a.measure(measurements),)]


def expected_usage(profile: MachineProfile, kind: AllocatorKind,
                   stage: str, counter: UsageCounter, size: int,
                   touched: int) -> int:
    """Expected counter delta for the visibility matrix: libnuma and
    meminfo see all memory, hipMemGetInfo device memory only and the
    process RSS the rest."""
    if stage == "after_release":
        return 0
    device = KINDS[kind].device
    if (counter is UsageCounter.HIP_MEM_GET_INFO and not device
            or counter is UsageCounter.PROCESS_RSS and device):
        return 0
    if classify(kind, profile.xnack).physical is Policy.UP_FRONT:
        return size
    return touched


def _usage_tables(profile: MachineProfile, size, seed, stages):
    """(kind, usage_matrix) for every kind, in order, as they are read;
    one usage_matrix per placement key (memmgr.placement_key)."""
    table = functools.cache(lambda key: usage_matrix(*key, size, seed, stages))
    return ((kind, table(memmgr.placement_key(profile, kind)))
            for kind in AllocatorKind)


def check_usage_matrix(profile: MachineProfile, seed: int = 0) -> bool:
    size = 1 * GiB
    checked = (("after_alloc", 0), ("after_half_touch", size // 2),
               ("after_full_touch", size), ("after_release", 0))
    return all(table[(stage, c)] == expected_usage(profile, kind, stage, c,
                                                   size, touched)
               for kind, table in _usage_tables(profile, size, seed,
                                                len(checked))
               for stage, touched in checked for c in _USAGE_COUNTERS)


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

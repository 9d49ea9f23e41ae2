"""Machine description for the simulated unified-memory APU.

One MachineProfile carries every capacity, latency, bandwidth and
calibration constant the simulator needs. The built-in profile models an
MI300A-class part: 128 GiB HBM3 behind 8 stacks x 16 channels, a 256 MiB
memory-side cache shared by CPU and GPU, 228 GPU compute units and 24 CPU
cores, with dual page tables and optional fault replay (XNACK).

Profiles are immutable after construction and safe to share between
concurrently running experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import units

KiB = 1024
MiB = 1024**2
GiB = 1024**3


class ProfileParseError(ValueError):
    """Raised for malformed profile documents; carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ProfileValidationError(ValueError):
    """Raised when a loaded profile violates a machine invariant."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class GpuParams:
    l1_capacity: int = 16 * KiB
    l2_capacity: int = 4 * MiB
    l1_latency: float = 57.0          # ns, dependent-load hit
    l2_latency: float = 104.0
    ic_latency: float = 212.0
    hbm_latency: float = 350.0
    cus: int = 228
    tlb_entries: int = 32             # fragment-granular L1 TLB entries


@dataclass(frozen=True)
class CpuParams:
    l1_capacity: int = 32 * KiB
    l2_capacity: int = 1 * MiB
    l3_capacity: int = 96 * MiB
    l1_latency: float = 1.0           # ns
    l2_latency: float = 12.0
    l3_latency: float = 175.0
    ic_latency: float = 180.0
    hbm_latency: float = 241.0
    cores: int = 24


@dataclass(frozen=True)
class FaultScenarioParams:
    """Latency distribution and throughput saturation for one fault kind.

    The throughput curve is plateau * n / (n + half_saturation); the
    default half_saturation equals plateau * mean_latency - 1 so that the
    single-page rate matches the inverse mean latency exactly.
    """

    mean_latency_us: float
    p95_latency_us: float
    plateau_pages_per_s: float
    half_saturation_pages: float


@dataclass(frozen=True)
class FaultParams:
    cpu1: FaultScenarioParams = field(
        default_factory=lambda: FaultScenarioParams(9.0, 11.0, 872e3, 6.848))
    cpu12: FaultScenarioParams = field(
        default_factory=lambda: FaultScenarioParams(9.0, 11.0, 3.7e6, 32.3))
    gpu_minor: FaultScenarioParams = field(
        default_factory=lambda: FaultScenarioParams(16.0, 20.0, 9.0e6, 143.0))
    gpu_major: FaultScenarioParams = field(
        default_factory=lambda: FaultScenarioParams(18.0, 22.0, 1.1e6, 18.8))


@dataclass(frozen=True)
class BwModel:
    """Bandwidth model constants.

    walk_penalty and gpu_peak_fraction are calibration constants: the GPU
    TRIAD rate is  blended_peak * gpu_peak_fraction / (1 + misses_per_access
    * walk_penalty)  where blended_peak folds in the share of traffic the
    memory-side cache can serve for the allocation's channel balance.
    """

    walk_penalty: float = 6390.0
    gpu_peak_fraction: float = 0.5656
    cpu_bw_upfront: float = 208e9       # bytes/s
    cpu_bw_ondemand: float = 181e9
    cpu_per_thread_bw: float = 9e9
    static_managed_bw: float = 103e9
    memcpy_sdma_bw: float = 58e9
    memcpy_nosdma_bw: float = 850e9
    memcpy_d2d_bw: float = 1900e9
    gpu_stream_array_bytes: int = 256 * MiB
    cpu_stream_array_bytes: int = 610 * MiB
    stream_element_bytes: int = 8
    triad_iterations: int = 103


@dataclass(frozen=True)
class AtomicsModel:
    """Contention model constants for the histogram benchmark.

    Base rates are per-thread updates/s at zero contention; the absolute
    scale is a free calibration, only ratios and orderings are anchored.
    """

    cpu_native_rate: float = 1e8
    cpu_cas_rate: float = 1e8 / 3.0
    gpu_unit_rate: float = 2.5e7
    contention_alpha: float = 2.0       # CPU line ping-pong cost per collider
    cas_beta: float = 1.0               # extra CAS-loop cost per collider
    hybrid_gamma: float = 0.05          # CPU coherence penalty when co-running
    gpu_contention_alpha: float = 1.0
    gpu_atomic_width: int = 2048        # concurrent ops the L2 atomic units take
    cas_retry_cap: float = 16.0
    cpu_l2_span: int = 24 * MiB         # aggregate L2 reach for atomics data
    gpu_l2_span: int = 24 * MiB
    cpu_l2_cost_factor: float = 1.5
    cpu_mem_cost_factor: float = 4.0
    gpu_mem_cost_factor: float = 3.0


@dataclass(frozen=True)
class AllocTimeModel:
    """Anchors of the allocation/free cost curves (piecewise models)."""

    libc_small_ns: float = 14.0
    libc_mmap_threshold: int = 128 * KiB
    libc_1gib_us: float = 6.0
    upfront_granularity: int = 16 * KiB
    device_small_us: float = 10.0
    device_1gib_ms: float = 37.0
    pinned_small_us: float = 15.0
    pinned_1gib_ms: float = 200.0
    managed0_small_us: float = 34.0
    managed0_1gib_ms: float = 400.0
    registered_small_us: float = 20.0
    registered_1gib_ms: float = 250.0
    managed1_const_us: float = 20.0
    static_const_us: float = 1.0
    libc_free_small_factor: float = 0.7
    libc_free_crossover: int = 16 * MiB
    libc_free_slow_factor: float = 6.0   # free/alloc ratio at 2x crossover
    libc_free_cap: float = 9.0
    device_free_small_factor: float = 0.7
    device_free_crossover: int = 2 * MiB
    device_free_cap: float = 22.0        # reached at 256 MiB
    pinned_free_small_us: float = 220.0
    pinned_free_1gib_ms: float = 67.0
    managed1_free_us: float = 12.0


@dataclass(frozen=True)
class PlacementModel:
    """Physical frame placement constants.

    The frame pool is a buddy-style structure over power-of-two runs whose
    largest order is frame_block_pages. Kernel-path placements (host
    faulting and pinned host allocations) land in kernel_batch_pages
    contiguous aligned runs. CPU first-touch draws batches from channel
    groups with a Zipf bias of exponent scatter_zipf_scale*(1-degree),
    which is what starves the memory-side cache slices for on-demand host
    memory.
    """

    frame_block_pages: int = 128
    kernel_batch_pages: int = 16
    cpu_touch_scatter_degree: float = 0.75
    host_upfront_scatter_degree: float = 1.0
    scatter_zipf_scale: float = 4.2
    gpu_init_cpu_map_pages: int = 56    # CPU mapping grain after GPU first touch
    runtime_baseline_pages: int = 200   # process startup residency in fault counts


@dataclass(frozen=True)
class MachineProfile:
    hbm_capacity: int = 128 * GiB
    hbm_peak_bw: float = 5.3e12
    ic_capacity: int = 256 * MiB
    ic_peak_bw: float = 17.2e12
    stacks: int = 8
    channels_per_stack: int = 16
    interleave_granularity: int = 4096
    page_size: int = 4096
    fragment_field_bits: int = 5
    xnack: bool = True
    hip_cpu_map_granularity: int = 512 * KiB
    gpu: GpuParams = field(default_factory=GpuParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    fault: FaultParams = field(default_factory=FaultParams)
    bw_model: BwModel = field(default_factory=BwModel)
    atomics: AtomicsModel = field(default_factory=AtomicsModel)
    alloc_model: AllocTimeModel = field(default_factory=AllocTimeModel)
    placement: PlacementModel = field(default_factory=PlacementModel)

    @property
    def channels(self) -> int:
        return self.stacks * self.channels_per_stack

    @property
    def total_frames(self) -> int:
        return self.hbm_capacity // self.page_size

    @property
    def max_fragment(self) -> int:
        return (1 << self.fragment_field_bits) - 1


def builtin_mi300a() -> MachineProfile:
    """Return the built-in calibrated profile (bit-identical across calls)."""
    return MachineProfile()


# --------------------------------------------------------------------------
# Profile documents: dotted-key registry, parser, serializer, validation
# --------------------------------------------------------------------------

# (dotted key, attribute path, dimension)
_KEYS: list[tuple[str, tuple[str, ...], str]] = []


def _reg(key, path, dim):
    _KEYS.append((key, path, dim))


_reg("hbm_capacity", ("hbm_capacity",), units.BYTES)
_reg("hbm_peak_bw", ("hbm_peak_bw",), units.RATE)
_reg("ic_capacity", ("ic_capacity",), units.BYTES)
_reg("ic_peak_bw", ("ic_peak_bw",), units.RATE)
_reg("stacks", ("stacks",), units.COUNT)
_reg("channels_per_stack", ("channels_per_stack",), units.COUNT)
_reg("interleave_granularity", ("interleave_granularity",), units.BYTES)
_reg("page_size", ("page_size",), units.BYTES)
_reg("fragment_field_bits", ("fragment_field_bits",), units.COUNT)
_reg("xnack", ("xnack",), units.FLAG)
_reg("hip_cpu_map_granularity", ("hip_cpu_map_granularity",), units.BYTES)

for _f, _dim in [("l1_capacity", units.BYTES), ("l2_capacity", units.BYTES),
                 ("l1_latency", units.TIME_NS), ("l2_latency", units.TIME_NS),
                 ("ic_latency", units.TIME_NS), ("hbm_latency", units.TIME_NS),
                 ("cus", units.COUNT), ("tlb_entries", units.COUNT)]:
    _reg(f"gpu.{_f}", ("gpu", _f), _dim)

for _f, _dim in [("l1_capacity", units.BYTES), ("l2_capacity", units.BYTES),
                 ("l3_capacity", units.BYTES), ("l1_latency", units.TIME_NS),
                 ("l2_latency", units.TIME_NS), ("l3_latency", units.TIME_NS),
                 ("ic_latency", units.TIME_NS), ("hbm_latency", units.TIME_NS),
                 ("cores", units.COUNT)]:
    _reg(f"cpu.{_f}", ("cpu", _f), _dim)

for _s in ("cpu1", "cpu12", "gpu_minor", "gpu_major"):
    _reg(f"fault.{_s}.mean_latency", ("fault", _s, "mean_latency_us"), units.TIME_US)
    _reg(f"fault.{_s}.p95_latency", ("fault", _s, "p95_latency_us"), units.TIME_US)
    _reg(f"fault.{_s}.plateau", ("fault", _s, "plateau_pages_per_s"), units.SCALAR)
    _reg(f"fault.{_s}.half_saturation", ("fault", _s, "half_saturation_pages"), units.SCALAR)

for _f, _dim in [("walk_penalty", units.SCALAR), ("gpu_peak_fraction", units.SCALAR),
                 ("cpu_bw_upfront", units.RATE), ("cpu_bw_ondemand", units.RATE),
                 ("cpu_per_thread_bw", units.RATE), ("static_managed_bw", units.RATE),
                 ("memcpy_sdma_bw", units.RATE), ("memcpy_nosdma_bw", units.RATE),
                 ("memcpy_d2d_bw", units.RATE),
                 ("gpu_stream_array_bytes", units.BYTES),
                 ("cpu_stream_array_bytes", units.BYTES),
                 ("stream_element_bytes", units.BYTES),
                 ("triad_iterations", units.COUNT)]:
    _reg(f"bw_model.{_f}", ("bw_model", _f), _dim)

for _f, _dim in [("cpu_native_rate", units.SCALAR), ("cpu_cas_rate", units.SCALAR),
                 ("gpu_unit_rate", units.SCALAR), ("contention_alpha", units.SCALAR),
                 ("cas_beta", units.SCALAR), ("hybrid_gamma", units.SCALAR),
                 ("gpu_contention_alpha", units.SCALAR),
                 ("gpu_atomic_width", units.COUNT), ("cas_retry_cap", units.SCALAR),
                 ("cpu_l2_span", units.BYTES), ("gpu_l2_span", units.BYTES),
                 ("cpu_l2_cost_factor", units.SCALAR),
                 ("cpu_mem_cost_factor", units.SCALAR),
                 ("gpu_mem_cost_factor", units.SCALAR)]:
    _reg(f"atomics.{_f}", ("atomics", _f), _dim)

for _f, _dim in [("libc_small_ns", units.SCALAR), ("libc_mmap_threshold", units.BYTES),
                 ("libc_1gib_us", units.SCALAR), ("upfront_granularity", units.BYTES),
                 ("device_small_us", units.SCALAR), ("device_1gib_ms", units.SCALAR),
                 ("pinned_small_us", units.SCALAR), ("pinned_1gib_ms", units.SCALAR),
                 ("managed0_small_us", units.SCALAR), ("managed0_1gib_ms", units.SCALAR),
                 ("registered_small_us", units.SCALAR), ("registered_1gib_ms", units.SCALAR),
                 ("managed1_const_us", units.SCALAR), ("static_const_us", units.SCALAR),
                 ("libc_free_small_factor", units.SCALAR),
                 ("libc_free_crossover", units.BYTES),
                 ("libc_free_slow_factor", units.SCALAR), ("libc_free_cap", units.SCALAR),
                 ("device_free_small_factor", units.SCALAR),
                 ("device_free_crossover", units.BYTES),
                 ("device_free_cap", units.SCALAR),
                 ("pinned_free_small_us", units.SCALAR),
                 ("pinned_free_1gib_ms", units.SCALAR),
                 ("managed1_free_us", units.SCALAR)]:
    _reg(f"alloc_model.{_f}", ("alloc_model", _f), _dim)

for _f, _dim in [("frame_block_pages", units.COUNT), ("kernel_batch_pages", units.COUNT),
                 ("cpu_touch_scatter_degree", units.SCALAR),
                 ("host_upfront_scatter_degree", units.SCALAR),
                 ("scatter_zipf_scale", units.SCALAR),
                 ("gpu_init_cpu_map_pages", units.COUNT),
                 ("runtime_baseline_pages", units.COUNT)]:
    _reg(f"placement.{_f}", ("placement", _f), _dim)

_KEY_INDEX = {key: (path, dim) for key, path, dim in _KEYS}


def _get_path(profile, path):
    obj = profile
    for name in path:
        obj = getattr(obj, name)
    return obj


def _set_path(profile, path, value):
    """Return a copy of profile with path replaced (profiles are frozen)."""
    if len(path) == 1:
        return replace(profile, **{path[0]: value})
    inner = getattr(profile, path[0])
    new_inner = _set_path(inner, path[1:], value)
    return replace(profile, **{path[0]: new_inner})


def serialize_profile(profile: MachineProfile) -> str:
    lines = []
    for key, path, dim in _KEYS:
        lines.append(f"{key} = {units.format_value(_get_path(profile, path), dim)}")
    return "\n".join(lines) + "\n"


def load_profile(text: str) -> MachineProfile:
    """Parse a profile document; unset keys fall back to the built-in values.

    Raises ProfileParseError (with line number) for malformed lines or
    unknown keys, ProfileValidationError if the result breaks an invariant.
    """
    profile = builtin_mi300a()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProfileParseError(line_no, f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_INDEX:
            raise ProfileParseError(line_no, f"unknown key {key!r}")
        path, dim = _KEY_INDEX[key]
        try:
            parsed = units.parse_value(value, dim)
        except units.UnitError as exc:
            raise ProfileParseError(line_no, f"{key}: {exc}") from exc
        profile = _set_path(profile, path, parsed)
    violations = validate(profile)
    if violations:
        raise ProfileValidationError(violations)
    return profile


def validate(profile: MachineProfile) -> list[str]:
    """Return the list of violated invariants (empty when valid)."""
    v: list[str] = []

    def positive(name, value):
        if value <= 0:
            v.append(f"{name}: positive counts ({value!r})")

    for name in ("hbm_capacity", "hbm_peak_bw", "ic_capacity", "ic_peak_bw",
                 "stacks", "channels_per_stack", "interleave_granularity",
                 "page_size", "fragment_field_bits", "hip_cpu_map_granularity"):
        positive(name, getattr(profile, name))
    for name in ("l1_capacity", "l2_capacity", "cus", "tlb_entries"):
        positive(f"gpu.{name}", getattr(profile.gpu, name))
    for name in ("l1_capacity", "l2_capacity", "l3_capacity", "cores"):
        positive(f"cpu.{name}", getattr(profile.cpu, name))
    if v:
        return v

    g, c = profile.gpu, profile.cpu
    if not (g.l1_latency < g.l2_latency < g.ic_latency < g.hbm_latency):
        v.append("gpu latencies: latency ordering (l1 < l2 < ic < hbm)")
    if not (c.l1_latency < c.l2_latency < c.l3_latency < c.ic_latency
            < c.hbm_latency):
        v.append("cpu latencies: latency ordering (l1 < l2 < l3 < ic < hbm)")
    if not (g.l1_capacity < g.l2_capacity < profile.ic_capacity
            < profile.hbm_capacity):
        v.append("gpu capacities: capacity ordering (l1 < l2 < ic < hbm)")
    if not (c.l1_capacity < c.l2_capacity < c.l3_capacity
            < profile.ic_capacity):
        v.append("cpu capacities: capacity ordering (l1 < l2 < l3 < ic)")
    if profile.ic_capacity >= profile.hbm_capacity:
        v.append("ic_capacity: must be smaller than hbm_capacity")
    if profile.interleave_granularity != profile.page_size:
        v.append("interleave_granularity: must equal page_size")
    if profile.hbm_capacity % profile.page_size != 0:
        v.append("hbm_capacity: must be a whole number of pages")

    for rate_name in ("hbm_peak_bw", "ic_peak_bw"):
        positive(rate_name, getattr(profile, rate_name))
    for scen_name in ("cpu1", "cpu12", "gpu_minor", "gpu_major"):
        scen = getattr(profile.fault, scen_name)
        for f in ("mean_latency_us", "p95_latency_us", "plateau_pages_per_s",
                  "half_saturation_pages"):
            positive(f"fault.{scen_name}.{f}", getattr(scen, f))
        if scen.p95_latency_us < scen.mean_latency_us:
            v.append(f"fault.{scen_name}: p95 below mean")

    bw = profile.bw_model
    for f in ("gpu_peak_fraction", "cpu_bw_upfront", "cpu_bw_ondemand",
              "cpu_per_thread_bw", "static_managed_bw", "memcpy_sdma_bw",
              "memcpy_nosdma_bw", "memcpy_d2d_bw", "triad_iterations"):
        positive(f"bw_model.{f}", getattr(bw, f))
    if bw.walk_penalty < 0:
        v.append("bw_model.walk_penalty: must be non-negative")

    pl = profile.placement
    sizes_ok = True
    for name in ("frame_block_pages", "kernel_batch_pages"):
        value = getattr(pl, name)
        if value <= 0 or value & (value - 1):
            v.append(f"placement.{name}: must be a positive power of two "
                     f"({value!r})")
            sizes_ok = False
    if sizes_ok and pl.frame_block_pages % pl.kernel_batch_pages != 0:
        v.append("placement.frame_block_pages: must be a multiple of kernel_batch_pages")
    if not 0.0 <= pl.cpu_touch_scatter_degree <= 1.0:
        v.append("placement.cpu_touch_scatter_degree: outside [0, 1]")
    if not 0.0 <= pl.host_upfront_scatter_degree <= 1.0:
        v.append("placement.host_upfront_scatter_degree: outside [0, 1]")

    return v

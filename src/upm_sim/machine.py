"""Machine description for the simulated unified-memory APU.

One MachineProfile carries every capacity, latency, bandwidth and
calibration constant the simulator needs. The built-in profile models an
MI300A-class part: 128 GiB HBM3 behind 8 stacks x 16 channels, a 256 MiB
memory-side cache shared by CPU and GPU, 228 GPU compute units and 24 CPU
cores, with dual page tables and optional fault replay (XNACK).

Each leaf field's metadata declares its unit dimension, its check (byte,
rate, time and count values default to positive) and its document key
where that differs from the field name. The dotted-key table read by
load_profile, serialize_profile and validate is derived from the fields
once, at import; rules that span several fields live in validate.

Profiles are immutable after construction and safe to share between
concurrently running experiments.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import (MISSING, dataclass, field, fields, is_dataclass,
                         replace)

from . import units
from .pagetable import FRAME_LIMIT
from .units import BYTES, COUNT, FLAG, RATE, SCALAR, TIME_NS, TIME_US

KiB = 1024
MiB = 1024**2
GiB = 1024**3

Z95 = 1.6448536269514722  # standard normal 95th percentile


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


# Per-field checks: (what a valid value is, predicate).
POSITIVE = ("positive", lambda v: v > 0)
NON_NEGATIVE = ("non-negative", lambda v: v >= 0)
FRACTION = ("in [0, 1]", lambda v: 0 <= v <= 1)
POWER_OF_TWO = ("a positive power of two", lambda v: v > 0 and not v & (v - 1))

_DEFAULT_CHECK = {BYTES: POSITIVE, RATE: POSITIVE, TIME_NS: POSITIVE,
                  TIME_US: POSITIVE, COUNT: POSITIVE}


def _key(dim, default=MISSING, check=None, key=None):
    """A profile field: unit dimension, check and document key."""
    return field(default=default, metadata={
        "dim": dim, "check": check or _DEFAULT_CHECK.get(dim), "key": key})


@dataclass(frozen=True)
class GpuParams:
    l1_capacity: int = _key(BYTES, 16 * KiB)
    l2_capacity: int = _key(BYTES, 4 * MiB)
    l1_latency: float = _key(TIME_NS, 57.0)      # dependent-load hit
    l2_latency: float = _key(TIME_NS, 104.0)
    ic_latency: float = _key(TIME_NS, 212.0)
    hbm_latency: float = _key(TIME_NS, 350.0)
    cus: int = _key(COUNT, 228)
    tlb_entries: int = _key(COUNT, 32)           # fragment-granular L1 entries


@dataclass(frozen=True)
class CpuParams:
    l1_capacity: int = _key(BYTES, 32 * KiB)
    l2_capacity: int = _key(BYTES, 1 * MiB)
    l3_capacity: int = _key(BYTES, 96 * MiB)
    l1_latency: float = _key(TIME_NS, 1.0)
    l2_latency: float = _key(TIME_NS, 12.0)
    l3_latency: float = _key(TIME_NS, 175.0)
    ic_latency: float = _key(TIME_NS, 180.0)
    hbm_latency: float = _key(TIME_NS, 241.0)
    cores: int = _key(COUNT, 24)


def lognormal_misfit(mean: float, p95: float) -> str | None:
    """Why no lognormal has this mean and 95th percentile (None if one does).

    With mean = exp(mu + sigma^2/2) and p95 = exp(mu + z*sigma), the ratio
    p95/mean = exp(z*sigma - sigma^2/2) is at most exp(z^2/2), about 3.87.
    """
    if p95 < mean:
        return "p95 below mean"
    if math.log(p95 / mean) > Z95 * Z95 / 2.0:
        return "p95/mean ratio too large for a lognormal fit"
    return None


@dataclass(frozen=True)
class FaultScenarioParams:
    """Latency distribution and throughput saturation for one fault kind.

    The throughput curve is plateau * n / (n + half_saturation); the
    default half_saturation equals plateau * mean_latency - 1 so that the
    single-page rate matches the inverse mean latency exactly.
    """

    mean_latency_us: float = _key(TIME_US, key="mean_latency")
    p95_latency_us: float = _key(TIME_US, key="p95_latency")
    plateau_pages_per_s: float = _key(SCALAR, check=POSITIVE, key="plateau")
    half_saturation_pages: float = _key(SCALAR, check=POSITIVE,
                                        key="half_saturation")


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

    walk_penalty: float = _key(SCALAR, 6390.0, NON_NEGATIVE)
    gpu_peak_fraction: float = _key(SCALAR, 0.5656, POSITIVE)
    cpu_bw_upfront: float = _key(RATE, 208e9)
    cpu_bw_ondemand: float = _key(RATE, 181e9)
    cpu_per_thread_bw: float = _key(RATE, 9e9)
    static_managed_bw: float = _key(RATE, 103e9)
    memcpy_sdma_bw: float = _key(RATE, 58e9)
    memcpy_nosdma_bw: float = _key(RATE, 850e9)
    memcpy_d2d_bw: float = _key(RATE, 1900e9)
    gpu_stream_array_bytes: int = _key(BYTES, 256 * MiB)
    cpu_stream_array_bytes: int = _key(BYTES, 610 * MiB)
    stream_element_bytes: int = _key(BYTES, 8)
    triad_iterations: int = _key(COUNT, 103)


@dataclass(frozen=True)
class AtomicsModel:
    """Contention model constants for the histogram benchmark.

    Base rates are per-thread updates/s at zero contention; the absolute
    scale is a free calibration, only ratios and orderings are anchored.
    """

    cpu_native_rate: float = _key(SCALAR, 1e8, POSITIVE)
    cpu_cas_rate: float = _key(SCALAR, 1e8 / 3.0, POSITIVE)
    gpu_unit_rate: float = _key(SCALAR, 2.5e7, POSITIVE)
    # Contention costs: CPU line ping-pong and extra CAS loops per collider,
    # CPU coherence penalty when co-running, GPU cost per collider.
    contention_alpha: float = _key(SCALAR, 2.0, NON_NEGATIVE)
    cas_beta: float = _key(SCALAR, 1.0, NON_NEGATIVE)
    hybrid_gamma: float = _key(SCALAR, 0.05, NON_NEGATIVE)
    gpu_contention_alpha: float = _key(SCALAR, 1.0, NON_NEGATIVE)
    gpu_atomic_width: int = _key(COUNT, 2048)    # ops the L2 atomic units take
    cas_retry_cap: float = _key(SCALAR, 16.0, POSITIVE)
    cpu_l2_span: int = _key(BYTES, 24 * MiB)     # aggregate L2 reach for data
    gpu_l2_span: int = _key(BYTES, 24 * MiB)
    cpu_l2_cost_factor: float = _key(SCALAR, 1.5, POSITIVE)
    cpu_mem_cost_factor: float = _key(SCALAR, 4.0, POSITIVE)
    gpu_mem_cost_factor: float = _key(SCALAR, 3.0, POSITIVE)


@dataclass(frozen=True)
class AllocTimeModel:
    """Anchors of the allocation/free cost curves (piecewise models)."""

    libc_small_ns: float = _key(SCALAR, 14.0, NON_NEGATIVE)
    libc_mmap_threshold: int = _key(BYTES, 128 * KiB)
    libc_1gib_us: float = _key(SCALAR, 6.0, NON_NEGATIVE)
    upfront_granularity: int = _key(BYTES, 16 * KiB)
    device_small_us: float = _key(SCALAR, 10.0, NON_NEGATIVE)
    device_1gib_ms: float = _key(SCALAR, 37.0, NON_NEGATIVE)
    pinned_small_us: float = _key(SCALAR, 15.0, NON_NEGATIVE)
    pinned_1gib_ms: float = _key(SCALAR, 200.0, NON_NEGATIVE)
    managed0_small_us: float = _key(SCALAR, 34.0, NON_NEGATIVE)
    managed0_1gib_ms: float = _key(SCALAR, 400.0, NON_NEGATIVE)
    registered_small_us: float = _key(SCALAR, 20.0, NON_NEGATIVE)
    registered_1gib_ms: float = _key(SCALAR, 250.0, NON_NEGATIVE)
    managed1_const_us: float = _key(SCALAR, 20.0, NON_NEGATIVE)
    static_const_us: float = _key(SCALAR, 1.0, NON_NEGATIVE)
    libc_free_small_factor: float = _key(SCALAR, 0.7, NON_NEGATIVE)
    libc_free_crossover: int = _key(BYTES, 16 * MiB)
    libc_free_slow_factor: float = _key(SCALAR, 6.0, NON_NEGATIVE)  # at 2x
    libc_free_cap: float = _key(SCALAR, 9.0, NON_NEGATIVE)
    device_free_small_factor: float = _key(SCALAR, 0.7, NON_NEGATIVE)
    device_free_crossover: int = _key(BYTES, 2 * MiB)
    device_free_cap: float = _key(SCALAR, 22.0, NON_NEGATIVE)  # at 256 MiB
    pinned_free_small_us: float = _key(SCALAR, 220.0, NON_NEGATIVE)
    pinned_free_1gib_ms: float = _key(SCALAR, 67.0, NON_NEGATIVE)
    managed1_free_us: float = _key(SCALAR, 12.0, NON_NEGATIVE)


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

    frame_block_pages: int = _key(COUNT, 128, POWER_OF_TWO)
    kernel_batch_pages: int = _key(COUNT, 16, POWER_OF_TWO)
    cpu_touch_scatter_degree: float = _key(SCALAR, 0.75, FRACTION)
    host_upfront_scatter_degree: float = _key(SCALAR, 1.0, FRACTION)
    scatter_zipf_scale: float = _key(SCALAR, 4.2, NON_NEGATIVE)
    gpu_init_cpu_map_pages: int = _key(COUNT, 56)    # CPU map grain, GPU-init
    runtime_baseline_pages: int = _key(COUNT, 200)   # startup residency


@dataclass(frozen=True)
class MachineProfile:
    hbm_capacity: int = _key(BYTES, 128 * GiB)   # below 2^31 pages
    hbm_peak_bw: float = _key(RATE, 5.3e12)
    ic_capacity: int = _key(BYTES, 256 * MiB)
    ic_peak_bw: float = _key(RATE, 17.2e12)
    stacks: int = _key(COUNT, 8)
    channels_per_stack: int = _key(COUNT, 16)
    interleave_granularity: int = _key(BYTES, 4096)
    page_size: int = _key(BYTES, 4096)
    fragment_field_bits: int = _key(COUNT, 5)
    xnack: bool = _key(FLAG, True)
    hip_cpu_map_granularity: int = _key(BYTES, 512 * KiB)
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
# Profile documents: dotted-key table, parser, serializer, validation
# --------------------------------------------------------------------------

def _key_table(cls, path=(), prefix=""):
    """(dotted key, attribute path, dimension, check) of every leaf field."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _key_table(hints[f.name], path + (f.name,),
                                  f"{prefix}{f.name}.")
        else:
            yield (prefix + (f.metadata["key"] or f.name), path + (f.name,),
                   f.metadata["dim"], f.metadata["check"])


_KEYS = tuple(_key_table(MachineProfile))
_KEY_INDEX = {key: (path, dim) for key, path, dim, _ in _KEYS}


def _get_path(profile, path):
    return functools.reduce(getattr, path, profile)


def _set_path(profile, path, value):
    """Return a copy of profile with path replaced (profiles are frozen)."""
    if len(path) > 1:
        value = _set_path(getattr(profile, path[0]), path[1:], value)
    return replace(profile, **{path[0]: value})


def serialize_profile(profile: MachineProfile) -> str:
    return "".join(
        f"{key} = {units.format_value(_get_path(profile, path), dim)}\n"
        for key, path, dim, _ in _KEYS)


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
            raise ProfileParseError(line_no,
                                    f"expected 'key = value', got {raw!r}")
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
    """Return the list of violated invariants (empty when valid); the
    cross-field rules run only once every field check passes."""
    v: list[str] = []
    for key, path, _, check in _KEYS:
        value = _get_path(profile, path)
        if check is not None and not check[1](value):
            v.append(f"{key}: must be {check[0]} ({value!r})")
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
    if profile.total_frames >= FRAME_LIMIT:
        v.append("hbm_capacity: must be fewer than 2^31 pages, so that "
                 "every frame number fits the page table's int32 entries")
    if profile.hip_cpu_map_granularity % profile.page_size != 0:
        v.append("hip_cpu_map_granularity: must be a whole number of pages")
    bw = profile.bw_model
    if bw.gpu_stream_array_bytes < bw.stream_element_bytes:
        v.append("bw_model.gpu_stream_array_bytes: must hold one stream element")
    for f in fields(profile.fault):
        scen = getattr(profile.fault, f.name)
        misfit = lognormal_misfit(scen.mean_latency_us, scen.p95_latency_us)
        if misfit:
            v.append(f"fault.{f.name}.p95_latency: {misfit}")
    pl = profile.placement
    if pl.frame_block_pages % pl.kernel_batch_pages != 0:
        v.append("placement.frame_block_pages: must be a multiple of "
                 "kernel_batch_pages")
    return v

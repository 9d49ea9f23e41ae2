import math

import pytest

from upm_sim import harness, machine
from upm_sim.fault import LatencyModel
from upm_sim.machine import (GiB, KiB, MiB, ProfileParseError,
                             ProfileValidationError, builtin_mi300a,
                             load_profile, serialize_profile, validate)

# (dotted key, check) of every checked key, read from the derived table.
CHECKED_KEYS = [(key, check) for key, _, _, check in machine._KEYS if check]

# A value each check rejects.
BAD_VALUE = {machine.POSITIVE: "0", machine.POWER_OF_TWO: "0",
             machine.NON_NEGATIVE: "-1", machine.FRACTION: "1.5"}

# One-line documents that used to load and then crash `verify` with a
# traceback (division by zero, zero-size allocations, lognormal fit).
CRASH_DOCS = [
    "bw_model.gpu_stream_array_bytes = 0",
    "bw_model.cpu_stream_array_bytes = -1",
    "bw_model.stream_element_bytes = 0",
    "bw_model.gpu_stream_array_bytes = 1",
    "atomics.cpu_native_rate = 0",
    "atomics.cpu_cas_rate = 0",
    "atomics.gpu_unit_rate = 0",
    "atomics.contention_alpha = -1",
    "atomics.hybrid_gamma = -1",
    "atomics.gpu_atomic_width = 0",
    "atomics.cas_retry_cap = -1",
    "atomics.cpu_l2_cost_factor = 0",
    "atomics.cpu_mem_cost_factor = 0",
    "atomics.gpu_mem_cost_factor = 0",
    "alloc_model.libc_free_crossover = 0",
    "placement.gpu_init_cpu_map_pages = 0",
    "placement.runtime_baseline_pages = 0",
    "hip_cpu_map_granularity = 1KiB",
    "fault.cpu1.p95_latency = 200us",
]


def test_builtin_headline_values():
    p = builtin_mi300a()
    assert p.hbm_capacity == 137_438_953_472
    assert p.hbm_peak_bw == 5.3e12
    assert p.ic_capacity == 256 * MiB
    assert p.ic_peak_bw == 17.2e12
    assert p.stacks == 8
    assert p.channels_per_stack == 16
    assert p.channels == 128
    assert p.page_size == 4096
    assert p.interleave_granularity == 4096
    assert p.fragment_field_bits == 5
    assert p.max_fragment == 31
    assert p.gpu.cus == 228
    assert p.cpu.cores == 24
    assert p.xnack is True


def test_builtin_latency_anchors():
    p = builtin_mi300a()
    assert p.gpu.l1_latency == 57.0
    assert p.cpu.l1_latency == 1.0
    # Asymptotic memory latency sits inside the measured 4 GiB window so
    # the capacity-weighted chase lands mid-window.
    assert 333.0 <= p.gpu.hbm_latency <= 350.0
    assert 236.0 <= p.cpu.hbm_latency <= 246.0
    assert p.cpu.l3_capacity == 96 * MiB


def test_builtin_fault_scenarios():
    p = builtin_mi300a()
    assert p.fault.cpu1.plateau_pages_per_s == 872e3
    assert p.fault.cpu12.plateau_pages_per_s == 3.7e6
    assert p.fault.gpu_minor.plateau_pages_per_s == 9.0e6
    assert p.fault.gpu_major.plateau_pages_per_s == 1.1e6
    assert (p.fault.cpu1.mean_latency_us, p.fault.cpu1.p95_latency_us) == (9, 11)
    assert (p.fault.gpu_minor.mean_latency_us,
            p.fault.gpu_minor.p95_latency_us) == (16, 20)
    assert (p.fault.gpu_major.mean_latency_us,
            p.fault.gpu_major.p95_latency_us) == (18, 22)


def test_builtin_bandwidth_constants():
    p = builtin_mi300a()
    assert p.bw_model.cpu_bw_upfront == 208e9
    assert p.bw_model.cpu_bw_ondemand == 181e9
    assert p.bw_model.static_managed_bw == 103e9
    assert p.bw_model.memcpy_sdma_bw == 58e9
    assert p.bw_model.memcpy_nosdma_bw == 850e9
    assert p.bw_model.memcpy_d2d_bw == 1900e9


def test_builtin_is_bit_identical_and_valid():
    a, b = builtin_mi300a(), builtin_mi300a()
    assert a == b
    assert serialize_profile(a) == serialize_profile(b)
    assert validate(a) == []


def test_empty_document_equals_builtin():
    assert load_profile("") == builtin_mi300a()
    assert load_profile("# only a comment\n\n") == builtin_mi300a()


def test_round_trip():
    p = builtin_mi300a()
    assert load_profile(serialize_profile(p)) == p


def test_single_key_override():
    p = load_profile("gpu.l1_latency = 60\n")
    base = builtin_mi300a()
    assert p.gpu.l1_latency == 60.0
    assert p.gpu.l2_latency == base.gpu.l2_latency
    # only that key differs
    assert load_profile(serialize_profile(p).replace(
        "gpu.l1_latency = 60.0", "gpu.l1_latency = 57.0")) == base


def test_suffix_parsing():
    p = load_profile("ic_capacity = 256MiB\n"
                     "hbm_peak_bw = 5.3TBps\n"
                     "gpu.l1_latency = 57ns\n"
                     "fault.cpu1.mean_latency = 9us\n")
    assert p.ic_capacity == 256 * MiB
    assert p.hbm_peak_bw == 5.3e12
    assert p.gpu.l1_latency == 57.0
    assert p.fault.cpu1.mean_latency_us == 9.0


@pytest.mark.parametrize("value", ["1e400", "-1e400"])
def test_non_finite_numbers_are_rejected(value):
    with pytest.raises(ProfileParseError) as err:
        load_profile(f"hbm_peak_bw = {value}\n")
    assert "line 1" in str(err.value) and "not finite" in str(err.value)


def test_unknown_key_reports_line():
    with pytest.raises(ProfileParseError) as err:
        load_profile("hbm_capacity = 128GiB\nnot.a.key = 3\n")
    assert "line 2" in str(err.value)


def test_malformed_line_reports_line():
    with pytest.raises(ProfileParseError) as err:
        load_profile("gpu.l1_latency 60\n")
    assert "line 1" in str(err.value)


def test_validation_error_on_capacity_inversion():
    with pytest.raises(ProfileValidationError) as err:
        load_profile(f"ic_capacity = {256 * GiB}\n")
    assert any("hbm" in v for v in err.value.violations)


def test_validate_reports_latency_ordering():
    bad = load_profile("")
    bad = machine._set_path(bad, ("cpu", "l1_latency"), 500.0)
    violations = validate(bad)
    assert any("latency ordering" in v for v in violations)


def test_validate_reports_positive_counts():
    bad = machine._set_path(builtin_mi300a(), ("channels_per_stack",), 0)
    assert any("positive" in v for v in validate(bad))


def test_validate_capacity_orderings():
    bad = machine._set_path(builtin_mi300a(), ("gpu", "l2_capacity"), 8 * KiB)
    assert any("capacity ordering" in v for v in validate(bad))


@pytest.mark.parametrize("doc", [
    "placement.frame_block_pages = 96\n",
    "placement.kernel_batch_pages = 12\n",
    "placement.kernel_batch_pages = 0\n",
])
def test_load_profile_rejects_non_power_of_two_placement_sizes(doc):
    with pytest.raises(ProfileValidationError) as err:
        load_profile(doc)
    assert any("power of two" in v for v in err.value.violations)


def test_power_of_two_placement_sizes_load():
    p = load_profile("placement.frame_block_pages = 256\n"
                     "placement.kernel_batch_pages = 32\n")
    assert (p.placement.frame_block_pages, p.placement.kernel_batch_pages) \
        == (256, 32)


def test_key_table_has_every_check_kind():
    assert {check for _, check in CHECKED_KEYS} == set(BAD_VALUE)
    unchecked = [key for key, _, _, check in machine._KEYS if not check]
    assert unchecked == ["xnack"]


@pytest.mark.parametrize("key,check", CHECKED_KEYS,
                         ids=[key for key, _ in CHECKED_KEYS])
def test_field_check_rejects_bad_value(key, check):
    with pytest.raises(ProfileValidationError) as err:
        load_profile(f"{key} = {BAD_VALUE[check]}\n")
    assert any(v.startswith(f"{key}: must be {check[0]}")
               for v in err.value.violations)


@pytest.mark.parametrize("doc", CRASH_DOCS)
def test_crash_documents_are_rejected(doc):
    key = doc.partition(" = ")[0]
    with pytest.raises(ProfileValidationError) as err:
        load_profile(doc)
    assert any(v.startswith(f"{key}:") for v in err.value.violations)


def test_hip_map_granularity_must_be_whole_pages():
    for doc in ("hip_cpu_map_granularity = 6KiB",
                "page_size = 8KiB\ninterleave_granularity = 8KiB\n"
                "hip_cpu_map_granularity = 12KiB"):
        with pytest.raises(ProfileValidationError) as err:
            load_profile(doc)
        assert any(v.startswith("hip_cpu_map_granularity:")
                   for v in err.value.violations)
    p = load_profile("hip_cpu_map_granularity = 8KiB")
    rows = harness.run(p, harness.WorkloadSpec(
        benchmark="usage", grid={"kind": ["managed"], "size": [1 * MiB]}))
    assert all(r["metric"] == "bytes_used" for r in rows)


def test_fault_p95_must_admit_a_lognormal():
    widest = 9.0 * math.exp(machine.Z95 ** 2 / 2.0)
    p = load_profile(f"fault.cpu1.p95_latency = {widest * (1 - 1e-9)!r}")
    LatencyModel(p)
    rows = harness.run(p, harness.WorkloadSpec(
        benchmark="fault", grid={"scenario": ["cpu1"], "pages": [1],
                                 "samples": [100]}))
    assert all(r["metric"] != "error" for r in rows)
    for p95 in (widest * (1 + 1e-9), 8.0):
        with pytest.raises(ProfileValidationError) as err:
            load_profile(f"fault.cpu1.p95_latency = {p95!r}")
        assert any(v.startswith("fault.cpu1.p95_latency:")
                   for v in err.value.violations)

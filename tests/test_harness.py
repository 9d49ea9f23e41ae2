import itertools
import math
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from upm_sim import cli, fault, harness, perf, tlb
from upm_sim.harness import WorkloadSpec, report, run, verify
from upm_sim.machine import GiB, MiB, builtin_mi300a, serialize_profile
from upm_sim.memmgr import (KINDS, Agent, AllocatorKind, MemoryManager,
                            Policy, UsageCounter, classify)
from upm_sim.pagetable import GPU, DualTable


@pytest.fixture(scope="module")
def profile():
    return builtin_mi300a()


SMALL_GRIDS = {
    "latency": {"size": [4096, 1 * MiB], "kind": ["device"], "agent": ["gpu"]},
    "alloc": {"size": [32, 1 * MiB], "kind": ["malloc", "device"]},
    "fault": {"pages": [1, 1000]},
    "memcpy": {},
    "atomics": {"array_len": [1 << 10], "cpu_threads": [1, 12],
                "gpu_threads": [64]},
}


def test_run_rejects_unknown_benchmark(profile):
    with pytest.raises(harness.UsageError):
        run(profile, WorkloadSpec(benchmark="nope"))


def test_report_empty_rows_header_only():
    assert report([]) == "benchmark,metric,value,unit\n"


def test_report_single_row_two_lines(profile):
    rows = run(profile, WorkloadSpec("memcpy", {"pair": [
        "device_up_front:device_up_front"], "sdma": [True]}))
    text = report(rows[:1])
    assert len(text.splitlines()) == 2
    header = text.splitlines()[0]
    assert header == "benchmark,src,dst,sdma,metric,value,unit"


def test_report_table_format(profile):
    rows = run(profile, WorkloadSpec("memcpy"))
    text = report(rows, "table")
    assert "bytes/s" in text
    assert "," not in text.splitlines()[0]


@pytest.mark.parametrize("bench", sorted(SMALL_GRIDS))
def test_runs_deterministic(profile, bench):
    spec = WorkloadSpec(bench, SMALL_GRIDS[bench], seed=5)
    text1 = report(run(profile, spec))
    text2 = report(run(profile, spec))
    assert text1 == text2


def test_latency_curve_plateaus(profile):
    spec = WorkloadSpec("latency", {"kind": ["device"], "agent": ["gpu"],
                                    "size": [1024, 1 * MiB, 128 * MiB,
                                             4 * GiB]})
    rows = [r for r in run(profile, spec) if r["metric"] == "latency"]
    values = [r["value"] for r in rows]
    assert values[0] == 57.0
    assert 100 <= values[1] <= 108
    assert 205 <= values[2] <= 218
    assert 333 <= values[3] <= 350


def test_stream_reports_five_allocator_miss_counts(profile):
    spec = WorkloadSpec("stream", {
        "agent": ["gpu"], "init": ["cpu"],
        "kind": ["malloc", "registered", "device", "pinned", "managed"]})
    rows = run(profile, spec)
    miss_rows = [r for r in rows if r["metric"] == "TCP_UTCL1_TRANSLATION_MISS"]
    assert len(miss_rows) == 5
    by_kind = {r["kind"]: r["value"] for r in miss_rows}
    assert by_kind["device_up_front"] == min(by_kind.values())


def test_stream_gpu_rows_once_per_kind_and_init(profile):
    spec = WorkloadSpec("stream", {"agent": ["gpu", "cpu"], "kind": ["device"],
                                   "init": ["cpu"], "threads": ["1", "96"]})
    rows = [(r["agent"], r["threads"], r["metric"]) for r in run(profile, spec)]
    assert rows == [("gpu", 1, "bandwidth"),
                    ("gpu", 1, "TCP_UTCL1_TRANSLATION_MISS"),
                    ("cpu", 1, "bandwidth"), ("cpu", 1, "cpu_page_faults"),
                    ("cpu", 96, "bandwidth"), ("cpu", 96, "cpu_page_faults")]


def test_fault_bench_reports_access_violation_without_replay(profile):
    p0 = replace(profile, xnack=False)
    rows = run(p0, WorkloadSpec("fault", {"pages": [1, 100]}))
    errors = [r for r in rows if r["metric"] == "error"]
    assert any(r["scenario"] == "gpu_major" for r in errors)
    assert any(r["scenario"] == "gpu_minor" for r in errors)
    assert all(r["unit"] == "AccessViolation" for r in errors)
    ok = [r for r in rows if r["scenario"].startswith("cpu")
          and r["metric"] == "throughput"]
    assert ok


def test_usage_stream_setup_three_arrays(profile):
    spec = WorkloadSpec("usage", {"kind": ["device"]})
    rows = run(profile, spec)
    setup = {(r["counter"]): r["value"] for r in rows
             if r["stage"] == "stream_setup"}
    assert setup["hip_mem_get_info"] == \
        3 * profile.bw_model.gpu_stream_array_bytes
    assert setup["process_rss"] == 0


def test_p95_is_numpy_percentile_bit_for_bit():
    rng = np.random.default_rng(95)
    sizes = list(range(1, 100)) + rng.integers(100, 200_000, 40).tolist() \
        + [100_000, 200_000]
    for n in sizes:
        x = rng.lognormal(1.0, 0.8, size=n)
        if n % 3 == 0:  # ties at the order statistics
            x = np.round(x, 1)
        assert harness._p95(x) == float(np.percentile(x, 95)), n


def test_verify_builtin_all_hard_pass(profile):
    rep = verify(profile, seed=0)
    assert rep.hard_failures == 0
    lines = rep.lines()
    assert any(line.startswith("PASS") for line in lines)


def test_verify_loads_each_chase_once(profile):
    # Ten chases; the GPU and CPU chases of device memory at 1 KiB and at
    # 4 GiB share their loads.
    harness._chase_load.cache_clear()
    verify(profile, seed=0)
    info = harness._chase_load.cache_info()
    assert (info.misses, info.hits) == (8, 2)


def test_anchor_table_orders_verify_and_draws_each_latency_once(
        profile, monkeypatch):
    # Each fault-latency scenario is drawn once and read by both its mean
    # and its p95 anchor.
    sample = fault.LatencyModel.sample
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return sample(self, *args, **kwargs)

    monkeypatch.setattr(fault.LatencyModel, "sample", counted)
    lines = verify(profile, seed=0).lines()
    ids = [a.id for a in harness.ANCHORS]
    assert len(ids) == len(set(ids)) == 55
    assert ids == [line.split()[1] for line in lines[:-1]]
    assert calls == [fault.Scenario.CPU1, fault.Scenario.GPU_MINOR,
                     fault.Scenario.GPU_MAJOR]


@pytest.mark.parametrize("kind", list(AllocatorKind), ids=lambda k: k.value)
def test_usage_matrix_simulates_only_the_stages_asked_for(profile, kind,
                                                          monkeypatch):
    full = harness.usage_matrix(profile, kind, 1 * GiB)
    allocate = MemoryManager.allocate
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return allocate(self, *args, **kwargs)

    monkeypatch.setattr(MemoryManager, "allocate", counted)
    four = harness.usage_matrix(profile, kind, 1 * GiB, stages=4)
    assert four == {key: value for key, value in full.items()
                    if key[0] != "stream_setup"}
    assert calls == [kind]  # the stream arrays are never allocated


# The hard anchors that fail when one scatter degree is 0: each depends on
# the placement mechanism that degree controls. The soft anchor
# atomics.hybrid_cpu_pocket warns in every profile.
CPU_TOUCH_SCATTER_ANCHORS = {
    "latency.cpu.512mib.ondemand", "latency.cpu.512mib.separation",
    "bw.gpu.libc", "bw.gpu.managed.ondemand", "tlb.miss_ratio"}
HOST_UPFRONT_SCATTER_ANCHORS = {
    "bw.gpu.pinned", "bw.gpu.registered", "bw.gpu.managed.upfront"}


def _failures(rep):
    hard = {r.anchor.id for r in rep.results if r.anchor.hard and not r.passed}
    soft = {r.anchor.id for r in rep.results
            if not r.anchor.hard and not r.passed}
    return hard, soft


def _with_scatter(profile, **degrees):
    return replace(profile, placement=replace(profile.placement, **degrees))


@pytest.mark.parametrize("degree, failing", [
    ("cpu_touch_scatter_degree", CPU_TOUCH_SCATTER_ANCHORS),
    ("host_upfront_scatter_degree", HOST_UPFRONT_SCATTER_ANCHORS),
], ids=["cpu_touch", "host_upfront"])
def test_one_scatter_degree_zero_fails_exactly_its_anchors(profile, degree,
                                                           failing):
    rep = verify(_with_scatter(profile, **{degree: 0.0}), seed=0)
    assert _failures(rep) == (failing, {"atomics.hybrid_cpu_pocket"})


def test_sequential_placement_profile_runs_verify_and_usage(profile):
    # With both scatter degrees 0 every batch draw is ascending
    # sequential, which no other profile reaches. Exactly the anchors of
    # both mechanisms fail; nothing may raise, and a run with cold caches
    # repeats every byte.
    sequential = _with_scatter(profile, cpu_touch_scatter_degree=0.0,
                               host_upfront_scatter_degree=0.0)
    outputs = []
    for _ in range(2):
        for cache in (harness._chase_load, harness.build_cpu_stream_stats,
                      perf.build_triad_workset):
            cache.cache_clear()
        rep = verify(sequential, seed=0)
        usage = run(sequential, WorkloadSpec("usage", {}, seed=0))
        outputs.append("\n".join(rep.lines()) + report(usage))
    assert len(rep.results) == 55
    assert _failures(rep) == (
        CPU_TOUCH_SCATTER_ANCHORS | HOST_UPFRONT_SCATTER_ANCHORS,
        {"atomics.hybrid_cpu_pocket"})
    assert outputs[0] == outputs[1]


def test_verify_negative_control_walk_penalty(profile):
    broken = replace(profile,
                     bw_model=replace(profile.bw_model, walk_penalty=0.0))
    rep = verify(broken, seed=0)
    failed = {r.anchor.id for r in rep.results if not r.passed}
    assert "bw.gpu.device" in failed or "bw.gpu.pinned" in failed
    assert rep.hard_failures > 0


def test_verify_zero_small_allocation_cost_is_flat(profile):
    # Every small pinned allocation then costs 0 s: a flat series, whose
    # CV must be 0 and not the 0/0 of a division.
    free = replace(profile, alloc_model=replace(profile.alloc_model,
                                                pinned_small_us=0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify(free, seed=0)
    flat = next(r for r in rep.results if r.anchor.id == "alloc.upfront_flat")
    assert math.isfinite(flat.value) and flat.passed


# -- CLI ---------------------------------------------------------------------

def test_cli_run_csv(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = cli.main(["run", "memcpy", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "benchmark,src,dst,sdma,metric,value,unit"


def test_cli_run_deterministic_stdout(capsys):
    assert cli.main(["run", "memcpy", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["run", "memcpy", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_cli_grid_parsing(capsys):
    code = cli.main(["run", "alloc", "--grid", "kind=malloc",
                     "--grid", "size=32,1MiB"])
    assert code == 0
    out = capsys.readouterr().out
    assert "libc_on_demand,32" in out
    assert f"libc_on_demand,{1 * MiB}" in out


def test_cli_usage_errors_exit_one(capsys):
    assert cli.main(["run", "no_such_bench"]) == 1
    capsys.readouterr()
    assert cli.main(["run", "alloc", "--grid", "kind=warp_drive"]) == 1


@pytest.mark.parametrize("argv", [
    ["run", "alloc", "--grid", "size=0"],
    ["run", "latency", "--grid", "size=200GiB", "--grid", "kind=device",
     "--grid", "agent=gpu"],
    ["run", "atomics", "--grid", "gpu_threads=65"],
    ["run", "fault", "--grid", "scenario=nope"],
    ["run", "stream", "--grid", "agent=cpu", "--grid", "threads=0"],
    ["run", "latency", "--grid", "size=abc"],
    ["run", "fault", "--grid", "samples=0"],
    ["run", "stream", "--grid", "agent=cpu", "--grid", "threads=1.5"],
    ["run", "fault", "--grid", "pages=1.5"],
    ["run", "memcpy", "--grid", "sdma=2"],
], ids=["zero-size", "out-of-memory", "gpu-threads", "scenario", "threads",
        "text-size", "zero-samples", "fractional-threads", "fractional-pages",
        "sdma-not-a-flag"])
def test_cli_bad_grid_value_is_one_line(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("upm-sim: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("size", ["1.5", "0.4"])
def test_cli_fractional_byte_size_is_one_line(capsys, size):
    argv = ["run", "alloc", "--grid", "kind=malloc", "--grid", f"size={size}"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"upm-sim: bad value {size!r} for grid key "
                            f"'size': byte value must be a whole number of "
                            f"bytes, got {size!r}\n")


@pytest.mark.parametrize("bench,item,column", [
    ("fault", "scenario= CPU1 ", "cpu1"),
    ("atomics", "dtype=FP64", "fp64"),
])
def test_cli_enum_grid_values_ignore_case(capsys, bench, item, column):
    assert cli.main(["run", bench, "--grid", item]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    at = header.split(",").index(item.partition("=")[0])
    assert rows[0].split(",")[at] == column


@pytest.mark.parametrize("bench", harness.BENCHMARK_NAMES)
def test_cli_unknown_grid_key_is_one_line(capsys, bench):
    assert cli.main(["run", bench, "--grid", "bogus=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"upm-sim: unknown grid key 'bogus' for "
                            f"{bench}; choose from "
                            f"{', '.join(harness.grid_keys(bench))}\n")


def test_cli_memcpy_pair_is_src_colon_dst(capsys):
    assert cli.main(["run", "memcpy", "--grid", "pair=malloc:device"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[1:4] for r in rows] == [
        ["libc_on_demand", "device_up_front", "1"],
        ["libc_on_demand", "device_up_front", "0"]]
    for pair in ("malloc", "ab"):
        assert cli.main(["run", "memcpy", "--grid", f"pair={pair}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"upm-sim: bad value {pair!r} for grid key "
                                f"'pair': expected SRC:DST, got {pair!r}\n")


@pytest.mark.parametrize("bench,item", [
    ("usage", "size=1MiB,2MiB"),
    ("alloc", "chunks=1,1000"),
    ("fault", "samples=10,20"),
])
def test_cli_one_value_key_rejects_two(capsys, bench, item):
    assert cli.main(["run", bench, "--grid", item]) == 1
    captured = capsys.readouterr()
    key = item.partition("=")[0]
    assert captured.out == ""
    assert captured.err == (f"upm-sim: grid key {key!r} of {bench} takes "
                            f"one value, got 2\n")


def test_cli_repeated_grid_key_is_one_line(capsys):
    assert cli.main(["run", "alloc", "--grid", "kind=device",
                     "--grid", "kind=malloc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "upm-sim: grid key 'kind' given twice\n"


@pytest.mark.parametrize("argv,env,bad", [
    (["verify", "--seed", "-1"], None, "--seed '-1'"),
    (["run", "alloc", "--seed", "-1"], None, "--seed '-1'"),
    (["run", "alloc"], "abc", "UPM_SIM_SEED 'abc'"),
], ids=["verify-negative", "run-negative", "env-not-a-number"])
def test_cli_bad_seed_is_one_line(capsys, monkeypatch, argv, env, bad):
    if env is None:
        monkeypatch.delenv("UPM_SIM_SEED", raising=False)
    else:
        monkeypatch.setenv("UPM_SIM_SEED", env)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"upm-sim: bad {bad}: expected a non-negative "
                            f"integer\n")


def test_cli_unwritable_out_is_one_line(capsys, tmp_path):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["run", "memcpy", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"upm-sim: cannot write --out {str(out)!r}: "
                            f"No such file or directory\n")
    assert not out.parent.exists()


def count_fragment_reads(monkeypatch) -> list:
    """The table of every DualTable.fragment_runs call from now on."""
    fragment_runs, reads = DualTable.fragment_runs, []

    def counted(self, table, va_page, n_pages):
        reads.append(table)
        return fragment_runs(self, table, va_page, n_pages)

    monkeypatch.setattr(DualTable, "fragment_runs", counted)
    return reads


def test_verify_reads_fragments_only_in_the_triad_tlb_replays(
        profile, monkeypatch):
    # Three TRIAD replays, each reading its three operands' GPU fragments
    # once; nothing outside a replay reads fragments. The pinned, the
    # replay-off managed and the on-demand managed bandwidth anchors read
    # the worksets of their placement keys: registered memory with xnack
    # on, and libc memory.
    reads = count_fragment_reads(monkeypatch)
    triad_misses, before = tlb.triad_misses, []

    def counted(*args, **kwargs):
        before.append(len(reads))
        return triad_misses(*args, **kwargs)

    monkeypatch.setattr(tlb, "triad_misses", counted)
    perf.build_triad_workset.cache_clear()
    harness.build_cpu_stream_stats.cache_clear()
    verify(profile, seed=11)
    assert before == [0, 3, 6]
    assert reads == [GPU] * 9


@pytest.mark.parametrize("workload,managers", [("stream", 10),
                                                ("verify", 17),
                                                ("usage", 6),
                                                ("latency", 45)])
def test_each_distinct_placement_is_simulated_once(profile, monkeypatch,
                                                   workload, managers):
    # The stream grid simulates four worksets (libc first touched by the
    # CPU and by the GPU, registered and device memory) and six CPU fault
    # counts (libc, registered and device memory, each first touched by
    # either agent); every other kind and init agent reads one of them.
    # verify's usage matrix simulates libc, registered and device memory.
    # The usage and latency grids give each point its own seed, so they
    # build one manager per point.
    built = []
    init = MemoryManager.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MemoryManager, "__init__", counted)
    for cache in (perf.build_triad_workset, harness.build_cpu_stream_stats,
                  harness._chase_load):
        cache.cache_clear()
    if workload == "verify":
        verify(profile, seed=11)
    else:
        run(profile, WorkloadSpec(benchmark=workload, seed=11))
    assert len(built) == managers


def test_cpu_stream_stats_read_no_fragments(profile, monkeypatch):
    reads = count_fragment_reads(monkeypatch)
    harness.build_cpu_stream_stats.cache_clear()
    for kind in AllocatorKind:
        for agent in Agent:
            harness.build_cpu_stream_stats(profile, kind, agent, seed=11)
    assert reads == []


@pytest.mark.parametrize("bench,key", [
    (bench, key) for bench in harness.BENCHMARK_NAMES
    for key in harness.grid_keys(bench)])
def test_every_grid_key_parses_its_text(profile, bench, key):
    # A key without a parser would pass "?" to its driver as text.
    with pytest.raises(harness.UsageError,
                       match=f"^bad value '\\?' for grid key '{key}': "):
        run(profile, WorkloadSpec(bench, {key: ["?"]}))


def test_readme_grid_key_table_matches_the_drivers():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("| Benchmark | Grid keys |") + 2
    table = {}
    for line in itertools.takewhile(lambda x: x.startswith("|"),
                                    lines[start:]):
        bench, keys = line.strip("|").split("|")
        table[bench.strip(" `")] = tuple(re.findall(r"`(\w+)`", keys))
    assert table == {b: harness.grid_keys(b) for b in harness.BENCHMARK_NAMES}


def test_readme_allocator_table_matches_kinds(profile):
    # Each row against the kinds table, classify and, for the counters, the
    # usage views of a manager after a full CPU touch of 1 MiB.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("| Kind | Aliases | GPU access (xnack 0/1) "
                        "| Placement (xnack 0/1) | Usage counter |") + 2
    counters = {"libnuma": UsageCounter.LIBNUMA,
                "meminfo": UsageCounter.MEMINFO,
                "hipMemGetInfo": UsageCounter.HIP_MEM_GET_INFO,
                "RSS": UsageCounter.PROCESS_RSS}
    rows = {}
    for line in itertools.takewhile(lambda x: x.startswith("|"),
                                    lines[start:]):
        kind, aliases, access, placement, seen = (
            cell.strip() for cell in line.strip("|").split("|"))
        rows[AllocatorKind(kind.strip("`"))] = (
            tuple(re.findall(r"`(\w+)`", aliases)),
            tuple({"no": False, "yes": True}[x] for x in access.split(" / ")),
            tuple(Policy(x.replace(" ", "_")) for x in placement.split(" / ")),
            {counters[name] for name in seen.split(", ")})
    assert list(rows) == list(KINDS) == list(AllocatorKind)
    for kind, (aliases, access, placement, seen) in rows.items():
        assert aliases == KINDS[kind].aliases
        specs = [classify(kind, xnack) for xnack in (False, True)]
        assert access == tuple(s.gpu_access for s in specs)
        assert placement == tuple(s.physical for s in specs)
        m = MemoryManager(profile, seed=0)
        m.touch(m.allocate(kind, 1 * MiB), None, Agent.CPU)
        assert seen == {c for c in UsageCounter if m.usage_view(c)}
        assert (UsageCounter.HIP_MEM_GET_INFO in seen) is KINDS[kind].device


def test_grid_keys_are_the_driver_arguments():
    assert harness.grid_keys("usage") == ("kind", "size")
    assert harness.grid_keys("alloc") == ("kind", "size", "chunks")
    assert harness.grid_keys("memcpy") == ("pair", "sdma")


def test_cli_profile_dump_round_trips(tmp_path, capsys):
    assert cli.main(["profile", "dump"]) == 0
    out = capsys.readouterr().out
    assert out == serialize_profile(builtin_mi300a())
    path = tmp_path / "p.profile"
    path.write_text(out + "gpu.l1_latency = 58\n")
    assert cli.main(["profile", "dump", "--profile", str(path)]) == 0
    assert "gpu.l1_latency = 58.0" in capsys.readouterr().out


def test_cli_bad_profile_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.profile"
    path.write_text("nonsense == 3\n")
    assert cli.main(["verify", "--profile", str(path)]) == 1


def test_cli_verify_out_of_memory_is_one_line(tmp_path, capsys):
    # load_profile accepts a 1 GiB pool; verify's 4 GiB heap cannot fit.
    path = tmp_path / "small.profile"
    path.write_text(serialize_profile(builtin_mi300a())
                    + "hbm_capacity = 1GiB\n")
    assert cli.main(["verify", "--profile", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("upm-sim: OutOfMemory: ")
    assert captured.err.count("\n") == 1


def test_cli_overflowing_count_is_a_profile_error(tmp_path, capsys):
    path = tmp_path / "huge.profile"
    path.write_text("stacks = 1e400\n")
    assert cli.main(["profile", "dump", "--profile", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("upm-sim: profile error: ")
    assert captured.err.count("\n") == 1


def test_cli_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("UPM_SIM_SEED", "17")
    assert cli.main(["run", "memcpy"]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("UPM_SIM_SEED")
    assert cli.main(["run", "memcpy", "--seed", "17"]) == 0
    assert capsys.readouterr().out == with_env


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "upm_sim.cli", "run", "memcpy"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("benchmark,")

import math
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

from upm_sim import cli, harness
from upm_sim.harness import WorkloadSpec, report, run, verify
from upm_sim.machine import GiB, MiB, builtin_mi300a, serialize_profile


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
        ("device_up_front", "device_up_front")], "sdma": [True]}))
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


def test_verify_builtin_all_hard_pass(profile):
    rep = verify(profile, seed=0)
    assert rep.hard_failures == 0
    lines = rep.lines()
    assert any(line.startswith("PASS") for line in lines)


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
], ids=["zero-size", "out-of-memory", "gpu-threads", "scenario", "threads"])
def test_cli_bad_grid_value_is_one_line(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("upm-sim: ")
    assert captured.err.count("\n") == 1


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

"""Host-time benchmark of upm-sim, end to end and per layer.

    python3 perfbench/run.py --workload verify|latency|stream|usage \\
        --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). Every workload run
is a fresh child interpreter (perfbench/worker.py), one at a time, with
BLAS/OpenMP threads set to 1, that imports upm_sim from ./src.

Each invocation first runs the workload once at the reference seed and
compares its output op by op with perfbench/reference/ (an op is one
verify anchor or one grid row). It then runs the workload at --seed
until --seconds of measuring have passed (at least MIN_REPS times) and
checks those outputs for the reference's shape: the same anchors with no
hard failure, the same grid rows with a number in each. All runs at one
seed must give the same bytes and the same counts.

--trace 0 reports the end-to-end metrics (medians over the runs);
--trace 1 alternates untraced and traced runs and reports per-layer self
times and counts, and the tracing overhead. The last line of stdout is
one JSON object; per-run samples, the environment and the spans of the
last traced run are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (the benchmark's own module, next to this file)

WORKLOADS = {"verify": "verify.txt", "latency": "latency.csv",
             "stream": "stream.csv", "usage": "usage.csv"}
REFERENCE_SEED = 0
MIN_REPS = 2            # untraced runs per --trace 0 invocation
SETUP_SAMPLES = 11      # set-up timings per --trace 0 invocation, at least
CHILD_TIMEOUT_S = 60    # a latency child takes 7-12 s on a 2-vCPU Xeon VM
SCHEDULE_LIMIT_S = 100  # start no round after this; a run must end by 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(Exception):
    """A child interpreter exited with an error."""


# --------------------------------------------------------------------------
# Children
# --------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    start = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), workload, str(seed), mode],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} run of {workload} at seed {seed} took "
                          f"over {CHILD_TIMEOUT_S} s") from None
    elapsed = monotonic() - start
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} run of {workload} at seed {seed} exited "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(mode=mode, seed=seed, elapsed=elapsed,
                  setup_s=result["ready"] - start)
    return result


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

def split(workload: str, text: str) -> tuple[str, list[str]]:
    """(frame line, op lines): the grid header or the verify summary."""
    lines = text.splitlines()
    if workload == "verify":
        return (lines[-1] if lines else ""), lines[:-1]
    return (lines[0] if lines else ""), lines[1:]


def exact_failures(workload: str, text: str, reference: str) -> int:
    """Ops that differ from the reference output, position by position."""
    frame, ops = split(workload, text)
    ref_frame, ref_ops = split(workload, reference)
    if frame != ref_frame:
        return len(ref_ops)
    differ = sum(a != b for a, b in zip(ops, ref_ops))
    return differ + abs(len(ops) - len(ref_ops))


def _verify_op_ok(line: str, ref_line: str) -> bool:
    fields, ref_fields = line.split(), ref_line.split()
    return (len(fields) > 2 and fields[1] == ref_fields[1]
            and fields[0] in ("PASS", "WARN"))


def _grid_op_ok(line: str, ref_line: str, value_col: int) -> bool:
    cells, ref_cells = line.split(","), ref_line.split(",")
    if len(cells) != len(ref_cells):
        return False
    if any(a != b for i, (a, b) in enumerate(zip(cells, ref_cells))
           if i != value_col):
        return False
    try:
        value = float(cells[value_col])
    except ValueError:
        return False
    return math.isnan(value) == (ref_cells[value_col] == "nan")


def shape_failures(workload: str, text: str, reference: str) -> int:
    """Ops that break the reference's shape (for seeds without a reference).

    verify: the same anchors in the same order, none a hard failure, and
    a summary with 0 hard failures. Grids: the same header and rows, each
    with a number where the reference has one.
    """
    frame, ops = split(workload, text)
    ref_frame, ref_ops = split(workload, reference)
    if workload == "verify":
        n = len(ref_ops)
        if not frame.startswith(f"{n} anchors: ") \
                or ", 0 hard failures, " not in frame:
            return n
        bad = sum(not _verify_op_ok(a, b) for a, b in zip(ops, ref_ops))
    else:
        if frame != ref_frame:
            return len(ref_ops)
        col = ref_frame.split(",").index("value")
        bad = sum(not _grid_op_ok(a, b, col) for a, b in zip(ops, ref_ops))
    return bad + abs(len(ops) - len(ref_ops))


class Tally:
    """Ops attempted and failed, and every broken check by name."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reference = (REFERENCE / WORKLOADS[workload]).read_text(
            encoding="utf-8")
        self.ops = len(split(workload, self.reference)[1])
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[int, dict] = {}  # seed -> first run at that seed

    def add(self, run: dict):
        """Check one run that completed."""
        self.attempted += self.ops
        text, seed = run["output"], run["seed"]
        if seed == REFERENCE_SEED:
            bad = exact_failures(self.workload, text, self.reference)
        else:
            bad = shape_failures(self.workload, text, self.reference)
        first = self._first.setdefault(seed, run)
        if first is not run:
            if text != first["output"]:
                bad = max(bad, exact_failures(self.workload, text,
                                              first["output"]))
                self.problems.append(f"output at seed {seed} changed "
                                     f"between runs ({run['mode']})")
            for key in ("counts", "calls"):
                if run[key] != first[key]:
                    self.problems.append(f"{key} at seed {seed} changed "
                                         f"between runs ({run['mode']})")
        if bad:
            self.problems.append(f"{bad} of {self.ops} ops wrong at seed "
                                 f"{seed} ({run['mode']})")
        self.failed += min(bad, self.ops)
        if not run["restored"]:
            self.problems.append("patched callables were not restored")
        if not run["profile_ok"]:
            self.problems.append("profile document does not match the "
                                 "built-in profile")

    def crashed(self, message: str):
        self.attempted += self.ops
        self.failed += self.ops
        self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------

def run_checked(tally: Tally, workload: str, seed: int, mode: str,
                log: list) -> dict | None:
    try:
        run = spawn(workload, seed, mode)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        tally.crashed(str(exc).splitlines()[0])
        return None
    log.append(run)
    tally.add(run)
    print(f"{mode:5s} seed={seed:<6d} wall {run['wall_s']:.3f} s  "
          f"cpu {run['cpu_s']:.3f} s  setup {run['setup_s']:.3f} s  "
          f"rss {run['peak_rss_mb']:.1f} MB", flush=True)
    return run


def measure(args, tally: Tally, started: float) -> tuple[list, list]:
    """Run the reference check, then the measured runs until the deadline.

    Returns (all workload runs, set-up samples in seconds).
    """
    log: list = []
    setup: list = []
    if args.seed != REFERENCE_SEED:
        run_checked(tally, args.workload, REFERENCE_SEED, "count", log)
    deadline = monotonic() + args.seconds
    modes = ("count", "trace") if args.trace else ("count",)
    rounds = 0
    while True:
        round_start = monotonic()
        if not args.trace:
            setup.append(spawn(args.workload, args.seed, "setup")["setup_s"])
        for mode in modes:
            run = run_checked(tally, args.workload, args.seed, mode, log)
            if run is not None and mode == "count":
                setup.append(run["setup_s"])
        rounds += 1
        now = monotonic()
        if now - started > SCHEDULE_LIMIT_S:
            break
        if rounds >= (1 if args.trace else MIN_REPS) \
                and now + (now - round_start) > deadline:
            break
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(spawn(args.workload, args.seed, "setup")["setup_s"])
    return log, setup


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def median_of(runs: list, key) -> float:
    return statistics.median(key(r) for r in runs)


def end_to_end(runs: list, setup: list) -> dict:
    def pages_per_s(r):
        return r["counts"]["memmgr.pages_mapped"] / r["wall_s"]
    return {
        "wall_s": (median_of(runs, lambda r: r["wall_s"]), "s"),
        "cpu_s": (median_of(runs, lambda r: r["cpu_s"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (median_of(runs, lambda r: r["peak_rss_mb"]), "MB"),
        "sim_pages_per_s": (median_of(runs, pages_per_s), "1/s"),
    }


def per_layer(traced: list, untraced: list) -> dict:
    metrics = {}
    last = traced[-1]
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.self_s"] = (
            median_of(traced, lambda r: r["self_s"][name]), "s")
        metrics[f"{name}.calls"] = (last["calls"][name], "count")
    for name in spans.COUNTS:
        metrics[name] = (last["counts"][name], "count")
    steps = last["counts"]["tlb.page_steps"]
    metrics["tlb.misses_per_page_step"] = (
        last["counts"]["tlb.misses"] / steps if steps else 0.0, "ratio")
    traced_wall = median_of(traced, lambda r: r["wall_s"])
    plain_wall = median_of(untraced, lambda r: r["wall_s"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0),
                                     "%")
    metrics["trace.spans"] = (len(last["spans"]), "count")
    return metrics


def accounted_share(run: dict) -> float:
    """Share of the traced wall time covered by the workload's spans."""
    inside = sum(v for k, v in run["self_s"].items()
                 if not k.startswith("machine."))
    return inside / run["wall_s"]


# --------------------------------------------------------------------------
# Environment record
# --------------------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git directory, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "upm_sim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = monotonic()
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "upm_sim" / "__init__.py").is_file():
        print(f"run.py: no upm_sim package under {SRC}", file=sys.stderr)
        return 2
    tally = Tally(args.workload)
    try:
        log, setup = measure(args, tally, started)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    at_seed = [r for r in log if r["seed"] == args.seed]
    untraced = [r for r in at_seed if r["mode"] == "count"]
    traced = [r for r in at_seed if r["mode"] == "trace"]
    if not untraced or (args.trace and not traced):
        print("run.py: no run at the requested seed completed",
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(traced, untraced)
        for run in traced:
            print(f"trace seed={args.seed}: spans cover "
                  f"{100 * accounted_share(run):.2f}% of the traced wall time")
    else:
        metrics = end_to_end(untraced, setup)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    env = environment()
    print("env " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    samples = [{k: r[k] for k in ("mode", "seed", "wall_s", "cpu_s",
                                  "setup_s", "peak_rss_mb", "elapsed")}
               for r in log]
    record = {"args": vars(args), "env": env, "samples": samples,
              "setup_samples": setup, "problems": tally.problems,
              "metrics": reported}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"columns": ["name", "parent", "start", "end"],
             "spans": traced[-1]["spans"]}) + "\n")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

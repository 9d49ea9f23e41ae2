"""Command-line interface.

    upm-sim run <benchmark> [--profile FILE] [--seed N]
                [--grid KEY=V1,V2,...] [--out FILE.csv] [--format csv|table]
    upm-sim verify [--profile FILE] [--seed N]
    upm-sim profile dump [--profile FILE]

Each --grid key is given once; size values take B/KiB/MiB/GiB, counts
are whole numbers and a memcpy pair is SRC:DST. UPM_SIM_SEED sets the
default seed. Exit codes: 0 success, 1 usage error (a bad profile, seed,
grid key or grid value, or an --out file that cannot be written, reported
in one line on stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .atomics import InvalidWorkload
from .machine import (ProfileParseError, ProfileValidationError,
                      builtin_mi300a, load_profile, serialize_profile)
from .memmgr import OutOfMemory, ZeroSize

# Errors a grid point can raise on bad input; each becomes one line, exit 1.
# ValueError covers grid values out of range (an unknown scenario, 0 threads).
_INPUT_ERRORS = (ValueError, OutOfMemory, ZeroSize, InvalidWorkload)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load(path: str | None):
    if path is None:
        return builtin_mi300a()
    with open(path, "r", encoding="utf-8") as fh:
        return load_profile(fh.read())


def _parse_grid(items: list[str]) -> dict:
    """--grid items as {key: [text, ...]}; run() parses the text."""
    grid: dict = {}
    for item in items:
        key, sep, values = item.partition("=")
        key = key.strip()
        if not sep:
            raise harness.UsageError(
                f"grid item {item!r} must look like KEY=V1,V2,...")
        if key in grid:
            raise harness.UsageError(f"grid key {key!r} given twice")
        grid[key] = values.split(",")
    return grid


def _seed(text: str | None) -> int:
    """--seed, else UPM_SIM_SEED, else 0, as a non-negative integer."""
    source = "--seed"
    if text is None:
        text, source = os.environ.get("UPM_SIM_SEED", "0"), "UPM_SIM_SEED"
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise harness.UsageError(f"bad {source} {text!r}: expected a "
                                 f"non-negative integer")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(prog="upm-sim",
                     description="Unified-memory APU memory-subsystem "
                                 "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one benchmark grid")
    p_run.add_argument("benchmark", type=harness.canonical_benchmark,
                       choices=harness.BENCHMARK_NAMES,
                       metavar="|".join(harness.BENCHMARK_NAMES))
    p_run.add_argument("--profile", default=None, metavar="FILE")
    p_run.add_argument("--seed", metavar="N")
    p_run.add_argument("--grid", action="append", default=[],
                       metavar="KEY=V1,V2,...")
    p_run.add_argument("--out", default=None, metavar="FILE.csv")
    p_run.add_argument("--format", choices=("csv", "table"), default="csv")

    p_verify = sub.add_parser("verify", help="check anchored expectations")
    p_verify.add_argument("--profile", default=None, metavar="FILE")
    p_verify.add_argument("--seed", metavar="N")

    p_prof = sub.add_parser("profile", help="profile utilities")
    prof_sub = p_prof.add_subparsers(dest="profile_command", required=True)
    p_dump = prof_sub.add_parser("dump", help="print the effective profile")
    p_dump.add_argument("--profile", default=None, metavar="FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if "seed" in vars(args):
        try:
            args.seed = _seed(args.seed)
        except harness.UsageError as exc:
            print(f"upm-sim: {exc}", file=sys.stderr)
            return 1
    try:
        profile = _load(getattr(args, "profile", None))
    except (OSError, ProfileParseError, ProfileValidationError) as exc:
        print(f"upm-sim: profile error: {exc}", file=sys.stderr)
        return 1

    if args.command == "run":
        try:
            spec = harness.WorkloadSpec(args.benchmark, _parse_grid(args.grid),
                                        args.seed)
            text = harness.report(harness.run(profile, spec), args.format)
        except harness.UsageError as exc:
            print(f"upm-sim: {exc}", file=sys.stderr)
            return 1
        except _INPUT_ERRORS as exc:
            print(f"upm-sim: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                print(f"upm-sim: cannot write --out {args.out!r}: "
                      f"{exc.strerror or exc}", file=sys.stderr)
                return 1
        else:
            sys.stdout.write(text)
        return 0

    if args.command == "verify":
        try:
            report = harness.verify(profile, seed=args.seed)
        except _INPUT_ERRORS as exc:
            print(f"upm-sim: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        for line in report.lines():
            print(line)
        return 2 if report.hard_failures else 0

    if args.command == "profile" and args.profile_command == "dump":
        sys.stdout.write(serialize_profile(profile))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())

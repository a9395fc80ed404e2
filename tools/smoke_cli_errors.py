#!/usr/bin/env python3
"""Smoke-check cnvsim's user-error surfacing.

Run as the ``cnvsim_cli_errors`` CTest (see tests/CMakeLists.txt):
verifies that `cnv::sim::FatalError` and argument mistakes reach the
user as a non-zero exit with a diagnostic on stderr — the contract
docs/development.md documents for embedding scripts — instead of a
crash, a zero exit, or a silent stdout message.

Every argument mistake exits 2 and names the flag; a runtime
FatalError exits 1 with one "fatal:" line. Cases:
  * unknown network        -> exit 1, one "fatal:" line + the bad name
  * unknown flag           -> exit 2, usage text on stderr
  * malformed flag value   -> exit 2, "invalid value" + the flag
  * unknown --arch id      -> exit 1, "fatal:" + known ids on stderr
  * missing --net (trace)  -> exit 2, usage text on stderr
  * unwritable report path -> exit 1, "fatal:" + the path on stderr
  * non-numeric --jobs     -> exit 2, diagnostic on stderr
  * zero --jobs            -> exit 2, diagnostic on stderr
  * bad --progress value   -> exit 2, diagnostic on stderr
  * empty --perf-json path -> exit 2, diagnostic on stderr
  * bad --mem value        -> exit 2, diagnostic on stderr
  * out-of-range or malformed numbers (--images 2x / 0, --seed -5,
    --weight-sparsity nan, --floor nan, --scale 0, --max-events abc)
                           -> exit 2, the flag on stderr
  * a flag the command does not read (reproduce --mem,
    zfnaf --arch)          -> exit 2, the flag on stderr

With ``--bench BENCH`` a bench binary's use of the shared parser
(driver/cli.h) is smoked too; BENCH must read --images, --seed and
--mem but not --trace-out (bench_fig10_activity does):
  * non-numeric --images   -> exit 2, diagnostic on stderr
  * non-numeric --seed     -> exit 2, diagnostic on stderr
  * trailing junk (--images 2x) -> exit 2, diagnostic on stderr
  * trailing junk (--jobs 2x)   -> exit 2, diagnostic on stderr
  * zero --jobs            -> exit 2, diagnostic on stderr
  * bad --mem value        -> exit 2, diagnostic on stderr
  * zero / negative --images -> exit 2, the flag on stderr
  * unread --trace-out     -> exit 2, the flag on stderr

Usage: smoke_cli_errors.py CNVSIM [--bench BENCH]
"""

from __future__ import annotations

import subprocess
import sys


def run(binary: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([binary, *args], capture_output=True, text=True)


def main(argv: list[str]) -> int:
    args = argv[1:]
    bench = None
    if "--bench" in args:
        at = args.index("--bench")
        if at + 1 >= len(args):
            print(__doc__, file=sys.stderr)
            return 2
        bench = args[at + 1]
        args = args[:at] + args[at + 2:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    cnvsim = args[0]
    problems: list[str] = []

    def expect(label: str, proc: subprocess.CompletedProcess,
               code: int, stderr_needles: list[str]) -> None:
        if proc.returncode != code:
            problems.append(
                f"{label}: exit {proc.returncode}, expected {code}")
        for needle in stderr_needles:
            if needle not in proc.stderr:
                problems.append(
                    f"{label}: stderr lacks {needle!r} "
                    f"(stderr was: {proc.stderr!r})")
        if proc.returncode != 0 and not proc.stderr.strip():
            problems.append(f"{label}: non-zero exit but empty stderr")

    proc = run(cnvsim, "run", "no-such-net", "--images", "1")
    expect("unknown network", proc, 1, ["fatal:", "no-such-net"])
    if proc.stderr.count("fatal:") != 1:
        problems.append(f"unknown network: the fatal: diagnostic is not "
                        f"printed exactly once (stderr was: {proc.stderr!r})")
    expect("unknown flag",
           run(cnvsim, "run", "alex", "--bogus-flag"),
           2, ["usage:"])
    expect("malformed flag value",
           run(cnvsim, "run", "alex", "--images", "notanumber"),
           2, ["invalid value", "--images"])
    expect("unknown --arch id",
           run(cnvsim, "run", "nin", "--images", "1",
               "--arch", "dadiannao,eyeriss"),
           1, ["fatal:", "eyeriss", "dadiannao"])
    expect("trace without --net",
           run(cnvsim, "trace"),
           2, ["usage:"])
    expect("unwritable report path",
           run(cnvsim, "run", "nin", "--images", "1",
               "--report-json", "/nonexistent-dir/report.json"),
           1, ["fatal:", "/nonexistent-dir/report.json"])
    expect("non-numeric --jobs",
           run(cnvsim, "run", "nin", "--images", "1",
               "--jobs", "notanumber"),
           2, ["invalid value", "--jobs"])
    expect("zero --jobs",
           run(cnvsim, "run", "nin", "--images", "1", "--jobs", "0"),
           2, ["invalid value", "--jobs"])
    expect("bad --progress value",
           run(cnvsim, "run", "nin", "--images", "1",
               "--progress", "bogus"),
           2, ["invalid value", "--progress"])
    expect("empty --perf-json path",
           run(cnvsim, "run", "nin", "--images", "1", "--perf-json", ""),
           2, ["invalid value", "--perf-json"])
    expect("bad --mem value",
           run(cnvsim, "run", "nin", "--images", "1", "--mem", "bogus"),
           2, ["invalid value", "--mem"])

    bad_values = [
        ("run", "nin", "--images", "2x"),
        ("run", "nin", "--images", "0"),
        ("run", "nin", "--seed", "-5"),
        ("run", "nin", "--weight-sparsity", "nan"),
        ("prune", "nin", "--floor", "nan"),
        ("validate", "nin", "--scale", "0"),
        ("trace", "nin", "--max-events", "abc"),
    ]
    for command, net, flag, value in bad_values:
        expect(f"{command} {flag} {value}",
               run(cnvsim, command, net, flag, value),
               2, ["invalid value", flag])
    expect("reproduce does not read --mem",
           run(cnvsim, "reproduce", "--mem", "banked"),
           2, ["--mem"])
    expect("zfnaf does not read --arch",
           run(cnvsim, "zfnaf", "nin", "--arch", "cnv"),
           2, ["--arch"])

    cases = 11 + len(bad_values) + 2
    if bench is not None:
        expect("bench non-numeric --images",
               run(bench, "--images", "notanumber"),
               2, ["invalid value", "--images"])
        expect("bench non-numeric --seed",
               run(bench, "--seed", "twenty"),
               2, ["invalid value", "--seed"])
        expect("bench trailing junk in --images",
               run(bench, "--images", "2x"),
               2, ["invalid value", "2x"])
        expect("bench trailing junk in --jobs",
               run(bench, "--jobs", "2x"),
               2, ["invalid value", "--jobs"])
        expect("bench zero --jobs",
               run(bench, "--jobs", "0"),
               2, ["invalid value", "--jobs"])
        expect("bench bad --mem value",
               run(bench, "--mem", "bogus"),
               2, ["invalid value", "--mem"])
        expect("bench zero --images",
               run(bench, "--images", "0"),
               2, ["invalid value", "--images"])
        expect("bench negative --images",
               run(bench, "--images", "-1"),
               2, ["invalid value", "--images"])
        expect("bench unread --trace-out",
               run(bench, "--trace-out", "t.json"),
               2, ["--trace-out"])
        cases += 9

    for p in problems:
        print(f"smoke_cli_errors: {p}", file=sys.stderr)
    print(f"smoke_cli_errors: {cases} cases, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

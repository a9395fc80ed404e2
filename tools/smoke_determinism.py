#!/usr/bin/env python3
"""Pin the parallel runtime's determinism guarantee end to end.

Run as the ``cnvsim_determinism`` CTest (see tests/CMakeLists.txt):
executes the same ``cnvsim run --report-json`` experiment with
``--jobs 1`` and ``--jobs 4`` and asserts the two reports are
byte-identical apart from the ``hostProfile`` block (wall-clock host
telemetry, volatile by nature) and the lines carrying the manifest's
``jobs`` field and the ``wallSeconds`` timing — the contract
documented in docs/architecture.md ("Threading model and
determinism"): every result, stat tree, and cache counter must be
invariant under the worker-pool size.

Two experiments run: the wide five-architecture sweep with the
default ideal memory (no memory model is built), and a ``--mem
banked`` run over dadiannao/cnv/cnv2 — the banked hierarchy's
conflict, buffer and DRAM counters must be just as
job-count-invariant as the cycle counts (each (arch, image) task
builds its own lock-free `mem::MemoryModel`, never shared across
workers).

The JSON writer emits one key per line, so dropping the brace-
balanced ``hostProfile`` block and then filtering whole lines
containing the two volatile keys is exact, not heuristic. (String
values never contain braces in these reports, so brace counting is
safe.)

Usage: smoke_determinism.py CNVSIM OUTDIR
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

VOLATILE_KEYS = ('"jobs"', '"wallSeconds"')

def strip_host_profile(lines: list[str], path: pathlib.Path) -> list[str]:
    """Drop the whole "hostProfile": { ... } block (exactly one)."""
    kept: list[str] = []
    depth = 0
    found = False
    for line in lines:
        if depth > 0:
            depth += line.count("{") - line.count("}")
            if depth <= 0:
                depth = 0
            continue
        if '"hostProfile"' in line:
            found = True
            depth = line.count("{") - line.count("}")
            continue
        kept.append(line)
    if not found:
        print(f"smoke_determinism: no hostProfile block in {path} — "
              "did the report schema change?", file=sys.stderr)
        sys.exit(1)
    return kept


def report_lines(path: pathlib.Path) -> list[str]:
    lines = strip_host_profile(path.read_text().splitlines(), path)
    kept = [l for l in lines
            if not any(key in l for key in VOLATILE_KEYS)]
    dropped = len(lines) - len(kept)
    if dropped != len(VOLATILE_KEYS):
        print(f"smoke_determinism: expected to drop exactly "
              f"{len(VOLATILE_KEYS)} volatile lines from {path}, "
              f"dropped {dropped}", file=sys.stderr)
        sys.exit(1)
    return kept


def compare_pair(cnvsim: str, outdir: pathlib.Path, label: str,
                 extra_args: list[str]) -> int:
    """Run the experiment at --jobs 1 and 4; 0 when identical."""
    reports = {}
    for jobs in (1, 4):
        path = outdir / f"report-{label}-jobs{jobs}.json"
        proc = subprocess.run(
            [cnvsim, "run", "nin", "--images", "2",
             "--seed", "2016", "--jobs", str(jobs),
             *extra_args, "--report-json", str(path)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"smoke_determinism: {label} --jobs {jobs} run "
                  f"failed (exit {proc.returncode}): {proc.stderr}",
                  file=sys.stderr)
            return 1
        reports[jobs] = report_lines(path)

    if reports[1] != reports[4]:
        for a, b in zip(reports[1], reports[4]):
            if a != b:
                print(f"smoke_determinism: {label}: first divergence:\n"
                      f"  jobs=1: {a}\n  jobs=4: {b}", file=sys.stderr)
                break
        else:
            print(f"smoke_determinism: {label}: line counts differ: "
                  f"{len(reports[1])} vs {len(reports[4])}",
                  file=sys.stderr)
        return 1

    print(f"smoke_determinism: {label}: {len(reports[1])} report "
          "lines byte-identical between --jobs 1 and --jobs 4")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cnvsim, outdir = argv[1], pathlib.Path(argv[2])
    outdir.mkdir(parents=True, exist_ok=True)

    failures = compare_pair(
        cnvsim, outdir, "ideal",
        ["--arch", "dadiannao,cnv,cnv2,cnv-pruned,cnv-b8"])
    failures += compare_pair(
        cnvsim, outdir, "banked",
        ["--arch", "dadiannao,cnv,cnv2", "--mem", "banked"])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Pin the parallel runtime's determinism guarantee end to end.

Run as the ``cnvsim_determinism`` CTest (see tests/CMakeLists.txt):
executes the same experiment with ``--jobs 1`` and ``--jobs 4`` and
asserts every output is byte-identical apart from what is volatile
by nature — the contract documented in docs/architecture.md
("Threading model and determinism"): every result, stat tree, and
cache counter must be invariant under the worker-pool size.

Three experiments run:

- the wide five-architecture ``cnvsim run`` sweep with the default
  ideal memory (no memory model is built);
- a ``--mem banked`` ``cnvsim run`` over dadiannao/cnv/cnv2 — the
  banked hierarchy's conflict, buffer and DRAM counters must be just
  as job-count-invariant as the cycle counts (each (arch, image) task
  builds its own lock-free `mem::MemoryModel`, never shared across
  workers);
- a ``cnvsim trace nin --mem banked`` run, whose per-layer stall CSV
  is compared whole.

Each ``cnvsim run`` writes both reports. In the JSON one, the
brace-balanced ``hostProfile`` block (wall-clock host telemetry) is
dropped and then the whole lines holding the manifest's ``jobs`` and
``wallSeconds`` keys; the JSON writer emits one key per line, so
this is exact, not heuristic. (String values never contain braces in
these reports, so brace counting is safe.) In the CSV one, only the
``manifest.jobs`` and ``manifest.wallSeconds`` rows are dropped.

Usage: smoke_determinism.py CNVSIM OUTDIR
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
from typing import Callable

VOLATILE_KEYS = ('"jobs"', '"wallSeconds"')
VOLATILE_ROWS = ("manifest.jobs,", "manifest.wallSeconds,")

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


def drop_volatile(lines: list[str], is_volatile: Callable[[str], bool],
                  path: pathlib.Path) -> list[str]:
    """Drop the volatile lines; exit unless there were exactly two."""
    kept = [l for l in lines if not is_volatile(l)]
    dropped = len(lines) - len(kept)
    if dropped != len(VOLATILE_KEYS):
        print(f"smoke_determinism: expected to drop exactly "
              f"{len(VOLATILE_KEYS)} volatile lines from {path}, "
              f"dropped {dropped}", file=sys.stderr)
        sys.exit(1)
    return kept


def json_report_lines(path: pathlib.Path) -> list[str]:
    lines = strip_host_profile(path.read_text().splitlines(), path)
    return drop_volatile(
        lines, lambda l: any(key in l for key in VOLATILE_KEYS), path)


def csv_report_lines(path: pathlib.Path) -> list[str]:
    return drop_volatile(path.read_text().splitlines(),
                         lambda l: l.startswith(VOLATILE_ROWS), path)


def compare_pair(cnvsim: str, outdir: pathlib.Path, label: str,
                 args: list[str],
                 outputs: dict[str, tuple[str, Callable]]) -> int:
    """Run `cnvsim args` at --jobs 1 and 4; 0 when every output
    (flag -> (file suffix, line reader)) is identical."""
    lines: dict[str, list[list[str]]] = {flag: [] for flag in outputs}
    for jobs in (1, 4):
        paths = {flag: outdir / f"{label}-jobs{jobs}.{suffix}"
                 for flag, (suffix, _) in outputs.items()}
        proc = subprocess.run(
            [cnvsim, *args, "--seed", "2016", "--jobs", str(jobs),
             *(a for flag, path in paths.items() for a in (flag, str(path)))],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"smoke_determinism: {label} --jobs {jobs} run "
                  f"failed (exit {proc.returncode}): {proc.stderr}",
                  file=sys.stderr)
            return 1
        for flag, (_, read) in outputs.items():
            lines[flag].append(read(paths[flag]))

    failures = 0
    for flag, (one, four) in lines.items():
        if one == four:
            print(f"smoke_determinism: {label} {flag}: {len(one)} lines "
                  "byte-identical between --jobs 1 and --jobs 4")
            continue
        failures += 1
        for a, b in zip(one, four):
            if a != b:
                print(f"smoke_determinism: {label} {flag}: first "
                      f"divergence:\n  jobs=1: {a}\n  jobs=4: {b}",
                      file=sys.stderr)
                break
        else:
            print(f"smoke_determinism: {label} {flag}: line counts "
                  f"differ: {len(one)} vs {len(four)}", file=sys.stderr)
    return failures


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cnvsim, outdir = argv[1], pathlib.Path(argv[2])
    outdir.mkdir(parents=True, exist_ok=True)

    reports = {"--report-json": ("json", json_report_lines),
               "--report-csv": ("csv", csv_report_lines)}
    run = ["run", "nin", "--images", "2"]
    failures = compare_pair(
        cnvsim, outdir, "ideal",
        [*run, "--arch", "dadiannao,cnv,cnv2,cnv-pruned,cnv-b8"], reports)
    failures += compare_pair(
        cnvsim, outdir, "banked",
        [*run, "--arch", "dadiannao,cnv,cnv2", "--mem", "banked"], reports)
    failures += compare_pair(
        cnvsim, outdir, "trace-banked",
        ["trace", "nin", "--mem", "banked"],
        {"--stall-csv": ("csv", lambda p: p.read_text().splitlines())})
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

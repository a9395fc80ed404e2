#!/usr/bin/env python3
"""Smoke the host-telemetry surface end to end.

Run as the ``cnvsim_perf_smoke`` CTest (see tests/CMakeLists.txt):
executes the acceptance pipeline

    cnvsim run --net nin --arch dadiannao,cnv,cnv2 --jobs 4 \\
        --perf-json perf.json --report-json report.json

and asserts the ``cnv-perf-v1`` artifact honours its documented
contract (docs/observability.md, "Host telemetry"):

  * schema/manifest shape — ``cnv-perf-v1`` with the run-report
    manifest fields;
  * phase coverage — the ScopedPhase timers account for >= 90% of
    hostProfile.totalSeconds (nothing substantial un-instrumented);
  * trace cache — tensorMisses > 0, countMapHits > 0 (cnv and cnv2
    share one count-map entry, so a multi-arch run must hit), and
    hitRate present and in (0, 1];
  * one simulation pass — the process-wide tensorMisses equal the
    ``--report-json`` report's summary.cache.tensorMisses, so writing
    the report synthesized no trace a second time;
  * pool — at least two worker lanes (caller + worker0 at --jobs 4),
    each with utilization in [0, 1];
  * provenance — compiler, build type and SIMD backend as non-empty
    strings and hardwareConcurrency as a count, so two profiles can be
    told apart by the build and machine that produced them.

A second run with ``--progress on`` asserts the live meter reaches
stderr (the final line is printed unconditionally when forced on).

A ``--mem banked`` run writing both artifacts asserts the perf
manifest and the report manifest agree on ``images``, ``seed``,
``weightSparsity`` and ``mem`` (both are built by one makeManifest).

A last run, ``cnvsim prune nin --perf-json``, asserts the pruning
search is instrumented: ``hostProfile.phases`` must carry ``search``
(next to ``build`` and ``calibrate``), so its wall time is accounted
for.

Usage: smoke_perf.py CNVSIM OUTDIR
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

RUN_ARGS = ["run", "--net", "nin", "--images", "2",
            "--arch", "dadiannao,cnv,cnv2", "--seed", "2016",
            "--jobs", "4"]
MANIFEST_FIELDS = ("tool", "gitSha", "version", "network", "nodeConfig",
                   "images", "seed", "jobs", "weightSparsity",
                   "wallSeconds")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cnvsim, outdir = argv[1], pathlib.Path(argv[2])
    outdir.mkdir(parents=True, exist_ok=True)
    perf = outdir / "perf.json"
    report = outdir / "report.json"

    proc = subprocess.run(
        [cnvsim, *RUN_ARGS, "--perf-json", str(perf),
         "--report-json", str(report)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"smoke_perf: run failed (exit {proc.returncode}): "
              f"{proc.stderr}", file=sys.stderr)
        return 1

    problems: list[str] = []
    doc = json.loads(perf.read_text())
    if doc.get("schema") != "cnv-perf-v1":
        problems.append(f"schema is {doc.get('schema')!r}")
    manifest = doc.get("manifest", {})
    for field in MANIFEST_FIELDS:
        if field not in manifest:
            problems.append(f"manifest missing '{field}'")
    if manifest.get("network") != "nin":
        problems.append(f"manifest.network is "
                        f"{manifest.get('network')!r}, expected 'nin'")

    hp = doc.get("hostProfile", {})
    total = hp.get("totalSeconds", 0)
    if not total > 0:
        problems.append("hostProfile.totalSeconds is not > 0")
    phases = hp.get("phases", {})
    phase_sum = sum(p.get("seconds", 0) for p in phases.values())
    if total > 0 and phase_sum < 0.9 * total:
        problems.append(
            f"phase coverage {phase_sum / total:.1%} < 90% "
            f"(phases {sorted(phases)} sum {phase_sum:.4f}s of "
            f"{total:.4f}s)")
    if abs(hp.get("phaseCoverage", -1) - (phase_sum / total if total
                                          else 0)) > 0.05:
        problems.append("phaseCoverage disagrees with the phases table")

    cache = hp.get("traceCache", {})
    if not cache.get("tensorMisses", 0) > 0:
        problems.append("traceCache.tensorMisses is not > 0")
    if not cache.get("countMapHits", 0) > 0:
        problems.append("traceCache.countMapHits is not > 0 — cnv and "
                        "cnv2 must share one cached count map")
    report_misses = json.loads(report.read_text()).get(
        "summary", {}).get("cache", {}).get("tensorMisses")
    if cache.get("tensorMisses") != report_misses:
        problems.append(
            f"process-wide traceCache.tensorMisses "
            f"{cache.get('tensorMisses')} != report "
            f"summary.cache.tensorMisses {report_misses} — the run "
            "synthesized traces more than once")
    rate = cache.get("hitRate")
    if rate is None or not 0.0 < rate <= 1.0:
        problems.append(f"traceCache.hitRate is {rate!r}")

    provenance = hp.get("provenance", {})
    for field in ("compiler", "buildType", "simdBackend"):
        value = provenance.get(field)
        if not isinstance(value, str) or not value:
            problems.append(f"hostProfile.provenance.{field} is {value!r}")
    hw = provenance.get("hardwareConcurrency")
    if not isinstance(hw, int) or hw < 0:
        problems.append(
            f"hostProfile.provenance.hardwareConcurrency is {hw!r}")

    workers = hp.get("pool", {}).get("workers", {})
    if len(workers) < 2:
        problems.append(f"pool.workers has {len(workers)} lane(s), "
                        "expected >= 2 at --jobs 4")
    for lane, row in workers.items():
        util = row.get("utilization")
        if util is None or not 0.0 <= util <= 1.0:
            problems.append(f"pool.workers.{lane}.utilization is "
                            f"{util!r}")

    # The live meter must reach stderr when forced on (the final
    # line is printed even off-TTY).
    proc = subprocess.run(
        [cnvsim, *RUN_ARGS, "--progress", "on"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        problems.append(f"--progress on run failed "
                        f"(exit {proc.returncode}): {proc.stderr}")
    elif "runs/s" not in proc.stderr or "nin" not in proc.stderr:
        problems.append(f"--progress on produced no meter on stderr "
                        f"(stderr was: {proc.stderr!r})")

    # The perf manifest records the same experiment as the report.
    banked_perf = outdir / "banked-perf.json"
    banked_report = outdir / "banked-report.json"
    proc = subprocess.run(
        [cnvsim, "run", "nin", "--images", "1", "--mem", "banked",
         "--jobs", "1", "--perf-json", str(banked_perf),
         "--report-json", str(banked_report)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        problems.append(f"--mem banked run failed "
                        f"(exit {proc.returncode}): {proc.stderr}")
    else:
        perf_m = json.loads(banked_perf.read_text()).get("manifest", {})
        report_m = json.loads(banked_report.read_text()).get("manifest", {})
        for field in ("images", "seed", "weightSparsity", "mem"):
            if perf_m.get(field) != report_m.get(field) or \
                    field not in perf_m:
                problems.append(
                    f"perf manifest {field} {perf_m.get(field)!r} != "
                    f"report manifest {field} {report_m.get(field)!r}")

    # cnvsim prune must say where its wall time goes.
    prune_perf = outdir / "prune-perf.json"
    proc = subprocess.run(
        [cnvsim, "prune", "nin", "--jobs", "1", "--perf-json",
         str(prune_perf)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        problems.append(f"prune run failed (exit {proc.returncode}): "
                        f"{proc.stderr}")
    else:
        prune_phases = json.loads(prune_perf.read_text()).get(
            "hostProfile", {}).get("phases", {})
        for phase in ("build", "calibrate", "search"):
            if phase not in prune_phases:
                problems.append(f"prune hostProfile.phases lacks "
                                f"'{phase}' (has {sorted(prune_phases)})")

    for p in problems:
        print(f"smoke_perf: {p}", file=sys.stderr)
    print(f"smoke_perf: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

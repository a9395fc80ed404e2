#!/usr/bin/env python3
"""Perf-regression gate over the committed bench trajectory.

Run as the ``perf_regression`` CTest (see tests/CMakeLists.txt):
compares a fresh ``bench_fig09_speedup --json`` artifact (or a
pre-generated ``--current`` file) against a committed baseline
``BENCH_*.json`` and fails when the run regressed:

  * wall clock:     current hostProfile.totalSeconds must not exceed
                    baseline * (1 + tolerance) + wall-slack seconds.
                    With ``--bench`` the binary is run ``--retries``+1
                    times and the fastest run is compared, so scheduler
                    noise on loaded machines does not flake the gate.
  * model stats:    averageSpeedup / averageCnv2Speedup /
                    averageBankedOverhead must equal the baseline
                    exactly — they are deterministic, so any change,
                    up or down, is a model change that must come with
                    a re-baseline.
  * cache hit rate: hostProfile.traceCache.hitRate must not drop more
                    than the tolerance (absolute) below baseline — a
                    drop means trace-cache sharing regressed.

``--report-only`` prints the comparison but always exits 0 (the CI
static-checks job uses it: CI machines are not comparable to the
machine that recorded the baseline). ``--self-test`` additionally
verifies the gate can fail: it re-runs the comparison against a
synthetically inflated baseline and asserts regressions are
reported, including a model stat one ulp off. Re-baselining is documented in docs/development.md.

Usage: check_perf_regression.py --baseline BENCH.json
           (--current CUR.json | --bench BENCH_BINARY)
           [--tolerance 0.15] [--wall-slack 1.0] [--retries 2]
           [--report-only] [--self-test]

Exit status: 0 within tolerance, 1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import pathlib
import subprocess
import sys
import tempfile

# Matches the committed baseline's generation recipe (see
# docs/development.md, "Re-baselining the perf gate").
BENCH_ARGS = ["--quick", "--images", "1", "--jobs", "4"]

# Deterministic model outputs, compared for exact equality.
MODEL_STATS = ("averageSpeedup", "averageCnv2Speedup",
               "averageBankedOverhead")


def stat_values(node: object, out: dict) -> None:
    """Flatten an exportJson stat tree into {statName: value}."""
    if isinstance(node, dict):
        for name, stat in node.get("stats", {}).items():
            if isinstance(stat, dict) and "value" in stat:
                out[name] = stat["value"]
        for child in node.get("groups", {}).values():
            stat_values(child, out)


def load_artifact(path: pathlib.Path) -> dict:
    doc = json.loads(path.read_text())
    stats: dict = {}
    stat_values(doc.get("data"), stats)
    hp = doc.get("hostProfile", {})
    return {
        "wallSeconds": hp.get("totalSeconds",
                              doc.get("manifest", {}).get("wallSeconds")),
        **{key: stats.get(key) for key in MODEL_STATS},
        "hitRate": hp.get("traceCache", {}).get("hitRate"),
    }


def compare(base: dict, cur: dict, tolerance: float,
            wall_slack: float) -> list[str]:
    regressions: list[str] = []

    bw, cw = base.get("wallSeconds"), cur.get("wallSeconds")
    if bw and cw:
        limit = bw * (1.0 + tolerance) + wall_slack
        print(f"  wallSeconds        {cw:10.3f} vs baseline {bw:.3f} "
              f"(limit {limit:.3f})")
        if cw > limit:
            regressions.append(
                f"wall clock regressed: {cw:.3f}s > limit {limit:.3f}s "
                f"(baseline {bw:.3f}s + {tolerance:.0%} + "
                f"{wall_slack}s slack)")
    else:
        print("  wallSeconds        unavailable — skipped")

    for key in MODEL_STATS:
        bv, cv = base.get(key), cur.get(key)
        if bv is None or cv is None:
            print(f"  {key:21} unavailable — skipped")
            continue
        print(f"  {key:21} {cv!r} vs baseline {bv!r} (must be equal)")
        if cv != bv:
            regressions.append(
                f"{key} changed: {cv!r} != baseline {bv!r} (a model "
                f"change must re-baseline)")

    bh, ch = base.get("hitRate"), cur.get("hitRate")
    if bh is not None and ch is not None:
        floor = bh - tolerance
        print(f"  cache hitRate      {ch:10.4f} vs baseline {bh:.4f} "
              f"(floor {floor:.4f})")
        if ch < floor:
            regressions.append(
                f"trace-cache hit rate regressed: {ch:.4f} < "
                f"{floor:.4f} (baseline {bh:.4f} - {tolerance} abs)")
    else:
        print("  cache hitRate      unavailable — skipped")

    return regressions


def run_bench(bench: str, retries: int) -> dict:
    """Run the bench retries+1 times; keep the fastest wall clock."""
    best: dict | None = None
    with tempfile.TemporaryDirectory() as tmp:
        for attempt in range(retries + 1):
            out = pathlib.Path(tmp) / f"bench-{attempt}.json"
            proc = subprocess.run(
                [bench, *BENCH_ARGS, "--json", str(out)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"check_perf_regression: bench run failed "
                      f"(exit {proc.returncode}): {proc.stderr}",
                      file=sys.stderr)
                sys.exit(2)
            cur = load_artifact(out)
            if best is None or (cur["wallSeconds"] or 0) < \
                    (best["wallSeconds"] or 0):
                best = cur
    assert best is not None
    return best


def self_test(base: dict, cur: dict, tolerance: float,
              wall_slack: float) -> list[str]:
    """The gate must fail against a distorted baseline."""
    problems: list[str] = []

    fast = copy.deepcopy(base)
    if fast.get("wallSeconds") and cur.get("wallSeconds"):
        # A baseline the current wall time cannot be within tolerance
        # of. Compared without the absolute slack (which exists to
        # absorb sub-second noise and would swallow any distortion on
        # a fast machine) — this exercises the wall comparison path,
        # not the production threshold.
        fast["wallSeconds"] = cur["wallSeconds"] / (1.0 + tolerance) / 2.0
        print("self-test: halved-wall baseline (must regress)")
        if not compare(fast, cur, tolerance, 0.0):
            problems.append("gate passed against a halved-wall baseline")

    for key in MODEL_STATS:
        if cur.get(key) is None:
            continue
        for direction in (math.inf, -math.inf):
            off = copy.deepcopy(cur)
            off[key] = math.nextafter(cur[key], direction)
            print(f"self-test: {key} baseline one ulp off (must "
                  f"regress)")
            if not compare(off, cur, tolerance, wall_slack):
                problems.append(
                    f"gate passed against a baseline with {key} one "
                    f"ulp off")

    inflated = copy.deepcopy(base)
    for key in MODEL_STATS:
        if inflated.get(key):
            inflated[key] *= 2.0
    if inflated.get("hitRate") is not None:
        inflated["hitRate"] = min(1.0, inflated["hitRate"] + 2 * tolerance)
    print("self-test: inflated-speedup baseline (must regress)")
    if not compare(inflated, cur, tolerance, wall_slack):
        problems.append("gate passed against an inflated-speedup baseline")

    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="perf-regression gate over BENCH_*.json artifacts")
    parser.add_argument("--baseline", required=True, type=pathlib.Path)
    parser.add_argument("--current", type=pathlib.Path)
    parser.add_argument("--bench")
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument("--wall-slack", type=float, default=1.0)
    parser.add_argument("--retries", type=int, default=2)
    parser.add_argument("--report-only", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv[1:])
    if (args.current is None) == (args.bench is None):
        parser.error("exactly one of --current / --bench is required")

    try:
        base = load_artifact(args.baseline)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_perf_regression: {args.baseline}: {err}",
              file=sys.stderr)
        return 2
    if args.current is not None:
        try:
            cur = load_artifact(args.current)
        except (OSError, json.JSONDecodeError) as err:
            print(f"check_perf_regression: {args.current}: {err}",
                  file=sys.stderr)
            return 2
    else:
        cur = run_bench(args.bench, args.retries)

    print(f"check_perf_regression: current vs {args.baseline.name} "
          f"(tolerance {args.tolerance:.0%}):")
    regressions = compare(base, cur, args.tolerance, args.wall_slack)

    problems = list(regressions)
    if args.self_test:
        problems += self_test(base, cur, args.tolerance, args.wall_slack)

    for p in problems:
        print(f"check_perf_regression: {p}", file=sys.stderr)
    verdict = "ok" if not problems else "REGRESSION"
    print(f"check_perf_regression: {verdict} "
          f"({len(problems)} problem(s))")
    if args.report_only and regressions:
        print("check_perf_regression: report-only mode — not failing",
              file=sys.stderr)
        return 0 if len(problems) == len(regressions) else 1
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

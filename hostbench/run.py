#!/usr/bin/env python3
"""Host-time benchmark of the cnvlutin simulator.

Run from the root of a source checkout:

    python3 hostbench/run.py --workload cold-run --seed 1 --seconds 25 --trace 0

Builds cnvsim and the in-process harness (hostbench.cc) into .bench_build,
runs one workload as a single closed-loop client, checks every op's
output, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics; --trace 1 traces every other op and reports the per-layer ones.
Earlier stdout lines carry the provenance and the cycle digest; the full
result (samples included) is saved under .bench_build/results.

NOTES.md says why each workload exists and which metric each layer moves.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
HARNESS_DIR = "hostbench"
# Several set-ups per run; setup_s is their median.
SETUPS = 5
# Ops per second of --seconds. The op count is fixed by the seed and
# --seconds, so the digest covers the same ops on every repeat. Sized
# on a 4-vCPU host for about --seconds of measurement.
OPS_PER_SECOND = {"cold-run": 4.8, "design-sweep": 12.0, "prune-search": 7.0}
# cnvsim worker pool for cold-run (the in-process workloads use 1).
COLD_RUN_JOBS = 2
COLD_RUN_NET = "nin"
COLD_RUN_ARCHS = "dadiannao,cnv,cnv2"
# Paper Fig. 9 CNV-over-DaDianNao bar of each workload's network (nin,
# google, vgg19), held out from calibration, which tunes only the
# Fig. 1 zero fractions.
PAPER_SPEEDUP = {"cold-run": 1.28, "design-sweep": 1.24, "prune-search": 1.40}
# cnvsim's default --seed: the canonical run speedup_err_vs_paper uses.
CLI_DEFAULT_SEED = 2016
# Whole-run time limit once the build is done; children are killed.
RUN_LIMIT_S = 170

# Share of the fastest ops op_s.fast20 averages. The host this was sized
# on drifts in speed for seconds at a time, which moves a run's median
# and p90 by up to ~20%; the fastest fifth of a run's ops is what the
# code costs when the host is quiet (NOTES.md, "Noise").
FAST_SHARE = 0.2

END_TO_END = {
    "setup_s": "s", "op_s.fast20": "s",
    "peak_rss_mib": "MiB", "speedup_err_vs_paper": "ratio",
}
PER_LAYER = {
    "nn.synth_s": "s", "nn.synth_ns_per_elem": "ns",
    "nn.build_s": "s", "nn.calibrate_s": "s",
    "timing.tensor_misses": "count", "timing.synth_useful_frac": "ratio",
    "timing.count_hits": "count", "timing.count_misses": "count",
    "timing.ideal_s": "s", "timing.us_per_conv_layer": "us",
    "timing.sim_calls": "count", "timing.rss_growth_mib_per_op": "MiB",
    "zfnaf.count_s": "s", "zfnaf.count_ns_per_elem": "ns",
    "mem.banked_extra_s": "s", "pruning.accuracy_s": "s",
    "sim.pool_busy_s": "s", "sim.pool_idle_s": "s", "sim.stolen_tasks": "count",
    "driver.build_s": "s", "driver.timing_s": "s", "driver.report_s": "s",
    "bench.trace_overhead": "ratio", "bench.layer_coverage": "ratio",
}

_children = []


def die(msg, code=2):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def mix(x):
    """splitmix64, the same derivation hostbench.cc uses."""
    m = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & m
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & m
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & m
    return x ^ (x >> 31)


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def build(root):
    """Configure once, then bring cnvsim and the harness up to date."""
    bdir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        hook = os.path.join(root, HARNESS_DIR, "hostbench.cmake")
        cmd = ["cmake", "-S", root, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
               f"-DCMAKE_PROJECT_INCLUDE={hook}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "hostbench",
                    "cnvsim", "-j", "4"], check=True, stdout=sys.stderr)
    return (os.path.join(bdir, "src", "driver", "cnvsim"),
            os.path.join(bdir, "hostbench"))


def spawn(cmd, errpath):
    """Run a child to completion; returns (exit code, seconds, max RSS KiB)."""
    with open(errpath, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _children.append(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _children.remove(proc)
    return proc.returncode, seconds, usage.ru_maxrss


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def end_to_end(setup_s, seconds, peak_rss_kib, speedup, paper):
    if not seconds:
        die("no op passed its checks", 1)
    fastest = sorted(seconds)[:max(1, int(len(seconds) * FAST_SHARE))]
    return {
        "setup_s": statistics.median(setup_s),
        "op_s.fast20": statistics.fmean(fastest),
        "peak_rss_mib": peak_rss_kib / 1024,
        "speedup_err_vs_paper": abs(speedup - paper) / paper,
    }


def trace_overhead(ops):
    traced = [o["seconds"] for o in ops if o["traced"] and o["ok"]]
    plain = [o["seconds"] for o in ops if not o["traced"] and o["ok"]]
    return statistics.median(traced) / statistics.median(plain) - 1


def trace_path(args):
    return os.path.join(BUILD_DIR, "run",
                        f"trace-{args.workload}-{args.seed}.json")


# --------------------------------------------------------------- cold-run

def cold_run(args, cnvsim, harness, work):
    """Each op is one fresh `cnvsim run` process, as a CLI user pays it."""
    info = json.loads(subprocess.run([harness, "info", COLD_RUN_NET],
                                     check=True, capture_output=True,
                                     text=True).stdout)
    jobs = args.jobs or COLD_RUN_JOBS

    def command(seed, report, perf=None):
        cmd = [cnvsim, "run", COLD_RUN_NET, "--arch", COLD_RUN_ARCHS,
               "--jobs", str(jobs), "--seed", str(seed),
               "--report-json", report]
        return cmd + (["--perf-json", perf] if perf else [])

    # Set-up: unmeasured warm-up processes, the first before the loop
    # and the rest spread through it, so setup_s samples the host at
    # several points of the run. The first is the CLI default run that
    # speedup_err_vs_paper is read from.
    setup_s, setup_lines = [], []

    def warm_up():
        k = len(setup_s)
        seed = CLI_DEFAULT_SEED if k == 0 else mix(args.seed + 1000 + k) % 10**6
        report = os.path.join(work, f"setup{k}.json")
        code, secs, _ = spawn(command(seed, report), report + ".err")
        if code != 0:
            die(f"cold-run set-up op failed with exit code {code}", 1)
        setup_s.append(secs)
        rep = json.load(open(report))
        setup_lines.append(f"setup{k} " + " ".join(map(str, report_cycles(rep))))
        return rep["summary"]["speedup"]

    speedup = warm_up()
    n = math.ceil(args.seconds * OPS_PER_SECOND["cold-run"])
    ops = []
    for i in range(n):
        if len(setup_s) < SETUPS and i == len(setup_s) * n // SETUPS:
            warm_up()
        traced = args.trace and i % 2 == 1
        report = os.path.join(work, f"op{i}.json")
        perf = os.path.join(work, f"op{i}.perf.json") if traced else None
        seed = mix(args.seed * 1000003 + i) % 10**6
        code, secs, rss = spawn(command(seed, report, perf), report + ".err")
        ops.append({"seconds": secs, "traced": traced, "code": code,
                    "rssKib": rss, "report": report, "perf": perf})

    # Checks run after the measured loop so they cost the loop nothing.
    lines = list(setup_lines)
    for i, op in enumerate(ops):
        op["ok"] = False
        if op["code"] != 0:
            continue
        try:
            rep = json.load(open(op.pop("report")))
            cyc = {a: rep["summary"]["archs"][a]["cycles"]
                   for a in ("dadiannao", "cnv", "cnv2")}
            op["ok"] = cyc["cnv2"] <= cyc["cnv"] <= cyc["dadiannao"]
            op["cache"] = rep["summary"]["cache"]
            lines.append(f"op{i} " + " ".join(map(str, report_cycles(rep))))
        except (OSError, ValueError, KeyError, TypeError):
            pass

    result = {"ops": ops, "setupSeconds": setup_s, "digestLines": lines,
              "provenance": dict(info["provenance"], jobs=jobs)}
    if not args.trace:
        result["metrics"] = end_to_end(
            setup_s, [o["seconds"] for o in ops if o["ok"]],
            max(o["rssKib"] for o in ops), speedup,
            PAPER_SPEEDUP[args.workload])
    else:
        result["metrics"] = cold_run_layers(ops, info, jobs)
    return result


def report_cycles(rep):
    """Every simulated cycle count of a cnv-report-v1: totals, then layers."""
    out = []
    for arch in rep["architectures"].values():
        out.append(arch["stats"]["cycles"]["value"])
        for layer in arch["groups"]["layers"]["groups"].values():
            out.append(layer["stats"]["cycles"]["value"])
    return out


def cold_run_layers(ops, info, jobs):
    """Per-layer numbers from cnvsim's own hostProfile (--perf-json)."""
    traced = [o for o in ops if o["traced"] and o["ok"]]
    convs, elems = info["convLayers"], info["convInputElems"]
    sums = dict.fromkeys(("synth", "encode", "tmiss", "chit", "cmiss", "busy",
                          "idle", "stolen", "build", "timing", "report",
                          "distinct", "wall"), 0.0)
    for op in traced:
        hp = json.load(open(op["perf"]))["hostProfile"]
        tc = hp["traceCache"]
        busy = sum(w["busySeconds"] for w in hp["pool"]["workers"].values())
        sums["synth"] += tc["synthesis"]["totalSeconds"]
        sums["encode"] += tc["encode"]["totalSeconds"]
        sums["tmiss"] += tc["tensorMisses"]
        sums["chit"] += tc["countMapHits"]
        sums["cmiss"] += tc["countMapMisses"]
        sums["busy"] += busy
        sums["idle"] += jobs * hp["totalSeconds"] - busy
        sums["stolen"] += hp["pool"]["stolenTasks"]
        sums["wall"] += op["seconds"]
        # The report pass's own cache misses once per distinct key.
        sums["distinct"] += op["cache"]["tensorMisses"]
        for name in ("build", "timing", "report"):
            sums[name] += hp["phases"].get(name, {}).get("seconds", 0.0)

    t = len(traced)
    per_op = {k: v / t for k, v in sums.items()}
    sim_calls = (per_op["chit"] + per_op["cmiss"]) / convs
    ideal = per_op["busy"] - per_op["synth"] - per_op["encode"]
    rss = [o["rssKib"] for o in ops]
    return {
        "nn.synth_s": per_op["synth"],
        "nn.synth_ns_per_elem": sums["synth"] * 1e9 / (sums["tmiss"] * elems / convs),
        "nn.build_s": per_op["build"],
        "nn.calibrate_s": 0.0,
        "timing.tensor_misses": per_op["tmiss"],
        "timing.synth_useful_frac": sums["distinct"] / sums["tmiss"],
        "timing.count_hits": per_op["chit"],
        "timing.count_misses": per_op["cmiss"],
        "timing.ideal_s": ideal,
        "timing.us_per_conv_layer": ideal * 1e6 / (sim_calls * convs),
        "timing.sim_calls": sim_calls,
        "timing.rss_growth_mib_per_op": (rss[-1] - rss[0]) / 1024 / (len(rss) - 1),
        "zfnaf.count_s": per_op["encode"],
        "zfnaf.count_ns_per_elem": sums["encode"] * 1e9 / (sums["cmiss"] * elems / convs),
        "mem.banked_extra_s": 0.0,
        "pruning.accuracy_s": 0.0,
        "sim.pool_busy_s": per_op["busy"],
        "sim.pool_idle_s": per_op["idle"],
        "sim.stolen_tasks": per_op["stolen"],
        "driver.build_s": per_op["build"],
        "driver.timing_s": per_op["timing"],
        "driver.report_s": per_op["report"],
        "bench.trace_overhead": trace_overhead(ops),
        "bench.layer_coverage":
            (sums["build"] + sums["timing"] + sums["report"]) / sums["wall"],
    }


# ------------------------------------------------------ in-process workloads

def in_process(args, harness):
    n = math.ceil(args.seconds * OPS_PER_SECOND[args.workload])
    cmd = [harness, args.workload, "--seed", str(args.seed % 2**64), "--ops", str(n),
           "--setups", str(SETUPS)]
    if args.trace:
        cmd += ["--trace", trace_path(args)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    _children.append(proc)
    out, _ = proc.communicate()
    _children.remove(proc)
    if proc.returncode != 0:
        die(f"{args.workload} harness failed with exit code {proc.returncode}", 1)
    run = json.loads(out)
    lines = ["setup " + " ".join(map(str, run["setupCycles"]))]
    lines += [f"op{i} " + " ".join(map(str, o["cycles"]))
              for i, o in enumerate(run["ops"])]
    result = {"ops": run["ops"], "setupSeconds": run["setupSeconds"],
              "digestLines": lines, "provenance": run["provenance"]}
    if not args.trace:
        result["metrics"] = end_to_end(
            run["setupSeconds"], [o["seconds"] for o in run["ops"] if o["ok"]],
            run["peakRssKib"], run["speedup"], PAPER_SPEEDUP[args.workload])
    else:
        result["metrics"] = in_process_layers(run, trace_path(args))
    return result


def in_process_layers(run, path):
    """Per-layer numbers from the harness's spans (self time = duration
    minus the time the span's children cover)."""
    spans = [dict(e["args"], name=e["name"])
             for e in json.load(open(path))["traceEvents"]
             if e.get("ph") == "X"]
    covered = {}
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] = covered.get(s["parent"], 0) + s["durNs"]
    for s in spans:
        s["selfNs"] = s["durNs"] - covered.get(s["id"], 0)

    def pick(name, in_ops):
        return [s for s in spans if s["name"] == name and (s["op"] >= 0) == in_ops]

    def total(name, in_ops=True, key="selfNs"):
        return sum(s[key] for s in pick(name, in_ops)) / 1e9

    def rate(name):
        missed = [s for s in spans if s["name"] == name and s.get("miss")]
        return (sum(s["durNs"] for s in missed) / sum(s["elems"] for s in missed)
                if missed else 0.0)

    ops = pick("bench.op", True)
    t = len(ops)
    ideal_calls = pick("driver.evaluate.ideal", True)
    ideal_s = total("driver.evaluate.ideal") / t
    sim_calls = sum(s.get("simCalls", 0) for s in spans
                    if s["op"] >= 0 and s["name"].startswith("driver.evaluate"))
    ideal_layer_sims = sum(s["simCalls"] * s["convLayers"] for s in ideal_calls)
    setup_synth = pick("nn.synth", False)
    misses = (sum(s["miss"] for s in setup_synth)
              + sum(s["tensorMisses"] for s in ops))
    requested = {(s["conv"], s["image"]) for s in spans if s["name"] == "nn.synth"}
    timing_s = (total("driver.evaluate.ideal", key="durNs")
                + total("driver.evaluate.banked", key="durNs")) / t
    layer_self = sum(s["selfNs"] for s in spans
                     if s["op"] >= 0 and s["name"] != "bench.op")
    build_s = total("nn.build", in_ops=False)
    banked_extra = 0.0
    if pick("driver.evaluate.banked", True):
        banked_extra = (total("driver.evaluate.banked", key="durNs")
                        - total("driver.evaluate.ideal", key="durNs"))
    plain = [o for o in run["ops"] if not o["traced"]]
    rss_growth = sum(o["rssDeltaKib"] for o in plain) / 1024 / len(plain)
    return {
        "nn.synth_s": total("nn.synth", in_ops=False),
        "nn.synth_ns_per_elem": rate("nn.synth"),
        "nn.build_s": build_s,
        "nn.calibrate_s": total("nn.calibrate", in_ops=False),
        "timing.tensor_misses": sum(s["tensorMisses"] for s in ops) / t,
        "timing.synth_useful_frac": len(requested) / misses if misses else 1.0,
        "timing.count_hits": sum(s["countHits"] for s in ops) / t,
        "timing.count_misses": sum(s["countMisses"] for s in ops) / t,
        "timing.ideal_s": ideal_s,
        "timing.us_per_conv_layer": ideal_s * t * 1e6 / ideal_layer_sims,
        "timing.sim_calls": sim_calls / t,
        "timing.rss_growth_mib_per_op": rss_growth,
        "zfnaf.count_s": total("zfnaf.count") / t,
        "zfnaf.count_ns_per_elem": rate("zfnaf.count"),
        "mem.banked_extra_s": banked_extra / t,
        "pruning.accuracy_s": total("pruning.accuracy") / t,
        "sim.pool_busy_s": sum(s["poolBusyNs"] for s in ops) / 1e9 / t,
        "sim.pool_idle_s": sum(s["poolLanes"] * s["durNs"] - s["poolBusyNs"]
                               for s in ops) / 1e9 / t,
        "sim.stolen_tasks": sum(s["stolenTasks"] for s in ops) / t,
        "driver.build_s": build_s,
        "driver.timing_s": timing_s,
        "driver.report_s": 0.0,
        "bench.trace_overhead": trace_overhead(run["ops"]),
        "bench.layer_coverage": layer_self / sum(s["durNs"] for s in ops),
    }


# ------------------------------------------------------------------- main

def stop_children(*_):
    for proc in list(_children):
        proc.kill()
        proc.wait()
    die(f"run exceeded {RUN_LIMIT_S} s; stopped", 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OPS_PER_SECOND))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="cnvsim --jobs for cold-run (default "
                             f"{COLD_RUN_JOBS}); the digest must not change")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", os.path.join(HARNESS_DIR, "hostbench.cc")):
        if not os.path.exists(os.path.join(root, needed)):
            die(f"run from the root of a source checkout ({needed} missing)")
    cnvsim, harness = build(root)

    signal.signal(signal.SIGALRM, stop_children)
    signal.alarm(RUN_LIMIT_S)
    work = os.path.join(root, BUILD_DIR, "run", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.workload == "cold-run":
        result = cold_run(args, cnvsim, harness, work)
    else:
        result = in_process(args, harness)
    signal.alarm(0)

    ops = result["ops"]
    failed = sum(1 for o in ops if not o["ok"])
    units = PER_LAYER if args.trace else END_TO_END
    out = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
           "metrics": {k: {"value": result["metrics"][k], "unit": u}
                       for k, u in units.items()}}
    provenance = dict(result["provenance"], nproc=os.cpu_count(),
                      workload=args.workload, seed=args.seed)
    cycle_digest = digest(result["digestLines"])
    results = os.path.join(root, BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump(dict(out, provenance=provenance, digest=cycle_digest,
                       setupSeconds=result["setupSeconds"],
                       opSeconds=[o["seconds"] for o in ops]), f, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"digest {cycle_digest}")
    if not args.trace:
        # The median and p90 are printed, not gated (NOTES.md, "Noise").
        good = [o["seconds"] for o in ops if o["ok"]]
        p50, p90 = statistics.median(good), percentile(good, 90)
        beyond = sum(1 for s in good if s > p90)
        print(f"op_s.p50 {p50:.6f} op_s.p90 {p90:.6f} p90/p50 {p90 / p50:.3f}, "
              f"{beyond} of {len(good)} samples beyond p90")
    print(json.dumps(out))


if __name__ == "__main__":
    main()

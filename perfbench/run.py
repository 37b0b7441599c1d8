#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload rubis_loopback --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (Release, TXCACHE_LOCK_STATS=OFF) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls rebuild
incrementally. A run is several phases, each a fresh process of perfbench_e2e on a freshly
built stack; this script combines them. The report goes to stdout and its last line is the
JSON result; the build log goes to stderr. Exits nonzero, printing no result, if the build or
any phase fails or the result lacks a metric that BENCHMARK.json names.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170  # all phases of one run together
# (TxCache, no-cache) phases per untraced run. The single-threaded wiki runs on one vCPU at a
# time, so it takes more, shorter repetitions to make its median steady.
REPS = {"wiki_evict": (9, 3)}
DEFAULT_REPS = (7, 2)
MAX_REPLACEMENTS = 2  # phases re-run per run after the program under test died in one


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path or None."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release",
                      "-DTXCACHE_LOCK_STATS=OFF"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    # The compiler's scratch files stay inside the build directory too.
    tmp = os.path.abspath(os.path.join(out_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build step failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "perfbench_e2e")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json registers for this mode, if the file is present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_phase(binary, args, phase, deadline, trace_out=None):
    """Runs one phase in its own process; returns its parsed JSON result or None."""
    cmd = [binary, "--workload", args.workload, "--phase", phase, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"phase {phase} did not finish within the run's time limit", file=sys.stderr)
        return None
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode < 0:
        # The program under test died (a signal, e.g. SIGSEGV). That is its failure, not the
        # benchmark's: every operation the phase was to run counts as failed, and the run goes
        # on with its other phases.
        planned = re.search(r"measured_ops=(\d+)", done.stdout)
        ops = int(planned.group(1)) if planned else 1
        print(f"  phase {phase} died with signal {-done.returncode}: its {ops} operations "
              f"count as failed")
        return {"phase": phase, "attempted": ops, "failed": ops, "metrics": None}
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 else None
    except ValueError:
        result = None
    if result is None:
        sys.stderr.write(done.stdout)
        print(f"phase {phase} failed (exit {done.returncode})", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(f"  {line}")
    return result


def median_metric(results, name):
    return statistics.median(r["metrics"][name]["value"] for r in results if r["metrics"])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Untraced runs: end-to-end metrics are medians over several TxCache phases, each on a
    # fresh stack in a fresh process, and the no-cache baseline runs the same inputs; the two
    # kinds alternate so that both sample the whole span of the run. Traced runs pair one
    # untraced phase (for the tracing overhead) with one traced phase.
    if args.trace:
        plan = ["txcache", "traced"]
    else:
        txcache_reps, nocache_reps = REPS.get(args.workload, DEFAULT_REPS)
        plan = []
        for i in range(max(txcache_reps, nocache_reps)):
            plan += ["txcache"] * (i < txcache_reps) + ["nocache"] * (i < nocache_reps)
    results = {"txcache": [], "nocache": [], "traced": []}
    replacements = 0
    while plan:
        phase = plan.pop(0)
        trace_out = None
        if phase == "traced":
            trace_out = os.path.join(out_dir, f"spans-{args.workload}.tsv")
        result = run_phase(binary, args, phase, deadline, trace_out)
        if result is None:
            return 1
        results[phase].append(result)
        if result["metrics"] is None and replacements < MAX_REPLACEMENTS:
            # The dead phase stays counted as failed; a replacement still yields its metrics.
            replacements += 1
            plan.append(phase)

    every = [r for rs in results.values() for r in rs]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    if any(not any(r["metrics"] for r in rs) for rs in results.values() if rs):
        print("every phase of one kind died; no metrics to report", file=sys.stderr)
        return 1
    units = {name: m["unit"] for r in every if r["metrics"] for name, m in r["metrics"].items()}
    metrics = {}
    if not args.trace:
        for name in ("ops_per_s", "ro_p50_us", "ro_p99_us", "rw_p50_us", "rw_p99_us", "setup_s",
                     "peak_rss_mb"):
            metrics[name] = median_metric(results["txcache"], name)
        metrics["nocache_ops_per_s"] = median_metric(results["nocache"], "ops_per_s")
        units["nocache_ops_per_s"] = units["ops_per_s"]
    else:
        traced = next(r["metrics"] for r in results["traced"] if r["metrics"])
        for name, m in traced.items():
            if name != "traced_ops_per_s":
                metrics[name] = m["value"]
        untraced = median_metric(results["txcache"], "ops_per_s")
        metrics["trace.overhead_frac"] = 1.0 - traced["traced_ops_per_s"]["value"] / untraced
        units["trace.overhead_frac"] = "fraction"

    missing = [m for m in expected_metrics(args.trace) or [] if m not in metrics]
    if missing:
        print(f"result lacks metrics: {missing}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"metric {name:<30} {value:>16.4f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

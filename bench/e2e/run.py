#!/usr/bin/env python3
"""End-to-end benchmark: builds bench_e2e, runs workloads, prints metrics.

  python3 bench/e2e/run.py                       # every workload
  python3 bench/e2e/run.py --workload wavefront --seed 3 --seconds 10 --trace 0
  python3 bench/e2e/run.py --trace 1             # per-layer metrics + Chrome traces
  python3 bench/e2e/run.py --sets 10 --seed 11   # repeatability: seeds 11..20
  python3 bench/e2e/run.py --smoke [--bin PATH]  # tiny sizes: checks and names only

Each metric prints as `workload metric value unit`.  With --workload the
last stdout line is one JSON object {correct, attempted, failed, metrics}.
An untraced measurement runs the workload as R=5 fresh processes, one after
another, each timing a fifth of --seconds; latency samples are pooled (p99s
as the median of windowed p99s, see p99()), and the other metrics are
medians over the processes.  A traced measurement (--trace
1) runs one untraced and one traced process for half of --seconds each; its
per-layer metrics come from the untraced process except those only a trace
can give.  Exits 1 when an output check failed, 2 when the benchmark could
not run.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")

WORKLOADS = ["wavefront", "timing_full", "timing_incr", "service_poisson"]
PROCESSES = 5
DEFAULT_SECONDS = 25  # BENCHMARK.json run_seconds
PROCESS_TIMEOUT_S = 170
P99_WINDOW = 1000

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
]

PER_LAYER = [
    ("graph.build_us", "us"),
    ("graph.teardown_us", "us"),
    ("graph.nodes_per_op", "count"),
    ("graph.edges_per_op", "count"),
    ("executor.submit_us", "us"),
    ("executor.wait_p50_us", "us"),
    ("executor.wait_p99_us", "us"),
    ("scheduler.steals_per_op", "count"),
    ("scheduler.cache_hits_per_op", "count"),
    ("scheduler.parks_per_op", "count"),
    ("scheduler.wakes_per_op", "count"),
    ("scheduler.cache_hit_ratio", "ratio"),
    ("scheduler.busy_share", "ratio"),
    ("scheduler.body_ns_p50", "ns"),
    ("scheduler.gap_ns_p50", "ns"),
    ("scheduler.first_task_us", "us"),
    ("scheduler.drain_us", "us"),
    ("scheduler.serial_ops_ratio", "ratio"),
    ("timer.update_us", "us"),
    ("timer.query_us", "us"),
    ("timer.tasks_per_op", "count"),
    ("timer.seq_update_us", "us"),
    ("timer.v1_update_us", "us"),
    ("service.submit_p50_us", "us"),
    ("service.submit_p99_us", "us"),
    ("service.server_p50_us", "us"),
    ("service.server_p99_us", "us"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("service.shed", "count"),
    ("service.ok_ratio", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
]

# The generator must keep to its schedule for an open-loop run to count.
LATE_P99_LIMIT_US = 200.0


class BenchError(Exception):
    """The benchmark could not run (build failure, crash, bad output)."""


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "taskflow", "taskflow.hpp")):
        raise BenchError("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--parallel", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_process(binary, workload, seed, seconds, trace_path=None, smoke=False):
    """One bench_e2e process; returns its JSON result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if trace_path:
        cmd += ["--trace", trace_path]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("%s timed out" % workload) from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("%s exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def quantile(values, q):
    """Linear interpolation between closest ranks (0 for no values)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def p99(values):
    """Median, over consecutive windows of about P99_WINDOW samples, of each
    window's p99; one window when there are fewer samples.  Each window keeps
    ~10 samples beyond its p99, and a pause of the whole host (10-20 ms every
    few seconds on a shared VM) moves only the few windows it falls in, where
    it would move a p99 over all samples from one run to the next."""
    k = max(1, len(values) // P99_WINDOW)
    return statistics.median(
        quantile(values[i * len(values) // k:(i + 1) * len(values) // k], 0.99)
        for i in range(k))


def pooled(results, key):
    """The samples of every process, in process and then time order."""
    return [x for r in results for x in r["samples"].get(key, [])]


def end_to_end(results):
    """End-to-end metrics of the untraced processes of one workload: latency
    quantiles of the pooled samples, everything else the median over the
    processes, so that one process slowed by its neighbours on the host does
    not move the run."""
    op = pooled(results, "op_us")

    def median(f):
        return statistics.median(f(r, len(r["samples"].get("op_us", []))) for r in results)

    return {
        "setup_s": median(lambda r, ops: r["setup_s"]),
        "op_p50_us": quantile(op, 0.5),
        "op_p99_us": p99(op),
        "ops_per_s": median(lambda r, ops: ops / r["timed_s"]),
        "cpu_us_per_op": median(lambda r, ops: 1e6 * r["cpu_s"] / max(ops, 1)),
        "peak_rss_mib": median(lambda r, ops: r["peak_rss_mib"]),
    }


def per_layer(untraced, traced):
    """Per-layer metrics: counters and layer timings from the untraced
    process, observer aggregates and baselines from the traced one."""
    s, t = untraced["samples"], untraced["totals"]
    ops = max(len(s.get("op_us", [])), 1)
    m = {
        "graph.build_us": quantile(s.get("graph.build_us", []), 0.5),
        "graph.teardown_us": quantile(s.get("graph.teardown_us", []), 0.5),
        "graph.nodes_per_op": t.get("nodes", 0) / ops,
        "graph.edges_per_op": t.get("edges", 0) / ops,
        "executor.submit_us": quantile(s.get("executor.submit_us", []), 0.5),
        "executor.wait_p50_us": quantile(s.get("executor.wait_us", []), 0.5),
        "executor.wait_p99_us": p99(s.get("executor.wait_us", [])),
        "scheduler.steals_per_op": t.get("steals", 0) / ops,
        "scheduler.cache_hits_per_op": t.get("cache_hits", 0) / ops,
        "scheduler.parks_per_op": t.get("parks", 0) / ops,
        "scheduler.wakes_per_op": t.get("wakes", 0) / ops,
        "scheduler.cache_hit_ratio": t.get("cache_hits", 0) / max(t.get("tasks", 0), 1),
        "timer.update_us": quantile(s.get("timer.update_us", []), 0.5),
        "timer.query_us": quantile(s.get("timer.query_us", []), 0.5),
        "timer.tasks_per_op": t.get("tasks", 0) / ops if "timer.update_us" in s else 0.0,
        "service.submit_p50_us": quantile(s.get("service.submit_us", []), 0.5),
        "service.submit_p99_us": p99(s.get("service.submit_us", [])),
        "service.server_p50_us": quantile(s.get("service.server_us", []), 0.5),
        "service.server_p99_us": p99(s.get("service.server_us", [])),
        "service.admitted": t.get("service.admitted", 0),
        "service.rejected": t.get("service.rejected", 0),
        "service.shed": t.get("service.shed", 0),
        "service.ok_ratio": t.get("service.ok", 0) / max(untraced["attempted"], 1)
        if "service.ok" in t else 0.0,
        "loadgen.late_p99_us": p99(s.get("loadgen.late_us", [])),
    }
    for name, _ in PER_LAYER:
        if name.startswith("scheduler.") and name not in m:
            m[name] = traced["totals"].get(name, 0.0)
    ts = traced["samples"]
    m["timer.seq_update_us"] = quantile(ts.get("timer.seq_update_us", []), 0.5)
    m["timer.v1_update_us"] = quantile(ts.get("timer.v1_update_us", []), 0.5)
    base = quantile(s.get("op_us", []), 0.5)
    m["trace.overhead_ratio"] = quantile(ts.get("op_us", []), 0.5) / base - 1 if base > 0 else 0.0
    return m


def measure(binary, workload, seed, seconds, trace):
    """Run one workload; returns (metrics, attempted, failed, notes)."""
    notes = []
    if trace:
        untraced = run_process(binary, workload, seed, seconds / 2)
        path = os.path.join(BUILD, "trace-%s.json" % workload)
        traced = run_process(binary, workload, seed, seconds / 2, trace_path=path)
        results = [untraced, traced]
        metrics = per_layer(untraced, traced)
        notes.append("chrome trace: " + os.path.relpath(path, ROOT))
        notes.append("%-20s %10s %14s %14s %8s" % ("span", "calls", "total_ms", "self_ms", "self_%"))
        for name, (calls, total_us, self_us) in sorted(traced["self_time"].items()):
            share = 100.0 * self_us / total_us if total_us > 0 else 0.0
            notes.append("%-20s %10d %14.3f %14.3f %8.1f"
                         % (name, calls, total_us / 1e3, self_us / 1e3, share))
        for key in ("baseline.seq_op_us", "baseline.omp_op_us"):
            if key in traced["samples"]:
                notes.append("%s %.1f us (median of %d)"
                             % (key, quantile(traced["samples"][key], 0.5),
                                len(traced["samples"][key])))
        if workload == "wavefront":
            parts = ("graph.build_us", "executor.submit_us", "executor.wait_p50_us",
                     "graph.teardown_us")
            layer_sum = sum(metrics[p] for p in parts)
            op_p50 = quantile(untraced["samples"]["op_us"], 0.5)
            notes.append("layer sum %.1f us = %.3f x untraced op_p50_us %.1f us"
                         % (layer_sum, layer_sum / op_p50, op_p50))
    else:
        results = [run_process(binary, workload, seed, seconds / PROCESSES)
                   for _ in range(PROCESSES)]
        metrics = end_to_end(results)
        notes.append("op samples %d" % len(pooled(results, "op_us")))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        notes.extend("FAILED CHECK: " + e for e in r["errors"])
    late = p99(pooled(results[:1] if trace else results, "loadgen.late_us"))
    if late > LATE_P99_LIMIT_US:
        notes.append("INVALID RUN: generator late p99 %.1f us > %.0f us"
                     % (late, LATE_P99_LIMIT_US))
    return metrics, attempted, failed, notes


def units(trace):
    return dict(PER_LAYER if trace else END_TO_END)


def print_metrics(workload, metrics, attempted, failed, notes, trace):
    for name, unit in units(trace).items():
        print("%s %s %.6g %s" % (workload, name, metrics[name], unit))
    print("%s fail_ratio %.6g ratio" % (workload, failed / max(attempted, 1)))
    for note in notes:
        print("# %s %s" % (workload, note))


def run_sets(binary, workloads, sets, first_seed, seconds):
    """Run `sets` untraced measurements per workload, one seed each from
    `first_seed` on, workloads interleaved, and print one row per workload:
    each end-to-end metric's median and spread (interquartile range over
    median)."""
    failed = 0
    values = {w: {name: [] for name, _ in END_TO_END} for w in workloads}
    for seed in range(first_seed, first_seed + sets):
        for w in workloads:
            metrics, _, f, _ = measure(binary, w, seed, seconds, trace=False)
            failed += f
            for name, _ in END_TO_END:
                values[w][name].append(metrics[name])
            print("# seed %d %s %s" % (seed, w, " ".join(
                "%s=%.6g" % (name, metrics[name]) for name, _ in END_TO_END)), file=sys.stderr)
    print("| workload | " + " | ".join("%s (spread)" % name for name, _ in END_TO_END) + " |")
    print("|---|" + "---|" * len(END_TO_END))
    for w in workloads:
        cells = []
        for name, _ in END_TO_END:
            v = values[w][name]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            cells.append("%.4g (%.3f)" % (med, (q[2] - q[0]) / med if med else 0.0))
        print("| %s | %s |" % (w, " | ".join(cells)))
    return failed


def smoke(binary):
    """Every workload at a tiny size, untraced and traced: outputs correct and
    exactly the metric names BENCHMARK.json declares."""
    manifest = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(manifest):
        with open(manifest) as f:
            spec = json.load(f)
        declared = ({(m["name"], m["unit"]) for m in spec["end_to_end"]},
                    {(m["name"], m["unit"]) for m in spec["per_layer"]},
                    {w["name"] for w in spec["workloads"]})
        if declared != (set(END_TO_END), set(PER_LAYER), set(WORKLOADS)):
            print("smoke: BENCHMARK.json names differ from run.py", file=sys.stderr)
            return 1
    for w in WORKLOADS:
        plain = run_process(binary, w, 1, 0.05, smoke=True)
        path = os.path.join(os.path.dirname(binary), "smoke-trace-%s.json" % w)
        traced = run_process(binary, w, 1, 0.05, trace_path=path, smoke=True)
        got = (set(end_to_end([plain])), set(per_layer(plain, traced)))
        want = (set(n for n, _ in END_TO_END), set(n for n, _ in PER_LAYER))
        bad = plain["failed"] + traced["failed"]
        if got != want or bad or plain["attempted"] < 1:
            print("smoke: %s failed (%d failed ops, names match: %s)" % (w, bad, got == want),
                  file=sys.stderr)
            return 1
        print("smoke: %s ok" % w)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this bench_e2e binary instead of building one")
    args = ap.parse_args()
    if args.seconds <= 0 or args.sets < 0:
        ap.error("--seconds must be positive and --sets not negative")

    try:
        if not args.bin:
            build()
        binary = args.bin or BINARY
        if args.smoke:
            return smoke(binary)
        workloads = [args.workload] if args.workload else WORKLOADS
        if args.sets:
            return 1 if run_sets(binary, workloads, args.sets, args.seed, args.seconds) else 0
        attempted = failed = 0
        for w in workloads:
            metrics, a, f, notes = measure(binary, w, args.seed, args.seconds, args.trace == 1)
            attempted += a
            failed += f
            print_metrics(w, metrics, a, f, notes, args.trace == 1)
        if args.workload:
            print(json.dumps({
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in units(args.trace == 1).items()},
            }))
        return 1 if failed else 0
    except BenchError as e:
        print("run.py: " + str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

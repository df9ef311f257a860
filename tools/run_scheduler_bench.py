#!/usr/bin/env python3
"""run_scheduler_bench.py - scheduler performance harness.

Builds and runs the scheduler-sensitive benchmarks (micro construction,
executor ablation, scheduler hot path, Fig. 7 kernels, Fig. 10 timer sweep),
collects everything into one JSON document, and - when given a baseline
produced by an earlier run - attaches per-benchmark percentage deltas.
The committed BENCH_scheduler.json at the repository root is the output of
this script with the seed revision as baseline; BENCH_algorithms.json is the
algorithm-pattern record (partitioners vs the legacy per-chunk-node
strategy), BENCH_construction.json the graph-construction record
(micro construction + the Fig. 8 stress variant), and BENCH_service.json
the service-layer record (per-admission-mode accepted-latency percentiles +
peak RSS through tf::Server, plus the scaled clients x request-count sweep
of the bounded mode), all written by the same record run and gated by the
same --compare.

Typical use:

    # record the current tree's numbers against a saved baseline
    python3 tools/run_scheduler_bench.py --baseline BENCH_seed.json \
        --output BENCH_scheduler.json

    # regression gate: fail when a hot-path bench regresses > 10% vs the
    # committed record
    python3 tools/run_scheduler_bench.py --compare BENCH_scheduler.json

    # gate the taskflow, support and service suites under ThreadSanitizer
    python3 tools/run_scheduler_bench.py --tsan

    # gate them and the timer suite under AddressSanitizer + UBSan (leaks in
    # the error-drain paths, use of stale task handles)
    python3 tools/run_scheduler_bench.py --asan

    # peak-RSS probe of the construction benches plus the service-ingest
    # bench per admission mode (massif-friendly: prints the valgrind
    # command for a full allocation profile)
    python3 tools/run_scheduler_bench.py --peak-rss

Benchmarks honor REPRO_MAX_THREADS / REPRO_TIMER_CORNERS / REPRO_SCALE from
the environment (see EXPERIMENTS.md); pin them for stable comparisons.
"""

import argparse
import csv
import json
import os
import platform
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOOGLE_BENCHES = [
    "bench_micro_construction",
    "bench_ablation_executor",
    "bench_scheduler_hotpath",
]

# The algorithm-pattern benches (partitioners vs the legacy per-chunk-node
# strategy vs a std::thread baseline) record into their own document,
# BENCH_algorithms.json, gated by --compare alongside the scheduler record.
ALGO_BENCHES = [
    "bench_algorithms",
]

# The graph-construction benches (arena/CSR layout, DESIGN.md §10): emplace
# and precede throughput at up to 1M nodes plus the scaled-up Fig. 8 timing
# stress.  They record into BENCH_construction.json and are gated by
# --compare the same way.  bench_micro_construction also feeds the scheduler
# record; record/compare runs execute each binary once and reuse the result.
CONSTRUCTION_BENCHES = [
    "bench_micro_construction",
    "bench_fig8_stress",
]

# Figure harnesses emit machine-readable `CSV,<table>,...` lines next to the
# human-readable tables.
FIGURE_BENCHES = [
    "bench_fig7_wavefront",
    "bench_fig7_traversal",
    "bench_fig10_scalability",
]

# The service-ingest bench (admission control, DESIGN.md §11) runs once per
# admission mode in its own process so the peak-RSS high-water mark isolates
# each policy's queue buildup.  It records into BENCH_service.json; --compare
# gates the bounded and shed accepted-latency p99 (the unbounded mode is the
# overload baseline - its p99 IS the backlog, reported informationally).
SERVICE_BENCH = "bench_service_ingest"
SERVICE_MODES = ["unbounded", "bounded", "shed"]
SERVICE_GATED_MODES = ["bounded", "shed"]
# Per-mode repeats; record and compare both keep the median-p99 row.  The
# shed mode's survivor population is a few hundred requests, so a single
# run's p99 is one noisy order statistic - the median of three keeps the
# +-25% gate meaningful on a small machine.
SERVICE_REPEATS = 3

# The scaled SERVICE lane: a clients x request-count sweep of the bounded
# mode (the production configuration - backpressure at the edge), recorded
# informationally next to the gated per-mode rows so the record shows how
# accepted-latency percentiles and peak RSS scale with offered load, not
# just one operating point.  Kept small: each cell is a full server process.
SERVICE_SWEEP_CLIENTS = [4, 8, 16]
SERVICE_SWEEP_REQUESTS = [500, 1500]


def run(cmd, **kwargs):
    print("+", " ".join(cmd), flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def build(build_dir, targets):
    run(["cmake", "-B", build_dir, "-S", REPO_ROOT],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", "--target"] + targets)


# One run per binary per invocation: bench_micro_construction feeds both the
# scheduler and the construction records, and --compare gates it twice.
_google_bench_cache = {}


def run_google_bench(build_dir, name):
    """Run one google-benchmark binary; returns {bench_name: record}."""
    if (build_dir, name) in _google_bench_cache:
        return _google_bench_cache[(build_dir, name)]
    exe = os.path.join(build_dir, "bench", name)
    if not os.path.exists(exe):
        print(f"skipping {name}: {exe} not built", file=sys.stderr)
        return {}
    out_json = os.path.join(build_dir, name + ".json")
    run([exe, "--benchmark_format=json",
         "--benchmark_out=" + out_json, "--benchmark_out_format=json"],
        stdout=subprocess.DEVNULL)
    with open(out_json) as f:
        doc = json.load(f)
    results = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
        skip = {"name", "run_name", "run_type", "repetitions",
                "repetition_index", "threads", "iterations", "real_time",
                "cpu_time", "time_unit", "family_index",
                "per_family_instance_index"}
        counters = {k: v for k, v in b.items()
                    if k not in skip and isinstance(v, (int, float))}
        results[b["name"]] = {
            "real_time_ms": b["real_time"] * scale,
            "cpu_time_ms": b["cpu_time"] * scale,
            "iterations": b["iterations"],
            "counters": counters,
        }
    _google_bench_cache[(build_dir, name)] = results
    return results


def cell_value(cell):
    """A CSV cell as a number when it reads as one (thousands-grouped
    counts such as "16,384" included), else the string."""
    if re.fullmatch(r"-?\d{1,3}(,\d{3})+", cell):
        cell = cell.replace(",", "")
    try:
        return float(cell)
    except ValueError:
        return cell


def read_csv_tables(stdout, source):
    """Parse the `CSV,<table>,...` lines of a harness's stdout (RFC 4180
    quoting) into {table: [row dicts]}; the first line of a table is its
    header.  Exits non-zero on a row whose width differs from its header's:
    a shifted row would mislabel every later column."""
    headers, tables = {}, {}
    for line in stdout.splitlines():
        if not line.startswith("CSV,"):
            continue
        table, *cells = next(csv.reader([line]))[1:]
        if table not in headers:
            headers[table] = cells
            tables[table] = []
            continue
        if len(cells) != len(headers[table]):
            sys.exit(f"error: {source}: a CSV,{table} row has {len(cells)} "
                     f"cells but its header has {len(headers[table])}: {line}")
        tables[table].append(
            {key: cell_value(cell) for key, cell in zip(headers[table], cells)})
    return tables


def run_figure_bench(build_dir, name):
    """Run one figure harness; returns {table_name: [row dicts]}."""
    exe = os.path.join(build_dir, "bench", name)
    proc = run([exe], capture_output=True, text=True)
    return read_csv_tables(proc.stdout, name)


def _run_service_once(exe, extra_env):
    """Run the service-ingest binary once with `extra_env` on top of the
    caller's environment; returns the parsed CSV row (the bench emits one
    header + one data line per process)."""
    env = dict(os.environ, **extra_env)
    knobs = " ".join(f"{k}={v}" for k, v in sorted(extra_env.items()))
    print("+", exe, f"({knobs})", flush=True)
    proc = subprocess.run([exe], check=True, capture_output=True,
                          text=True, env=env)
    rows = read_csv_tables(proc.stdout, exe).get("service_ingest")
    if not rows:
        sys.exit(f"error: {exe} emitted no CSV,service_ingest data line")
    return rows[-1]


def run_service_bench(build_dir):
    """Run the service-ingest bench SERVICE_REPEATS times per admission
    mode (separate processes: ru_maxrss is a per-process high-water mark)
    and keep each mode's median-p99 row; returns {mode: row dict} from the
    CSV lines."""
    exe = os.path.join(build_dir, "bench", SERVICE_BENCH)
    if not os.path.exists(exe):
        print(f"skipping {SERVICE_BENCH}: {exe} not built", file=sys.stderr)
        return {}
    modes = {}
    for mode in SERVICE_MODES:
        rows = [_run_service_once(exe, {"REPRO_SERVICE_MODE": mode})
                for _ in range(SERVICE_REPEATS)]
        rows.sort(key=lambda r: r.get("p99_us", 0.0))
        row = rows[len(rows) // 2]
        modes[row.pop("mode", mode)] = row
    return modes


def run_service_sweep(build_dir):
    """The scaled SERVICE lane: sweep the bounded mode over the clients x
    request-count grid; returns {"c<N>xr<M>": row dict}.  Recorded into the
    service document informationally (the per-mode rows are the gate)."""
    exe = os.path.join(build_dir, "bench", SERVICE_BENCH)
    if not os.path.exists(exe):
        print(f"skipping {SERVICE_BENCH} sweep: {exe} not built",
              file=sys.stderr)
        return {}
    cells = {}
    for clients in SERVICE_SWEEP_CLIENTS:
        for requests in SERVICE_SWEEP_REQUESTS:
            row = _run_service_once(exe, {
                "REPRO_SERVICE_MODE": "bounded",
                "REPRO_SERVICE_CLIENTS": str(clients),
                "REPRO_SERVICE_REQUESTS": str(requests),
            })
            row.pop("mode", None)
            cells[f"c{clients}xr{requests}"] = row
    return cells


def compare_service(record_path, build_dir, threshold):
    """Re-run the service bench and gate accepted-latency p99 of the gated
    modes against the committed record; returns (compared, regressions)."""
    try:
        with open(record_path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read record {record_path}: {e}")
    recorded = record.get("service_ingest", {})
    if not recorded:
        sys.exit(f"error: {record_path} has no service_ingest section")
    current = run_service_bench(build_dir)

    regressions, compared = [], 0
    print(f"\ncomparing against {record_path} "
          f"(label: {record.get('label', '?')}, "
          f"threshold: +{threshold:.0f}% on accepted p99)")
    for mode in SERVICE_MODES:
        if mode not in current or mode not in recorded:
            continue
        delta = pct(recorded[mode].get("p99_us"), current[mode].get("p99_us"))
        if mode not in SERVICE_GATED_MODES:
            print(f"  service_ingest/{mode:<9}  p99 "
                  f"{recorded[mode]['p99_us']:10.1f} us"
                  f" -> {current[mode]['p99_us']:10.1f} us"
                  f"  {delta:+6.1f}%  (informational)")
            continue
        compared += 1
        verdict = "ok"
        if delta is not None and delta > threshold:
            verdict = "REGRESSION"
            regressions.append((f"service_ingest/{mode}/p99_us", delta))
        print(f"  service_ingest/{mode:<9}  p99 "
              f"{recorded[mode]['p99_us']:10.1f} us"
              f" -> {current[mode]['p99_us']:10.1f} us"
              f"  {delta:+6.1f}%  {verdict}")
    if compared == 0:
        sys.exit(f"error: no service mode overlaps with {record_path}")
    return compared, regressions


def pct(before, after):
    if before is None or before == 0:
        return None
    return round(100.0 * (after - before) / before, 1)


# The iterative-convergence pair of bench_scheduler_hotpath (in-graph
# condition loop vs run_until resubmission, same per-lap pipeline): the
# record carries a derived summary so the per-iteration advantage of
# in-graph control flow is a first-class number, not something readers
# reconstruct from two rows.  The two variants differ by only a few
# percent, well inside single-shot noise, so the summary comes from a
# dedicated repetitions pass (median of ITERATIVE_REPETITIONS) rather
# than the one-sample google_benchmarks rows.
ITERATIVE_PAIRS = [
    ("BM_IterativeConditionLoop/1024/1/real_time",
     "BM_IterativeRunUntil/1024/1/real_time"),
    ("BM_IterativeConditionLoop/1024/4/real_time",
     "BM_IterativeRunUntil/1024/4/real_time"),
]
ITERATIVE_REPETITIONS = 15


def attach_iterative_convergence(doc, build_dir):
    """Derive condition-loop vs run_until per-iteration deltas into the
    scheduler record (negative delta = the condition loop is faster)."""
    exe = os.path.join(build_dir, "bench", "bench_scheduler_hotpath")
    if not os.path.exists(exe):
        return
    out_json = os.path.join(build_dir, "bench_scheduler_iterative.json")
    run([exe, "--benchmark_filter=BM_Iterative",
         f"--benchmark_repetitions={ITERATIVE_REPETITIONS}",
         "--benchmark_report_aggregates_only=true",
         "--benchmark_format=json",
         "--benchmark_out=" + out_json, "--benchmark_out_format=json"],
        stdout=subprocess.DEVNULL)
    with open(out_json) as f:
        medians = {b["run_name"]: b["real_time"]
                   for b in json.load(f).get("benchmarks", [])
                   if b.get("aggregate_name") == "median"}
    summary = {}
    for cond_name, until_name in ITERATIVE_PAIRS:
        if cond_name not in medians or until_name not in medians:
            continue
        workers = cond_name.split("/")[2]
        cond_ms = medians[cond_name]
        until_ms = medians[until_name]
        summary[f"workers_{workers}"] = {
            "condition_loop_ms": cond_ms,
            "run_until_ms": until_ms,
            "condition_vs_run_until_pct": pct(until_ms, cond_ms),
            "repetitions": ITERATIVE_REPETITIONS,
        }
    if not summary:
        return
    doc["iterative_convergence"] = summary
    for key, row in sorted(summary.items()):
        print(f"  iterative convergence ({key}): condition loop "
              f"{row['condition_loop_ms']:.4f} ms vs run_until "
              f"{row['run_until_ms']:.4f} ms "
              f"({row['condition_vs_run_until_pct']:+.1f}%)")


def attach_deltas(doc, baseline):
    """Per-benchmark %-change vs baseline (negative = faster now)."""
    deltas = {}
    base_gb = baseline.get("google_benchmarks", {})
    for name, rec in doc["google_benchmarks"].items():
        if name in base_gb:
            deltas[name] = pct(base_gb[name]["real_time_ms"],
                               rec["real_time_ms"])
    base_fig = baseline.get("figures", {})
    for table, rows in doc["figures"].items():
        for row in rows:
            key_cols = [k for k in row if not k.endswith("_ms")]
            match = next(
                (r for r in base_fig.get(table, [])
                 if all(r.get(k) == row[k] for k in key_cols)), None)
            if match is None:
                continue
            for col in row:
                if col.endswith("_ms"):
                    d = pct(match.get(col), row[col])
                    if d is not None:
                        deltas[f"{table}/{'/'.join(str(row[k]) for k in key_cols)}/{col}"] = d
    doc["baseline_label"] = baseline.get("label", "baseline")
    doc["delta_pct_vs_baseline"] = deltas


# Each sanitizer gate builds and runs the tests of its test directories,
# through the directories' aggregate targets and ctest labels.  TSan leaves
# out timer: TimerV1 runs on libgomp, whose uninstrumented barriers TSan
# cannot see into.  test_alloc is never part of a gate: its operator-new
# interposer cannot coexist with the sanitizer runtimes, so CMake defines it
# only in plain trees.
TSAN_SUITES = ["taskflow", "support", "service"]
ASAN_SUITES = TSAN_SUITES + ["timer"]


def run_sanitized(build_dir, cmake_flag, label, suites):
    """Configure a sanitizer build tree and run `suites` under it."""
    run(["cmake", "-B", build_dir, "-S", REPO_ROOT, cmake_flag],
        stdout=subprocess.DEVNULL)
    # tests_<suite> (tests/CMakeLists.txt) compiles a suite's tests in
    # parallel; a list of test targets would build one after another.
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target"] + [f"tests_{suite}" for suite in suites])
    run(["ctest", "--test-dir", build_dir, "--output-on-failure", "-j2",
         "-L", "|".join(suites)])
    print(f"{label}: {' + '.join(suites)} suites clean")


def run_peak_rss(build_dir, benches):
    """Peak-RSS probe: fork each binary, wait with os.wait4 and report the
    child's ru_maxrss - the same high-water mark massif tracks, without
    requiring valgrind in the image.  `benches` entries are either a bare
    target name or (label, target, env-overrides) - the service bench runs
    once per admission mode so each policy's queue buildup is isolated in
    its own process.  For a full allocation profile run the printed massif
    command by hand."""
    rows, first_exe = [], None
    for bench in benches:
        label, name, extra_env = \
            bench if isinstance(bench, tuple) else (bench, bench, {})
        exe = os.path.join(build_dir, "bench", name)
        if not os.path.exists(exe):
            print(f"skipping {label}: {exe} not built", file=sys.stderr)
            continue
        first_exe = first_exe or exe
        print("+", exe, "(peak-RSS probe)", flush=True)
        pid = os.fork()
        if pid == 0:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execve(exe, [exe], dict(os.environ, **extra_env))
        _, status, rusage = os.wait4(pid, 0)
        if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
            sys.exit(f"error: {label} exited abnormally (status {status})")
        rows.append((label, rusage.ru_maxrss))  # KiB on Linux

    if not rows:
        sys.exit("error: no peak-RSS bench binary found")
    width = max(len(n) for n, _ in rows)
    print("\npeak RSS (ru_maxrss):")
    for name, kib in rows:
        print(f"  {name:<{width}}  {kib / 1024.0:10.1f} MiB")
    print("\nfor a full heap profile: valgrind --tool=massif "
          f"{first_exe} --benchmark_filter=<name>")
    return {name: kib for name, kib in rows}


def run_tsan(tsan_dir):
    run_sanitized(tsan_dir, "-DREPRO_TSAN=ON", "TSan", TSAN_SUITES)


def run_asan(asan_dir):
    run_sanitized(asan_dir, "-DREPRO_ASAN=ON", "ASan/UBSan", ASAN_SUITES)


def compare_record(record_path, benches, build_dir, threshold):
    """Re-run `benches` and compare against one committed record; returns
    (compared, regressions) where regressions is a list of (name, delta).
    Exits non-zero when a recorded row did not run (its binary is not built
    or the bench is gone), so the gate never passes on fewer rows."""
    try:
        with open(record_path) as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read record {record_path}: {e}")
    recorded = record.get("google_benchmarks", {})
    if not recorded:
        sys.exit(f"error: {record_path} has no google_benchmarks section")

    current = {}
    for name in benches:
        current.update(run_google_bench(build_dir, name))

    regressions, compared = [], 0
    missing = sorted(set(recorded) - set(current))
    width = max((len(n) for n in list(current) + missing), default=0)
    print(f"\ncomparing against {record_path} "
          f"(label: {record.get('label', '?')}, "
          f"threshold: +{threshold:.0f}%)")
    for name in sorted(current):
        if name not in recorded:
            print(f"  {name:<{width}}  (new benchmark, no record)")
            continue
        compared += 1
        delta = pct(recorded[name]["real_time_ms"], current[name]["real_time_ms"])
        verdict = "ok"
        if delta is not None and delta > threshold:
            verdict = "REGRESSION"
            regressions.append((name, delta))
        print(f"  {name:<{width}}  {recorded[name]['real_time_ms']:10.4f} ms"
              f" -> {current[name]['real_time_ms']:10.4f} ms"
              f"  {delta:+6.1f}%  {verdict}")
    for name in missing:
        print(f"  {name:<{width}}  (recorded, did not run)")
    if missing:
        sys.exit(f"error: {len(missing)} recorded bench(es) of {record_path} "
                 f"did not run: {', '.join(missing)}")
    if compared == 0:
        sys.exit(f"error: no benchmark overlaps with {record_path}")
    return compared, regressions


def run_compare(args):
    """Regression gate: re-run the hot-path benches (and, when their records
    exist, the algorithm and construction benches) and fail when any one
    regresses beyond the noise threshold against the committed records."""
    gate_algorithms = os.path.exists(args.algo_record)
    gate_construction = os.path.exists(args.construction_record)
    gate_service = os.path.exists(args.service_record)
    benches = GOOGLE_BENCHES + (ALGO_BENCHES if gate_algorithms else []) \
        + (CONSTRUCTION_BENCHES if gate_construction else []) \
        + ([SERVICE_BENCH] if gate_service else [])
    benches = list(dict.fromkeys(benches))  # micro_construction appears twice
    if not args.skip_build:
        build(args.build_dir, benches)

    compared, regressions = compare_record(
        args.compare, GOOGLE_BENCHES, args.build_dir, args.threshold)
    if gate_algorithms:
        c, r = compare_record(
            args.algo_record, ALGO_BENCHES, args.build_dir, args.threshold)
        compared += c
        regressions += r
    else:
        print(f"note: {args.algo_record} not found, "
              "algorithm benches not gated")
    if gate_construction:
        c, r = compare_record(
            args.construction_record, CONSTRUCTION_BENCHES, args.build_dir,
            args.threshold)
        compared += c
        regressions += r
    else:
        print(f"note: {args.construction_record} not found, "
              "construction benches not gated")
    if gate_service:
        c, r = compare_service(
            args.service_record, args.build_dir, args.service_threshold)
        compared += c
        regressions += r
    else:
        print(f"note: {args.service_record} not found, "
              "service-ingest bench not gated")

    if regressions:
        worst = max(regressions, key=lambda r: r[1])
        sys.exit(f"FAIL: {len(regressions)} bench(es) beyond "
                 f"+{args.threshold:.0f}% (worst: {worst[0]} {worst[1]:+.1f}%)")
    print(f"\nPASS: {compared} benches within +{args.threshold:.0f}% "
          "of the records")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"))
    ap.add_argument("--baseline", help="earlier output of this script")
    ap.add_argument("--output", default=os.path.join(REPO_ROOT, "BENCH_scheduler.json"))
    ap.add_argument("--label", default="current",
                    help="label recorded in the output (e.g. a git revision)")
    ap.add_argument("--skip-build", action="store_true")
    ap.add_argument("--skip-figures", action="store_true",
                    help="micro/ablation/hotpath only (much faster)")
    ap.add_argument("--tsan", action="store_true",
                    help="instead of benchmarking, run the taskflow, "
                         "support and service tests under ThreadSanitizer "
                         "(separate build tree)")
    ap.add_argument("--tsan-dir", default=os.path.join(REPO_ROOT, "build-tsan"))
    ap.add_argument("--asan", action="store_true",
                    help="instead of benchmarking, run the taskflow, "
                         "support, service and timer tests under "
                         "AddressSanitizer + UBSan (separate build tree)")
    ap.add_argument("--asan-dir", default=os.path.join(REPO_ROOT, "build-asan"))
    ap.add_argument("--compare", metavar="BENCH_scheduler.json",
                    help="instead of recording, re-run the hot-path benches "
                         "and exit non-zero when any regresses beyond "
                         "--threshold vs this record (the algorithm benches "
                         "are gated against --algo-record the same way)")
    ap.add_argument("--algo-output",
                    default=os.path.join(REPO_ROOT, "BENCH_algorithms.json"),
                    help="output of the algorithm-pattern benches "
                         "(default: BENCH_algorithms.json)")
    ap.add_argument("--algo-record",
                    default=os.path.join(REPO_ROOT, "BENCH_algorithms.json"),
                    help="committed algorithm-bench record gated by --compare")
    ap.add_argument("--skip-algorithms", action="store_true",
                    help="record mode: skip the algorithm benches")
    ap.add_argument("--construction-output",
                    default=os.path.join(REPO_ROOT, "BENCH_construction.json"),
                    help="output of the graph-construction benches "
                         "(default: BENCH_construction.json)")
    ap.add_argument("--construction-record",
                    default=os.path.join(REPO_ROOT, "BENCH_construction.json"),
                    help="committed construction-bench record gated by "
                         "--compare")
    ap.add_argument("--skip-construction", action="store_true",
                    help="record mode: skip the construction benches")
    ap.add_argument("--service-output",
                    default=os.path.join(REPO_ROOT, "BENCH_service.json"),
                    help="output of the service-ingest admission bench "
                         "(default: BENCH_service.json)")
    ap.add_argument("--service-record",
                    default=os.path.join(REPO_ROOT, "BENCH_service.json"),
                    help="committed service-ingest record gated by --compare")
    ap.add_argument("--skip-service", action="store_true",
                    help="record mode: skip the service-ingest bench")
    ap.add_argument("--service-threshold", type=float, default=25.0,
                    help="noise threshold for the service-ingest p99 gate, "
                         "in percent (default: 25 - latency percentiles on "
                         "an oversubscribed small host are noisier than "
                         "throughput means)")
    ap.add_argument("--peak-rss", action="store_true",
                    help="instead of benchmarking, fork the construction "
                         "benches and report each binary's peak RSS "
                         "(ru_maxrss)")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="noise threshold for --compare, in percent "
                         "(default: 10)")
    args = ap.parse_args()

    if args.tsan:
        run_tsan(args.tsan_dir)
    if args.asan:
        run_asan(args.asan_dir)
    if args.tsan or args.asan:
        return
    if args.peak_rss:
        rss_benches = list(CONSTRUCTION_BENCHES)
        if not args.skip_service:
            rss_benches += [(f"{SERVICE_BENCH}/{mode}", SERVICE_BENCH,
                             {"REPRO_SERVICE_MODE": mode})
                            for mode in SERVICE_MODES]
        if not args.skip_build:
            build(args.build_dir, CONSTRUCTION_BENCHES
                  + ([] if args.skip_service else [SERVICE_BENCH]))
        run_peak_rss(args.build_dir, rss_benches)
        return
    if args.compare:
        run_compare(args)
        return

    # Validate the baseline before spending minutes on benchmark runs.
    baseline = None
    if args.baseline:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"error: cannot read baseline {args.baseline}: {e}")

    figure_benches = [] if args.skip_figures else FIGURE_BENCHES
    algo_benches = [] if args.skip_algorithms else ALGO_BENCHES
    construction_benches = [] if args.skip_construction else CONSTRUCTION_BENCHES
    service_benches = [] if args.skip_service else [SERVICE_BENCH]
    if not args.skip_build:
        build(args.build_dir, list(dict.fromkeys(
            GOOGLE_BENCHES + figure_benches + algo_benches
            + construction_benches + service_benches)))

    doc = {
        "label": args.label,
        "generated_by": "tools/run_scheduler_bench.py",
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
        },
        "env": {k: os.environ[k] for k in
                ("REPRO_MAX_THREADS", "REPRO_TIMER_CORNERS", "REPRO_SCALE",
                 "REPRO_REPEATS") if k in os.environ},
        "google_benchmarks": {},
        "figures": {},
    }
    for name in GOOGLE_BENCHES:
        doc["google_benchmarks"].update(run_google_bench(args.build_dir, name))
    attach_iterative_convergence(doc, args.build_dir)
    for name in figure_benches:
        doc["figures"].update(run_figure_bench(args.build_dir, name))

    if baseline is not None:
        attach_deltas(doc, baseline)

    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote", args.output)

    if algo_benches:
        algo_doc = {
            "label": args.label,
            "generated_by": "tools/run_scheduler_bench.py",
            "host": doc["host"],
            "env": doc["env"],
            "google_benchmarks": {},
        }
        for name in algo_benches:
            algo_doc["google_benchmarks"].update(
                run_google_bench(args.build_dir, name))
        with open(args.algo_output, "w") as f:
            json.dump(algo_doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote", args.algo_output)

    if construction_benches:
        construction_doc = {
            "label": args.label,
            "generated_by": "tools/run_scheduler_bench.py",
            "host": doc["host"],
            "env": doc["env"],
            "google_benchmarks": {},
        }
        for name in construction_benches:
            construction_doc["google_benchmarks"].update(
                run_google_bench(args.build_dir, name))
        with open(args.construction_output, "w") as f:
            json.dump(construction_doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote", args.construction_output)

    if service_benches:
        service_doc = {
            "label": args.label,
            "generated_by": "tools/run_scheduler_bench.py",
            "host": doc["host"],
            "env": doc["env"],
            "service_ingest": run_service_bench(args.build_dir),
            "service_sweep": run_service_sweep(args.build_dir),
        }
        with open(args.service_output, "w") as f:
            json.dump(service_doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote", args.service_output)


if __name__ == "__main__":
    main()

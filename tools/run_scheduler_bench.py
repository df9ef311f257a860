#!/usr/bin/env python3
"""run_scheduler_bench.py - record and gate the benchmark records.

Builds and runs the benchmarks behind the four committed BENCH_*.json
records (RECORDS below: what each holds, and which rows gate at which
threshold) and writes one JSON document per record.  Given an earlier
scheduler record as baseline, the scheduler record carries per-benchmark
percentage deltas; the committed BENCH_scheduler.json was recorded that way.

Typical use:

    # record a baseline at some revision into base/, then the current
    # tree's records into the repository root with deltas against it
    python3 tools/run_scheduler_bench.py --label <rev> --out-dir base
    python3 tools/run_scheduler_bench.py --baseline base/BENCH_scheduler.json

    # regression gate: fail when a gated row of a committed record regresses
    # beyond the record's threshold, or did not run
    python3 tools/run_scheduler_bench.py --compare BENCH_scheduler.json

    # the ThreadSanitizer gate, the AddressSanitizer + UBSan gate (leaks in
    # the error-drain paths, use of stale task handles) and the peak-RSS
    # probe (massif-friendly: prints the valgrind command for a full
    # allocation profile)
    python3 tools/run_scheduler_bench.py --tsan
    python3 tools/run_scheduler_bench.py --asan
    python3 tools/run_scheduler_bench.py --peak-rss

Benchmarks honor REPRO_MAX_THREADS / REPRO_TIMER_CORNERS / REPRO_SCALE from
the environment (see EXPERIMENTS.md); pin them for stable comparisons.
"""

import argparse
import collections
import csv
import functools
import json
import os
import platform
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONSTRUCTION_BENCHES = ["bench_micro_construction", "bench_fig8_stress"]

# The service-ingest bench (admission control, DESIGN.md §11) runs once per
# admission mode in its own process so the peak-RSS high-water mark isolates
# each policy's queue buildup.
SERVICE_BENCH = "bench_service_ingest"
SERVICE_MODES = {mode: {"REPRO_SERVICE_MODE": mode}
                 for mode in ("unbounded", "bounded", "shed")}
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
SERVICE_SWEEP = {f"c{clients}xr{requests}": {
    "REPRO_SERVICE_MODE": "bounded",
    "REPRO_SERVICE_CLIENTS": str(clients),
    "REPRO_SERVICE_REQUESTS": str(requests),
} for clients in (4, 8, 16) for requests in (500, 1500)}

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

# Each sanitizer gate builds and runs the tests of its test directories,
# through the directories' aggregate targets and ctest labels.  TSan leaves
# out timer: TimerV1 runs on libgomp, whose uninstrumented barriers TSan
# cannot see into.  test_alloc is never part of a gate: its operator-new
# interposer cannot coexist with the sanitizer runtimes, so CMake defines it
# only in plain trees.
TSAN_SUITES = ["taskflow", "support", "service"]
ASAN_SUITES = TSAN_SUITES + ["timer"]


def run(cmd, extra_env=None, **kwargs):
    """Run `cmd` with `extra_env` on top of the caller's environment."""
    knobs = [f"{k}={v}" for k, v in sorted((extra_env or {}).items())]
    print("+", " ".join(knobs + cmd), flush=True)
    return subprocess.run(cmd, check=True,
                          env=dict(os.environ, **(extra_env or {})), **kwargs)


def build(build_dir, targets):
    run(["cmake", "-B", build_dir, "-S", REPO_ROOT],
        stdout=subprocess.DEVNULL)
    run(["cmake", "--build", build_dir, "-j", "--target"] + targets)


def load(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {what} {path}: {e}")


def pct(before, after):
    if before is None or before == 0:
        return None
    return round(100.0 * (after - before) / before, 1)


# One run per binary per invocation: bench_micro_construction feeds both the
# scheduler and the construction records, and --compare gates it twice.
@functools.lru_cache(maxsize=None)
def google_rows(exe):
    """Run one google-benchmark binary; returns {bench_name: row}."""
    out_json = exe + ".json"
    run([exe, "--benchmark_format=json",
         "--benchmark_out=" + out_json, "--benchmark_out_format=json"],
        stdout=subprocess.DEVNULL)
    results = {}
    for b in load(out_json, "output").get("benchmarks", []):
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


def figure_tables(exe):
    """Run one figure harness; returns {table_name: [row dicts]} from the
    `CSV,` lines it prints next to its human-readable tables."""
    proc = run([exe], capture_output=True, text=True)
    return read_csv_tables(proc.stdout, exe)


def service_rows(exe, cells, repeats=1):
    """Run the service-ingest binary `repeats` times per cell ({name: env
    overrides}; separate processes: ru_maxrss is a per-process high-water
    mark) and keep each cell's median-p99 row; returns {name: row}."""
    rows = {}
    for name, extra_env in cells.items():
        runs = []
        for _ in range(repeats):
            proc = run([exe], extra_env, capture_output=True, text=True)
            # One header + one data line per process.
            table = read_csv_tables(proc.stdout, exe).get("service_ingest")
            if not table:
                sys.exit(f"error: {exe} emitted no CSV,service_ingest row")
            table[-1].pop("mode", None)
            runs.append(table[-1])
        runs.sort(key=lambda r: r.get("p99_us", 0.0))
        rows[name] = runs[len(runs) // 2]
    return rows


def iterative_convergence(exe):
    """Condition-loop vs run_until per-iteration deltas from a repetitions
    pass of the hot-path bench (negative delta = the condition loop is
    faster); returns {"workers_<N>": summary}."""
    out_json = exe + ".iterative.json"
    run([exe, "--benchmark_filter=BM_Iterative",
         f"--benchmark_repetitions={ITERATIVE_REPETITIONS}",
         "--benchmark_report_aggregates_only=true",
         "--benchmark_format=json",
         "--benchmark_out=" + out_json, "--benchmark_out_format=json"],
        stdout=subprocess.DEVNULL)
    medians = {b["run_name"]: b["real_time"]
               for b in load(out_json, "output").get("benchmarks", [])
               if b.get("aggregate_name") == "median"}
    summary = {}
    for cond_name, until_name in ITERATIVE_PAIRS:
        if cond_name not in medians or until_name not in medians:
            continue
        key = f"workers_{cond_name.split('/')[2]}"
        cond_ms, until_ms = medians[cond_name], medians[until_name]
        summary[key] = {
            "condition_loop_ms": cond_ms,
            "run_until_ms": until_ms,
            "condition_vs_run_until_pct": pct(until_ms, cond_ms),
            "repetitions": ITERATIVE_REPETITIONS,
        }
        print(f"  iterative convergence ({key}): condition loop "
              f"{cond_ms:.4f} ms vs run_until {until_ms:.4f} ms "
              f"({summary[key]['condition_vs_run_until_pct']:+.1f}%)")
    return summary


# The records.  A lane is one section of a document: the binaries it runs
# and the collector that turns each run into rows.  An optional lane's
# section is left out of the document when it has no rows.  A gated lane's
# `field` is compared against the record at `threshold` percent; its
# informational rows are printed but never fail.  The first record is the
# one --compare and --baseline name.
Lane = collections.namedtuple("Lane", "section binaries collect gate optional",
                              defaults=[None, False])
Gate = collections.namedtuple("Gate", "field threshold informational",
                              defaults=[()])
Record = collections.namedtuple("Record", "file what lanes")

# The gate thresholds: +10% sits at the low end of the run-to-run drift of
# the multi-worker benches on a small shared host (EXPERIMENTS.md); tighten
# it on a quieter one.  Latency percentiles on an oversubscribed small host
# are noisier than throughput means, hence +25% on the service p99.  The
# unbounded mode is the overload baseline: its p99 IS the backlog, so it is
# reported informationally.
BENCH_GATE = Gate("real_time_ms", 10.0)
RECORDS = [
    Record("BENCH_scheduler.json", "hot-path benches", [
        Lane("google_benchmarks", ["bench_micro_construction",
                                   "bench_ablation_executor",
                                   "bench_scheduler_hotpath"],
             google_rows, BENCH_GATE),
        Lane("iterative_convergence", ["bench_scheduler_hotpath"],
             iterative_convergence, optional=True),
        Lane("figures", ["bench_fig7_wavefront", "bench_fig7_traversal",
                         "bench_fig10_scalability"], figure_tables),
    ]),
    # The algorithm-pattern benches: partitioners vs the legacy
    # per-chunk-node strategy vs a std::thread baseline.
    Record("BENCH_algorithms.json", "algorithm benches", [
        Lane("google_benchmarks", ["bench_algorithms"], google_rows,
             BENCH_GATE),
    ]),
    # The graph-construction benches (arena/CSR layout, DESIGN.md §10):
    # emplace and precede throughput at up to 1M nodes plus the scaled-up
    # Fig. 8 timing stress.
    Record("BENCH_construction.json", "construction benches", [
        Lane("google_benchmarks", CONSTRUCTION_BENCHES, google_rows,
             BENCH_GATE),
    ]),
    Record("BENCH_service.json", "service-ingest bench", [
        Lane("service_ingest", [SERVICE_BENCH],
             functools.partial(service_rows, cells=SERVICE_MODES,
                               repeats=SERVICE_REPEATS),
             Gate("p99_us", 25.0, ("unbounded",))),
        Lane("service_sweep", [SERVICE_BENCH],
             functools.partial(service_rows, cells=SERVICE_SWEEP)),
    ]),
]


def binaries(lanes):
    return list(dict.fromkeys(b for lane in lanes for b in lane.binaries))


def collect(lane, build_dir):
    """Run every built binary of `lane`; returns its section's rows."""
    rows = {}
    for name in lane.binaries:
        exe = os.path.join(build_dir, "bench", name)
        if os.path.exists(exe):
            rows.update(lane.collect(exe))
        else:
            print(f"skipping {name}: {exe} not built", file=sys.stderr)
    return rows


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


def write_records(args):
    """Build and run every lane (the figure harnesses unless skipped) and
    write one document per record into the output directory."""
    # Validate the baseline before spending minutes on benchmark runs.
    baseline = load(args.baseline, "baseline") if args.baseline else None
    lanes = [lane for r in RECORDS for lane in r.lanes
             if not (args.skip_figures and lane.collect is figure_tables)]
    if not args.skip_build:
        build(args.build_dir, binaries(lanes))
    header = {
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
    }
    for record in RECORDS:
        doc = dict(header)
        for lane in record.lanes:
            rows = collect(lane, args.build_dir) if lane in lanes else {}
            if rows or not lane.optional:
                doc[lane.section] = rows
        if baseline is not None and record is RECORDS[0]:
            attach_deltas(doc, baseline)
        path = os.path.join(args.out_dir, record.file)
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote", path)


def run_compare(args):
    """Regression gate: re-run the gated lanes of the record --compare names
    and of every other record found beside it, and fail when a gated row
    regresses beyond its threshold or did not run (its binary is not built
    or the bench is gone), so the gate never passes on fewer rows."""
    found = [(RECORDS[0], args.compare)]
    for record in RECORDS[1:]:
        path = os.path.join(os.path.dirname(args.compare), record.file)
        if os.path.exists(path):
            found.append((record, path))
        else:
            print(f"note: {path} not found, {record.what} not gated")
    gated = [(record, path, lane) for record, path in found
             for lane in record.lanes if lane.gate]
    if not args.skip_build:
        build(args.build_dir, binaries(lane for _, _, lane in gated))

    compared, regressions, missing = 0, [], []
    for record, path, lane in gated:
        doc = load(path, "record")
        recorded = doc.get(lane.section, {})
        informational = lane.gate.informational
        if all(name in informational for name in recorded):
            sys.exit(f"error: {path} has no gated {lane.section} rows")
        current = collect(lane, args.build_dir)
        names = sorted(set(recorded) | set(current))
        width = max(len(name) for name in names)
        print(f"\ncomparing against {path} (label: {doc.get('label', '?')}, "
              f"threshold: +{lane.gate.threshold:.0f}% on {lane.gate.field})")
        for name in names:
            row = f"{record.file}:{name}"
            if name not in recorded:
                print(f"  {name:<{width}}  (new benchmark, no record)")
            elif name not in current:
                print(f"  {name:<{width}}  (recorded, did not run)")
                if name not in informational:
                    missing.append(row)
            else:
                before = recorded[name][lane.gate.field]
                after = current[name][lane.gate.field]
                delta = pct(before, after)
                counted = name not in informational
                compared += counted
                verdict = "ok" if counted else "(informational)"
                if counted and delta is not None and delta > lane.gate.threshold:
                    verdict = "REGRESSION"
                    regressions.append((row, delta))
                shown = "n/a" if delta is None else f"{delta:+.1f}%"
                print(f"  {name:<{width}}  {before:12.4f} -> {after:12.4f}"
                      f"  {shown:>7}  {verdict}")

    if missing:
        sys.exit(f"FAIL: {len(missing)} recorded gated row(s) did not run: "
                 f"{', '.join(missing)}")
    if regressions:
        name, delta = max(regressions, key=lambda r: r[1])
        sys.exit(f"FAIL: {len(regressions)} row(s) beyond their threshold "
                 f"(worst: {name} {delta:+.1f}%)")
    print(f"\nPASS: {compared} gated rows within their thresholds")


def run_sanitized(tree, cmake_flag, label, suites):
    """Configure a sanitizer build tree and run `suites` under it."""
    build_dir = os.path.join(REPO_ROOT, tree)
    run(["cmake", "-B", build_dir, "-S", REPO_ROOT, cmake_flag],
        stdout=subprocess.DEVNULL)
    # tests_<suite> (tests/CMakeLists.txt) compiles a suite's tests in
    # parallel; a list of test targets would build one after another.
    run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target"] + [f"tests_{suite}" for suite in suites])
    run(["ctest", "--test-dir", build_dir, "--output-on-failure", "-j2",
         "-L", "|".join(suites)])
    print(f"{label}: {' + '.join(suites)} suites clean")


def run_peak_rss(args):
    """Peak-RSS probe: fork each construction bench, and the service bench
    once per admission mode so each policy's queue buildup is isolated in
    its own process; wait with os.wait4 and report the child's ru_maxrss -
    the same high-water mark massif tracks, without requiring valgrind in
    the image.  For a full allocation profile run the printed massif
    command by hand."""
    probes = [(name, name, {}) for name in CONSTRUCTION_BENCHES] + [
        (f"{SERVICE_BENCH}/{mode}", SERVICE_BENCH, extra_env)
        for mode, extra_env in SERVICE_MODES.items()]
    if not args.skip_build:
        build(args.build_dir, CONSTRUCTION_BENCHES + [SERVICE_BENCH])
    rows, first_exe = [], None
    for label, name, extra_env in probes:
        exe = os.path.join(args.build_dir, "bench", name)
        if not os.path.exists(exe):
            print(f"skipping {label}: {exe} not built", file=sys.stderr)
            continue
        first_exe = first_exe or exe
        print("+", exe, "(peak-RSS probe)", flush=True)
        proc = subprocess.Popen([exe], stdout=subprocess.DEVNULL,
                                env=dict(os.environ, **extra_env))
        _, status, rusage = os.wait4(proc.pid, 0)
        # wait4 reaped the child: tell Popen, so it never waits on it again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
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


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"))
    ap.add_argument("--label", default="current",
                    help="label recorded in the output (e.g. a git revision)")
    ap.add_argument("--baseline", help="an earlier scheduler record of this "
                    "script: the scheduler record gets deltas against it")
    ap.add_argument("--out-dir", default=REPO_ROOT,
                    help="directory the four records are written to "
                         "(default: the repository root)")
    ap.add_argument("--skip-build", action="store_true")
    ap.add_argument("--skip-figures", action="store_true",
                    help="leave out the figure harnesses (much faster)")
    ap.add_argument("--compare", metavar="BENCH_scheduler.json",
                    help="instead of recording, gate the current tree against "
                         "this scheduler record and the records beside it")
    ap.add_argument("--tsan", action="store_true",
                    help="instead of benchmarking, run the taskflow, support "
                         "and service tests under TSan in build-tsan/")
    ap.add_argument("--asan", action="store_true",
                    help="instead of benchmarking, run those and the timer "
                         "tests under ASan + UBSan in build-asan/")
    ap.add_argument("--peak-rss", action="store_true",
                    help="instead of benchmarking, report the peak RSS "
                         "(ru_maxrss) of the construction and service benches")
    args = ap.parse_args()

    if args.tsan:
        run_sanitized("build-tsan", "-DREPRO_TSAN=ON", "TSan", TSAN_SUITES)
    if args.asan:
        run_sanitized("build-asan", "-DREPRO_ASAN=ON", "ASan/UBSan",
                      ASAN_SUITES)
    if args.tsan or args.asan:
        return
    if args.peak_rss:
        run_peak_rss(args)
    elif args.compare:
        run_compare(args)
    else:
        write_records(args)


if __name__ == "__main__":
    main()

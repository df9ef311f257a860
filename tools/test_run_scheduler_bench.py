#!/usr/bin/env python3
"""Unit test of tools/run_scheduler_bench.py: the four record documents and
the --compare gate, with every benchmark process replaced by canned
google-benchmark JSON, `CSV,` tables and service-ingest rows.  Runs no
benchmark binary.

    python3 tools/test_run_scheduler_bench.py
"""

import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run_scheduler_bench as bench  # noqa: E402

# {binary: {row name: (real_time, time_unit)}}
GOOGLE = {
    "bench_micro_construction": {"BM_Emplace/1024": (12000.0, "ns"),
                                 "BM_DispatchFuture": (3.5, "us")},
    "bench_ablation_executor": {"BM_Chain_WorkerCache/0": (1.25, "ms")},
    "bench_scheduler_hotpath": {"BM_BurstyRepeat/64": (1500.0, "us")},
    "bench_algorithms": {"BM_skewed_guided/1000000": (2.0, "ms")},
    "bench_fig8_stress": {"BM_Fig8Stress/4096": (0.04, "s")},
}
ITERATIVE_MEDIANS = {
    "BM_IterativeConditionLoop/1024/1/real_time": 0.29,
    "BM_IterativeRunUntil/1024/1/real_time": 0.35,
    "BM_IterativeConditionLoop/1024/4/real_time": 0.39,
    "BM_IterativeRunUntil/1024/4/real_time": 0.44,
}
# Thousands-grouped counts print as quoted cells, as the harnesses do.
FIGURES = {
    "bench_fig7_wavefront": 'Fig. 7 wavefront\n'
        'CSV,fig7_wavefront_size,tasks,seq_ms,taskflow_ms\n'
        'CSV,fig7_wavefront_size,1024,0.1,0.44\n'
        'CSV,fig7_wavefront_size,"16,384",1.6,2.5\n',
    "bench_fig7_traversal": 'CSV,fig7_traversal_threads,threads,taskflow_ms\n'
        'CSV,fig7_traversal_threads,1,371.11\n'
        'CSV,fig7_traversal_threads,2,200.5\n',
    "bench_fig10_scalability": 'CSV,fig10_netcard,threads,v1_openmp_ms,v2_taskflow_ms\n'
        'CSV,fig10_netcard,1,56.12,102.7\n',
}
SERVICE_HEADER = ("CSV,service_ingest,mode,clients,requests,workers,bound,"
                  "completed,shed,p50_us,p99_us,p999_us,wall_ms,peak_rss_mib\n")
SERVICE_P99 = {"unbounded": 538000.0, "bounded": 880.0, "shed": 19000.0}
REPEAT_SPREAD = [1.0, 1.3, 0.8]  # the 3 runs of one mode: the median is 1.0x


class FakeBenches:
    """Stands in for subprocess.run: answers each benchmark command with
    canned output.  `slow` scales the times of named rows or modes, and
    `drop` omits google rows."""

    def __init__(self, slow=None, drop=()):
        self.slow = slow or {}
        self.drop = set(drop)
        self.runs = collections.Counter()

    def __call__(self, cmd, check=True, env=None, **kwargs):
        name = os.path.basename(cmd[0])
        self.runs[name] += 1
        stdout = ""
        if name in GOOGLE:
            out = next(a.split("=", 1)[1] for a in cmd
                       if a.startswith("--benchmark_out="))
            if "--benchmark_filter=BM_Iterative" in cmd:
                rows = [{"run_name": n, "run_type": "aggregate",
                         "aggregate_name": agg, "real_time": t}
                        for n, t in ITERATIVE_MEDIANS.items()
                        for agg in ("mean", "median")]
            else:
                rows = [self.google_row(n, t, u)
                        for n, (t, u) in GOOGLE[name].items()
                        if n not in self.drop]
                rows.append({"name": "BM_Mean_mean", "run_type": "aggregate"})
            with open(out, "w") as f:
                json.dump({"benchmarks": rows}, f)
        elif name in FIGURES:
            stdout = FIGURES[name]
        elif name == bench.SERVICE_BENCH:
            stdout = self.service_output(env)
        else:
            raise AssertionError(f"unexpected command {cmd}")
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    def google_row(self, name, time, unit):
        time *= self.slow.get(name, 1.0)
        return {"name": name, "run_name": name, "run_type": "iteration",
                "repetitions": 1, "repetition_index": 0, "threads": 1,
                "iterations": 100, "real_time": time, "cpu_time": 0.9 * time,
                "time_unit": unit, "family_index": 0,
                "per_family_instance_index": 0, "tasks/s": 1e6,
                "label": "not a counter"}

    def service_output(self, env):
        mode = env["REPRO_SERVICE_MODE"]
        clients = env.get("REPRO_SERVICE_CLIENTS", "8")
        requests = env.get("REPRO_SERVICE_REQUESTS", "1500")
        key = (mode, clients, requests)
        spread = REPEAT_SPREAD[self.runs[key] % len(REPEAT_SPREAD)]
        self.runs[key] += 1
        p99 = SERVICE_P99[mode] * spread * self.slow.get(mode, 1.0)
        return (f"service ingest: {mode}\n" + SERVICE_HEADER +
                f"CSV,service_ingest,{mode},{clients},"
                f"{requests},2,4,{int(clients) * int(requests)},0,"
                f"{p99 / 2:.1f},{p99:.1f},{p99 * 1.2:.1f},295.5,3.5\n")


def key_tree(doc):
    """A document's keys, with each section of rows collapsed into the
    field names of its rows, and the host into its keys."""
    tree = {}
    for key, value in doc.items():
        if key in ("google_benchmarks", "iterative_convergence",
                   "service_ingest", "service_sweep"):
            tree[key] = sorted({f for row in value.values() for f in row})
        elif key == "host":
            tree[key] = sorted(value)
        else:
            tree[key] = type(value).__name__
    return tree


class RecorderTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.build = os.path.join(self.tmp.name, "build")
        self.records = os.path.join(self.tmp.name, "records")
        os.makedirs(os.path.join(self.build, "bench"))
        os.makedirs(self.records)
        for name in list(GOOGLE) + list(FIGURES) + [bench.SERVICE_BENCH]:
            open(os.path.join(self.build, "bench", name), "w").close()

    def main(self, *argv, fake=None):
        """Run the script's main() on `argv`; returns (stdout, exit text)."""
        bench.google_rows.cache_clear()
        out = io.StringIO()
        argv = ["run_scheduler_bench.py", "--skip-build",
                "--build-dir", self.build] + list(argv)
        with mock.patch.object(sys, "argv", argv), \
                mock.patch("subprocess.run", fake or FakeBenches()), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                bench.main()
            except SystemExit as e:
                return out.getvalue(), str(e.code)
        return out.getvalue(), None

    def record(self, *argv):
        _, failure = self.main("--out-dir", self.records, *argv)
        self.assertIsNone(failure)
        docs = {}
        for record in bench.RECORDS:
            with open(os.path.join(self.records, record.file)) as f:
                docs[record.file] = json.load(f)
        return docs

    def compare(self, **fake):
        return self.main("--compare",
                         os.path.join(self.records, "BENCH_scheduler.json"),
                         fake=FakeBenches(**fake))

    def test_documents_have_the_committed_key_trees(self):
        base = os.path.join(self.tmp.name, "base.json")
        self.record()
        os.replace(os.path.join(self.records, "BENCH_scheduler.json"), base)
        docs = self.record("--baseline", base)
        for name, doc in docs.items():
            with open(os.path.join(bench.REPO_ROOT, name)) as f:
                self.assertEqual(key_tree(doc), key_tree(json.load(f)), name)

    def test_record_contents(self):
        fake = FakeBenches()
        _, failure = self.main("--out-dir", self.records, fake=fake)
        self.assertIsNone(failure)
        with open(os.path.join(self.records, "BENCH_scheduler.json")) as f:
            sched = json.load(f)
        with open(os.path.join(self.records, "BENCH_service.json")) as f:
            service = json.load(f)
        # One run per binary: micro construction feeds two records.
        self.assertEqual(fake.runs["bench_micro_construction"], 1)
        row = sched["google_benchmarks"]["BM_Emplace/1024"]
        self.assertAlmostEqual(row["real_time_ms"], 0.012)
        self.assertEqual(row["counters"], {"tasks/s": 1e6})
        self.assertEqual(sched["figures"]["fig7_wavefront_size"][1],
                         {"tasks": 16384.0, "seq_ms": 1.6, "taskflow_ms": 2.5})
        self.assertEqual(
            sched["iterative_convergence"]["workers_1"]["condition_vs_run_until_pct"],
            -17.1)
        self.assertEqual(service["service_ingest"]["bounded"]["p99_us"], 880.0)
        self.assertNotIn("mode", service["service_ingest"]["bounded"])
        self.assertEqual(len(service["service_sweep"]), 6)

    def test_skip_figures_keeps_an_empty_figures_section(self):
        fake = FakeBenches()
        _, failure = self.main("--out-dir", self.records, "--skip-figures",
                               fake=fake)
        self.assertIsNone(failure)
        with open(os.path.join(self.records, "BENCH_scheduler.json")) as f:
            self.assertEqual(json.load(f)["figures"], {})
        self.assertNotIn("bench_fig7_wavefront", fake.runs)

    def test_compare_passes_within_thresholds(self):
        self.record()
        out, failure = self.compare(slow={"BM_Emplace/1024": 1.09,
                                          "bounded": 1.2, "shed": 1.24})
        self.assertIsNone(failure, out)
        gated = 4 + 1 + 3 + 2  # scheduler, algorithms, construction, service
        self.assertIn(f"PASS: {gated} gated rows", out)

    def test_compare_fails_beyond_a_threshold_naming_the_row(self):
        self.record()
        _, failure = self.compare(slow={"BM_Chain_WorkerCache/0": 1.11})
        self.assertIn("FAIL: 1 row(s) beyond", failure)
        self.assertIn("BENCH_scheduler.json:BM_Chain_WorkerCache/0 +11.0%",
                      failure)
        _, failure = self.compare(slow={"shed": 1.26})
        self.assertIn("BENCH_service.json:shed +26.0%", failure)

    def test_compare_fails_when_a_recorded_gated_row_did_not_run(self):
        self.record()
        _, failure = self.compare(drop={"BM_Fig8Stress/4096"})
        self.assertIn("did not run: BENCH_construction.json:BM_Fig8Stress/4096",
                      failure)
        with mock.patch.dict(bench.SERVICE_MODES):
            del bench.SERVICE_MODES["shed"]
            _, failure = self.compare()
        self.assertIn("did not run: BENCH_service.json:shed", failure)

    def test_new_row_prints_as_no_record(self):
        docs = self.record()
        sched = docs["BENCH_scheduler.json"]
        del sched["google_benchmarks"]["BM_DispatchFuture"]
        with open(os.path.join(self.records, "BENCH_scheduler.json"), "w") as f:
            json.dump(sched, f)
        out, failure = self.compare()
        self.assertIsNone(failure, out)
        self.assertRegex(out, r"BM_DispatchFuture +\(new benchmark, no record\)")

    def test_unbounded_mode_is_informational(self):
        self.record()
        out, failure = self.compare(slow={"unbounded": 5.0})
        self.assertIsNone(failure, out)
        self.assertIn("(informational)", out)
        with mock.patch.dict(bench.SERVICE_MODES):
            del bench.SERVICE_MODES["unbounded"]
            out, failure = self.compare()
        self.assertIsNone(failure, out)

    def test_absent_record_is_not_gated(self):
        self.record()
        os.remove(os.path.join(self.records, "BENCH_algorithms.json"))
        out, failure = self.compare(slow={"BM_skewed_guided/1000000": 2.0})
        self.assertIsNone(failure, out)
        self.assertIn("BENCH_algorithms.json not found", out)

    def test_csv_cells(self):
        tables = bench.read_csv_tables(
            'text\nCSV,t,tasks,name\nCSV,t,"16,384",x\n', "src")
        self.assertEqual(tables, {"t": [{"tasks": 16384.0, "name": "x"}]})
        with self.assertRaises(SystemExit) as e:
            bench.read_csv_tables('CSV,t,a,b\nCSV,t,1\n', "src")
        self.assertIn("has 1 cells but its header has 2", str(e.exception.code))


if __name__ == "__main__":
    unittest.main()

// bench_e2e - one process of the end-to-end benchmark (see README.md).
//
//   bench_e2e --workload wavefront|timing_full|timing_incr|service_poisson
//             [--seed N] [--seconds S] [--trace FILE] [--smoke]
//
// Runs one workload: set-up (inputs, executor/timer/server, warm-up), a
// timed section of S seconds, then the output check.  Prints one JSON
// object of raw samples and totals as its last stdout line; run.py pools
// several processes into the metrics.  With --trace it also writes a
// Chrome trace to FILE.  Exits 1 when an output check failed, 2 on a usage
// error or a host with fewer than 4 CPUs.
#include <sched.h>
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "run.hpp"

namespace e2e {

namespace {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// VmHWM: unlike ru_maxrss it resets on exec, so the launcher's own pages
/// do not leak into it.
double peak_rss_mib() {
  double mib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) mib = static_cast<double>(kib) / 1024.0;
    }
    std::fclose(f);
  }
  return mib;
}

void put_number(std::ostream& os, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  os.write(buf, r.ptr - buf);
}

void put_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << (c == '\n' ? ' ' : c);
  }
  os << '"';
}

}  // namespace

Run::Run(Config config, std::int64_t process_start_ns)
    : _config(std::move(config)), _process_start_ns(process_start_ns) {
  if (!_config.trace_path.empty()) _tracer = std::make_unique<Tracer>();
}

void Run::start_timed(const tf::ExecutorInterface& scheduler) {
  _scheduler = &scheduler;
  _stats0 = scheduler.stats();
  _cpu0_s = cpu_seconds();
  _timed_begin_ns = now_ns();
  _setup_s = static_cast<double>(_timed_begin_ns - _process_start_ns) / 1e9;
}

void Run::stop_timed() {
  _timed_end_ns = now_ns();
  _cpu_s = cpu_seconds() - _cpu0_s;
  // Read here so the reference check that follows does not count.
  _peak_rss_mib = peak_rss_mib();
  const auto s = _scheduler->stats();
  total("steals", static_cast<double>(s.steals - _stats0.steals));
  total("cache_hits", static_cast<double>(s.cache_hits - _stats0.cache_hits));
  total("parks", static_cast<double>(s.parks - _stats0.parks));
  total("wakes", static_cast<double>(s.wakes - _stats0.wakes));
}

bool Run::time_left() const {
  return static_cast<double>(now_ns() - _timed_begin_ns) < _config.seconds * 1e9;
}

void Run::fail(const std::string& what) {
  ++_failed;
  if (_errors.size() >= 20) return;
  _errors.push_back(what);
  std::cerr << "bench_e2e: " << _config.workload << ": check failed: " << what << "\n";
}

void Run::write_json(std::ostream& os) const {
  os << "{\"workload\":";
  put_string(os, _config.workload);
  os << ",\"setup_s\":";
  put_number(os, _setup_s);
  os << ",\"timed_s\":";
  put_number(os, static_cast<double>(_timed_end_ns - _timed_begin_ns) / 1e9);
  os << ",\"cpu_s\":";
  put_number(os, _cpu_s);
  os << ",\"peak_rss_mib\":";
  put_number(os, _peak_rss_mib);
  os << ",\"attempted\":" << _attempted << ",\"failed\":" << _failed << ",\"errors\":[";
  for (std::size_t i = 0; i < _errors.size(); ++i) {
    if (i > 0) os << ',';
    put_string(os, _errors[i]);
  }
  os << "],\"totals\":{";
  const char* sep = "";
  for (const auto& [key, value] : _totals) {
    os << sep;
    put_string(os, key);
    os << ':';
    put_number(os, value);
    sep = ",";
  }
  if (_tracer) {
    for (const auto& [key, value] : _tracer->metrics()) {
      os << sep;
      put_string(os, key);
      os << ':';
      put_number(os, value);
      sep = ",";
    }
  }
  os << "},\"samples\":{";
  sep = "";
  for (const auto& [key, values] : _samples) {
    os << sep;
    put_string(os, key);
    os << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os << ',';
      put_number(os, values[i]);
    }
    os << ']';
    sep = ",";
  }
  os << "},\"self_time\":{";
  if (_tracer) {
    sep = "";
    for (const auto& [name, st] : _tracer->self_time()) {
      os << sep;
      put_string(os, name);
      os << ":[";
      put_number(os, st.calls);
      os << ',';
      put_number(os, st.total_us);
      os << ',';
      put_number(os, st.self_us);
      os << ']';
      sep = ",";
    }
  }
  os << "}}\n";
}

}  // namespace e2e

namespace {

int usage(const char* why) {
  std::cerr << "bench_e2e: " << why
            << "\nusage: bench_e2e --workload wavefront|timing_full|timing_incr|"
               "service_poisson [--seed N] [--seconds S] [--trace FILE] [--smoke]\n";
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = e2e::now_ns();
  e2e::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      config.trace_path = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  // The thread counts are fixed (3 workers + the main thread, or 2 workers +
  // 2 generators), so fewer CPUs would time-slice the measured threads.
  const int cpus = online_cpus();
  std::cerr << "bench_e2e: nproc " << cpus << "\n";
  if (cpus < 4 && !config.smoke) return usage("needs at least 4 CPUs (--smoke runs on fewer)");

  void (*workload)(e2e::Run&) = nullptr;
  if (config.workload == "wavefront") workload = e2e::wavefront;
  if (config.workload == "timing_full") workload = e2e::timing_full;
  if (config.workload == "timing_incr") workload = e2e::timing_incr;
  if (config.workload == "service_poisson") workload = e2e::service_poisson;
  if (workload == nullptr) return usage("unknown --workload");

  e2e::Run run(config, process_start);
  workload(run);

  if (e2e::Tracer* tracer = run.tracer()) {
    std::ofstream out(config.trace_path);
    tracer->write_chrome(out);
    if (!out) {
      std::cerr << "bench_e2e: cannot write " << config.trace_path << "\n";
      return 2;
    }
  }
  run.write_json(std::cout);
  return run.ok() ? 0 : 1;
}

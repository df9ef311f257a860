// run.hpp - what one bench_e2e process measures and reports.
//
// A workload builds its inputs, warms up, then calls start_timed() before
// its first timed op and stop_timed() after its last.  It records raw per-op
// samples and totals only; tools in run.py pool several processes into the
// metrics, so every statistic is computed in one place.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "taskflow/executor.hpp"
#include "trace.hpp"

namespace e2e {

/// Worker threads of the graph workloads (the main thread is the fourth).
inline constexpr std::size_t kGraphWorkers = 3;

struct Config {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{3.0};     // length of the timed section
  bool smoke{false};       // tiny inputs: correctness and output shape only
  std::string trace_path;  // empty: untraced
};

class Run {
 public:
  Run(Config config, std::int64_t process_start_ns);

  [[nodiscard]] const Config& config() const noexcept { return _config; }

  /// The tracer of a traced run, nullptr otherwise.
  [[nodiscard]] Tracer* tracer() noexcept { return _tracer.get(); }

  /// End of set-up: the timed section starts now.  `scheduler` is the
  /// executor backend under test; its counters are read at both ends.
  void start_timed(const tf::ExecutorInterface& scheduler);
  void stop_timed();

  /// False once the timed section has lasted config().seconds.
  [[nodiscard]] bool time_left() const;

  void sample(const std::string& key, double value) { _samples[key].push_back(value); }
  void total(const std::string& key, double value) { _totals[key] += value; }

  /// Count one attempted op; fail() marks one of them failed and keeps the
  /// message (op index, expected and actual value) for the report.
  void attempt(std::uint64_t n = 1) noexcept { _attempted += n; }
  void fail(const std::string& what);

  [[nodiscard]] bool ok() const noexcept { return _failed == 0; }

  /// The process's result as one JSON object (the last line bench_e2e prints).
  void write_json(std::ostream& os) const;

 private:
  Config _config;
  std::int64_t _process_start_ns;
  std::unique_ptr<Tracer> _tracer;
  const tf::ExecutorInterface* _scheduler{nullptr};
  tf::ExecutorInterface::SchedulerStats _stats0{};

  std::int64_t _timed_begin_ns{0};
  std::int64_t _timed_end_ns{0};
  double _cpu0_s{0};
  double _setup_s{0};
  double _cpu_s{0};
  double _peak_rss_mib{0};

  std::uint64_t _attempted{0};
  std::uint64_t _failed{0};
  std::vector<std::string> _errors;
  std::map<std::string, std::vector<double>> _samples;
  std::map<std::string, double> _totals;
};

// The four workloads (workloads.cpp).
void wavefront(Run& run);
void timing_full(Run& run);
void timing_incr(Run& run);
void service_poisson(Run& run);

}  // namespace e2e

// observer.hpp - executor observer interface (used to reproduce the CPU
// utilization profile of paper Fig. 10 right).
//
// An observer attached to an executor receives an on_entry/on_exit callback
// around every task invocation, tagged with the invoking worker id, plus the
// events that name a task or a run: a task retry, a task fallback and a run
// deadline expiry.  Counts (admitted, rejected and shed runs, steals, parks)
// are not events: read them from ExecutorInterface::stats() and
// Executor::metrics().  The bundled RecordingObserver accumulates busy
// intervals per worker and can aggregate them into a utilization-over-time
// series.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "taskflow/graph.hpp"

namespace tf {

class ExecutorObserverInterface {
 public:
  virtual ~ExecutorObserverInterface() = default;

  /// Called once when the observer is attached; `num_workers` is the number
  /// of worker threads of the executor.
  virtual void set_up(std::size_t num_workers) { (void)num_workers; }

  /// Called by worker `worker_id` immediately before invoking `node`'s task.
  virtual void on_entry(std::size_t worker_id, const Node& node) {
    (void)worker_id;
    (void)node;
  }

  /// Called by worker `worker_id` immediately after `node`'s task returns.
  virtual void on_exit(std::size_t worker_id, const Node& node) {
    (void)worker_id;
    (void)node;
  }

  // ---- resilience events (DESIGN.md §8); default no-op so pre-resilience
  // ---- observers compile unchanged -----------------------------------------

  /// Called by worker `worker_id` when `node`'s attempt number `attempt`
  /// (1-based) failed and the task is about to be re-enqueued for another
  /// attempt (immediately or after its backoff delay).
  virtual void on_task_retry(std::size_t worker_id, const Node& node, int attempt) {
    (void)worker_id;
    (void)node;
    (void)attempt;
  }

  /// Called by worker `worker_id` just before `node`'s fallback handler runs
  /// (its retry budget - if any - is exhausted).
  virtual void on_task_fallback(std::size_t worker_id, const Node& node) {
    (void)worker_id;
    (void)node;
  }

  /// Called when a run's RunPolicy deadline expired and won the drain race
  /// (the run will complete with tf::TimeoutError).  Invoked from the timer
  /// or watchdog thread, not from a worker.
  virtual void on_topology_timeout() {}
};

/// Records per-worker busy intervals with steady-clock timestamps.
class RecordingObserver final : public ExecutorObserverInterface {
 public:
  struct Interval {
    std::chrono::steady_clock::time_point begin;
    std::chrono::steady_clock::time_point end;
    std::string name;  // task name ("" when unnamed)
  };

  void set_up(std::size_t num_workers) override;
  void on_entry(std::size_t worker_id, const Node& node) override;
  void on_exit(std::size_t worker_id, const Node& node) override;

  /// Total number of recorded task executions.
  [[nodiscard]] std::size_t num_tasks() const;

  /// Aggregate busy time into buckets of `bucket` duration starting at the
  /// first recorded timestamp; each entry is utilization in percent summed
  /// across workers (so the maximum is 100 * num_workers, matching the
  /// paper's Fig. 10 y-axis).
  [[nodiscard]] std::vector<double> utilization(std::chrono::milliseconds bucket) const;

  /// Clear all recorded intervals (the worker count is kept).
  void clear();

  /// Export the execution timeline as Chrome-tracing JSON (load in
  /// chrome://tracing or https://ui.perfetto.dev): one complete event per
  /// task, one row per worker.  Times are microseconds from the first
  /// recorded task.
  void dump_chrome_tracing(std::ostream& os) const;

  /// Per-worker interval access (read after the run has completed).
  [[nodiscard]] const std::vector<Interval>& intervals(std::size_t worker_id) const {
    return _lanes[worker_id].intervals;
  }
  [[nodiscard]] std::size_t num_workers() const noexcept { return _lanes.size(); }

 private:
  struct Lane {
    std::vector<Interval> intervals;
    std::chrono::steady_clock::time_point open{};
  };
  mutable std::mutex _mutex;  // guards _lanes resizing only; lanes are per-worker
  std::vector<Lane> _lanes;
};

}  // namespace tf

// trace.hpp - in-memory span recording for the traced run of bench_e2e.
//
// Spans come from the benchmark's own code only: the workloads stamp the
// layer calls they make (graph build, run(), get(), timer update, submit())
// and a TaskObserver stamps every task through the executor's public
// observer hook.  Nothing is written while an op runs; the Tracer folds each
// op's spans into aggregates between ops and writes the Chrome trace and the
// per-layer self-time table once, at exit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "taskflow/observer.hpp"

namespace e2e {

/// Steady-clock nanoseconds; one epoch for every thread of the process.
std::int64_t now_ns();

/// One recorded interval.  `parent` indexes the batch the span was handed to
/// the Tracer in (-1: a root span).  Names are "layer.call" literals.
struct Span {
  const char* name{""};
  std::int64_t begin_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};
  std::int32_t tid{0};  // 0 = main thread, 1.. = worker + 1, 100.. = generators
  std::int64_t op{-1};
};

/// A bounded, evenly thinned sample of an unbounded stream: keeps every
/// stride-th value, and when the store fills, drops every other kept value
/// and doubles the stride.
class Thinned {
 public:
  void add(double v);
  /// Median of the kept values (0 when empty).
  [[nodiscard]] double median() const;

 private:
  static constexpr std::size_t kCap = 1u << 20;
  std::vector<double> _kept;
  std::uint64_t _seen{0};
  std::uint64_t _stride{1};
};

/// Stamps every task invocation, per worker, without locks: a worker appends
/// only to its own lane, and take() runs only while no task runs (after
/// ExecutionHandle::get or a timer update returned, or after the server
/// drained), which those calls order after every on_exit.
class TaskObserver final : public tf::ExecutorObserverInterface {
 public:
  void set_up(std::size_t num_workers) override;
  void on_entry(std::size_t worker_id, const tf::Node& node) override;
  void on_exit(std::size_t worker_id, const tf::Node& node) override;

  /// Append every span recorded since the last take() as "scheduler.task"
  /// spans (tid = worker + 1, parent = `parent`) and clear the lanes.
  void take(std::vector<Span>& out, std::int32_t parent, std::int64_t op);

  [[nodiscard]] std::size_t num_workers() const noexcept { return _lanes.size(); }

 private:
  struct alignas(64) Lane {
    std::int64_t open{0};              // entry stamp of the running task
    std::vector<std::int64_t> stamps;  // begin, end, begin, end, ...
  };
  std::vector<Lane> _lanes;
};

/// Folds the traced run into the per-layer metrics and keeps the spans of
/// the first ops for the Chrome trace.
class Tracer {
 public:
  /// The observer to attach to the executor under test (once, before the
  /// timed section); its worker count sizes the busy-share window.
  [[nodiscard]] const std::shared_ptr<TaskObserver>& observer() const { return _observer; }

  /// Close one op of a graph or timer workload.  `spans[0]` is the op span;
  /// the tasks the observer saw since the last call are parented to
  /// `spans[task_parent]`, whose interval is the window the workers were
  /// given: busy share, first-task latency and drain are measured in it.
  void add_op(std::vector<Span> spans, std::int32_t task_parent);

  /// Close a run without per-op task attribution (the service, where tasks
  /// of concurrent requests interleave): `spans` from every client thread,
  /// the tasks as roots, busy share measured over [window_begin, window_end).
  void add_run(std::vector<Span> spans, std::int64_t window_begin, std::int64_t window_end);

  /// Scheduler aggregates ("scheduler.busy_share", ...), keyed by metric name.
  [[nodiscard]] std::map<std::string, double> metrics() const;

  /// Per-span-name self time: span duration minus the part its children
  /// cover.  Keyed by name; values are {calls, total_us, self_us}.
  struct SelfTime {
    double calls{0};
    double total_us{0};
    double self_us{0};
  };
  [[nodiscard]] const std::map<std::string, SelfTime>& self_time() const { return _self; }

  /// Chrome-trace JSON of every kept span (chrome://tracing, Perfetto).
  void write_chrome(std::ostream& os) const;

 private:
  void fold(const std::vector<Span>& spans);

  // Caps on the spans kept for the Chrome trace (~100 bytes of JSON each);
  // aggregates and self times still cover every op.
  static constexpr std::size_t kKeptTaskSpans = 200000;
  static constexpr std::size_t kKeptLayerSpans = 100000;

  std::shared_ptr<TaskObserver> _observer{std::make_shared<TaskObserver>()};
  std::vector<Span> _kept;
  std::size_t _kept_tasks{0};
  std::map<std::string, SelfTime> _self;

  double _busy_ns{0};
  double _window_ns{0};  // worker-time offered: workers x window
  Thinned _body_ns;
  Thinned _gap_ns;
  Thinned _first_task_us;
  Thinned _drain_us;
  double _ops{0};
  double _serial_ops{0};
};

}  // namespace e2e

// timer_v2.cpp - the "OpenTimer v2" engine: an update runs a tf::Taskflow
// task dependency graph - one task per pin, one dependency per timing arc
// inside the updated region - on the timer's long-lived tf::Executor.
// An incremental update builds that graph over its cone.  A full update's
// graph spans every pin and its shape never changes, so it is built once and
// replayed by later full updates until an incremental update recycles the
// taskflow.
// No levelization, no per-level barriers: computation flows asynchronously
// with the timing graph (paper §IV-B).
#include "taskflow/taskflow.hpp"
#include "timer/timers.hpp"

namespace ot {

namespace {

/// Does an arc out of `pin` end at a pin flagged in `in_cone`?
bool feeds_cone(const TimingGraph& graph, const std::vector<char>& in_cone, int pin) {
  for (int aid : graph.fanout(pin)) {
    if (in_cone[static_cast<std::size_t>(graph.arc(aid).to_pin)]) return true;
  }
  return false;
}

}  // namespace

struct TimerV2::Impl {
  explicit Impl(std::shared_ptr<tf::WorkStealingExecutor> backend)
      : executor(std::move(backend)) {}

  tf::Executor executor;  // over the injected backend, one per timer
  tf::Taskflow taskflow;  // the last update's graph, built in reused arena slabs
  /// True while `taskflow` holds a completely built every-pin graph, which
  /// the next full update replays instead of rebuilding.
  bool holds_full_graph{false};
  std::string last_dot;

  // Persistent scratch reused across updates (sized to the pin count once).
  std::vector<tf::Task> fwd_task;
  std::vector<tf::Task> bwd_task;
  std::vector<char> in_fwd;
  std::vector<char> in_bwd;

  /// Keep a DOT snapshot only for small task graphs (Fig. 8-scale dumps);
  /// million-task graphs would spend more time printing than timing.
  static constexpr std::size_t kDumpLimit = 4096;
};

TimerV2::TimerV2(Netlist& netlist, const TimerOptions& options)
    : TimerV2(netlist, options,
              tf::make_executor(options.num_threads == 0 ? 1 : options.num_threads)) {}

TimerV2::TimerV2(Netlist& netlist, const TimerOptions& options,
                 std::shared_ptr<tf::WorkStealingExecutor> executor)
    : TimerBase(netlist, options), _impl(std::make_unique<Impl>(std::move(executor))) {
  const std::size_t n = netlist.num_pins();
  _impl->fwd_task.resize(n);
  _impl->bwd_task.resize(n);
  _impl->in_fwd.assign(n, 0);
  _impl->in_bwd.assign(n, 0);
}

TimerV2::~TimerV2() = default;

void TimerV2::run_full() {
  // Netlist edits made outside the timer change loads, not the graph.
  _state.update_all_loads(*_netlist);
  Impl& im = *_impl;
  if (!im.holds_full_graph) {
    const std::vector<int>& fwd = _graph.topo_order();
    build(fwd, std::vector<int>(fwd.rbegin(), fwd.rend()));
    im.holds_full_graph = true;
  }
  im.executor.run(im.taskflow).get();
}

void TimerV2::run_update(const std::vector<int>& fwd, const std::vector<int>& bwd) {
  Impl& im = *_impl;
  im.holds_full_graph = false;
  build(fwd, bwd);
  im.executor.run(im.taskflow).get();
}

void TimerV2::build(const std::vector<int>& fwd, const std::vector<int>& bwd) {
  Impl& im = *_impl;
  tf::Taskflow& taskflow = im.taskflow;
  taskflow.graph().recycle();
  Netlist& nl = *_netlist;
  const bool want_dot = fwd.size() + bwd.size() <= Impl::kDumpLimit;
  im.last_dot.clear();  // a graph too large to dump leaves none, not a stale one

  // The cone flags vouch for this build's task handles only: clear them on
  // every exit, so an emplace that throws part-way cannot leave a later
  // build wiring edges through handles into a recycled graph.
  struct ClearFlags {
    Impl& im;
    const std::vector<int>& fwd;
    const std::vector<int>& bwd;
    ~ClearFlags() {
      for (int p : fwd) im.in_fwd[static_cast<std::size_t>(p)] = 0;
      for (int p : bwd) im.in_bwd[static_cast<std::size_t>(p)] = 0;
    }
  } clear_flags{im, fwd, bwd};

  // Forward tasks: one per cone pin, wired along timing arcs inside the cone.
  for (int p : fwd) {
    im.in_fwd[static_cast<std::size_t>(p)] = 1;
    auto task = taskflow.emplace(
        [this, p] { propagate_pin_forward(*_netlist, _graph, _state, p); });
    if (want_dot) task.name("fwd:" + nl.pin_name(p));
    im.fwd_task[static_cast<std::size_t>(p)] = task;
  }
  for (int p : fwd) {
    for (int aid : _graph.fanin(p)) {
      const int from = _graph.arc(aid).from_pin;
      if (im.in_fwd[static_cast<std::size_t>(from)]) {
        im.fwd_task[static_cast<std::size_t>(from)].precede(
            im.fwd_task[static_cast<std::size_t>(p)]);
      }
    }
  }

  if (!bwd.empty()) {
    // The backward pass reads arrival/slew values, so it starts after the
    // entire forward wave: a single synchronization task separates them.
    // Only the ends of each wave touch it - a task with an in-cone
    // successor (forward) or in-cone fan-out (backward) is already ordered
    // against the barrier through that chain.
    tf::Task barrier = taskflow.placeholder();
    if (want_dot) barrier.name("forward/backward");
    for (int p : fwd) {
      if (!feeds_cone(_graph, im.in_fwd, p)) {
        im.fwd_task[static_cast<std::size_t>(p)].precede(barrier);
      }
    }
    // Fallback when the forward cone is empty (pure backward refresh).
    if (fwd.empty()) barrier.work([] {});

    for (int p : bwd) {
      im.in_bwd[static_cast<std::size_t>(p)] = 1;
      auto task = taskflow.emplace(
          [this, p] { propagate_pin_backward(*_netlist, _graph, _state, p); });
      if (want_dot) task.name("bwd:" + nl.pin_name(p));
      im.bwd_task[static_cast<std::size_t>(p)] = task;
    }
    for (int p : bwd) {
      tf::Task task = im.bwd_task[static_cast<std::size_t>(p)];
      if (!feeds_cone(_graph, im.in_bwd, p)) barrier.precede(task);
      for (int aid : _graph.fanout(p)) {
        const int to = _graph.arc(aid).to_pin;
        if (im.in_bwd[static_cast<std::size_t>(to)]) {
          im.bwd_task[static_cast<std::size_t>(to)].precede(task);
        }
      }
    }
  }

  if (want_dot) im.last_dot = taskflow.dump();
}

void TimerV2::run_forward(const std::vector<int>& pins) {
  run_update(pins, {});
}

void TimerV2::run_backward(const std::vector<int>& pins) {
  run_update({}, pins);
}

std::string TimerV2::dump_last_task_graph() const { return _impl->last_dot; }

void TimerV2::set_observer(std::shared_ptr<tf::ExecutorObserverInterface> observer) {
  _impl->executor.set_observer(std::move(observer));
}

}  // namespace ot

// timers.hpp - the timing engines.
//
//  * SeqTimer  - sequential reference implementation (correctness oracle).
//  * TimerV1   - "OpenTimer v1" style: levelization + per-level OpenMP
//                parallel-for, with the level-bucket data structure rebuilt
//                on every incremental iteration (paper §IV-B: v1's overhead
//                is dominated by reconstructing this structure).
//  * TimerV2   - "OpenTimer v2" style: an incremental update builds a
//                tf::Taskflow task dependency graph over the affected cone;
//                the every-pin graph of a full update is built once and
//                replayed by later full updates.  Either way the computation
//                flows asynchronously with the timing graph.
//
// All engines share the update algebra of TimerBase: a full update
// propagates every pin; an incremental update (after a gate resize) fixes
// net loads, extracts the forward cone of the change and the backward cone
// of that region, and re-propagates exactly those pins.
#pragma once

#include <memory>
#include <vector>

#include "timer/propagation.hpp"

namespace tf {
class WorkStealingExecutor;
class ExecutorObserverInterface;
}

namespace ot {

class TimerBase {
 public:
  TimerBase(Netlist& netlist, const TimerOptions& options);
  virtual ~TimerBase() = default;

  /// Recompute timing of the whole design.
  void full_update();

  /// Resize `gate` to `new_cell` and incrementally re-time the affected
  /// cone (one "incremental iteration" of paper Fig. 9).
  void resize(int gate, const Cell& new_cell);

  // -- queries --------------------------------------------------------------
  [[nodiscard]] double arrival(int pin, int split, int tran) const {
    return _state.data(pin).at[static_cast<std::size_t>(split)][static_cast<std::size_t>(tran)];
  }
  [[nodiscard]] double required(int pin, int split, int tran) const {
    return _state.data(pin).rat[static_cast<std::size_t>(split)][static_cast<std::size_t>(tran)];
  }
  [[nodiscard]] double slack_late(int pin) const { return late_slack(_state, pin); }
  [[nodiscard]] double slack_early(int pin) const { return early_slack(_state, pin); }
  [[nodiscard]] double worst_slack() const { return worst_late_slack(_graph, _state); }

  [[nodiscard]] const TimingGraph& graph() const noexcept { return _graph; }
  [[nodiscard]] const TimingState& state() const noexcept { return _state; }
  [[nodiscard]] Netlist& netlist() noexcept { return *_netlist; }

  /// Pins touched by the last update (the paper's per-iteration task count).
  [[nodiscard]] std::size_t last_update_tasks() const noexcept {
    return _last_update_tasks;
  }

 protected:
  /// One full update: refresh every net load, then re-propagate every pin.
  /// The default runs run_update over the whole topological order; TimerV2
  /// overrides it to replay the graph of its previous full update.
  virtual void run_full();
  /// Propagate forward over `pins` (already topologically sorted).
  virtual void run_forward(const std::vector<int>& pins) = 0;
  /// Propagate backward over `pins` (already reverse-topologically sorted).
  virtual void run_backward(const std::vector<int>& pins) = 0;
  /// One full incremental pass; default = run_forward then run_backward.
  /// TimerV2 overrides it with a single fused task graph.
  virtual void run_update(const std::vector<int>& fwd, const std::vector<int>& bwd);

  Netlist* _netlist;
  TimingGraph _graph;
  TimingState _state;
  TimerOptions _options;
  std::size_t _last_update_tasks{0};
};

/// Sequential reference engine.
class SeqTimer final : public TimerBase {
 public:
  SeqTimer(Netlist& netlist, const TimerOptions& options = {});

 protected:
  void run_forward(const std::vector<int>& pins) override;
  void run_backward(const std::vector<int>& pins) override;
};

/// OpenTimer-v1 style engine (levelized OpenMP loops).
class TimerV1 final : public TimerBase {
 public:
  TimerV1(Netlist& netlist, const TimerOptions& options = {});

  /// Number of level buckets built during the last update (diagnostic).
  [[nodiscard]] std::size_t last_num_levels() const noexcept { return _last_levels; }

 protected:
  void run_forward(const std::vector<int>& pins) override;
  void run_backward(const std::vector<int>& pins) override;

 private:
  /// Rebuild the level-bucket list for `pins` - the per-iteration
  /// reconstruction cost inherent to the v1 pipeline.
  [[nodiscard]] std::vector<std::vector<int>> build_buckets(
      const std::vector<int>& pins, bool reverse);

  std::size_t _last_levels{0};
  std::vector<char> _in_region;    // scratch: update-region membership
  std::vector<int> _region_level;  // scratch: per-update levelization
};

/// OpenTimer-v2 style engine (Cpp-Taskflow task dependency graph).
class TimerV2 final : public TimerBase {
 public:
  TimerV2(Netlist& netlist, const TimerOptions& options = {});

  /// Share an existing executor (paper §III-E: modular development without
  /// thread over-subscription - e.g. one executor driving several timers,
  /// or a timer plus other taskflow workloads).
  TimerV2(Netlist& netlist, const TimerOptions& options,
          std::shared_ptr<tf::WorkStealingExecutor> executor);

  ~TimerV2() override;

  /// DOT dump of the task graph of the last update (paper Fig. 8).  Empty
  /// when that graph had more than 4,096 tasks: printing it would cost more
  /// than the update.
  [[nodiscard]] std::string dump_last_task_graph() const;

  /// Attach an executor observer (CPU-utilization profiling, paper Fig. 10).
  void set_observer(std::shared_ptr<tf::ExecutorObserverInterface> observer);

 protected:
  void run_forward(const std::vector<int>& pins) override;
  void run_backward(const std::vector<int>& pins) override;
  void run_update(const std::vector<int>& fwd, const std::vector<int>& bwd) override;
  void run_full() override;

 private:
  /// Rebuild the taskflow as the fused forward/backward graph of `fwd` and
  /// `bwd`, without running it.
  void build(const std::vector<int>& fwd, const std::vector<int>& bwd);

  struct Impl;
  std::unique_ptr<Impl> _impl;
};

}  // namespace ot

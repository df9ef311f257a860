// executor.hpp - pluggable executors (paper §III-E).
//
// ExecutorInterface is the pluggable scheduler abstraction: a Taskflow holds
// one via std::shared_ptr so an executor can be shared among multiple
// taskflow objects (modular development without thread over-subscription,
// paper §III-E).  A backend implements one scheduling entry, schedule_batch,
// plus num_workers.  The in-tree backend is WorkStealingExecutor, the
// paper's default scheduler (Algorithm 1): a mixed work-stealing /
// work-sharing strategy with
//   (1) a per-worker exclusive task *cache* enabling speculative execution
//       of linear task chains without queue round-trips,
//   (2) a precise *idler list*: preempted workers park on their own
//       condition variable and are woken either exactly when work arrives or
//       probabilistically for load balancing,
//   (3) *batched* release: all successors made ready by one finishing task
//       are published with a single fence and a single wake_n pass instead
//       of one fence + mutex round-trip per successor, and
//   (4) a bounded *spin-then-park* phase so workers ride out short gaps
//       between bursts without paying the park/wake round-trip.
//
// A backend's scheduling state is read through one call, stats(): worker
// count, queue depths (total and per worker), parked workers and the
// lifetime steal/cache-hit/park/wake counters.  tf::Executor folds it into
// Executor::metrics(), whose key list the stall report and /healthz print.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "support/rng.hpp"
#include "taskflow/error.hpp"
#include "taskflow/graph.hpp"
#include "taskflow/observer.hpp"
#include "taskflow/timer_queue.hpp"
#include "taskflow/wsq.hpp"

namespace tf {

namespace detail {

/// Ready successors collected while finalizing a task, batched so the
/// executor can publish them with one fence / one wake pass.  The first
/// kInline entries (the overwhelmingly common case) live on the stack;
/// larger fan-outs spill to the heap once.
class ReadyBatch {
 public:
  static constexpr std::size_t kInline = 16;

  void push(Node* node) {
    if (_spill.empty()) {
      if (_size < kInline) {
        _inline[_size++] = node;
        return;
      }
      _spill.reserve(kInline * 2);
      _spill.assign(_inline.begin(), _inline.end());
    }
    _spill.push_back(node);
  }

  [[nodiscard]] bool empty() const noexcept { return _size == 0 && _spill.empty(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return _spill.empty() ? _size : _spill.size();
  }
  [[nodiscard]] Node* const* data() const noexcept {
    return _spill.empty() ? _inline.data() : _spill.data();
  }

 private:
  std::array<Node*, kInline> _inline{};
  std::size_t _size{0};
  std::vector<Node*> _spill;
};

/// FIFO of ready nodes in a vector that keeps its capacity, so a warm
/// scheduler queues without touching the heap (a std::deque frees and
/// reallocates a block every 64 entries).
class NodeFifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return _head == _nodes.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return _nodes.size() - _head; }
  [[nodiscard]] Node* front() const noexcept { return _nodes[_head]; }
  void push_back(Node* node) { _nodes.push_back(node); }
  void pop_front() noexcept {
    // Drop the consumed prefix once it is half the vector: O(1) amortized.
    if (++_head * 2 >= _nodes.size()) {
      _nodes.erase(_nodes.begin(), _nodes.begin() + static_cast<std::ptrdiff_t>(_head));
      _head = 0;
    }
  }

 private:
  std::vector<Node*> _nodes;
  std::size_t _head{0};
};

}  // namespace detail

class ExecutorInterface {
 public:
  virtual ~ExecutorInterface() = default;

  /// The one scheduling entry of a backend: make `n` ready nodes runnable.
  /// Called from the backend's own workers (released successors, subflow
  /// sources, retries), from submitting threads (a run's sources) and from
  /// the timer thread (retry backoff).
  virtual void schedule_batch(Node* const* nodes, std::size_t n) = 0;

  /// Schedule one ready node: a one-node batch.
  void schedule(Node* node) { schedule_batch(&node, 1); }

  /// Number of worker threads.
  [[nodiscard]] virtual std::size_t num_workers() const noexcept = 0;

  /// The backend's one read-out of its scheduling state: the backend half
  /// of Executor::metrics(), which the stall report and /healthz render.
  /// Safe to call from any thread while graphs run; the numbers are a
  /// best-effort snapshot, not a consistent cut.
  /// A backend that does not track a field leaves it 0; the default below
  /// fills in only num_workers.
  struct SchedulerStats {
    std::size_t num_workers{0};
    std::size_t queue_depth{0};   // tasks sitting in scheduler queues
    std::size_t num_idlers{0};    // parked workers
    std::size_t steals{0};        // lifetime counters
    std::size_t cache_hits{0};
    std::size_t parks{0};
    std::size_t wakes{0};
    std::string_view backend{"custom"};  // "work-stealing", ...
    /// Depth of each worker's own queue (part of queue_depth); empty for a
    /// backend whose workers share one queue.
    std::vector<std::size_t> worker_queue_depths;
  };
  [[nodiscard]] virtual SchedulerStats stats() const {
    SchedulerStats s;
    s.num_workers = num_workers();
    return s;
  }

  /// Attach (or swap) an observer.  Safe to call from any thread at any
  /// time, including while graphs are running: the hot path reads the
  /// observer through an acquire-loaded pointer, and set_observer publishes
  /// the fully set-up observer with a release store.  An observer attached
  /// before a dispatch is guaranteed to see the on_entry/on_exit pair of
  /// every task of that dispatch (tested in test_observer.cpp); one attached
  /// mid-run sees the tasks that start after the attach becomes visible.  A
  /// replaced observer is kept alive until the executor is destroyed, so
  /// workers holding the old pointer never dangle.
  void set_observer(std::shared_ptr<ExecutorObserverInterface> observer) {
    if (observer) observer->set_up(num_workers());
    std::scoped_lock lock(_observer_mutex);
    if (_observer) _retired_observers.push_back(std::move(_observer));
    _observer = std::move(observer);
    _observer_raw.store(_observer.get(), std::memory_order_release);
  }

  [[nodiscard]] std::shared_ptr<ExecutorObserverInterface> observer() const {
    std::scoped_lock lock(_observer_mutex);
    return _observer;
  }

  /// The backend's timer queue (retry backoff, run deadlines, cancel_after).
  /// Its thread starts with the first schedule_after(), so executors that
  /// never touch a resilience feature never pay it; num_pending() and
  /// cancel() never start it.  Every derived destructor MUST call
  /// timers().stop() before tearing down its own scheduling state: timer
  /// callbacks re-enter the virtual schedule_batch(), so the thread may not
  /// outlive the derived object.  Entries still pending are dropped -
  /// legal because an executor is only destroyed after all topologies
  /// (including any with waiting retries or live deadlines) have drained.
  [[nodiscard]] detail::TimerQueue& timers() noexcept { return _timers; }

  // ---- per-worker progress probes (watchdog substrate) --------------------

  /// One sampled worker: the node it is currently executing (nullptr when
  /// between tasks), how long it has been on it, and its completion count.
  struct ProbeSample {
    const Node* node{nullptr};
    std::chrono::nanoseconds busy_for{0};
    std::uint64_t completed{0};
  };

  /// Switch on per-worker progress probes (idempotent; normally done by
  /// Executor::enable_watchdog).  While enabled, run_task stamps each task's
  /// begin/end into per-worker atomic slots - two relaxed stores plus one
  /// clock read per task, paid only when a watchdog asked for them.
  void enable_progress_probes();

  /// Race-free snapshot of every worker's probe; empty when probes were
  /// never enabled.  Safe from any thread while graphs run.
  [[nodiscard]] std::vector<ProbeSample> sample_probes() const;

 protected:
  /// Invoke `node`'s work on worker `worker_id`, expand dynamic subflows,
  /// release successors, and schedule every newly ready one as one batch.
  ///
  /// This is the single invocation path shared by every backend, which is
  /// what keeps the error model uniform across pluggable executors: the
  /// catch-all exception capture and the cancellation skip-but-finalize
  /// drain live here, so their semantics cannot diverge between backends.
  void run_task(std::size_t worker_id, Node* node);

  /// Collect a finished node's ready successors into `ready` (for a
  /// condition node, exactly its `selected` branch - or nothing when
  /// selected is -1), notify its joined-subflow parent, and net the
  /// execution into its topology's scheduled count.  Does not schedule
  /// anything itself: the caller publishes `ready` in one batch.
  void finalize(Node* node, detail::ReadyBatch& ready, int selected = -1);

  /// Arm and schedule the (freshly built or instantiated) subgraph of
  /// `node`.  Returns true when the node's finalization is deferred to the
  /// last child of a joined subflow; false when there is nothing to wait for
  /// (empty subgraph, or a detached one).  Throws CycleError on a subgraph
  /// that could never complete.
  bool dispatch_subgraph(Node* node, bool detached);

  /// Acquire/release-published observer pointer read by run_task on every
  /// task (a plain load on x86); ownership lives behind _observer_mutex.
  std::atomic<ExecutorObserverInterface*> _observer_raw{nullptr};
  mutable std::mutex _observer_mutex;
  std::shared_ptr<ExecutorObserverInterface> _observer;
  std::vector<std::shared_ptr<ExecutorObserverInterface>> _retired_observers;

 private:
  /// One worker's progress slot, cache-line padded so the per-task stamps of
  /// neighbouring workers never share a line.
  struct alignas(64) WorkerProbe {
    std::atomic<const Node*> current{nullptr};
    std::atomic<std::int64_t> since_ns{0};
    std::atomic<std::uint64_t> completed{0};
  };

  detail::TimerQueue _timers;

  /// Lazily created progress probes; the raw pointer is the hot-path probe
  /// (one acquire load), ownership sits behind _resilience_mutex.
  mutable std::mutex _resilience_mutex;
  std::unique_ptr<WorkerProbe[]> _probes;
  std::atomic<WorkerProbe*> _probes_raw{nullptr};
  std::size_t _num_probes{0};  // written once before _probes_raw publishes
};

/// The four tuning knobs of WorkStealingExecutor: worker cache, balance-wake
/// probability, steal rounds and spin tries.  Defaults match the paper's
/// design; the ablation bench (bench_ablation_executor) sweeps them.
struct WorkStealingOptions {
  /// Per-worker cache slot for speculative linear-chain execution
  /// (Algorithm 1 lines 16-25).  Disabling routes every task through queues.
  bool enable_worker_cache{true};
  /// Probability that a worker wakes one idler after draining its chain
  /// (Algorithm 1 lines 26-28).  0 disables proactive load balancing.
  double balance_wake_probability{1.0 / 64.0};
  /// Steal sweeps over all victims after the local queue comes up empty and
  /// before the spin phase.  0 skips these sweeps but does not disable
  /// stealing: every spin iteration runs one sweep too, so stealing is off
  /// only when spin_tries is 0 as well.
  int steal_rounds{2};
  /// Bounded exponential-backoff spin/yield iterations a worker performs
  /// after an empty search pass before parking on its condition variable.
  /// Each iteration runs one steal sweep (the victims, then the central
  /// queue).  0 restores park-immediately behavior.
  int spin_tries{64};
};

class WorkStealingExecutor final : public ExecutorInterface {
 public:
  explicit WorkStealingExecutor(std::size_t num_workers = std::thread::hardware_concurrency(),
                                WorkStealingOptions options = {});
  ~WorkStealingExecutor() override;

  WorkStealingExecutor(const WorkStealingExecutor&) = delete;
  WorkStealingExecutor& operator=(const WorkStealingExecutor&) = delete;

  /// On a worker of this executor the first node goes to the worker's cache
  /// slot (when enabled and empty) and the rest to its own queue, followed
  /// by one fence and one wake pass.  From any other thread the nodes are
  /// handed to parked workers' caches and the remainder spills to the
  /// central queue.
  void schedule_batch(Node* const* nodes, std::size_t n) override;

  /// Atomics only.  steals counts successful steals; cache_hits counts
  /// direct cache hand-offs (speculative chain executions); parks and wakes
  /// count condition-variable parks and the wakeups issued (precise,
  /// direct-handoff and load-balance) - the park/wake churn that the
  /// spin-then-park phase exists to drive down on bursty workloads.
  [[nodiscard]] SchedulerStats stats() const override;

  [[nodiscard]] std::size_t num_workers() const noexcept override {
    return _workers.size();
  }

 private:
  struct Worker {
    WorkStealingQueue<Node*> queue;
    Node* cache{nullptr};
    std::condition_variable cv;
    bool idle{false};
    std::size_t id{0};
    std::size_t last_victim{0};
    support::Xoshiro256 rng;
    explicit Worker(std::uint64_t seed) : rng(seed) {}
  };

  void worker_loop(Worker& w);
  /// One pass: pop the local queue, then steal_rounds sweeps, then the
  /// central queue.
  Node* try_pop_or_steal(Worker& w);
  /// One sweep over all victims (last-victim first) plus the central queue.
  Node* steal_pass(Worker& w);
  /// Claim one task from the central overflow queue (steal-pass tail).
  Node* claim_central();
  /// Bounded exponential-backoff spin before parking; returns a task if one
  /// arrives within the spin window, else nullptr.
  Node* spin_for_work(Worker& w);
  /// Park `w` on the idler list; returns false when the executor stops.
  /// When central work is found under the park lock it is claimed into
  /// `out` instead of parking (the guaranteed drain when stealing is off).
  bool park(Worker& w, Node*& out);
  /// Wake up to `n` idlers under a single mutex acquisition.
  void wake_n(std::size_t n);
  [[nodiscard]] bool all_queues_empty() const noexcept;

  WorkStealingOptions _options;
  std::vector<std::unique_ptr<Worker>> _workers;
  std::vector<std::thread> _threads;

  mutable std::mutex _mutex;          // guards _central, _idlers, _stop
  detail::NodeFifo _central;          // overflow queue for external submitters
  std::vector<Worker*> _idlers;       // parked workers (Algorithm 1 line 8)
  bool _stop{false};
  std::atomic<int> _num_idlers{0};
  std::atomic<std::size_t> _num_central{0};  // lock-free emptiness probe of _central

  std::atomic<std::size_t> _steals{0};
  std::atomic<std::size_t> _cache_hits{0};
  std::atomic<std::size_t> _parks{0};
  std::atomic<std::size_t> _wakes{0};
};

/// Convenience factory: a shared work-stealing executor with `n` workers.
[[nodiscard]] std::shared_ptr<WorkStealingExecutor> make_executor(
    std::size_t n = std::thread::hardware_concurrency(), WorkStealingOptions options = {});

}  // namespace tf

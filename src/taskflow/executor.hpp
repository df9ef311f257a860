// executor.hpp - pluggable executors (paper §III-E).
//
// ExecutorInterface is the pluggable scheduler abstraction: a Taskflow holds
// one via std::shared_ptr so an executor can be shared among multiple
// taskflow objects (modular development without thread over-subscription,
// paper §III-E).  Two implementations are provided:
//
//  * WorkStealingExecutor - the paper's default scheduler (Algorithm 1):
//    a mixed work-stealing / work-sharing strategy with
//      (1) a per-worker exclusive task *cache* enabling speculative
//          execution of linear task chains without queue round-trips,
//      (2) a precise *idler list*: preempted workers park on their own
//          condition variable and are woken one at a time, either exactly
//          when work arrives or probabilistically for load balancing,
//      (3) *batched* release: all successors made ready by one finishing
//          task are published with a single fence and a single wake_n pass
//          instead of one fence + mutex round-trip per successor, and
//      (4) a bounded *spin-then-park* phase so workers ride out short gaps
//          between bursts without paying the park/wake round-trip.
//
//  * SimpleExecutor - a plain central-queue work-sharing pool, used as the
//    pluggable alternative and by the executor ablation benchmark.
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
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "support/rng.hpp"
#include "taskflow/error.hpp"
#include "taskflow/graph.hpp"
#include "taskflow/observer.hpp"
#include "taskflow/timer_wheel.hpp"
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

}  // namespace detail

class ExecutorInterface {
 public:
  virtual ~ExecutorInterface() = default;

  /// Schedule one ready node for execution.
  virtual void schedule(Node* node) = 0;

  /// Schedule a batch of ready nodes; default forwards to schedule().
  virtual void schedule_batch(Node* const* nodes, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) schedule(nodes[i]);
  }

  /// Convenience overload for callers holding a vector (e.g. dispatch).
  void schedule_batch(const std::vector<Node*>& nodes) {
    schedule_batch(nodes.data(), nodes.size());
  }

  /// Number of worker threads.
  [[nodiscard]] virtual std::size_t num_workers() const noexcept = 0;

  /// The backend's one read-out of its scheduling state: the backend half
  /// of Executor::metrics(), which the stall report and /healthz render.
  /// Safe to call from any thread while graphs run; the numbers are a
  /// best-effort snapshot, not a consistent cut.
  /// A backend that does not track a field leaves it 0 (SimpleExecutor
  /// tracks none of num_idlers, steals, cache_hits, parks and wakes).
  struct SchedulerStats {
    std::size_t num_workers{0};
    std::size_t queue_depth{0};   // tasks sitting in scheduler queues
    std::size_t num_idlers{0};    // parked workers
    std::size_t steals{0};        // lifetime counters
    std::size_t cache_hits{0};
    std::size_t parks{0};
    std::size_t wakes{0};
    std::string_view backend{"custom"};  // "work-stealing", "simple", ...
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

  /// The executor's timer wheel (retry backoff, run deadlines, cancel_after).
  /// Created - together with its service thread - on first call, so
  /// executors that never touch a resilience feature never pay the thread.
  [[nodiscard]] const std::shared_ptr<detail::TimerWheel>& timer_wheel();

  /// The wheel if one was ever created, else nullptr (diagnostics: pending
  /// timer count in stall reports without forcing the thread into being).
  [[nodiscard]] std::shared_ptr<detail::TimerWheel> timer_wheel_if_created() const;

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
  /// This is the single invocation path shared by every executor (both
  /// WorkStealingExecutor and SimpleExecutor route all tasks through it),
  /// which is what keeps the error model uniform across pluggable
  /// executors: the catch-all exception capture and the cancellation
  /// skip-but-finalize drain live here, so their semantics cannot diverge
  /// between executor implementations.
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

  /// Stop and join the timer wheel thread if one exists.  Every derived
  /// destructor MUST call this before tearing down its own scheduling state:
  /// wheel callbacks re-enter the virtual schedule(), so the wheel may not
  /// outlive the derived object.  Entries still pending are dropped - legal
  /// because an executor is only destroyed after all topologies (including
  /// any with waiting retries or live deadlines) have drained.
  void stop_timer_wheel() noexcept;

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

  /// Lazily created resilience plumbing; the raw pointers are the hot-path
  /// probes (one acquire load each), ownership sits behind _resilience_mutex.
  mutable std::mutex _resilience_mutex;
  std::shared_ptr<detail::TimerWheel> _timer_wheel;
  std::atomic<detail::TimerWheel*> _timer_wheel_raw{nullptr};
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
  /// Steal sweeps over all victims before a worker gives up a search pass.
  int steal_rounds{2};
  /// Bounded exponential-backoff spin/yield iterations a worker performs
  /// after an empty sweep before parking on its condition variable.  Each
  /// iteration re-checks the local queue, the victims, and the central
  /// queue.  0 restores park-immediately behavior.
  int spin_tries{64};
};

class WorkStealingExecutor final : public ExecutorInterface {
 public:
  explicit WorkStealingExecutor(std::size_t num_workers = std::thread::hardware_concurrency(),
                                WorkStealingOptions options = {});
  ~WorkStealingExecutor() override;

  WorkStealingExecutor(const WorkStealingExecutor&) = delete;
  WorkStealingExecutor& operator=(const WorkStealingExecutor&) = delete;

  void schedule(Node* node) override;
  void schedule_batch(Node* const* nodes, std::size_t n) override;
  using ExecutorInterface::schedule_batch;

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
  /// Wake one idler; `direct` (optional) is handed straight into the woken
  /// worker's cache (precise wakeup, Algorithm 1 line 27); otherwise, when no
  /// idler exists and `direct` != nullptr, it is pushed to the central queue.
  void wake_one(Node* direct);
  /// Wake up to `n` idlers under a single mutex acquisition.
  void wake_n(std::size_t n);
  [[nodiscard]] bool all_queues_empty() const noexcept;

  WorkStealingOptions _options;
  std::vector<std::unique_ptr<Worker>> _workers;
  std::vector<std::thread> _threads;

  mutable std::mutex _mutex;          // guards _central, _idlers, _stop
  std::deque<Node*> _central;         // overflow queue for external submitters
  std::vector<Worker*> _idlers;       // parked workers (Algorithm 1 line 8)
  bool _stop{false};
  std::atomic<int> _num_idlers{0};
  std::atomic<std::size_t> _num_central{0};  // lock-free emptiness probe of _central

  std::atomic<std::size_t> _steals{0};
  std::atomic<std::size_t> _cache_hits{0};
  std::atomic<std::size_t> _parks{0};
  std::atomic<std::size_t> _wakes{0};
};

/// Plain work-sharing pool over one shared queue: the simplest conforming
/// ExecutorInterface, used for comparison and as a reference scheduler.
class SimpleExecutor final : public ExecutorInterface {
 public:
  explicit SimpleExecutor(std::size_t num_workers = std::thread::hardware_concurrency());
  ~SimpleExecutor() override;

  SimpleExecutor(const SimpleExecutor&) = delete;
  SimpleExecutor& operator=(const SimpleExecutor&) = delete;

  void schedule(Node* node) override;
  void schedule_batch(Node* const* nodes, std::size_t n) override;
  using ExecutorInterface::schedule_batch;

  [[nodiscard]] SchedulerStats stats() const override;

  [[nodiscard]] std::size_t num_workers() const noexcept override { return _threads.size(); }

 private:
  void worker_loop(std::size_t worker_id);

  mutable std::mutex _mutex;
  std::condition_variable _cv;
  std::deque<Node*> _queue;
  bool _stop{false};
  std::vector<std::thread> _threads;
};

/// Convenience factory: a shared work-stealing executor with `n` workers.
[[nodiscard]] std::shared_ptr<WorkStealingExecutor> make_executor(
    std::size_t n = std::thread::hardware_concurrency(), WorkStealingOptions options = {});

}  // namespace tf

// taskflow.hpp - the executor-centric core API: tf::Taskflow, a reusable
// task dependency graph, and tf::Executor, the thread-safe run entry point.
//
//   tf::Taskflow taskflow;
//   auto [A, B, C, D] = taskflow.emplace(
//     [](){ std::cout << "Task A\n"; },
//     [](){ std::cout << "Task B\n"; },
//     [](){ std::cout << "Task C\n"; },
//     [](){ std::cout << "Task D\n"; }
//   );
//   A.precede(B, C);   // A runs before B and C
//   B.precede(D);      // B runs before D
//   C.precede(D);      // C runs before D
//
//   tf::Executor executor;            // shared thread pool, many clients
//   executor.run(taskflow).get();     // run the graph once
//   executor.run_n(taskflow, 10);     // queue ten more runs (non-blocking)
//   auto f = executor.async([]{ return 42; });  // fire-and-forget task
//   executor.wait_for_all();          // drain everything
//
// Ownership model (successor-system design; see DESIGN.md §7):
//  * a Taskflow is a pure reusable graph - building it is single-owner and
//    spawns no threads;
//  * an Executor owns the worker threads (via the pluggable
//    ExecutorInterface backends, paper §III-E) and is safe to share across
//    many client threads: run/run_n/run_until/async may be called
//    concurrently from any thread;
//  * runs of the *same* taskflow are serialized through a per-taskflow FIFO
//    topology queue (a queued run starts when its predecessor finishes);
//    runs of *distinct* taskflows execute concurrently;
//  * a taskflow must outlive its submitted runs and must not be mutated
//    while runs are queued or in flight (use handle.get() / wait_for_all()
//    to quiesce before rebuilding).
//
// Paper-era API (dispatch/silent_dispatch/wait_for_all on Taskflow, the
// private-executor constructors) is a client of Executor::run, the one way
// a graph run enters the core: a Taskflow lazily creates a private Executor
// the first time a paper-era entry point needs one, and dispatch() moves the
// present graph into a heap-boxed Taskflow that it runs there.  Existing
// call sites compile and behave unchanged while new-style code pays for no
// hidden thread pool.
//
// Error model (see error.hpp / DESIGN.md §6):
//  * run()/dispatch() verify the graph is acyclic and throw tf::CycleError
//    with a descriptive message instead of deadlocking (disable the check
//    with REPRO_CYCLE_CHECK=0 when submission cost matters more than safety);
//  * a task that throws flips its topology into draining mode (remaining
//    tasks are skipped, bookkeeping still runs, repeat runs stop) and the
//    first exception is rethrown from the handle's get();
//  * the returned ExecutionHandle supports cooperative cancel(), observable
//    inside tasks via tf::this_task::is_cancelled();
//  * wait_for_all_for() + stall_report() bound waits and triage deadlocks.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "taskflow/executor.hpp"
#include "taskflow/flow_builder.hpp"
#include "taskflow/topology.hpp"

namespace tf {

class Executor;

namespace detail {
// Base-from-member: the owned graph must outlive (construction-wise) the
// FlowBuilder base that points at it.  This is the single graph-owning base
// of the library - tf::Taskflow builds on it, so static and reusable graphs
// share one code path.
struct GraphOwner {
  Graph graph;
};

// Heap box of one Executor::async submission: a single-node graph plus its
// topology (defined in taskflow.cpp).
struct AsyncRun;
// Sharded freelist of retired AsyncRun boxes (defined in taskflow.cpp):
// async storms reuse box + graph-arena storage instead of hitting the heap
// per submission, and shards keep concurrent submitters off one lock.
class AsyncRunPool;
}  // namespace detail

/// A reusable task dependency graph.  Building (emplace/precede/linearize
/// and the algorithm patterns of FlowBuilder) is single-owner-thread;
/// execution belongs to tf::Executor, which may run one taskflow any number
/// of times and many taskflows concurrently.
class Taskflow : private detail::GraphOwner, public FlowBuilder {
 public:
  /// A pure graph: no executor, no threads.  Run it through tf::Executor.
  /// Algorithm-pattern chunking defaults to the hardware concurrency.
  Taskflow();

  /// Paper-era constructor: a taskflow with a private executor of
  /// `num_workers` threads.  The executor (and its threads) is created
  /// lazily on first use of a paper-era entry point (dispatch /
  /// wait_for_all / num_workers), so new-style code that only builds the
  /// graph pays nothing.
  explicit Taskflow(std::size_t num_workers);

  /// Paper-era constructor: a taskflow that shares `executor`
  /// (paper §III-E).  Passing nullptr creates a private default executor.
  explicit Taskflow(std::shared_ptr<ExecutorInterface> executor);

  /// Blocks until all dispatched runs finish.  Runs submitted through a
  /// tf::Executor are NOT waited here: the taskflow must outlive them
  /// (quiesce with handle.get() or Executor::wait_for_all first).
  ~Taskflow();

  Taskflow(const Taskflow&) = delete;
  Taskflow& operator=(const Taskflow&) = delete;

  /// The underlying present graph (the executor borrows it per run).
  [[nodiscard]] Graph& graph() noexcept { return detail::GraphOwner::graph; }
  [[nodiscard]] const Graph& graph() const noexcept { return detail::GraphOwner::graph; }

  // ---- paper-era API, a client of tf::Executor::run ----------------------

  /// Dispatch the present graph (non-blocking); returns a handle whose
  /// future becomes ready when every task - including dynamically spawned
  /// subflow tasks - has finished, and which exposes cooperative cancel().
  /// The graph moves into a heap box that the private executor runs as its
  /// own client, so several dispatches of one taskflow overlap.  The handle
  /// converts implicitly to std::shared_future<void>, so paper-era call
  /// sites keep compiling.  The first exception thrown by a task is rethrown
  /// from the handle's get().  Throws tf::CycleError (and leaves the present
  /// graph intact) when the graph is cyclic.  On success the taskflow is
  /// left with a fresh empty graph.
  ExecutionHandle dispatch();

  /// Dispatch the present graph and ignore the execution status (still
  /// throws tf::CycleError on a cyclic graph).
  void silent_dispatch();

  /// Dispatch the present graph (if non-empty) and block until all
  /// dispatched runs finish; their graphs are then released.  If any run
  /// captured a task exception, the first one (in dispatch order) is
  /// rethrown - after every run has fully drained, so no tasks are left
  /// running or stuck.  Like a shared future, a stored failure is rethrown
  /// on every observation: it reports here even when the handle's get()
  /// already delivered it.
  void wait_for_all();

  /// Bounded wait_for_all: returns false when not every dispatched run
  /// finished within `timeout` (the runs are then kept, so the wait can be
  /// retried or triaged with stall_report()); returns true after the
  /// wait_for_all release-and-rethrow behavior.
  bool wait_for_all_for(std::chrono::milliseconds timeout);

  /// The private executor's stall report (Executor::stall_report): every
  /// in-flight dispatch shows as one client with its running task count.
  /// Safe to call from any thread at any time.
  [[nodiscard]] std::string stall_report() const;

  /// Block until all already-dispatched runs finish (keeps their graphs
  /// alive for inspection / dump_topologies()).  Does not rethrow task
  /// exceptions - used by the destructor, which must not throw.
  void wait_for_topologies();

  /// Number of worker threads in the private executor (creates it when
  /// still lazy).
  [[nodiscard]] std::size_t num_workers() const;

  /// Number of dispatched runs currently retained.
  [[nodiscard]] std::size_t num_topologies() const noexcept { return _dispatched.size(); }

  /// GraphViz DOT text of the present (not yet dispatched) graph
  /// (paper §III-G).
  [[nodiscard]] std::string dump() const;

  /// GraphViz DOT text of every retained dispatched graph, including spawned
  /// subflow clusters (paper Fig. 5).  Call between dispatch()/
  /// wait_for_topologies() and the next wait_for_all().
  [[nodiscard]] std::string dump_topologies() const;

 private:
  /// One dispatch: the moved-out graph in its own Taskflow (a distinct
  /// Executor client) and the handle of its run.
  struct Dispatched {
    std::unique_ptr<Taskflow> box;
    ExecutionHandle handle;
  };

  /// The lazily created private executor backing the paper-era API.
  Executor& legacy() const;

  /// Release every retained dispatch, then rethrow the first stored task
  /// exception (in dispatch order).  Callers have waited for all of them.
  void release_dispatched();

  std::size_t _legacy_workers;  // worker count of the lazy private executor
  mutable std::mutex _legacy_mutex;
  mutable std::shared_ptr<Executor> _legacy;
  std::vector<Dispatched> _dispatched;  // in dispatch order
};

/// How Executor::run behaves when admission control is at capacity
/// (DESIGN.md §11).  Irrelevant on an executor with default ExecutorOptions,
/// which admits everything.
enum class AdmissionPolicy : unsigned char {
  block,   // backpressure: wait for capacity (bounded by admission_timeout)
  reject,  // fail fast: throw tf::OverloadError instead of waiting
};

/// Per-submission execution policy (DESIGN.md §8, §11).  `timeout` bounds the
/// whole submission - every repeat of run_n / run_until shares the one
/// budget, measured from submission (a run waiting in its taskflow's FIFO
/// queue spends budget too).  On expiry the run flips into the cooperative
/// drain path (remaining tasks are skipped but the topology still completes
/// deterministically) and the handle's get() rethrows tf::TimeoutError;
/// running tasks observe the remaining budget via tf::this_task::deadline().
/// A zero timeout means unbounded (the default), costing nothing.
struct RunPolicy {
  std::chrono::nanoseconds timeout{0};

  // ---- admission control (meaningful only on an executor constructed with
  // ---- non-default ExecutorOptions; see DESIGN.md §11) --------------------

  /// At capacity: apply backpressure (block) or fail fast (reject).
  AdmissionPolicy admission{AdmissionPolicy::block};

  /// Bound on the backpressure wait of AdmissionPolicy::block: when no
  /// capacity frees within this budget the submission throws
  /// tf::OverloadError.  0 = wait indefinitely (the default).
  std::chrono::nanoseconds admission_timeout{0};

  /// Priority band of the run: 0 = low, 1 = normal (default), 2 = high
  /// (values are clamped).  Higher bands dispatch first under a
  /// max_concurrent_topologies limit, and load shedding evicts the lowest
  /// band first.  Inert when the executor enforces neither.
  int priority{1};
};

/// Number of RunPolicy::priority bands (0 = lowest .. kNumPriorities-1).
inline constexpr int kNumPriorities = 3;

/// Admission-control configuration of an Executor (DESIGN.md §11).  Every
/// knob defaults to off: a default-constructed ExecutorOptions reproduces the
/// unbounded PR 3 submission behavior exactly, and the executor then skips
/// the admission layer entirely - the zero-policy hot path takes no extra
/// lock.
struct ExecutorOptions {
  /// Upper bound on graph runs admitted but not yet finished, across all
  /// clients.  At the bound, run() applies its RunPolicy::admission choice
  /// (backpressure or OverloadError) and try_run returns std::nullopt.
  /// 0 = unbounded.
  std::size_t max_pending_topologies{0};

  /// The same bound per client taskflow, so one hot client saturating its
  /// own allowance cannot consume the global budget.  0 = unbounded.
  std::size_t max_pending_per_client{0};

  /// Load-shedding high watermark: whenever the pending count exceeds it,
  /// admitted-but-not-yet-started runs are shed - lowest priority band
  /// first, newest first within a band - until the count is back at the
  /// watermark.  A shed run never executes a task; its future completes
  /// with tf::OverloadError.  Memory stays bounded under sustained
  /// overload even with AdmissionPolicy-free submitters.  0 = off.
  std::size_t shed_watermark{0};

  /// Bound on topologies *started* on the worker pool at once.  Admitted
  /// runs above it wait in their client queues and are dispatched by
  /// deficit round-robin over clients within strict priority bands, so one
  /// hot client cannot starve the others.  0 = start at queue head
  /// immediately (the PR 3 behavior; fairness and priority are then inert).
  std::size_t max_concurrent_topologies{0};

  /// Deficit-round-robin refill per dispatch visit, in task-node units (a
  /// run's cost is its graph's node count).  Small quanta interleave
  /// clients finely; a quantum >= every graph size degrades to plain
  /// round-robin.
  std::size_t fairness_quantum{64};

  /// Per-taskflow circuit breaker: after this many consecutive failed runs
  /// (a run completing with a stored exception; fallback-degraded and
  /// cancelled runs count as success) the breaker opens and submissions of
  /// that taskflow fail fast with tf::BreakerOpenError.  After
  /// `breaker_cooldown` one half-open probe run is admitted: success closes
  /// the breaker, failure re-opens it for another cooldown.  0 = off.
  int breaker_threshold{0};
  std::chrono::nanoseconds breaker_cooldown{std::chrono::seconds(1)};
};

/// How Executor::shutdown treats work submitted before the call.
enum class ShutdownMode : unsigned char {
  drain,  // let queued and in-flight runs finish normally
  abort,  // cancel queued and in-flight graph runs (they drain cooperatively)
};

/// Configuration of the executor watchdog thread (Executor::enable_watchdog).
struct WatchdogOptions {
  /// Sampling period of the background watchdog thread.
  std::chrono::milliseconds period{100};

  /// A task running continuously for longer than this flags its worker as
  /// stalled and (together with at least one flagged worker) fires on_stall.
  std::chrono::milliseconds task_threshold{1000};

  /// Stall hook, called from the watchdog thread with the executor's
  /// stall_report() snapshot whenever at least one worker exceeds
  /// `task_threshold`.  Default: none (the watchdog still enforces run
  /// deadlines).  The hook must not submit work to or destroy the executor.
  std::function<void(const std::string& report)> on_stall{};
};

/// The run entry point: owns (or shares) a scheduler backend and accepts
/// graph runs and async tasks from many client threads concurrently.
///
/// Thread safety: every public member may be called from any thread at any
/// time.  Runs of one Taskflow are serialized in submission (FIFO) order;
/// runs of distinct Taskflows and async tasks interleave freely on the
/// shared worker pool.  The executor must outlive all submitted work; the
/// destructor blocks until everything drained (without rethrowing - task
/// errors stay observable through the per-run handles).
class Executor : private detail::TopologyClient {
 public:
  /// An executor with a private work-stealing backend of `num_workers`
  /// threads (default: hardware concurrency).  `options` configures the
  /// admission-control layer; the default admits everything unbounded
  /// (DESIGN.md §11).
  explicit Executor(std::size_t num_workers = std::thread::hardware_concurrency(),
                    ExecutorOptions options = {});

  /// An executor over an existing pluggable backend (paper §III-E); several
  /// Executors may share one backend without thread over-subscription
  /// (admission control stays per-Executor: each front end meters its own
  /// submissions).  Passing nullptr creates a private default work-stealing
  /// backend.
  explicit Executor(std::shared_ptr<ExecutorInterface> backend,
                    ExecutorOptions options = {});

  /// Blocks until all submitted runs and async tasks finished.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Run `taskflow` once (non-blocking).  Returns a handle whose future
  /// becomes ready when the run - including dynamically spawned subflow
  /// tasks - completes; the first task exception rethrows from get().
  /// Throws tf::CycleError when the graph is cyclic (checked when no run of
  /// this taskflow is pending; queued resubmissions of the same - immutable
  /// while in flight - graph skip the re-check).
  ExecutionHandle run(Taskflow& taskflow);

  /// Run `taskflow` `n` times back-to-back (non-blocking).  The handle
  /// completes after the n-th run; a task exception or a cancel() stops the
  /// remaining repeats (the exception rethrows from get()).
  ExecutionHandle run_n(Taskflow& taskflow, std::size_t n);

  /// Run `taskflow` repeatedly until `stop` returns true (evaluated after
  /// each completed run, on a worker thread).  Runs at least once.
  ExecutionHandle run_until(Taskflow& taskflow, std::function<bool()> stop);

  // ---- resilience policies (DESIGN.md §8) --------------------------------

  /// run/run_n/run_until with a RunPolicy: `policy.timeout` deadlines the
  /// whole submission.  On expiry the run drains cooperatively and the
  /// handle's get() rethrows tf::TimeoutError.  On an executor with
  /// admission control (non-default ExecutorOptions) the policy also selects
  /// the at-capacity behavior (block with optional admission_timeout, or
  /// reject with tf::OverloadError) and the run's priority band.
  ExecutionHandle run(Taskflow& taskflow, RunPolicy policy);
  ExecutionHandle run_n(Taskflow& taskflow, std::size_t n, RunPolicy policy);
  ExecutionHandle run_until(Taskflow& taskflow, std::function<bool()> stop,
                            RunPolicy policy);

  // ---- admission control (DESIGN.md §11) ---------------------------------

  /// Non-blocking, non-throwing submission: like run(), but when the
  /// executor is at capacity, the taskflow's circuit breaker is open, or
  /// shutdown() has begun, returns std::nullopt instead of waiting or
  /// throwing.  An engaged handle means the run was admitted (an empty
  /// graph yields an engaged, already-ready handle - there was nothing to
  /// refuse).  `policy.admission`/`admission_timeout` are ignored: try_run
  /// never waits.
  std::optional<ExecutionHandle> try_run(Taskflow& taskflow, RunPolicy policy = {});
  std::optional<ExecutionHandle> try_run_n(Taskflow& taskflow, std::size_t n,
                                           RunPolicy policy = {});

  /// The admission-control configuration this executor was built with.
  [[nodiscard]] const ExecutorOptions& options() const noexcept { return _options; }

  /// Start the background watchdog thread: every `options.period` it
  /// enforces expired run deadlines (belt-and-braces over the timer wheel)
  /// and samples per-worker progress probes; a worker stuck in one task for
  /// longer than `options.task_threshold` fires `options.on_stall` with a
  /// stall_report() snapshot.  Calling it again replaces the options.
  void enable_watchdog(WatchdogOptions options);
  void enable_watchdog(std::chrono::milliseconds period) {
    WatchdogOptions options;
    options.period = period;
    enable_watchdog(std::move(options));
  }

  /// Stop (join) the watchdog thread; no-op when not enabled.
  void disable_watchdog();

  /// True while the watchdog thread is running.
  [[nodiscard]] bool watchdog_enabled() const;

  /// Begin shutting down: new submissions (run/run_n/run_until/async, and so
  /// Taskflow::dispatch) throw tf::ShutdownError from now on.  `drain`
  /// lets every already-submitted run finish normally; `abort` cancels
  /// queued and in-flight graph runs, which then drain cooperatively
  /// (skip-but-finalize), so completion stays deterministic.  In-flight
  /// async tasks always run to completion (their promises must be kept).
  /// Blocks until everything drained and the watchdog stopped; on return
  /// every handle/future ever handed out is ready (unlike plain
  /// wait_for_all, which may return an instant before the final promise is
  /// set).  Idempotent, and safe to call from several threads (all of them
  /// block until the drain completes).  The destructor routes through
  /// shutdown(drain).
  void shutdown(ShutdownMode mode = ShutdownMode::drain);

  /// True once shutdown() began: submissions are rejected.
  [[nodiscard]] bool is_shutdown() const noexcept {
    return _shutdown.load(std::memory_order_acquire);
  }

  /// Submit one callable as a task; the result (or thrown exception) is
  /// delivered through the returned future.  Safe from any thread,
  /// including from inside running tasks.
  template <typename F>
  auto async(F&& callable) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto state = std::make_shared<std::promise<R>>();
    std::future<R> future = state->get_future();
    // Errors are delivered through the caller's future, not the topology's
    // ErrorState: an async failure never poisons unrelated work.
    submit_async(StaticWork(
        [state = std::move(state), fn = std::forward<F>(callable)]() mutable {
          try {
            if constexpr (std::is_void_v<R>) {
              fn();
              state->set_value();
            } else {
              state->set_value(fn());
            }
          } catch (...) {
            state->set_exception(std::current_exception());
          }
        }));
    return future;
  }

  /// Block until every submitted run and async task finished.  Does not
  /// rethrow task exceptions (with many concurrent clients no single caller
  /// owns them): observe failures through each run's ExecutionHandle.
  /// Each handle's future becomes ready within a few instructions of this
  /// returning; code needing the strict all-ready guarantee should use
  /// shutdown(), or wait the specific handle it cares about.
  void wait_for_all();

  /// Bounded wait_for_all: false when work is still in flight after
  /// `timeout` (triage with stall_report()).
  bool wait_for_all_for(std::chrono::milliseconds timeout);

  /// Number of worker threads in the backend.
  [[nodiscard]] std::size_t num_workers() const noexcept { return _backend->num_workers(); }

  /// Graph runs currently queued or in flight (all clients).
  [[nodiscard]] std::size_t num_topologies() const noexcept {
    return _num_topologies.load(std::memory_order_relaxed);
  }

  /// Async tasks currently in flight.
  [[nodiscard]] std::size_t num_asyncs() const noexcept {
    return _num_asyncs.load(std::memory_order_relaxed);
  }

  /// One-shot diagnostic dump: metrics() as its key list, then one record
  /// line per worker queue, per busy worker (watchdog probes) and per client
  /// taskflow (queued runs, the running run's unfinished-task count, its
  /// policies, conditions, deadline and drain state).  Safe (and race-free)
  /// to call from any thread while graphs run.
  void dump_state(std::ostream& os) const;

  /// The executor's one diagnostic snapshot: the backend's stats() plus the
  /// run, timer and admission gauges and counters.  The stall report and the
  /// service layer's /healthz probe (DESIGN.md §13) both print it through
  /// for_each.  Scheduler numbers are atomics-only best effort; the
  /// admission block is read under the admission lock, so pending/started/
  /// waiting/breakers_open form a consistent cut of the admission state.
  struct Metrics {
    ExecutorInterface::SchedulerStats scheduler;
    std::size_t num_topologies{0};  // graph runs queued or in flight
    std::size_t num_asyncs{0};
    std::size_t pending_timers{0};  // retry backoff / deadline / cancel_after
    bool admission_active{false};   // admission knobs engaged?
    /// Lifetime admission counters.  `shed` counts runs whose handle
    /// reports the shed OverloadError: an eviction losing the first-writer
    /// race to an already-captured error (e.g. a deadline that expired
    /// while queued) counts as that outcome, not as a shed.
    std::size_t admitted{0};
    std::size_t rejected{0};  // reject policy, wait expiry, open breaker, try_run
    std::size_t shed{0};
    std::size_t breaker_trips{0};
    std::size_t adm_pending{0};          // admitted, not yet finished/shed
    std::size_t adm_pending_limit{0};    // max_pending_topologies (0 = unbounded)
    std::size_t adm_started{0};          // holding a concurrency slot
    std::size_t adm_started_limit{0};    // max_concurrent_topologies (0 = unbounded)
    std::size_t adm_waiting_clients{0};  // clients whose next run awaits a slot
    std::size_t breakers_open{0};        // client breakers open or half-open
    bool shutdown{false};

    /// The key list: calls f(key, value) for every counter and gauge, in
    /// print order.  The admission keys (adm_*, breaker_trips,
    /// breakers_open) are listed only while admission_active.  This is the
    /// only place an executor key is spelled.
    template <typename F>
    void for_each(F&& f) const {
      f("backend", scheduler.backend);
      f("workers", scheduler.num_workers);
      f("parked_workers", scheduler.num_idlers);
      f("scheduler_queue_depth", scheduler.queue_depth);
      f("steals", scheduler.steals);
      f("cache_hits", scheduler.cache_hits);
      f("parks", scheduler.parks);
      f("wakes", scheduler.wakes);
      f("queue_depth", num_topologies);
      f("asyncs", num_asyncs);
      f("pending_timers", pending_timers);
      f("shutdown", shutdown);
      if (!admission_active) return;
      f("adm_admitted", admitted);
      f("adm_rejected", rejected);
      f("adm_shed", shed);
      f("adm_pending", adm_pending);
      f("adm_pending_limit", adm_pending_limit);
      f("adm_started", adm_started);
      f("adm_started_limit", adm_started_limit);
      f("adm_waiting_clients", adm_waiting_clients);
      f("breaker_trips", breaker_trips);
      f("breakers_open", breakers_open);
    }
  };
  [[nodiscard]] Metrics metrics() const;

  /// dump_state() wrapped as the executor stall report string.
  [[nodiscard]] std::string stall_report() const;

  /// Attach an observer to the backend (safe during live runs; see
  /// ExecutorInterface::set_observer).
  void set_observer(std::shared_ptr<ExecutorObserverInterface> observer) {
    _backend->set_observer(std::move(observer));
  }
  [[nodiscard]] std::shared_ptr<ExecutorObserverInterface> observer() const {
    return _backend->observer();
  }

  /// The pluggable scheduler backend.
  [[nodiscard]] const std::shared_ptr<ExecutorInterface>& backend() const noexcept {
    return _backend;
  }

 private:
  /// Per-client FIFO of pending runs; front = the run in flight.  Owned by
  /// the executor (keyed by client address) and kept alive by every queued
  /// topology, so tear-down never races client destruction.  The deficit /
  /// in_ring fields belong to the admission layer and are touched only
  /// under _adm_mutex.
  struct ClientQueue {
    explicit ClientQueue(const Taskflow* o) : owner(o) {}
    const Taskflow* owner;
    std::mutex mutex;
    std::deque<std::shared_ptr<Topology>> queue;
    std::size_t deficit{0};  // deficit-round-robin credit, in node units
    bool in_ring{false};     // member of exactly one _adm_ready ring
  };

  /// Per-taskflow admission state, under _adm_mutex.  Separate from
  /// ClientQueue because it must survive queue teardown: a breaker stays
  /// open across idle periods in which the registry drops the drained queue.
  struct AdmissionClient {
    std::size_t pending{0};  // admitted, not yet finished/shed
    int consecutive_failures{0};
    enum class Breaker : unsigned char { closed, open, half_open } breaker{
        Breaker::closed};
    std::chrono::steady_clock::time_point opened_at{};
    bool probe_in_flight{false};
  };

  /// Why submit() turned a run away (selects the exception thrown outside
  /// the admission lock).
  enum class RejectReason : unsigned char {
    none,
    overload,       // at capacity with reject policy / expired wait / try_run
    breaker_open,   // the taskflow's circuit breaker is open
    shutdown,       // shutdown() began (NOT an overload: not counted rejected)
  };

  /// Enqueue a (n, stop)-repeat run of `taskflow`; nullptr when there is
  /// nothing to do (empty graph or n == 0).  Starts it immediately when the
  /// client's queue was empty (and, under admission control, a concurrency
  /// slot is free).  A non-zero `policy.timeout` arms a deadline timer on
  /// the backend's wheel.  Throws tf::ShutdownError after shutdown() began
  /// and tf::OverloadError / tf::BreakerOpenError per the admission verdict
  /// - unless `nothrow` (the try_run path), which reports the verdict
  /// through `rejected` instead and never blocks.
  std::shared_ptr<Topology> submit(Taskflow& taskflow, std::size_t n,
                                   std::function<bool()> stop,
                                   RunPolicy policy = {}, bool nothrow = false,
                                   bool* rejected = nullptr);

  /// The admission gate of submit(): blocks/rejects per `policy` until the
  /// run may enter, then charges the pending counters and claims the
  /// breaker probe when the taskflow is half-open.  Returns the reject
  /// reason (none = admitted).  Called with _adm_mutex held.
  RejectReason admit_locked(std::unique_lock<std::mutex>& adm,
                            const Taskflow& taskflow, RunPolicy policy,
                            bool nothrow, bool& claimed_probe);

  /// Undo an admit_locked() charge when the submission fails after
  /// admission (cycle check).  Called with _adm_mutex held.
  void unadmit_locked(const Taskflow& taskflow, bool claimed_probe);

  /// Shed admitted-but-unstarted runs (lowest band first, newest first
  /// within a band) until the pending count is back at the watermark.
  /// Called with _adm_mutex held; the victims are completed (OverloadError)
  /// by the caller outside the lock via finish_shed().
  void shed_to_watermark_locked(std::vector<std::shared_ptr<Topology>>& victims,
                                std::vector<std::shared_ptr<ClientQueue>>& emptied);

  /// Complete one shed victim outside every lock: disarm its deadline,
  /// capture OverloadError, decrement the in-flight counters, finish().
  void finish_shed(const std::shared_ptr<Topology>& victim);

  /// Fill free concurrency slots from the ready rings: strict priority
  /// across bands, deficit round-robin across clients within one.  Appends
  /// the dispatched topologies to `to_start` (the caller start()s them
  /// outside the lock).  Called with _adm_mutex held.
  void dispatch_ready_locked(std::vector<std::shared_ptr<Topology>>& to_start);

  /// Enqueue `cq` on the ready ring of `band` unless it is already ringed.
  /// Called with _adm_mutex held.
  void ring_push_locked(const std::shared_ptr<ClientQueue>& cq, int band);

  /// Update `taskflow`'s breaker with a finished run's outcome (a stored
  /// exception = failure).  Called with _adm_mutex held.
  void breaker_update_locked(const Taskflow* taskflow, Topology& topology);

  /// Type-erased half of async(): boxes `work` into a single-node graph and
  /// schedules it.
  void submit_async(StaticWork&& work);

  /// Arm `topology` for its (next) run and seed the backend with its
  /// sources.
  void start(Topology& topology);

  /// Completion callback (TopologyClient): decides re-arm vs finish, hands
  /// the client queue to the next pending run, and keeps the in-flight
  /// accounting.  Runs on the worker that retired the last task.
  void on_topology_done(Topology& topology) final;

  /// Drop `cq` from the client registry when its queue drained (so the
  /// registry tracks live clients only).
  void release_client(ClientQueue* cq);

  /// Wake wait_for_all waiters after a decrement of the in-flight counters.
  void note_done();

  /// Throw tf::ShutdownError when shutdown() already began.
  void throw_if_shutdown() const;

  /// Record a freshly created graph run in the weak shutdown registry
  /// (pruning expired entries when they accumulate).
  void register_live(const std::shared_ptr<Topology>& topology);

  /// Arm the RunPolicy deadline of a freshly submitted topology: stamp the
  /// shared ErrorState (for this_task::deadline() and the watchdog sweep)
  /// and schedule the expiry on the backend's timer wheel.
  void arm_deadline(Topology& topology, RunPolicy policy);

  /// Withdraw a completed run's deadline timer from the wheel, so a finished
  /// run's state is not pinned by a timer that can no longer matter.
  void disarm_deadline(Topology& topology);

  /// Watchdog thread body: periodic deadline sweep + progress-probe scan.
  void watchdog_loop();

  /// Handles carry a weak reference to the backend's timer wheel so
  /// cancel_after() outlives neither laziness nor the executor (a late
  /// handle degrades to a no-op).  Creates the wheel object (not its
  /// service thread - that starts on first use) on first call.
  [[nodiscard]] ExecutionHandle handle_of(const std::shared_ptr<Topology>& topology) {
    return topology == nullptr
               ? ExecutionHandle{}
               : ExecutionHandle{topology->future(), topology->shared_error_state(),
                                 _backend->timer_wheel()};
  }

  std::shared_ptr<ExecutorInterface> _backend;

  // -- admission control (DESIGN.md §11) -----------------------------------
  // Lock order: _adm_mutex -> _clients_mutex -> ClientQueue::mutex.  The
  // completion path pops under the queue lock, RELEASES it, and only then
  // takes _adm_mutex - never the reverse.  _done_mutex stays a leaf.
  ExecutorOptions _options;
  const bool _admission_active{false};  // any knob set? computed once
  mutable std::mutex _adm_mutex;
  std::condition_variable _adm_cv;          // backpressure + shed wakeups
  std::size_t _adm_pending{0};              // admitted, not finished/shed
  std::size_t _adm_started{0};              // started on the worker pool
  std::unordered_map<const Taskflow*, AdmissionClient> _adm_clients;
  // Ready rings (one per band) of clients whose queue head waits for a
  // concurrency slot, and shed-candidate stacks (newest admitted last; the
  // stacks hold weak-ish extra refs and are pruned lazily of runs that
  // started or finished meanwhile).
  std::deque<std::shared_ptr<ClientQueue>> _adm_ready[kNumPriorities];
  std::vector<std::shared_ptr<Topology>> _adm_shed_stack[kNumPriorities];
  std::atomic<std::size_t> _adm_admitted{0};
  std::atomic<std::size_t> _adm_rejected{0};
  std::atomic<std::size_t> _adm_shed{0};
  std::atomic<std::size_t> _adm_breaker_trips{0};

  mutable std::mutex _clients_mutex;  // registry of per-taskflow run queues
  std::unordered_map<const Taskflow*, std::shared_ptr<ClientQueue>> _clients;

  // Weak registry of every submitted graph run.  Completing
  // workers never touch it (their last action must stay finish(); see
  // on_topology_done): entries simply expire, and writers prune the dead
  // ones lazily in register_live().  shutdown() uses it to abort-cancel and
  // to wait each surviving run's future into readiness.
  std::mutex _live_mutex;
  std::unordered_map<Topology*, std::weak_ptr<Topology>> _live;

  std::atomic<std::size_t> _num_topologies{0};
  std::atomic<std::size_t> _num_asyncs{0};
  // Recycled async-run boxes; destroyed (and its boxes freed) after the
  // drain in ~Executor, when no worker can touch a box anymore.
  std::unique_ptr<detail::AsyncRunPool> _async_pool;
  mutable std::mutex _done_mutex;  // wait_for_all protocol
  mutable std::condition_variable _done_cv;

  // -- shutdown + watchdog state (DESIGN.md §8) ----------------------------
  std::atomic<bool> _shutdown{false};
  std::mutex _shutdown_mutex;  // serializes concurrent shutdown() callers
  mutable std::mutex _watchdog_mutex;
  std::condition_variable _watchdog_cv;
  std::thread _watchdog;
  bool _watchdog_stop{false};
  WatchdogOptions _watchdog_options;
};

/// Print `m` as its key list, one "key value" line per Metrics::for_each
/// entry: the executor block of both the stall report and /healthz.
std::ostream& operator<<(std::ostream& os, const Executor::Metrics& m);

// Defined here (declared in flow_builder.hpp) because it needs Taskflow
// complete to reach the composed graph.
inline Task FlowBuilder::composed_of(Taskflow& target) {
  // Static recursion guard: refuse to close a module-reference cycle.  Any
  // cycle built through composed_of alone is caught at the call that closes
  // it (the walk sees every reference added so far); cycles assembled
  // through channels this walk cannot see (a dynamic subflow composing an
  // ancestor at runtime) fall to the kMaxModuleDepth execution backstop.
  if (detail::composes_transitively(target.graph(), *_graph)) {
    throw CompositionError(
        &target.graph() == _graph
            ? "composed_of: a taskflow cannot compose itself - module "
              "expansion would recurse without bound"
            : "composed_of: target taskflow already composes this graph "
              "(mutual/transitive module recursion) - expansion would "
              "recurse without bound");
  }
  Task task = placeholder();
  task._node->_work.emplace<ModuleWork>(ModuleWork{&target.graph()});
  return task;
}

}  // namespace tf

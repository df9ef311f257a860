// topology.hpp - tf::Topology, one executable run of a task dependency graph
// (paper §III-C, Fig. 3), and tf::ExecutionHandle, the per-run handle
// exposing completion waiting plus cooperative cancellation.
//
// A topology borrows the graph of the taskflow it runs (tf::Executor::run,
// which paper-era Taskflow::dispatch also goes through) or of an async box.
// It keeps the runtime metadata of the run: a promise/shared_future pair for
// completion signalling, a live-node counter that reaches zero when the last
// task (including dynamically spawned subflow tasks) finishes, and a shared
// ErrorState carrying the first captured exception / the cancellation flag
// (see error.hpp for the drain semantics).
//
// Since the executor-centric refactor a topology is *not* started at
// construction: the executor that submitted it arms it (arm() resets
// per-node state and collects source nodes) when the run reaches the head of
// its taskflow's detail::RunQueue (paper §III-C: a taskflow keeps its own
// topologies), and may re-arm it for repeated runs (run_n / run_until).  When
// the live-node counter hits zero the topology notifies the executor that
// submitted it, which decides between re-arming for the next repeat and
// finishing (fulfilling the promise).
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <utility>
#include <variant>
#include <vector>

#include "taskflow/admission.hpp"
#include "taskflow/error.hpp"
#include "taskflow/graph.hpp"
#include "taskflow/timer_queue.hpp"

namespace tf {

class Executor;
class ExecutorInterface;
class Taskflow;
class Topology;

namespace detail {
struct RunQueue;
}  // namespace detail

// The admission record (a private base the topology never reads) lets the
// executor map the runs detail::Admission hands back to their topologies.
class Topology : private detail::Admission::Run {
 public:
  /// Borrow `graph`; the caller must keep it alive and un-mutated until
  /// completion.  Does not arm: the executor arms and schedules the topology.
  /// `admission`: the run's admission record (idle without admission control).
  explicit Topology(Graph* graph, const detail::Admission::Run& admission = {})
      : detail::Admission::Run(admission), _graph(graph) {}

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// (Re)initialize the run state of every node - join counters, subflow
  /// spawn flags, topology back-pointers - and collect the source nodes.
  /// Called by the executor before (re)scheduling; callable once per run so
  /// the same graph executes repeatedly (run_n / run_until).  Must not run
  /// concurrently with task execution of this graph.
  void arm() {
    // Pack any spilled successor arrays contiguously before workers walk
    // them; a no-op on every re-arm (run_n repeats) once the graph settled.
    _graph->finalize_edges();
    _sources.clear();
    for (auto& node : *_graph) {
      node._topology = this;
      node._parent = nullptr;
      // Join counters count *strong* dependents only: weak (condition-out)
      // edges fire on branch selection and never join.  A node whose
      // predecessors are all conditions arms at zero but is not a source -
      // it runs when (and if) a condition selects it.
      node._join_counter.store(node.num_strong_dependents(),
                               std::memory_order_relaxed);
      // Re-armed dynamic/module nodes expand afresh on the next run.  The
      // previous run's subgraph is kept (its slabs are recycled in place at
      // respawn time - see ExecutorInterface::run_task), so repeat runs of a
      // dynamic graph stop paying per-iteration allocation.
      node._spawned = false;
      if (auto* cond = std::get_if<ConditionWork>(&node._work)) {
        cond->last_branch.store(-1, std::memory_order_relaxed);
      }
      // A fresh run gets a fresh retry budget.
      if (node._policy != nullptr) {
        node._policy->failed_attempts.store(0, std::memory_order_relaxed);
      }
      if (node._static_dependents == 0) _sources.push_back(&node);
    }
    // Scheduled-count accounting (control-flow graphs can execute one node
    // many times, so "nodes remaining" is meaningless): _num_active counts
    // scheduled-but-unfinished *executions*.  It starts at the source count
    // and every finished execution nets (successors it scheduled - 1) into
    // it; zero means no execution is in flight or pending - the run is done.
    _num_active.store(static_cast<long>(_sources.size()),
                      std::memory_order_relaxed);
  }

  /// Completion future; shared so multiple parties may wait.  Becomes ready
  /// when the last run retires its last task; carries the first captured
  /// exception.
  [[nodiscard]] std::shared_future<void> future() const noexcept { return _future; }

  /// Source nodes (no dependents) of the current arming, to seed the
  /// executor with.
  [[nodiscard]] const std::vector<Node*>& sources() const noexcept { return _sources; }

  /// The graph run by this topology (valid after completion, used by
  /// dump_topologies to render spawned subflows - paper Fig. 5).
  [[nodiscard]] const Graph& graph() const noexcept { return *_graph; }

  /// Number of task executions scheduled but not yet finished in the current
  /// run.  Dynamic spawns increment it before their children are scheduled,
  /// so it never prematurely reaches zero.
  [[nodiscard]] long num_active() const noexcept {
    return _num_active.load(std::memory_order_acquire);
  }

  /// Internal: add `n` scheduled executions (called before scheduling
  /// spawned children).
  void add_active(long n) noexcept { _num_active.fetch_add(n, std::memory_order_relaxed); }

  /// Internal: net effect of one finished execution that scheduled `delta +
  /// 1` further executions.  Callers skip the call entirely when delta == 0
  /// (a task that scheduled exactly one successor - the linear-chain hot
  /// path - leaves the shared counter untouched).  On reaching zero the
  /// executor that submitted the topology is notified - it re-arms for the
  /// next repeat or finishes the topology.  It may destroy this topology
  /// inside the call, so nothing is touched after it returns.
  void retire_delta(long delta) {
    assert(delta != 0);
    if (_num_active.fetch_add(delta, std::memory_order_acq_rel) + delta == 0) {
      assert(_client != nullptr);
      done();  // may re-arm, finish, or delete *this
    }
  }

  /// Fulfill the completion promise, delivering the first captured task
  /// exception when there is one.  Called exactly once, after the final run.
  /// It closes the capture window first, so a late deadline cannot
  /// contradict the outcome.  This is the very last thing that touches the
  /// topology: a waiter may release it the moment the future becomes ready.
  void finish() {
    if (auto e = _state->close()) {
      _promise.set_exception(std::move(e));
    } else {
      _promise.set_value();
    }
  }

  /// Shared error/cancellation state (internal; executors read it per task).
  [[nodiscard]] detail::ErrorState* error_state() const noexcept { return _state.get(); }
  [[nodiscard]] const std::shared_ptr<detail::ErrorState>& shared_error_state()
      const noexcept {
    return _state;
  }

  /// Request cooperative cancellation: remaining tasks skip their work but
  /// the topology still drains to completion (the future becomes ready
  /// without an exception).  On a multi-run topology this also stops the
  /// remaining repeats.
  void cancel() noexcept { _state->cancel(); }
  [[nodiscard]] bool is_cancelled() const noexcept { return _state->draining(); }

  /// The first exception captured by a task of this topology (nullptr when
  /// none); populated once the throwing task has finished capturing.
  [[nodiscard]] std::exception_ptr exception() const noexcept { return _state->stored(); }

 private:
  friend class Executor;
  friend struct detail::RunQueue;

  /// Executor::on_topology_done of `_client` (defined in taskflow.cpp).
  void done();

  Graph* _graph{nullptr};
  std::promise<void> _promise;
  std::shared_future<void> _future{_promise.get_future().share()};
  std::atomic<long> _num_active{0};
  std::vector<Node*> _sources;
  std::shared_ptr<detail::ErrorState> _state{std::make_shared<detail::ErrorState>()};

  // -- executor-managed run state (see Executor::on_topology_done) ---------
  Executor* _client{nullptr};   // submitted the run; notified at each completion
  void* _client_tag{nullptr};   // the AsyncRun box of an async run
  // A queued run's taskflow queue (nullptr for an async run) and its links.
  std::shared_ptr<detail::RunQueue> _queue;
  std::shared_ptr<Topology> _next;
  Topology* _prev{nullptr};
  std::size_t _remaining{1};                 // repeats left (run_n)
  std::function<bool()> _stop_pred;          // optional stop test (run_until)
  // Deadline timer of the run's RunPolicy; withdrawn from the backend's timer
  // queue when the run completes in time (so a finished run's state isn't
  // pinned by it).
  detail::TimerQueue::TimerId _deadline_timer{};
};

namespace detail {

/// The FIFO of one taskflow's runs, shared by every executor that runs it:
/// the head is the run in flight.  Queued runs hold a reference (the stall
/// report reaches a queue through a pinned run) and link through
/// Topology::_next/_prev, so queueing allocates nothing.  Guarded by `mutex`.
struct RunQueue {
  explicit RunQueue(const Taskflow* o) noexcept : owner(o), id(++last_id) {}

  const Taskflow* const owner;  // stall-report name only
  // Admission key: drawn from a process-wide counter, so a taskflow born at
  // a dead one's address never meets the dead one's admission record.
  const std::uint64_t id;
  std::mutex mutex;
  std::shared_ptr<Topology> head;  // owns the chain
  Topology* tail{nullptr};

  [[nodiscard]] bool empty() const noexcept { return head == nullptr; }

  /// Append `run`; true when it became the head.
  bool push(std::shared_ptr<Topology> run) noexcept {
    Topology* const last = std::exchange(tail, run.get());
    run->_prev = last;
    (last == nullptr ? head : last->_next) = std::move(run);
    return last == nullptr;
  }

  /// Unlink and return the head.
  std::shared_ptr<Topology> pop() noexcept {
    std::shared_ptr<Topology> run = std::move(head);
    head = std::move(run->_next);
    (head != nullptr ? head->_prev : tail) = nullptr;
    return run;
  }

  /// Unlink `run`, wherever it is, and return the queue's reference to it.
  std::shared_ptr<Topology> erase(Topology& run) noexcept {
    if (run._prev == nullptr) return pop();  // the head
    Topology* const prev = std::exchange(run._prev, nullptr);
    std::shared_ptr<Topology> self = std::move(prev->_next);  // == run
    prev->_next = std::move(run._next);
    (prev->_next != nullptr ? prev->_next->_prev : tail) = prev;
    return self;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Topology* run = head.get(); run != nullptr; run = run->_next.get()) ++n;
    return n;
  }

 private:
  static inline std::atomic<std::uint64_t> last_id{0};
};

}  // namespace detail

/// Handle to one submitted execution, returned by Executor::run/run_n/
/// run_until and the paper-era Taskflow::dispatch().  Copyable
/// (shared-future semantics) and implicitly convertible to
/// std::shared_future<void>, so paper-era code written against the future
/// API keeps compiling unchanged.  On top of waiting it offers
/// cancel()/is_cancelled(); the handle stays valid after the topology has
/// been released (wait_for_all), since the state is shared, not borrowed.
class ExecutionHandle {
 public:
  /// An empty handle represents an already-completed (empty) submission.
  ExecutionHandle() {
    std::promise<void> done;
    done.set_value();
    _future = done.get_future().share();
  }

  ExecutionHandle(std::shared_future<void> future,
                  std::shared_ptr<detail::ErrorState> state,
                  std::weak_ptr<ExecutorInterface> backend = {}) noexcept
      : _future(std::move(future)),
        _state(std::move(state)),
        _backend(std::move(backend)) {}

  /// Request cooperative cancellation: tasks not yet started skip their
  /// work, running tasks observe tf::this_task::is_cancelled(), and the
  /// topology drains to a ready future (repeat runs are stopped).  No-op on
  /// an empty handle.
  void cancel() const noexcept {
    if (_state) _state->cancel();
  }

  /// Deferred cancel: like cancel(), fired from the executor's timer queue
  /// after `delay` - unless the execution finished first, in which case the
  /// late fire is a harmless no-op on the shared state.  Unlike a RunPolicy
  /// deadline this is a *plain* cancel: the future completes without a
  /// TimeoutError.  An explicit cancel() may still land first; whichever
  /// fires first starts the drain and the other is idempotent.  No-op on an
  /// empty handle or once the owning executor's backend is gone.
  void cancel_after(std::chrono::nanoseconds delay) const;

  /// True when the execution drained because its RunPolicy deadline expired
  /// (get() then rethrows tf::TimeoutError).
  [[nodiscard]] bool timed_out() const noexcept {
    return _state != nullptr && _state->timed_out.load(std::memory_order_relaxed);
  }

  /// True once the execution entered draining mode (cancelled by this or
  /// any other handle, or failed with an exception).
  [[nodiscard]] bool is_cancelled() const noexcept {
    return _state != nullptr && _state->draining();
  }

  /// The first exception a task threw (nullptr when none so far).
  [[nodiscard]] std::exception_ptr exception() const noexcept {
    return _state == nullptr ? nullptr : _state->stored();
  }

  /// Block until the execution finished; rethrows the first task exception.
  void get() const { _future.get(); }

  /// Block until the execution finished without consuming the exception.
  void wait() const { _future.wait(); }

  /// Deadline-based waits, forwarding std::shared_future semantics.
  template <typename Rep, typename Period>
  std::future_status wait_for(const std::chrono::duration<Rep, Period>& d) const {
    return _future.wait_for(d);
  }
  template <typename Clock, typename Duration>
  std::future_status wait_until(const std::chrono::time_point<Clock, Duration>& t) const {
    return _future.wait_until(t);
  }

  /// The underlying completion future (also available implicitly).
  [[nodiscard]] const std::shared_future<void>& future() const noexcept { return _future; }
  operator std::shared_future<void>() const noexcept { return _future; }  // NOLINT

 private:
  std::shared_future<void> _future;
  std::shared_ptr<detail::ErrorState> _state;
  // The submitting executor's backend, whose timer queue serves
  // cancel_after; weak so a handle outliving it degrades to a no-op instead
  // of dangling.
  std::weak_ptr<ExecutorInterface> _backend;
};

}  // namespace tf

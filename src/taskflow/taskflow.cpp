#include "taskflow/taskflow.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "taskflow/dot.hpp"

namespace tf {

namespace {

// Throws tf::CycleError when `graph` is cyclic.  Runs before the graph is
// handed to a Topology, so a failed dispatch leaves the caller's graph
// intact (the scratched join counters are re-initialized by the next arm()).
void throw_if_cyclic(Graph& graph, const char* origin) {
  if (std::string cycle = detail::describe_cycle(graph); !cycle.empty()) {
    throw CycleError(std::string(origin) + ": " + cycle);
  }
}

}  // namespace

namespace detail {

// One Executor::async submission: a single-node graph and its topology, heap
// boxed so the executor can retire the whole run from the completion
// callback once the task retired.  An async topology never calls finish()
// (the user-visible promise lives in the task callable), so its promise /
// future pair is never consumed and the box is reusable: the graph recycles
// its arena in place and the shared ErrorState resets.
struct AsyncRun {
  Graph graph;
  Topology topology{&graph};
};

// Bounded freelist of retired AsyncRun boxes, so an async storm reuses box
// and graph-arena storage instead of allocating per submission.  One mutex
// guards it: a push or a pop is a few instructions under the lock.  The
// capacity is reserved up front, so release() never allocates (it runs on
// the completing worker); boxes beyond it are freed.
class AsyncRunPool {
 public:
  static constexpr std::size_t kMaxBoxes = 256;

  AsyncRunPool() { _boxes.reserve(kMaxBoxes); }

  ~AsyncRunPool() {
    // Runs after the executor drained: no box is in flight.
    for (AsyncRun* box : _boxes) delete box;
  }

  AsyncRunPool(const AsyncRunPool&) = delete;
  AsyncRunPool& operator=(const AsyncRunPool&) = delete;

  /// A recycled box (already reset) or nullptr when the pool is empty.
  [[nodiscard]] AsyncRun* acquire() {
    std::scoped_lock lock(_mutex);
    if (_boxes.empty()) return nullptr;
    AsyncRun* box = _boxes.back();
    _boxes.pop_back();
    return box;
  }

  /// Return a retired box; false when the pool is full (the caller deletes
  /// it, so the pool stays bounded under sustained storms).
  [[nodiscard]] bool release(AsyncRun* box) {
    std::scoped_lock lock(_mutex);
    if (_boxes.size() >= kMaxBoxes) return false;
    _boxes.push_back(box);
    return true;
  }

 private:
  std::mutex _mutex;
  std::vector<AsyncRun*> _boxes;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(std::size_t num_workers, ExecutorOptions options)
    : Executor(std::make_shared<WorkStealingExecutor>(num_workers), options) {}

Executor::Executor(std::shared_ptr<ExecutorInterface> backend, ExecutorOptions options)
    : _backend(std::move(backend)),
      _admission_active(detail::Admission::enabled(options)),
      _admission(options),
      _shed_error(std::make_exception_ptr(OverloadError(
          "run load-shed: executor pending depth exceeded the shed watermark"))),
      _async_pool(std::make_unique<detail::AsyncRunPool>()) {
  if (_backend == nullptr) _backend = std::make_shared<WorkStealingExecutor>();
}

Executor::~Executor() { shutdown(ShutdownMode::drain); }

ExecutionHandle Executor::run(Taskflow& taskflow, RunPolicy policy) {
  return handle_of(submit(taskflow, 1, nullptr, policy));
}

ExecutionHandle Executor::run_n(Taskflow& taskflow, std::size_t n, RunPolicy policy) {
  return handle_of(submit(taskflow, n, nullptr, policy));
}

ExecutionHandle Executor::run_until(Taskflow& taskflow, std::function<bool()> stop,
                                    RunPolicy policy) {
  return handle_of(submit(taskflow, 1, std::move(stop), policy));
}

std::optional<ExecutionHandle> Executor::try_run(Taskflow& taskflow, RunPolicy policy) {
  return try_run_n(taskflow, 1, policy);
}

std::optional<ExecutionHandle> Executor::try_run_n(Taskflow& taskflow, std::size_t n,
                                                   RunPolicy policy) {
  bool rejected = false;
  auto topology = submit(taskflow, n, nullptr, policy, &rejected);
  if (rejected) return std::nullopt;
  // nullptr without rejection = empty submission: an engaged ready handle.
  return handle_of(topology);
}

std::shared_ptr<Topology> Executor::submit(Taskflow& taskflow, std::size_t n,
                                           std::function<bool()> stop,
                                           RunPolicy policy, bool* rejected) {
  // Phase 1: admission (DESIGN.md §11).  Block/reject per the policy before
  // any allocation; the lock is held across phase 2 so the charged pending
  // slot cannot be shed or stolen between the verdict and the push.
  detail::RunQueue& queue = *taskflow._queue;
  std::unique_lock<std::mutex> adm(_adm_mutex, std::defer_lock);
  detail::Admission::Run record;  // the run's admission record, copied into it
  auto verdict = detail::Admission::Verdict::admitted;
  bool shut = _shutdown.load(std::memory_order_acquire);
  if (!shut && (taskflow.graph().empty() || n == 0)) return nullptr;
  if (!shut && _admission_active) {
    adm.lock();
    auto now = std::chrono::steady_clock::now();
    const auto wait_deadline = now + policy.admission_timeout;
    const bool bounded_wait = policy.admission_timeout.count() > 0;
    // An open breaker fails fast.  At capacity, try_run never waits; a
    // reject policy fails fast; a block policy waits for the completion/
    // shed side to free capacity (bounded by admission_timeout when one was
    // given), then re-evaluates shutdown, breaker and capacity.
    const bool may_wait = rejected == nullptr && policy.admission == AdmissionPolicy::block;
    const std::weak_ptr<const void> owner = taskflow._queue;  // expires with the taskflow
    while (!(shut = _shutdown.load(std::memory_order_acquire))) {
      verdict = _admission.admit(record, queue.id, owner, policy.priority,
                                 taskflow.graph().size(), now);
      if (verdict != detail::Admission::Verdict::full || !may_wait ||
          (bounded_wait && now >= wait_deadline)) {
        break;
      }
      if (bounded_wait) {
        _adm_cv.wait_until(adm, wait_deadline);
      } else {
        _adm_cv.wait(adm);
      }
      now = std::chrono::steady_clock::now();
    }
  }
  if (shut || verdict != detail::Admission::Verdict::admitted) {
    if (adm.owns_lock()) adm.unlock();
    // A shutdown rejection is NOT an overload signal: no rejected-counter
    // bump, so the two stay distinguishable.
    if (!shut) _adm_rejected.fetch_add(1, std::memory_order_relaxed);
    if (rejected != nullptr) {
      *rejected = true;
      return nullptr;
    }
    if (shut) throw ShutdownError("executor is shut down: new submissions are rejected");
    if (verdict == detail::Admission::Verdict::breaker_open) {
      throw BreakerOpenError("circuit breaker open: recent runs of this taskflow kept failing");
    }
    throw OverloadError("executor overloaded: admission capacity exhausted");
  }

  // Phase 2: every step that can throw (allocation, the cycle check, the
  // first timer start) runs before the push that makes the run visible,
  // inside one rollback: a failed submission leaves no admission charge or
  // timer behind.
  std::shared_ptr<Topology> topology;
  std::unique_lock<std::mutex> queue_lock;
  bool head = false;
  try {
    topology = std::make_shared<Topology>(&taskflow.graph(), record);
    topology->_client = this;
    topology->_queue = taskflow._queue;
    topology->_remaining = n;
    topology->_stop_pred = std::move(stop);

    queue_lock = std::unique_lock(queue.mutex);
    head = queue.empty();
    // An empty queue means no run of this taskflow is queued or in flight on
    // any executor, so the cycle check (which scratches the graph's join
    // counters) cannot race task execution.  Queued resubmissions skip the
    // re-check: the graph is immutable while runs are in flight, so its
    // verdict holds.
    if (head) throw_if_cyclic(taskflow.graph(), "run");
    register_live(topology);
    // Arm the deadline before the queue lock is released: the completion
    // side (which disarms the timer) acquires this lock to pop, so the
    // timer-id write can never race it.  The budget starts now - FIFO queue
    // time counts.
    if (policy.timeout.count() > 0) arm_deadline(*topology, policy);
  } catch (...) {
    if (queue_lock.owns_lock()) queue_lock.unlock();
    if (topology != nullptr) {
      disarm_deadline(*topology);
      // A concurrent shutdown() may have pinned the registered run and
      // waits on its future: complete it, though it never ran.
      topology->finish();
    }
    if (_admission_active) {
      _admission.withdraw(record);
      _adm_cv.notify_all();
      adm.unlock();
    }
    throw;
  }
  queue.push(topology);
  // Count under the queue lock: the completion-side decrement pops under
  // this lock first, so it can never overtake this increment.
  _num_topologies.fetch_add(1, std::memory_order_relaxed);
  queue_lock.unlock();

  if (!_admission_active) {
    // The zero-policy hot path: byte-for-byte the pre-admission behavior.
    if (head) start(*topology);
    return topology;
  }

  // Phase 3, still under the admission lock and allocation-free: the head
  // step, then the shed step.  A victim leaves its queue here; the run
  // behind a shed head becomes the head and is handed on below.
  const bool start_now = head && _admission.head(*topology);
  std::shared_ptr<Topology> victim, handed;
  if (detail::Admission::Run* shed = _admission.shed(*topology)) {
    Topology& run = static_cast<Topology&>(*shed);
    detail::RunQueue& victim_queue = *run._queue;
    std::scoped_lock victim_lock(victim_queue.mutex);
    const bool was_head = victim_queue.head.get() == &run;
    victim = victim_queue.erase(run);
    if (was_head) handed = victim_queue.head;
    _adm_cv.notify_all();  // capacity freed
  }
  adm.unlock();

  if (start_now) start(*topology);
  if (victim != nullptr) finish_shed(*victim);
  if (handed != nullptr) handed->_client->take_head(handed);
  return topology;
}

void Executor::take_head(const std::shared_ptr<Topology>& head) {
  if (_admission_active) {
    std::scoped_lock adm(_adm_mutex);
    if (!_admission.head(*head)) return;
  }
  // Once started, the run may finish and this executor be destroyed before
  // schedule_batch returns: the backend must outlive the call.
  const std::shared_ptr<ExecutorInterface> backend = _backend;
  start(*head);
}

void Executor::finish_shed(Topology& victim) {
  disarm_deadline(victim);
  // First-writer capture: a deadline that expired while the run was queued
  // keeps its TimeoutError (queue time counts as timeout, not shed) - the
  // shed counter tracks only runs that observably complete as shed, i.e.
  // whose handle will report the OverloadError.
  if (victim.error_state()->capture(_shed_error)) {
    _adm_shed.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::scoped_lock lock(_done_mutex);
    _num_topologies.fetch_sub(1, std::memory_order_relaxed);
    _done_cv.notify_all();
  }
  victim.finish();
}

void Executor::submit_async(StaticWork&& work) {
  if (_shutdown.load(std::memory_order_acquire)) {
    throw ShutdownError("executor is shut down: new submissions are rejected");
  }
  // Reuse a retired box when one is pooled: its graph arena already holds a
  // node-sized slab and its topology was reset at release, so the steady
  // state of an async storm allocates nothing.
  detail::AsyncRun* box = _async_pool->acquire();
  if (box == nullptr) box = new detail::AsyncRun;
  Node& node = box->graph.emplace_back();
  node._work.emplace<StaticWork>(std::move(work));
  box->topology._client = this;
  box->topology._client_tag = box;
  _num_asyncs.fetch_add(1, std::memory_order_relaxed);
  start(box->topology);
}

void Executor::start(Topology& topology) {
  try {
    topology.arm();
  } catch (...) {
    // Survivable allocation failure (DESIGN.md §6): arm() may allocate
    // (finalize_edges spill packing, source collection), and start() runs on
    // worker threads for repeat re-arms and queued-run continuations - an
    // escaping bad_alloc there would terminate the process.  Capture into
    // the run's error state and complete it through the normal completion
    // path: the topology was never scheduled (arm() publishes no task before
    // returning), so on_topology_done's front-of-queue / async
    // preconditions all still hold and the failure reaches the future.
    topology.error_state()->capture(std::current_exception());
    on_topology_done(topology);
    return;
  }
  const std::vector<Node*>& sources = topology.sources();
  _backend->schedule_batch(sources.data(), sources.size());
}

void Executor::on_topology_done(Topology& topology) {
  // Runs on the worker that retired the topology's last task.  Protocol:
  // executor bookkeeping first, the in-flight decrement + wakeup next, and
  // finish() as the worker's very LAST action: set_value wakes the handle
  // waiter, and on a loaded host that wake can preempt this worker - any
  // work placed after finish() (even an uncontended atomic op that another
  // thread polls) turns into extra context switches per topology (measured
  // +1-3us on BM_DispatchFuture).  Consequently the counters can read zero
  // a few instructions before the last promise is set; the stronger
  // "every handle is ready" guarantee is provided only by shutdown() /
  // the destructor, which wait on the futures themselves via _live.
  if (topology._queue == nullptr) {  // an async run
    // The user-visible promise lives in the task callable (already
    // fulfilled), so the box can be recycled: destroy the node (and its
    // captured state) but keep the arena slab, and reset the shared error
    // state for the next submission.  No other thread can reach the box
    // here - its single task retired and it was never registered in _live.
    auto* box = static_cast<detail::AsyncRun*>(topology._client_tag);
    box->graph.recycle();
    box->topology.error_state()->reset();
    if (!_async_pool->release(box)) delete box;
    std::scoped_lock lock(_done_mutex);
    _num_asyncs.fetch_sub(1, std::memory_order_relaxed);
    _done_cv.notify_all();
    return;
  }

  // Queued run (Executor::run / run_n / run_until): decide between the next
  // repeat and completion.  A draining run (task exception or cancel) stops
  // the remaining repeats; otherwise run_until consults its predicate and
  // run_n its countdown.
  bool done = topology.error_state()->draining();
  if (!done) {
    done = topology._stop_pred ? topology._stop_pred() : (--topology._remaining == 0);
  }
  if (!done) {
    start(topology);  // re-arm the same graph for the next repeat
    return;
  }

  // Final repeat done: pop from the taskflow's queue and hand the queue to
  // the run behind, if any, on the executor that submitted it.
  detail::RunQueue& queue = *topology._queue;
  std::shared_ptr<Topology> self;  // keeps the topology alive through finish()
  std::shared_ptr<Topology> next;
  {
    std::scoped_lock lock(queue.mutex);
    self = queue.pop();
    next = queue.head;
  }
  disarm_deadline(*self);  // a finished run's timer must not pin its state
  const bool mine = next != nullptr && next->_client == this;
  if (_admission_active) {
    // Admission bookkeeping: free the pending + concurrency slots, update
    // the breaker, hand the queue to a next run of ours and refill the
    // slot.  The queue lock is already released (lock order: _adm_mutex
    // never nests inside a RunQueue mutex), and start() runs outside the
    // admission lock.
    std::unique_lock adm(_adm_mutex);
    detail::Admission::Run* to_start =
        _admission.finish(*self, self->exception() != nullptr,
                          std::chrono::steady_clock::now(), mine ? next.get() : nullptr);
    _adm_cv.notify_all();  // a pending slot freed: wake blocked submitters
    adm.unlock();
    if (to_start != nullptr) start(static_cast<Topology&>(*to_start));
  }
  // Without admission control, or to another executor, the hand-over holds
  // none of our locks.
  if (next != nullptr && (!mine || !_admission_active)) next->_client->take_head(next);
  {
    std::scoped_lock lock(_done_mutex);
    _num_topologies.fetch_sub(1, std::memory_order_relaxed);
    _done_cv.notify_all();
  }
  self->finish();
}

void Topology::done() { _client->on_topology_done(*this); }

void Executor::register_live(const std::shared_ptr<Topology>& topology) {
  std::scoped_lock lock(_live_mutex);
  // Completing workers never erase their entry (finish() must stay their
  // last action), so dead entries pile up here until a writer reclaims
  // them.  Prune only once they clearly outnumber the live runs, keeping
  // the amortized cost of this call O(1).
  if (_live.size() >=
      2 * _num_topologies.load(std::memory_order_relaxed) + 8) {
    for (auto it = _live.begin(); it != _live.end();) {
      it = it->second.expired() ? _live.erase(it) : std::next(it);
    }
  }
  // insert_or_assign: the allocator can reuse a retired topology's address,
  // so an expired entry may still squat on this key.
  _live.insert_or_assign(topology.get(), topology);
}

void Executor::arm_deadline(Topology& topology, RunPolicy policy) {
  detail::ErrorState* state = topology.error_state();
  state->set_deadline(std::chrono::steady_clock::now() + policy.timeout);
  // The callback captures the *shared* state (not the topology), so a run
  // finishing before its deadline is never pinned nor dangled; the backend
  // pointer is safe because timer callbacks run on the timer thread, which
  // the backend joins before any of its teardown.
  topology._deadline_timer = _backend->timers().schedule_after(
      policy.timeout,
      [shared = topology.shared_error_state(), backend = _backend.get()] {
        if (shared->expire("run deadline exceeded")) {
          if (auto obs = backend->observer()) obs->on_topology_timeout();
        }
      });
}

void Executor::disarm_deadline(Topology& topology) {
  if (!topology._deadline_timer) return;
  _backend->timers().cancel(topology._deadline_timer);
  topology._deadline_timer = {};
}

void Executor::wait_for_all() {
  // Counter-based drain: returns once every run has retired its last task.
  // The completing worker sets the run's promise a few instructions AFTER
  // this wakeup (finish() is deliberately its last action; see
  // on_topology_done) - callers needing every handle future ready as well
  // should go through shutdown(), which additionally waits on the futures.
  std::unique_lock lock(_done_mutex);
  _done_cv.wait(lock, [this] {
    return _num_topologies.load(std::memory_order_relaxed) == 0 &&
           _num_asyncs.load(std::memory_order_relaxed) == 0;
  });
}

bool Executor::wait_for_all_for(std::chrono::milliseconds timeout) {
  std::unique_lock lock(_done_mutex);
  return _done_cv.wait_for(lock, timeout, [this] {
    return _num_topologies.load(std::memory_order_relaxed) == 0 &&
           _num_asyncs.load(std::memory_order_relaxed) == 0;
  });
}

void Executor::shutdown(ShutdownMode mode) {
  // Serialized so concurrent shutdown() callers (including the destructor
  // after an explicit shutdown) all block until the drain completed.
  std::scoped_lock shutdown_lock(_shutdown_mutex);
  _shutdown.store(true, std::memory_order_release);
  if (_admission_active) {
    // Submitters blocked in the backpressure wait re-check the flag on wake
    // and fail with ShutdownError (not OverloadError) instead of waiting for
    // capacity that may never free.
    std::scoped_lock adm(_adm_mutex);
    _adm_cv.notify_all();
  }
  // Pin every registered run that is still alive.
  // The flag above is already set, so no new run can register concurrently
  // except one that passed its shutdown check just before it - that run
  // completes normally and is covered by the counter wait below.
  std::vector<std::shared_ptr<Topology>> live;
  {
    std::scoped_lock lock(_live_mutex);
    live.reserve(_live.size());
    for (auto& [ptr, weak] : _live) {
      if (auto topology = weak.lock()) live.push_back(std::move(topology));
    }
  }
  if (mode == ShutdownMode::abort) {
    // Cancel every queued and in-flight graph run; each drains through the
    // cooperative skip-but-finalize path, so completion (and thus the
    // wait below) stays deterministic.  In-flight asyncs are left to run:
    // skipping one would leave its promise forever unfulfilled.
    for (auto& topology : live) topology->cancel();
  }
  wait_for_all();
  // Readiness guarantee: the counters hit zero a few instructions before the
  // last promise is set (see on_topology_done), so wait each pinned run's
  // future into readiness - a ready future costs one load, and at most the
  // runs mid-tail block for those few instructions.  Asyncs need no such
  // pass: their promise is fulfilled inside the task, before the counter
  // decrement.  After this, every handle handed out is ready.
  for (auto& topology : live) topology->future().wait();
  {
    std::scoped_lock lock(_live_mutex);
    _live.clear();
  }
  disable_watchdog();
}

void Executor::enable_watchdog(WatchdogOptions options) {
  // Probes first: the watchdog thread samples them from its first tick.
  _backend->enable_progress_probes();
  std::scoped_lock lock(_watchdog_mutex);
  _watchdog_options = std::move(options);
  if (_watchdog.joinable()) return;  // already running: options updated
  _watchdog_stop = false;
  _watchdog = std::thread([this] { watchdog_loop(); });
}

void Executor::disable_watchdog() {
  std::thread worker;
  {
    std::scoped_lock lock(_watchdog_mutex);
    if (!_watchdog.joinable()) return;
    _watchdog_stop = true;
    worker = std::move(_watchdog);
  }
  _watchdog_cv.notify_all();
  worker.join();
}

bool Executor::watchdog_enabled() const {
  std::scoped_lock lock(_watchdog_mutex);
  return _watchdog.joinable();
}

void Executor::watchdog_loop() {
  std::unique_lock lock(_watchdog_mutex);
  while (!_watchdog_stop) {
    const WatchdogOptions options = _watchdog_options;
    if (_watchdog_cv.wait_for(lock, options.period, [this] { return _watchdog_stop; })) {
      break;
    }
    lock.unlock();

    // Progress-probe scan: a worker continuously inside one task for longer
    // than the threshold flags a stall.
    bool stalled = false;
    for (const auto& sample : _backend->sample_probes()) {
      if (sample.node != nullptr && sample.busy_for >= options.task_threshold) {
        stalled = true;
        break;
      }
    }
    if (stalled && options.on_stall) options.on_stall(stall_report());

    lock.lock();
  }
}

void Executor::dump_state(std::ostream& os) const {
  const Metrics m = metrics();
  os << m;
  for (std::size_t i = 0; i < m.scheduler.worker_queue_depths.size(); ++i) {
    os << "  worker " << i << ": queue_depth=" << m.scheduler.worker_queue_depths[i]
       << "\n";
  }
  // Progress probes (allocated by enable_watchdog): one line per busy
  // worker, from atomics only - the Node* is deliberately NOT dereferenced
  // (the task may retire, and an async run free its node, mid-print).
  const auto samples = _backend->sample_probes();
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].node == nullptr) continue;
    os << "worker " << i << ": busy in one task for "
       << std::chrono::duration_cast<std::chrono::milliseconds>(samples[i].busy_for)
              .count()
       << " ms (" << samples[i].completed << " task(s) completed)\n";
  }
  // One line per client: each distinct run queue of the pinned live runs.
  std::vector<std::shared_ptr<Topology>> live;
  {
    std::scoped_lock lock(_live_mutex);
    for (const auto& [ptr, weak] : _live) {
      if (auto topology = weak.lock()) live.push_back(std::move(topology));
    }
  }
  std::vector<detail::RunQueue*> queues;
  for (const auto& topology : live) queues.push_back(topology->_queue.get());
  std::sort(queues.begin(), queues.end());
  queues.erase(std::unique(queues.begin(), queues.end()), queues.end());
  for (detail::RunQueue* queue : queues) {
    std::scoped_lock queue_lock(queue->mutex);
    if (queue->empty()) continue;  // drained: no longer a client
    os << "client " << queue->owner << ": " << queue->size() << " queued run(s)";
    // Front = the run in flight.  num_active() is an atomic snapshot, so
    // this stays race-free while the graph executes (unlike a recursive
    // graph-size walk, which would chase subflow pointers mid-spawn).
    const auto& front = queue->head;
    os << "; running: " << front->num_active()
       << " in-flight task execution(s)";
    // Resilience policies and node kinds of the running graph: top-level
    // nodes only (the list is immutable during the run; subflows are not
    // chased mid-spawn).  Condition nodes report their last-returned
    // branch index (-1 = not yet taken), which is what makes a stuck
    // in-graph loop diagnosable: a loop that stopped converging shows the
    // same branch lap after lap.
    std::size_t with_policy = 0;
    int failed_attempts = 0;
    std::size_t modules = 0;
    std::size_t node_index = 0;
    std::string conditions;
    for (const auto& node : front->graph()) {
      if (const auto* pol = node.resilience()) {
        ++with_policy;
        failed_attempts += pol->failed_attempts.load(std::memory_order_relaxed);
      }
      if (node.is_module()) ++modules;
      if (node.is_condition()) {
        if (!conditions.empty()) conditions += ", ";
        conditions += node.name().empty() ? "task#" + std::to_string(node_index)
                                          : "\"" + node.name() + "\"";
        conditions += " last_branch=" + std::to_string(node.last_branch());
      }
      ++node_index;
    }
    if (with_policy > 0) {
      os << "; " << with_policy << " task(s) with retry/fallback policies ("
         << failed_attempts << " failed attempt(s) so far)";
    }
    if (modules > 0) os << "; " << modules << " module task(s)";
    if (!conditions.empty()) os << "; condition(s): " << conditions;
    detail::ErrorState* state = front->error_state();
    if (auto d = state->deadline()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(*d - now);
      if (remaining.count() >= 0) {
        os << " [deadline in " << remaining.count() << " ms]";
      } else if (!state->draining()) {
        os << " [deadline exceeded " << -remaining.count() << " ms ago]";
      }
    }
    if (front->is_cancelled()) {
      os << (state->timed_out.load(std::memory_order_relaxed)
                 ? " [draining: deadline exceeded]"
             : front->exception() ? " [draining: task exception]"
                                  : " [draining: cancelled]");
    }
    os << "\n";
  }
}

std::string Executor::stall_report() const {
  std::ostringstream os;
  os << "=== executor stall report ===\n";
  dump_state(os);
  return os.str();
}

Executor::Metrics Executor::metrics() const {
  Metrics m;
  m.scheduler = _backend->stats();
  m.num_topologies = num_topologies();
  m.num_asyncs = num_asyncs();
  m.pending_timers = _backend->timers().num_pending();
  m.admission_active = _admission_active;
  m.rejected = _adm_rejected.load(std::memory_order_relaxed);
  m.shed = _adm_shed.load(std::memory_order_relaxed);
  m.adm_pending_limit = options().max_pending_topologies;
  m.adm_started_limit = options().max_concurrent_topologies;
  m.shutdown = _shutdown.load(std::memory_order_relaxed);
  if (_admission_active) {
    std::scoped_lock adm(_adm_mutex);
    m.admitted = _admission.admitted();
    m.breaker_trips = _admission.trips();
    m.adm_pending = _admission.pending();
    m.adm_started = _admission.started();
    m.adm_waiting_clients = _admission.waiting();
    for (const auto& [key, client] : _admission.clients()) {
      // A dead client's record may wait for the next sweep; its breaker is moot.
      if (client.breaker != detail::Admission::Breaker::closed && !client.owner.expired()) {
        ++m.breakers_open;
      }
    }
  }
  return m;
}

std::ostream& operator<<(std::ostream& os, const Executor::Metrics& m) {
  m.for_each([&os](std::string_view key, const auto& value) {
    os << key << ' ' << value << '\n';
  });
  return os;
}

// ---------------------------------------------------------------------------
// Taskflow
// ---------------------------------------------------------------------------

Taskflow::Taskflow() : Taskflow(std::thread::hardware_concurrency()) {}

Taskflow::Taskflow(std::size_t num_workers)
    : FlowBuilder(detail::GraphOwner::graph, num_workers),
      _legacy_workers(num_workers == 0 ? 1 : num_workers) {}

Taskflow::Taskflow(std::shared_ptr<ExecutorInterface> executor)
    : FlowBuilder(detail::GraphOwner::graph, 1), _legacy_workers(1) {
  // A caller-provided backend cannot be adopted lazily (the shared_ptr
  // would have to be stashed anyway), so wrap it eagerly; no threads are
  // created here beyond the backend's own.
  _legacy = std::make_shared<Executor>(std::move(executor));
  default_parallelism(_legacy->num_workers());
}

Taskflow::~Taskflow() { wait_for_topologies(); }

Executor& Taskflow::legacy() const {
  std::scoped_lock lock(_legacy_mutex);
  if (_legacy == nullptr) _legacy = std::make_shared<Executor>(_legacy_workers);
  return *_legacy;
}

ExecutionHandle Taskflow::dispatch() {
  if (detail::GraphOwner::graph.empty()) {
    // Nothing to run: hand back a ready handle.
    return ExecutionHandle{};
  }
  // Grow the retention list before the run starts: the push_back below must
  // not throw while the box's graph is executing.
  if (_dispatched.size() == _dispatched.capacity()) {
    _dispatched.reserve(std::max<std::size_t>(8, 2 * _dispatched.size()));
  }
  // The box is a distinct client of the private executor, so dispatches of
  // one taskflow overlap instead of queueing behind each other.
  auto box = std::make_unique<Taskflow>(default_parallelism());
  box->graph() = std::move(detail::GraphOwner::graph);
  detail::GraphOwner::graph = Graph{};
  try {
    ExecutionHandle handle = legacy().run(*box);
    _dispatched.push_back({std::move(box), handle});
    return handle;
  } catch (...) {
    // CycleError / ShutdownError: a failed dispatch leaves the graph intact.
    detail::GraphOwner::graph = std::move(box->graph());
    throw;
  }
}

void Taskflow::silent_dispatch() { (void)dispatch(); }

void Taskflow::release_dispatched() {
  // Release before rethrowing so the taskflow is reusable either way.
  std::exception_ptr first;
  for (const auto& d : _dispatched) {
    if (!first) first = d.handle.exception();
  }
  if (!_dispatched.empty() && detail::GraphOwner::graph.empty()) {
    // Keep the last box's graph storage: the next build reuses it in place.
    detail::GraphOwner::graph = std::move(_dispatched.back().box->graph());
    detail::GraphOwner::graph.recycle();
  }
  _dispatched.clear();
  if (first) std::rethrow_exception(first);
}

void Taskflow::wait_for_all() {
  if (!detail::GraphOwner::graph.empty()) silent_dispatch();
  wait_for_topologies();
  release_dispatched();
}

bool Taskflow::wait_for_all_for(std::chrono::milliseconds timeout) {
  if (!detail::GraphOwner::graph.empty()) silent_dispatch();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (const auto& d : _dispatched) {
    if (d.handle.wait_until(deadline) != std::future_status::ready) {
      return false;  // stalled: runs kept for stall_report / retry
    }
  }
  release_dispatched();
  return true;
}

std::string Taskflow::stall_report() const { return legacy().stall_report(); }

void Taskflow::wait_for_topologies() {
  for (const auto& d : _dispatched) d.handle.wait();
}

std::size_t Taskflow::num_workers() const { return legacy().num_workers(); }

std::string Taskflow::dump() const {
  return dump_dot(detail::GraphOwner::graph, "Taskflow");
}

std::string Taskflow::dump_topologies() const {
  std::ostringstream os;
  std::size_t i = 0;
  for (const auto& d : _dispatched) {
    dump_dot(os, d.box->graph(), "Topology_" + std::to_string(i++));
  }
  return os.str();
}

}  // namespace tf

#include "taskflow/taskflow.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "support/env.hpp"
#include "taskflow/dot.hpp"

namespace tf {

namespace {

// Throws tf::CycleError when `graph` is cyclic.  Runs before the graph is
// handed to a Topology, so a failed dispatch leaves the caller's graph
// intact (the scratched join counters are re-initialized by the next arm()).
// REPRO_CYCLE_CHECK=0 skips the O(V+E) sweep for dispatch-latency-critical
// code that guarantees acyclicity by construction.
void throw_if_cyclic(Graph& graph, const char* origin) {
  if (!support::repro_cycle_check()) return;
  if (std::string cycle = detail::describe_cycle(graph); !cycle.empty()) {
    throw CycleError(std::string(origin) + ": " + cycle);
  }
}

// Any knob set makes the executor route submissions through the admission
// layer; all-defaults keeps the PR 3 unbounded path, which takes no
// admission lock.
bool admission_enabled(const ExecutorOptions& options) {
  return options.max_pending_topologies != 0 ||
         options.max_pending_per_client != 0 || options.shed_watermark != 0 ||
         options.max_concurrent_topologies != 0 || options.breaker_threshold != 0;
}

int clamp_band(int priority) {
  return priority < 0 ? 0
         : priority >= kNumPriorities ? kNumPriorities - 1
                                      : priority;
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

// Freelist of retired AsyncRun boxes, sharded so an async storm's concurrent
// submitters and completers don't contend on one lock: each thread hashes to
// a home shard (workers are long-lived threads, so this behaves like a
// per-worker freelist).  Shards are bounded; overflow falls back to the heap.
class AsyncRunPool {
 public:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kMaxPerShard = 64;

  ~AsyncRunPool() {
    // Runs after the executor drained: no box is in flight.
    for (Shard& shard : _shards) {
      for (AsyncRun* box : shard.items) delete box;
    }
  }

  /// A recycled box (already reset) or nullptr when the pool is empty.
  /// Tries the home shard first; on a miss it probes the others - boxes are
  /// released on the *completing* worker's shard, so a submitter draining a
  /// different shard than it fills is the normal steady state.
  [[nodiscard]] AsyncRun* acquire() {
    const std::size_t home = home_index();
    for (std::size_t i = 0; i < kShards; ++i) {
      Shard& shard = _shards[(home + i) % kShards];
      SpinGuard guard(shard.lock);
      if (!shard.items.empty()) {
        AsyncRun* box = shard.items.back();
        shard.items.pop_back();
        return box;
      }
    }
    return nullptr;
  }

  /// Return a retired box; false when the home shard is full (caller
  /// deletes - the pool stays bounded under sustained storms).
  [[nodiscard]] bool release(AsyncRun* box) {
    Shard& shard = _shards[home_index()];
    SpinGuard guard(shard.lock);
    if (shard.items.size() >= kMaxPerShard) return false;
    shard.items.push_back(box);
    return true;
  }

 private:
  struct alignas(64) Shard {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::vector<AsyncRun*> items;
  };

  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag& f) : flag(f) {
      while (flag.test_and_set(std::memory_order_acquire)) {
        // Uncontended in the common case (one thread per shard); a brief
        // spin beats a futex round trip for the push/pop critical section.
      }
    }
    ~SpinGuard() { flag.clear(std::memory_order_release); }
    std::atomic_flag& flag;
  };

  [[nodiscard]] static std::size_t home_index() {
    const std::size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return h % kShards;
  }

  Shard _shards[kShards];
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(std::size_t num_workers, ExecutorOptions options)
    : _backend(std::make_shared<WorkStealingExecutor>(num_workers)),
      _options(options),
      _admission_active(admission_enabled(options)),
      _async_pool(std::make_unique<detail::AsyncRunPool>()) {
  if (_options.fairness_quantum == 0) _options.fairness_quantum = 1;
}

Executor::Executor(std::shared_ptr<ExecutorInterface> backend, ExecutorOptions options)
    : _backend(std::move(backend)),
      _options(options),
      _admission_active(admission_enabled(options)),
      _async_pool(std::make_unique<detail::AsyncRunPool>()) {
  if (_backend == nullptr) _backend = std::make_shared<WorkStealingExecutor>();
  if (_options.fairness_quantum == 0) _options.fairness_quantum = 1;
}

Executor::~Executor() { shutdown(ShutdownMode::drain); }

ExecutionHandle Executor::run(Taskflow& taskflow) {
  return handle_of(submit(taskflow, 1, nullptr));
}

ExecutionHandle Executor::run_n(Taskflow& taskflow, std::size_t n) {
  return handle_of(submit(taskflow, n, nullptr));
}

ExecutionHandle Executor::run_until(Taskflow& taskflow, std::function<bool()> stop) {
  return handle_of(submit(taskflow, 1, std::move(stop)));
}

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
  auto topology = submit(taskflow, n, nullptr, policy, /*nothrow=*/true, &rejected);
  if (rejected) return std::nullopt;
  // nullptr without rejection = empty submission: an engaged ready handle.
  return handle_of(topology);
}

void Executor::throw_if_shutdown() const {
  if (_shutdown.load(std::memory_order_acquire)) {
    throw ShutdownError("executor is shut down: new submissions are rejected");
  }
}

std::shared_ptr<Topology> Executor::submit(Taskflow& taskflow, std::size_t n,
                                           std::function<bool()> stop,
                                           RunPolicy policy, bool nothrow,
                                           bool* rejected) {
  if (_shutdown.load(std::memory_order_acquire)) {
    if (nothrow) {
      if (rejected != nullptr) *rejected = true;
      return nullptr;
    }
    throw ShutdownError("executor is shut down: new submissions are rejected");
  }
  if (taskflow.graph().empty() || n == 0) return nullptr;

  // Phase 1: admission (DESIGN.md §11).  Block/reject per the policy before
  // any allocation; the lock is held across phase 2 so the charged pending
  // slot cannot be shed or stolen between the verdict and the push.
  const int band = clamp_band(policy.priority);
  std::unique_lock<std::mutex> adm(_adm_mutex, std::defer_lock);
  bool claimed_probe = false;
  if (_admission_active) {
    adm.lock();
    const RejectReason why = admit_locked(adm, taskflow, policy, nothrow, claimed_probe);
    if (why != RejectReason::none) {
      adm.unlock();
      if (why != RejectReason::shutdown) {
        // A shutdown rejection is NOT an overload signal: no rejected-counter
        // bump, so the two stay distinguishable.
        _adm_rejected.fetch_add(1, std::memory_order_relaxed);
      }
      if (nothrow) {
        if (rejected != nullptr) *rejected = true;
        return nullptr;
      }
      switch (why) {
        case RejectReason::shutdown:
          throw ShutdownError("executor is shut down: new submissions are rejected");
        case RejectReason::breaker_open:
          throw BreakerOpenError(
              "circuit breaker open: recent runs of this taskflow kept failing");
        default:
          throw OverloadError("executor overloaded: admission capacity exhausted");
      }
    }
  }

  auto topology = std::make_shared<Topology>(&taskflow.graph());
  topology->_client = this;
  topology->_kind = Topology::RunKind::queued;
  topology->_remaining = n;
  topology->_stop_pred = std::move(stop);
  topology->_priority = band;
  if (_admission_active) {
    topology->_admit = Topology::AdmitState::queued;
    topology->_cost = std::max<std::size_t>(1, taskflow.graph().size());
    topology->_breaker_probe = claimed_probe;
  }

  // Phase 2: find-or-create the client's run queue, then push under BOTH
  // locks (registry, then queue - the global lock order): releasing the
  // registry lock before the push would let a concurrent drain erase the
  // queue and a concurrent submit create a second one, breaking
  // same-taskflow FIFO serialization.
  std::unique_lock clients_lock(_clients_mutex);
  auto& slot = _clients[&taskflow];
  if (slot == nullptr) slot = std::make_shared<ClientQueue>(&taskflow);
  std::shared_ptr<ClientQueue> cq = slot;
  std::unique_lock queue_lock(cq->mutex);
  clients_lock.unlock();

  const bool head = cq->queue.empty();
  if (head) {
    // An empty queue means nothing of this taskflow is queued or in flight,
    // so the cycle check (which scratches the graph's join counters) cannot
    // race task execution.  Queued resubmissions skip the re-check: the
    // graph is immutable while runs are in flight, so its verdict holds.
    try {
      throw_if_cyclic(taskflow.graph(), "run");
    } catch (...) {
      queue_lock.unlock();
      if (_admission_active) {
        unadmit_locked(taskflow, claimed_probe);
        _adm_cv.notify_all();
        adm.unlock();
      }
      // Drop the (empty) queue we may have just registered, re-checking
      // under both locks: a concurrent submit may have pushed meanwhile.
      std::scoped_lock relock(_clients_mutex);
      auto it = _clients.find(&taskflow);
      if (it != _clients.end() && it->second == cq) {
        std::scoped_lock requeue(cq->mutex);
        if (cq->queue.empty()) _clients.erase(it);
      }
      throw;
    }
  }

  topology->_client_tag = cq.get();
  topology->_client_hold = cq;  // the queue outlives every run it holds
  cq->queue.push_back(topology);
  // Count under the queue lock: the completion-side decrement pops under
  // this lock first, so it can never overtake this increment.
  _num_topologies.fetch_add(1, std::memory_order_relaxed);
  register_live(topology);
  // Arm the deadline before the lock is released: the completion side (which
  // disarms the timer) acquires this lock to pop, so the timer-id write can
  // never race it.  The budget starts now - FIFO queue time counts.
  if (policy.timeout.count() > 0) arm_deadline(*topology, policy);
  queue_lock.unlock();

  if (!_admission_active) {
    // The zero-policy hot path: byte-for-byte the pre-admission behavior.
    if (head) start(*topology);
    return topology;
  }

  // Phase 3: start / ring / shed decisions, still under the admission lock.
  _adm_admitted.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::shared_ptr<Topology>> to_start;
  std::vector<std::shared_ptr<Topology>> shed_victims;
  std::vector<std::shared_ptr<ClientQueue>> emptied;
  if (head) {
    if (_options.max_concurrent_topologies == 0 ||
        _adm_started < _options.max_concurrent_topologies) {
      ++_adm_started;
      topology->_admit = Topology::AdmitState::started;
      to_start.push_back(topology);
    } else {
      ring_push_locked(cq, band);
    }
  }
  if (_options.shed_watermark > 0) {
    // Track the run as a shed candidate (lowest band pops first, newest
    // first within a band), pruning entries of finished/started runs once
    // they clearly dominate.
    _adm_shed_stack[band].push_back(topology);
    std::size_t stacked = 0;
    for (const auto& stack : _adm_shed_stack) stacked += stack.size();
    if (stacked > 2 * _adm_pending + 64) {
      for (auto& stack : _adm_shed_stack) {
        std::erase_if(stack, [](const std::shared_ptr<Topology>& t) {
          return t->_admit != Topology::AdmitState::queued;
        });
      }
    }
    if (_adm_pending > _options.shed_watermark) {
      shed_to_watermark_locked(shed_victims, emptied);
    }
  }
  adm.unlock();

  for (auto& t : to_start) start(*t);
  for (auto& victim : shed_victims) finish_shed(victim);
  for (auto& empty_cq : emptied) release_client(empty_cq.get());
  return topology;
}

Executor::RejectReason Executor::admit_locked(std::unique_lock<std::mutex>& adm,
                                              const Taskflow& taskflow,
                                              RunPolicy policy, bool nothrow,
                                              bool& claimed_probe) {
  const bool bounded_wait = policy.admission_timeout.count() > 0;
  const auto wait_deadline =
      std::chrono::steady_clock::now() + policy.admission_timeout;
  for (;;) {
    if (_shutdown.load(std::memory_order_acquire)) return RejectReason::shutdown;
    AdmissionClient& ac = _adm_clients[&taskflow];
    if (_options.breaker_threshold > 0) {
      // Fail fast while open-and-cooling or while the half-open probe is
      // out; an elapsed cooldown falls through and claims the probe below.
      if (ac.breaker == AdmissionClient::Breaker::open &&
          std::chrono::steady_clock::now() <
              ac.opened_at + _options.breaker_cooldown) {
        return RejectReason::breaker_open;
      }
      if (ac.breaker == AdmissionClient::Breaker::half_open && ac.probe_in_flight) {
        return RejectReason::breaker_open;
      }
    }
    const bool full = (_options.max_pending_topologies != 0 &&
                       _adm_pending >= _options.max_pending_topologies) ||
                      (_options.max_pending_per_client != 0 &&
                       ac.pending >= _options.max_pending_per_client);
    if (!full) {
      if (_options.breaker_threshold > 0 &&
          ac.breaker != AdmissionClient::Breaker::closed) {
        ac.breaker = AdmissionClient::Breaker::half_open;
        ac.probe_in_flight = true;
        claimed_probe = true;
      }
      ++_adm_pending;
      ++ac.pending;
      return RejectReason::none;
    }
    // At capacity.  try_run never waits; a reject policy fails fast; a
    // block policy waits for the completion/shed side to free capacity
    // (bounded by admission_timeout when one was given).
    if (nothrow || policy.admission == AdmissionPolicy::reject) {
      return RejectReason::overload;
    }
    if (bounded_wait) {
      if (std::chrono::steady_clock::now() >= wait_deadline) {
        return RejectReason::overload;
      }
      _adm_cv.wait_until(adm, wait_deadline);
    } else {
      _adm_cv.wait(adm);
    }
    // Loop: re-evaluate shutdown, breaker, and capacity after every wake
    // (the map reference may have been invalidated by a rehash meanwhile).
  }
}

void Executor::unadmit_locked(const Taskflow& taskflow, bool claimed_probe) {
  auto it = _adm_clients.find(&taskflow);
  if (it != _adm_clients.end()) {
    if (it->second.pending > 0) --it->second.pending;
    if (claimed_probe) it->second.probe_in_flight = false;
  }
  if (_adm_pending > 0) --_adm_pending;
}

void Executor::ring_push_locked(const std::shared_ptr<ClientQueue>& cq, int band) {
  if (cq->in_ring) return;
  cq->in_ring = true;
  _adm_ready[band].push_back(cq);
}

void Executor::dispatch_ready_locked(std::vector<std::shared_ptr<Topology>>& to_start) {
  const std::size_t limit = _options.max_concurrent_topologies;
  if (limit == 0) return;
  bool rescan = true;
  while (rescan && _adm_started < limit) {
  rescan = false;
  for (int band = kNumPriorities - 1; band >= 0 && _adm_started < limit; --band) {
    auto& ring = _adm_ready[band];
    std::size_t fruitless = 0;  // consecutive visits that dispatched nothing
    while (_adm_started < limit && !ring.empty()) {
      std::shared_ptr<ClientQueue> cq = ring.front();
      std::shared_ptr<Topology> head;
      {
        std::scoped_lock queue_lock(cq->mutex);
        if (!cq->queue.empty()) head = cq->queue.front();
      }
      if (head == nullptr || head->_admit != Topology::AdmitState::queued) {
        // Stale entry: the head was shed and the queue drained meanwhile.
        ring.pop_front();
        cq->in_ring = false;
        continue;
      }
      if (head->_priority != band) {
        // The client's head changed band since it was ringed (e.g. its old
        // head was shed): re-home it.  An upward re-home lands in a band
        // this scan already passed - without a rescan the client would be
        // stranded until the next completion, which may never come when
        // nothing else is running.
        ring.pop_front();
        _adm_ready[head->_priority].push_back(cq);
        if (head->_priority > band) rescan = true;
        continue;
      }
      if (cq->deficit < head->_cost) {
        cq->deficit += _options.fairness_quantum;
        if (cq->deficit < head->_cost) {
          if (++fruitless < ring.size()) {
            ring.pop_front();
            ring.push_back(cq);  // rotate: cheaper heads go first
            continue;
          }
          // A full fruitless lap: force progress - work conservation beats
          // idling the slot because every queued head is "too expensive".
          cq->deficit = head->_cost;
        }
      }
      cq->deficit -= head->_cost;
      ring.pop_front();
      cq->in_ring = false;
      head->_admit = Topology::AdmitState::started;
      ++_adm_started;
      to_start.push_back(std::move(head));
      fruitless = 0;
    }
  }
  }
}

void Executor::shed_to_watermark_locked(
    std::vector<std::shared_ptr<Topology>>& victims,
    std::vector<std::shared_ptr<ClientQueue>>& emptied) {
  while (_adm_pending > _options.shed_watermark) {
    std::shared_ptr<Topology> victim;
    for (int band = 0; band < kNumPriorities && victim == nullptr; ++band) {
      auto& stack = _adm_shed_stack[band];
      while (!stack.empty()) {
        if (stack.back()->_admit == Topology::AdmitState::queued) {
          victim = std::move(stack.back());
          stack.pop_back();
          break;
        }
        stack.pop_back();  // started / finished meanwhile: prune in passing
      }
    }
    if (victim == nullptr) break;  // everything pending has already started
    auto* vcq = static_cast<ClientQueue*>(victim->_client_tag);
    bool now_empty = false;
    {
      std::scoped_lock queue_lock(vcq->mutex);
      // The newest run of a band sits at/near its deque's back (cross-band
      // interleaving of one client can offset it): scan from the back.
      for (auto it = vcq->queue.rbegin(); it != vcq->queue.rend(); ++it) {
        if (it->get() == victim.get()) {
          vcq->queue.erase(std::next(it).base());
          break;
        }
      }
      now_empty = vcq->queue.empty();
    }
    victim->_admit = Topology::AdmitState::shed;
    --_adm_pending;
    auto it = _adm_clients.find(vcq->owner);
    if (it != _adm_clients.end() && it->second.pending > 0) --it->second.pending;
    if (victim->_breaker_probe) {
      // A shed probe must not wedge the breaker half-open forever.
      victim->_breaker_probe = false;
      if (it != _adm_clients.end()) it->second.probe_in_flight = false;
    }
    if (now_empty && vcq->in_ring) {
      // The emptied client's stale ring entry would suppress its next
      // head submission's ring push (in_ring short-circuit): drop it now.
      for (auto& ring : _adm_ready) {
        auto pos = std::find_if(
            ring.begin(), ring.end(),
            [vcq](const std::shared_ptr<ClientQueue>& p) { return p.get() == vcq; });
        if (pos != ring.end()) {
          ring.erase(pos);
          break;
        }
      }
      vcq->in_ring = false;
    }
    if (now_empty) {
      emptied.push_back(std::static_pointer_cast<ClientQueue>(victim->_client_hold));
    }
    victims.push_back(std::move(victim));
  }
  if (!victims.empty()) _adm_cv.notify_all();  // capacity freed
}

void Executor::finish_shed(const std::shared_ptr<Topology>& victim) {
  disarm_deadline(*victim);
  // First-writer capture: a deadline that expired while the run was queued
  // keeps its TimeoutError (queue time counts as timeout, not shed) — the
  // shed counter tracks only runs that observably complete as shed, i.e.
  // whose handle will report the OverloadError.
  const bool won = victim->error_state()->capture(std::make_exception_ptr(
      OverloadError("run load-shed: executor pending depth exceeded the shed "
                    "watermark")));
  if (won) _adm_shed.fetch_add(1, std::memory_order_relaxed);
  {
    std::scoped_lock lock(_done_mutex);
    _num_topologies.fetch_sub(1, std::memory_order_relaxed);
    _done_cv.notify_all();
  }
  victim->finish();
}

void Executor::breaker_update_locked(const Taskflow* taskflow, Topology& topology) {
  auto it = _adm_clients.find(taskflow);
  if (it == _adm_clients.end()) return;
  AdmissionClient& ac = it->second;
  if (topology._breaker_probe) {
    topology._breaker_probe = false;
    ac.probe_in_flight = false;
  }
  // Failure = the run completed with a stored exception (task error or
  // deadline).  A cancelled or fallback-degraded run completes cleanly and
  // counts as success.
  if (topology.exception() != nullptr) {
    if (ac.breaker == AdmissionClient::Breaker::half_open ||
        (ac.breaker == AdmissionClient::Breaker::closed &&
         ++ac.consecutive_failures >= _options.breaker_threshold)) {
      ac.breaker = AdmissionClient::Breaker::open;
      ac.opened_at = std::chrono::steady_clock::now();
      ac.consecutive_failures = 0;
      _adm_breaker_trips.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    ac.consecutive_failures = 0;
    if (ac.breaker != AdmissionClient::Breaker::closed) {
      ac.breaker = AdmissionClient::Breaker::closed;
      ac.probe_in_flight = false;
    }
  }
}

void Executor::submit_async(StaticWork&& work) {
  throw_if_shutdown();
  // Reuse a retired box when one is pooled: its graph arena already holds a
  // node-sized slab and its topology was reset at release, so the steady
  // state of an async storm allocates nothing.
  detail::AsyncRun* box = _async_pool->acquire();
  if (box == nullptr) box = new detail::AsyncRun;
  Node& node = box->graph.emplace_back();
  node._work.emplace<StaticWork>(std::move(work));
  box->topology._client = this;
  box->topology._kind = Topology::RunKind::async;
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
  _backend->schedule_batch(topology.sources());
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
  if (topology._kind == Topology::RunKind::async) {
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

  // Final repeat done: pop from the client FIFO and hand the worker pool to
  // the next pending run of this taskflow, if any.
  auto* cq = static_cast<ClientQueue*>(topology._client_tag);
  std::shared_ptr<Topology> self;  // keeps the topology alive through finish()
  std::shared_ptr<Topology> next;
  bool drained = false;
  {
    std::scoped_lock lock(cq->mutex);
    self = std::move(cq->queue.front());
    cq->queue.pop_front();
    if (cq->queue.empty()) {
      drained = true;
    } else {
      next = cq->queue.front();
    }
  }
  disarm_deadline(*self);  // a finished run's timer must not pin its state
  if (!_admission_active) {
    if (next != nullptr) start(*next);
    if (drained) release_client(cq);
  } else {
    // Admission bookkeeping: free the pending + concurrency slots, update
    // the breaker, and refill free slots from the ready rings.  The queue
    // lock is already released (lock order: _adm_mutex never nests inside
    // a ClientQueue mutex), and start() runs outside the admission lock.
    std::vector<std::shared_ptr<Topology>> to_start;
    {
      std::scoped_lock adm(_adm_mutex);
      if (_adm_pending > 0) --_adm_pending;
      if (_adm_started > 0) --_adm_started;
      if (_options.breaker_threshold > 0) breaker_update_locked(cq->owner, *self);
      auto it = _adm_clients.find(cq->owner);
      if (it != _adm_clients.end()) {
        if (it->second.pending > 0) --it->second.pending;
        // GC trivial entries so the map tracks active clients and open /
        // cooling breakers only (breaker state must survive idle periods).
        if (it->second.pending == 0 && !it->second.probe_in_flight &&
            it->second.breaker == AdmissionClient::Breaker::closed &&
            it->second.consecutive_failures == 0) {
          _adm_clients.erase(it);
        }
      }
      if (next != nullptr && next->_admit != Topology::AdmitState::queued) {
        // The front we captured at pop time was shed before we reached this
        // lock (the shed erased it from the queue): chain to the current
        // front instead - starting the captured one would finish it twice.
        std::scoped_lock requeue(cq->mutex);
        next = cq->queue.empty() ? nullptr : cq->queue.front();
        if (next != nullptr && next->_admit != Topology::AdmitState::queued) {
          next = nullptr;
        }
      }
      if (next != nullptr) {
        if (_options.max_concurrent_topologies == 0) {
          ++_adm_started;
          next->_admit = Topology::AdmitState::started;
          to_start.push_back(next);
        } else {
          // With a concurrency cap the freed slot is contended: route the
          // same-client continuation through the ready ring so the DRR /
          // priority arbiter picks the next run - direct continuation would
          // let a deep-queued hot client monopolize the slot it just freed.
          ring_push_locked(std::static_pointer_cast<ClientQueue>(self->_client_hold),
                           next->_priority);
        }
      }
      dispatch_ready_locked(to_start);
      _adm_cv.notify_all();  // a pending slot freed: wake blocked submitters
    }
    for (auto& t : to_start) start(*t);
    if (drained) release_client(cq);
  }
  {
    std::scoped_lock lock(_done_mutex);
    _num_topologies.fetch_sub(1, std::memory_order_relaxed);
    _done_cv.notify_all();
  }
  self->finish();
}

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
  // pointer is safe because wheel callbacks run on the wheel's service
  // thread, which the backend joins before any of its teardown.
  topology._deadline_timer = _backend->timer_wheel()->schedule_after(
      policy.timeout,
      [shared = topology.shared_error_state(), backend = _backend.get()] {
        if (shared->expire("run deadline exceeded")) {
          if (auto obs = backend->observer()) obs->on_topology_timeout();
        }
      });
}

void Executor::disarm_deadline(Topology& topology) {
  if (topology._deadline_timer == detail::TimerWheel::kInvalidTimer) return;
  if (auto wheel = _backend->timer_wheel_if_created()) {
    wheel->cancel(topology._deadline_timer);
  }
  topology._deadline_timer = detail::TimerWheel::kInvalidTimer;
}

void Executor::release_client(ClientQueue* cq) {
  // Destroy the registry entry only outside both locks (`hold` outlives the
  // scope), and only when the queue is still drained: a concurrent submit
  // may have pushed - and holds the registry lock across find+push - so the
  // re-check under both locks is authoritative.
  std::shared_ptr<ClientQueue> hold;
  {
    std::scoped_lock clients_lock(_clients_mutex);
    auto it = _clients.find(cq->owner);
    if (it == _clients.end() || it->second.get() != cq) return;
    std::scoped_lock queue_lock(cq->mutex);
    if (!cq->queue.empty()) return;
    hold = std::move(it->second);
    _clients.erase(it);
  }
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
  // except one that passed throw_if_shutdown() just before it - that run
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

    // 1. Deadline sweep (belt-and-braces over the timer wheel): collect the
    // expired states under the registry locks, fire expire() outside them -
    // the observer hook is user code and must not run under our locks.
    std::vector<std::shared_ptr<detail::ErrorState>> expired;
    const auto now = std::chrono::steady_clock::now();
    {
      std::scoped_lock clients_lock(_clients_mutex);
      for (auto& [owner, cq] : _clients) {
        std::scoped_lock queue_lock(cq->mutex);
        for (auto& topology : cq->queue) {
          detail::ErrorState* state = topology->error_state();
          if (state->draining()) continue;
          if (auto d = state->deadline(); d && *d <= now) {
            expired.push_back(topology->shared_error_state());
          }
        }
      }
    }
    for (auto& state : expired) {
      if (state->expire("run deadline exceeded")) {
        if (auto obs = _backend->observer()) obs->on_topology_timeout();
      }
    }

    // 2. Progress-probe scan: a worker continuously inside one task for
    // longer than the threshold flags a stall.
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
  std::scoped_lock clients_lock(_clients_mutex);
  for (const auto& [owner, cq] : _clients) {
    std::scoped_lock queue_lock(cq->mutex);
    os << "client " << owner << ": " << cq->queue.size() << " queued run(s)";
    if (!cq->queue.empty()) {
      // Front = the run in flight.  num_active() is an atomic snapshot, so
      // this stays race-free while the graph executes (unlike a recursive
      // graph-size walk, which would chase subflow pointers mid-spawn).
      const auto& front = cq->queue.front();
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
  if (auto wheel = _backend->timer_wheel_if_created()) {
    m.pending_timers = wheel->num_pending();
  }
  m.admission_active = _admission_active;
  m.admitted = _adm_admitted.load(std::memory_order_relaxed);
  m.rejected = _adm_rejected.load(std::memory_order_relaxed);
  m.shed = _adm_shed.load(std::memory_order_relaxed);
  m.breaker_trips = _adm_breaker_trips.load(std::memory_order_relaxed);
  m.adm_pending_limit = _options.max_pending_topologies;
  m.adm_started_limit = _options.max_concurrent_topologies;
  m.shutdown = _shutdown.load(std::memory_order_relaxed);
  if (_admission_active) {
    std::scoped_lock adm(_adm_mutex);
    m.adm_pending = _adm_pending;
    m.adm_started = _adm_started;
    for (const auto& ring : _adm_ready) m.adm_waiting_clients += ring.size();
    for (const auto& [owner, ac] : _adm_clients) {
      if (ac.breaker != AdmissionClient::Breaker::closed) ++m.breakers_open;
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

#include "taskflow/executor.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>

#include "taskflow/flow_builder.hpp"
#include "taskflow/topology.hpp"

namespace tf {

namespace {
// Identifies the worker context of the current thread, so schedule() can use
// the worker-local cache / local queue fast paths (Algorithm 1).
struct TlsWorker {
  void* executor{nullptr};
  void* worker{nullptr};
};
thread_local TlsWorker tls_worker;

// Error state of the topology whose task the current thread is executing;
// backs tf::this_task::is_cancelled().  Scoped strictly to the invocation of
// user work inside run_task.
thread_local detail::ErrorState* tls_error_state = nullptr;

struct TlsErrorGuard {
  explicit TlsErrorGuard(detail::ErrorState* s) noexcept { tls_error_state = s; }
  ~TlsErrorGuard() { tls_error_state = nullptr; }
  TlsErrorGuard(const TlsErrorGuard&) = delete;
  TlsErrorGuard& operator=(const TlsErrorGuard&) = delete;
};

// One CPU relax hint (dense spin loops); falls back to a compiler barrier.
inline void spin_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

// Exponential backoff with jitter for attempt `failed` (1-based count of
// failures so far): delay = backoff * multiplier^(failed-1), capped at
// max_backoff, then jittered down by a uniform fraction of `jitter`.
std::chrono::nanoseconds retry_delay(const RetryPolicy& policy, int failed) noexcept {
  if (policy.backoff.count() <= 0) return std::chrono::nanoseconds{0};
  double d = static_cast<double>(policy.backoff.count());
  for (int i = 1; i < failed; ++i) {
    d *= policy.multiplier;
    if (d >= static_cast<double>(policy.max_backoff.count())) break;
  }
  d = std::min(d, static_cast<double>(policy.max_backoff.count()));
  if (policy.jitter > 0.0) {
    // Per-thread stream: retries are rare, seeding quality is irrelevant,
    // decorrelation across workers is what matters.
    thread_local support::Xoshiro256 rng(
        0xda3e39cb94b95bdbULL ^
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    d *= 1.0 - policy.jitter * rng.uniform();
  }
  return std::chrono::nanoseconds(static_cast<std::int64_t>(d));
}
}  // namespace

// ---------------------------------------------------------------------------
// ExecutorInterface: shared invocation + finalization logic
// ---------------------------------------------------------------------------

void ExecutorInterface::run_task(std::size_t worker_id, Node* node) {
  ExecutorObserverInterface* obs = _observer_raw.load(std::memory_order_acquire);
  detail::ErrorState* err = node->_topology->error_state();

  // Watchdog progress probes: stamp the task into this worker's slot for the
  // duration of the invocation.  One acquire load when disabled (the common
  // case); two relaxed stores + a clock read per task when a watchdog asked
  // for them.  The guard clears the slot on every exit path (normal, joined-
  // subflow defer, and retry re-enqueue).
  WorkerProbe* probes = _probes_raw.load(std::memory_order_acquire);
  struct ProbeGuard {
    WorkerProbe* slot{nullptr};
    ~ProbeGuard() {
      if (slot != nullptr) {
        slot->current.store(nullptr, std::memory_order_relaxed);
        slot->completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } probe_guard;
  if (probes != nullptr) {
    probes[worker_id].since_ns.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_relaxed);
    probes[worker_id].current.store(node, std::memory_order_relaxed);
    probe_guard.slot = &probes[worker_id];
  }

  // A draining topology (a task threw, cancel() was called, or the run's
  // deadline expired) skips the user work of every remaining node but still
  // runs the finalize bookkeeping below: join counters, joined-subflow
  // parents, and the live-task count all reach their terminal state, so the
  // topology terminates cleanly instead of leaking stuck nodes.  A skipped
  // condition selects no branch, so in-graph loops break between iterations.
  // Skipped tasks are not reported to the observer (they never executed).
  int selected = -1;  // branch a condition task chose; -1 = none
  if (!err->draining()) {
    TlsErrorGuard guard(err);  // visibility for tf::this_task::is_cancelled
    try {
      if (std::holds_alternative<StaticWork>(node->_work)) {
        if (obs) obs->on_entry(worker_id, *node);
        std::get<StaticWork>(node->_work)();
        if (obs) obs->on_exit(worker_id, *node);
      } else if (auto* cond = std::get_if<ConditionWork>(&node->_work)) {
        if (obs) obs->on_entry(worker_id, *node);
        const int branch = cond->fn();
        // An out-of-range branch is a captured error (same path as a throw:
        // retry/fallback compose, then first-writer capture + drain), never
        // a silent no-op - a typo'd index must not end a loop cleanly.
        if (branch < 0 || branch >= static_cast<int>(node->num_successors())) {
          throw std::out_of_range(
              "condition task" +
              (node->name().empty() ? std::string{} : " \"" + node->name() + "\"") +
              " returned branch " + std::to_string(branch) + " but has " +
              std::to_string(node->num_successors()) + " successor(s)");
        }
        cond->last_branch.store(branch, std::memory_order_relaxed);
        selected = branch;
        if (obs) obs->on_exit(worker_id, *node);
      } else if (std::holds_alternative<DynamicWork>(node->_work) && !node->_spawned) {
        node->_spawned = true;
        // Recycle a previous run's (or attempt's) subgraph in place: the
        // nodes are destroyed but the arena slabs stay, so run_n replays,
        // retries, and in-graph loop laps of a dynamic task rebuild their
        // subflow with no heap traffic.
        if (node->_subgraph != nullptr) {
          node->_subgraph->recycle();
        } else {
          node->_subgraph = std::make_unique<Graph>();
        }
        SubflowBuilder builder(*node->_subgraph, num_workers());

        if (obs) obs->on_entry(worker_id, *node);
        std::get<DynamicWork>(node->_work)(builder);
        if (obs) obs->on_exit(worker_id, *node);

        if (dispatch_subgraph(node, builder.detached())) {
          return;  // joined: finalization deferred to the last child
        }
      } else if (std::holds_alternative<ModuleWork>(node->_work) && !node->_spawned) {
        node->_spawned = true;
        // Runtime recursion backstop: count module ancestors through the
        // joined-subflow parent chain (each expansion level contributes
        // exactly one).  composed_of catches statically visible cycles at
        // build time; this catches the rest - the throw lands in the catch
        // below and drains through the normal capture path instead of
        // overflowing the worker stack.
        std::size_t module_depth = 0;
        for (const Node* p = node->_parent; p != nullptr; p = p->_parent) {
          if (p->is_module()) ++module_depth;
        }
        if (module_depth >= detail::kMaxModuleDepth) {
          const std::string& name = node->name();
          throw CompositionError(
              "module task " + (name.empty() ? std::string("<unnamed>") : name) +
              " exceeded the module expansion depth cap (" +
              std::to_string(detail::kMaxModuleDepth) +
              " nested modules): recursive composition assembled at runtime");
        }
        // Module expansion: instantiate a private copy of the composed
        // Taskflow's graph into this node's subgraph (recycled in place,
        // like a dynamic respawn) and run it as a joined subflow.  Copying
        // is what lets one target run inside several parents concurrently.
        if (node->_subgraph != nullptr) {
          node->_subgraph->recycle();
        } else {
          node->_subgraph = std::make_unique<Graph>();
        }
        if (obs) obs->on_entry(worker_id, *node);
        detail::instantiate(*std::get<ModuleWork>(node->_work).target,
                            *node->_subgraph);
        if (obs) obs->on_exit(worker_id, *node);

        if (dispatch_subgraph(node, /*detached=*/false)) {
          return;  // finalization deferred to the last child
        }
      }
      // Placeholder (monostate) nodes fall through: they only synchronize.
    } catch (...) {
      // Failure path - the only place resilience policies are consulted, so
      // the zero-policy success path stays branch- and allocation-neutral.
      std::exception_ptr eptr = std::current_exception();
      detail::ResiliencePolicy* pol = node->_policy.get();
      if (pol != nullptr && !err->draining()) {
        const int failed = pol->failed_attempts.load(std::memory_order_relaxed) + 1;
        pol->failed_attempts.store(failed, std::memory_order_relaxed);
        bool retryable = failed < pol->retry.max_attempts;
        if (retryable && pol->retry.retry_if) {
          try {
            retryable = pol->retry.retry_if(eptr);
          } catch (...) {
            retryable = false;  // a throwing filter surfaces the original error
          }
        }
        if (retryable) {
          // A retried dynamic node respawns a fresh subflow on the next
          // attempt; the partially built one was never made live (children
          // attach only after every throwing point above), so nothing of it
          // was scheduled - its storage is recycled in place at respawn.
          node->_spawned = false;
          if (obs) obs->on_task_retry(worker_id, *node, failed);
          const auto delay = retry_delay(pol->retry, failed);
          if (delay.count() <= 0) {
            schedule(node);
          } else {
            // Park the node on the timer wheel: no worker blocks while the
            // backoff elapses, and the wheel re-enqueues through the normal
            // external-submission path.
            timer_wheel()->schedule_after(delay, [this, node] { schedule(node); });
          }
          return;  // NOT finalized: the node is still a live task of its run
        }
        if (pol->fallback) {
          // Retry budget exhausted (or no retries): degrade instead of
          // failing the topology.  A throwing fallback surfaces *its*
          // exception - it is the later, more specific failure.
          if (obs) obs->on_task_fallback(worker_id, *node);
          try {
            pol->fallback();
            eptr = nullptr;
          } catch (...) {
            eptr = std::current_exception();
          }
        }
      }
      // First exception wins (atomic first-writer); the topology flips into
      // draining mode so remaining tasks skip their work.  A partially
      // built subflow is simply abandoned here: its children are made live
      // (add_active) only after every throwing point above, so nothing
      // leaks and nothing was scheduled.
      if (eptr) err->capture(std::move(eptr));
    }
  }

  // Collect every successor made ready by this completion (including those
  // released by finalizing joined-subflow parents) and publish them as one
  // batch: one fence and one wake pass instead of one per successor.
  detail::ReadyBatch ready;
  finalize(node, ready, selected);
  if (!ready.empty()) schedule_batch(ready.data(), ready.size());
}

bool ExecutorInterface::dispatch_subgraph(Node* node, bool detached) {
  Graph& sub = *node->_subgraph;
  if (sub.empty()) return false;
  // A subflow that could never complete (a pure-static cycle, or no source
  // task at all) must surface a descriptive error through the topology
  // instead of hanging wait_for_all; condition-guarded cycles pass.
  if (std::string cycle = detail::describe_cycle(sub); !cycle.empty()) {
    throw CycleError(node->name().empty()
                         ? "spawned subflow: " + cycle
                         : "subflow of \"" + node->name() + "\": " + cycle);
  }
  node->_detached = detached;
  sub.finalize_edges();  // pack spilled successor arrays (CSR step)
  // Reused per-thread scratch: the sources are consumed by schedule_batch
  // below (which only enqueues, never runs tasks inline) and workers process
  // one task at a time, so reuse across invocations - and thus across run_n
  // subflow respawns - is safe and keeps replays allocation-free.
  static thread_local std::vector<Node*> sources;
  sources.clear();
  for (auto& child : sub) {
    child._topology = node->_topology;
    child._join_counter.store(child.num_strong_dependents(),
                              std::memory_order_relaxed);
    if (!detached) child._parent = node;
    if (child._static_dependents == 0) sources.push_back(&child);
  }
  // Scheduled-count accounting: only the child *sources* are scheduled here;
  // every further child execution is netted in by its scheduler's finalize.
  // The count is added before any child can possibly run, so the topology
  // cannot complete early.
  node->_topology->add_active(static_cast<long>(sources.size()));

  if (!detached) {
    // Joined subflow: defer this node's finalization until every child
    // execution has finished.  The node's join counter doubles as the count
    // of scheduled-but-unfinished child executions (same netting as the
    // topology counter); the child that brings it to zero finalizes us.
    node->_join_counter.store(static_cast<int>(sources.size()),
                              std::memory_order_release);
    schedule_batch(sources);
    return true;
  }
  schedule_batch(sources);
  return false;
}

void ExecutorInterface::finalize(Node* node, detail::ReadyBatch& ready,
                                 int selected) {
  // Restore this node's join counter for in-graph loop re-entry (a condition
  // downstream may select this node again) *before* releasing successors: a
  // released successor chain could loop back and start decrementing it
  // concurrently.  For acyclic graphs the restored value is simply re-armed
  // state for the next run_n repeat.
  const int strong = node->num_strong_dependents();
  if (strong > 0) {
    node->_join_counter.store(strong, std::memory_order_relaxed);
  }
  // A re-selected dynamic/module node re-expands on the next lap (its
  // subgraph slabs are recycled in place - no per-iteration allocation).
  if (node->_spawned) node->_spawned = false;

  // Release successors.  A condition schedules exactly its selected branch,
  // overriding the successor's join (weak-edge semantics); everything else
  // joins: the successor arrays were packed contiguously at arm()/spawn
  // time, so this walk is linear.
  long scheduled = 0;
  if (node->is_condition()) {
    if (selected >= 0 && selected < static_cast<int>(node->num_successors())) {
      Node* branch = node->successor_data()[selected];
      branch->_join_counter.store(0, std::memory_order_relaxed);
      ready.push(branch);
      scheduled = 1;
    }
  } else {
    for (Node* succ : node->successors()) {
      if (succ->_join_counter.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ready.push(succ);
        ++scheduled;
      }
    }
  }

  // Scheduled-count netting: this execution retires (-1) and `scheduled`
  // further executions begin.  A task that released exactly one successor -
  // the linear-chain hot path - nets to zero and skips the shared atomics
  // entirely.
  const long delta = scheduled - 1;
  Node* parent = node->_parent;
  Topology* topology = node->_topology;
  assert(topology != nullptr);

  // Joined-subflow bookkeeping: the parent's join counter tracks scheduled-
  // but-unfinished child executions; the child that nets it to zero
  // finalizes the parent (which releases the parent's successors), recursing
  // upward through nested subflows.
  if (parent != nullptr && delta != 0 &&
      parent->_join_counter.fetch_add(static_cast<int>(delta),
                                      std::memory_order_acq_rel) +
              static_cast<int>(delta) ==
          0) {
    finalize(parent, ready, -1);
  }
  if (delta != 0) topology->retire_delta(delta);
}

const std::shared_ptr<detail::TimerWheel>& ExecutorInterface::timer_wheel() {
  // Double-checked lazy creation: the service thread only exists once some
  // resilience feature (retry backoff, deadline, cancel_after) is used.
  if (_timer_wheel_raw.load(std::memory_order_acquire) == nullptr) {
    std::scoped_lock lock(_resilience_mutex);
    if (_timer_wheel == nullptr) {
      _timer_wheel = std::make_shared<detail::TimerWheel>();
      _timer_wheel_raw.store(_timer_wheel.get(), std::memory_order_release);
    }
  }
  return _timer_wheel;
}

std::shared_ptr<detail::TimerWheel> ExecutorInterface::timer_wheel_if_created()
    const {
  if (_timer_wheel_raw.load(std::memory_order_acquire) == nullptr) return nullptr;
  std::scoped_lock lock(_resilience_mutex);
  return _timer_wheel;
}

void ExecutorInterface::stop_timer_wheel() noexcept {
  std::shared_ptr<detail::TimerWheel> wheel;
  {
    std::scoped_lock lock(_resilience_mutex);
    wheel = _timer_wheel;
  }
  // stop() joins the service thread, so after this no wheel callback can be
  // re-entering schedule() on the (derived) executor being destroyed.
  if (wheel != nullptr) wheel->stop();
}

void ExecutorInterface::enable_progress_probes() {
  std::scoped_lock lock(_resilience_mutex);
  if (_probes != nullptr) return;
  _num_probes = num_workers();
  _probes = std::make_unique<WorkerProbe[]>(_num_probes);
  _probes_raw.store(_probes.get(), std::memory_order_release);
}

std::vector<ExecutorInterface::ProbeSample> ExecutorInterface::sample_probes()
    const {
  WorkerProbe* probes = _probes_raw.load(std::memory_order_acquire);
  if (probes == nullptr) return {};
  std::vector<ProbeSample> out(_num_probes);
  const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
  for (std::size_t i = 0; i < _num_probes; ++i) {
    // Read the timestamp first: if `current` is set from a concurrent task
    // start in between, the pairing is off by one task but the age can only
    // be *under*-reported - a stall is never invented.
    const std::int64_t since = probes[i].since_ns.load(std::memory_order_relaxed);
    const Node* node = probes[i].current.load(std::memory_order_relaxed);
    out[i].node = node;
    out[i].busy_for =
        node == nullptr ? std::chrono::nanoseconds{0}
                        : std::chrono::nanoseconds(std::max<std::int64_t>(0, now - since));
    out[i].completed = probes[i].completed.load(std::memory_order_relaxed);
  }
  return out;
}

namespace this_task {

bool is_cancelled() noexcept {
  return tls_error_state != nullptr && tls_error_state->draining();
}

std::optional<std::chrono::nanoseconds> deadline() noexcept {
  if (tls_error_state == nullptr) return std::nullopt;
  const auto t = tls_error_state->deadline();
  if (!t) return std::nullopt;
  return *t - std::chrono::steady_clock::now();
}

}  // namespace this_task

// ---------------------------------------------------------------------------
// WorkStealingExecutor (paper Algorithm 1)
// ---------------------------------------------------------------------------

WorkStealingExecutor::WorkStealingExecutor(std::size_t num_workers,
                                           WorkStealingOptions options)
    : _options(options) {
  if (num_workers == 0) num_workers = 1;
  _workers.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    auto w = std::make_unique<Worker>(0x9e3779b97f4a7c15ULL ^ (i * 0xbf58476d1ce4e5b9ULL));
    w->id = i;
    // "No proven victim yet": the remembered-victim probe of steal_pass is
    // skipped while last_victim == id, so the first sweep starts unbiased
    // instead of trusting a neighbour nothing was ever stolen from.
    w->last_victim = i;
    _workers.push_back(std::move(w));
  }
  _threads.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    _threads.emplace_back([this, i] { worker_loop(*_workers[i]); });
  }
}

WorkStealingExecutor::~WorkStealingExecutor() {
  // Join the timer-wheel service thread first: its callbacks re-enter the
  // virtual schedule(), which must not race worker teardown.
  stop_timer_wheel();
  {
    std::scoped_lock lock(_mutex);
    _stop = true;
  }
  for (auto& w : _workers) w->cv.notify_all();
  for (auto& t : _threads) t.join();
}

ExecutorInterface::SchedulerStats WorkStealingExecutor::stats() const {
  // Atomics only: safe mid-run from any thread (per-worker queue sizes are
  // the WSQ's approximate atomic probe).
  SchedulerStats s;
  s.backend = "work-stealing";
  s.num_workers = _workers.size();
  s.queue_depth = _num_central.load(std::memory_order_relaxed);
  s.worker_queue_depths.reserve(_workers.size());
  for (const auto& w : _workers) {
    s.worker_queue_depths.push_back(w->queue.size());
    s.queue_depth += s.worker_queue_depths.back();
  }
  s.num_idlers =
      static_cast<std::size_t>(_num_idlers.load(std::memory_order_relaxed));
  s.steals = _steals.load(std::memory_order_relaxed);
  s.cache_hits = _cache_hits.load(std::memory_order_relaxed);
  s.parks = _parks.load(std::memory_order_relaxed);
  s.wakes = _wakes.load(std::memory_order_relaxed);
  return s;
}

bool WorkStealingExecutor::all_queues_empty() const noexcept {
  // Called under _mutex right after the central queue has been checked, so
  // only the per-worker queues remain.
  for (const auto& w : _workers) {
    if (!w->queue.empty()) return false;
  }
  return true;
}

void WorkStealingExecutor::schedule(Node* node) {
  if (tls_worker.executor == this) {
    auto* w = static_cast<Worker*>(tls_worker.worker);
    // Fast path (Algorithm 1 lines 16-25): stash into the exclusive cache so
    // the current worker continues a linear chain without touching queues.
    if (_options.enable_worker_cache && w->cache == nullptr) {
      w->cache = node;
      _cache_hits.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    w->queue.push(node);
    // Dekker-style pairing with park(): the push above must be ordered
    // before reading the idler count, and the parking worker's increment is
    // ordered before its emptiness re-check.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (_num_idlers.load(std::memory_order_relaxed) > 0) wake_one(nullptr);
    return;
  }
  // External submitter: go through the central queue (or hand the task
  // directly to a parked worker).
  wake_one(node);
}

void WorkStealingExecutor::schedule_batch(Node* const* nodes, std::size_t n) {
  if (n == 0) return;
  if (n == 1) {
    schedule(nodes[0]);
    return;
  }

  if (tls_worker.executor == this) {
    auto* w = static_cast<Worker*>(tls_worker.worker);
    std::size_t i = 0;
    // The first ready successor continues on this worker (linear-chain /
    // depth-first fast path); the rest go to the local queue in one sweep.
    if (_options.enable_worker_cache && w->cache == nullptr) {
      w->cache = nodes[0];
      _cache_hits.fetch_add(1, std::memory_order_relaxed);
      i = 1;
    }
    const std::size_t pushed = n - i;
    for (; i < n; ++i) w->queue.push(nodes[i]);
    if (pushed == 0) return;
    // One Dekker fence and one wake pass for the whole batch (the per-node
    // path pays both per successor).
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const int idlers = _num_idlers.load(std::memory_order_relaxed);
    if (idlers > 0) {
      wake_n(std::min(pushed, static_cast<std::size_t>(idlers)));
    }
    return;
  }

  // External submitter: hand tasks straight into the caches of parked
  // workers (precise wakeup) and spill the rest to the central queue, all
  // under a single mutex acquisition per chunk; notifications go out after
  // the lock is released.
  std::size_t i = 0;
  while (i < n) {
    Worker* to_wake[16];
    std::size_t k = 0;
    {
      std::scoped_lock lock(_mutex);
      while (i < n && k < 16 && !_idlers.empty()) {
        Worker* victim = _idlers.back();
        _idlers.pop_back();
        _num_idlers.fetch_sub(1, std::memory_order_relaxed);
        victim->idle = false;
        assert(victim->cache == nullptr);
        victim->cache = nodes[i++];
        to_wake[k++] = victim;
      }
      if (k < 16 || i == n) {
        // Idlers exhausted (or batch fully handed off): spill the remainder.
        for (; i < n; ++i) _central.push_back(nodes[i]);
        _num_central.store(_central.size(), std::memory_order_release);
      }
    }
    if (k > 0) _wakes.fetch_add(k, std::memory_order_relaxed);
    for (std::size_t j = 0; j < k; ++j) to_wake[j]->cv.notify_one();
    if (k < 16) break;  // remainder already spilled under the last lock
  }
}

void WorkStealingExecutor::wake_one(Node* direct) {
  Worker* victim = nullptr;
  {
    std::scoped_lock lock(_mutex);
    if (_idlers.empty()) {
      if (direct != nullptr) {
        _central.push_back(direct);
        _num_central.store(_central.size(), std::memory_order_release);
      }
      return;
    }
    victim = _idlers.back();
    _idlers.pop_back();
    _num_idlers.fetch_sub(1, std::memory_order_relaxed);
    victim->idle = false;
    if (direct != nullptr) {
      assert(victim->cache == nullptr);
      victim->cache = direct;  // precise wakeup with zero queue traffic
    }
  }
  _wakes.fetch_add(1, std::memory_order_relaxed);
  victim->cv.notify_one();
}

void WorkStealingExecutor::wake_n(std::size_t n) {
  std::size_t woken = 0;
  while (n > 0) {
    Worker* batch[16];
    std::size_t k = 0;
    const std::size_t want = std::min<std::size_t>(n, 16);
    {
      std::scoped_lock lock(_mutex);
      while (k < want && !_idlers.empty()) {
        Worker* victim = _idlers.back();
        _idlers.pop_back();
        _num_idlers.fetch_sub(1, std::memory_order_relaxed);
        victim->idle = false;
        batch[k++] = victim;
      }
    }
    for (std::size_t j = 0; j < k; ++j) batch[j]->cv.notify_one();
    woken += k;
    if (k < want) break;  // idler list exhausted
    n -= k;
  }
  if (woken > 0) _wakes.fetch_add(woken, std::memory_order_relaxed);
}

Node* WorkStealingExecutor::claim_central() {
  // The lock-free probe keeps the mutex out of the (common) empty case.
  if (_num_central.load(std::memory_order_acquire) > 0) {
    std::scoped_lock lock(_mutex);
    if (!_central.empty()) {
      Node* t = _central.front();
      _central.pop_front();
      _num_central.store(_central.size(), std::memory_order_release);
      return t;
    }
  }
  return nullptr;
}

Node* WorkStealingExecutor::steal_pass(Worker& w) {
  const std::size_t n = _workers.size();
  // Try the remembered last victim first (Algorithm 1 line 3); last_victim
  // only ever holds a *proven* victim (set on successful steals below) or
  // the worker's own id when nothing was stolen yet.
  if (w.last_victim != w.id) {
    if (auto t = _workers[w.last_victim]->queue.steal()) {
      _steals.fetch_add(1, std::memory_order_relaxed);
      return *t;
    }
  }
  // Sweep all victims from a random start.
  const std::size_t start = static_cast<std::size_t>(w.rng.below(n));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (v == w.id) continue;
    if (auto t = _workers[v]->queue.steal()) {
      w.last_victim = v;
      _steals.fetch_add(1, std::memory_order_relaxed);
      return *t;
    }
  }
  // Fall back to the central overflow queue.
  return claim_central();
}

Node* WorkStealingExecutor::try_pop_or_steal(Worker& w) {
  if (auto t = w.queue.pop()) return *t;

  for (int round = 0; round < _options.steal_rounds; ++round) {
    if (Node* t = steal_pass(w)) return t;
    std::this_thread::yield();
  }
  // Last-chance central probe: external submissions must drain even when
  // stealing is disabled (steal_rounds = 0).
  return claim_central();
}

Node* WorkStealingExecutor::spin_for_work(Worker& w) {
  // Bounded exponential backoff: ride out short work gaps (bursty graphs,
  // inter-topology gaps) without the park/wake round-trip.  The worker is
  // not registered as an idler while spinning, so producers skip the wake
  // syscall entirely and the spinner picks the task up via steal_pass.
  for (int spin = 0; spin < _options.spin_tries; ++spin) {
    const int pauses = 1 << std::min(spin, 6);
    for (int p = 0; p < pauses; ++p) spin_pause();
    // Donate the time slice once backoff saturates (essential on hosts with
    // fewer cores than workers: the producer needs CPU to publish work).
    if (spin >= 4) std::this_thread::yield();
    if (Node* t = steal_pass(w)) return t;
  }
  return nullptr;
}

bool WorkStealingExecutor::park(Worker& w, Node*& out) {
  std::unique_lock lock(_mutex);
  if (_stop) return false;

  // Two-phase commit against concurrent pushes: advertise intent, then
  // re-check all queues; a pusher either sees the advertised idler (and
  // wakes us) or we see its pushed task here.
  _num_idlers.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!_central.empty()) {
    // Claim central work directly under the park lock - the guaranteed
    // drain path for external submissions when stealing is disabled.
    out = _central.front();
    _central.pop_front();
    _num_central.store(_central.size(), std::memory_order_release);
    _num_idlers.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  if (!all_queues_empty()) {
    _num_idlers.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  w.idle = true;
  _idlers.push_back(&w);
  _parks.fetch_add(1, std::memory_order_relaxed);
  w.cv.wait(lock, [&] { return !w.idle || _stop; });

  if (w.idle) {
    // Woken by stop while still parked: deregister ourselves.
    std::erase(_idlers, &w);
    _num_idlers.fetch_sub(1, std::memory_order_relaxed);
    w.idle = false;
    return false;
  }
  return !_stop || w.cache != nullptr;
}

void WorkStealingExecutor::worker_loop(Worker& w) {
  tls_worker.executor = this;
  tls_worker.worker = &w;

  Node* task = nullptr;
  for (;;) {
    task = try_pop_or_steal(w);
    if (task == nullptr && _options.spin_tries > 0) task = spin_for_work(w);
    if (task == nullptr) {
      Node* handed = nullptr;
      if (!park(w, handed)) break;
      task = handed;
      // Algorithm 1 line 14: a precise wakeup may have deposited a task
      // directly into our cache.
      if (task == nullptr && w.cache != nullptr) {
        task = w.cache;
        w.cache = nullptr;
      }
      if (task == nullptr) continue;
    }
    // Algorithm 1 lines 16-25: execute, then keep draining the cache so a
    // linear chain runs back-to-back without any queue operation.
    while (task != nullptr) {
      run_task(w.id, task);
      if (w.cache != nullptr) {
        task = w.cache;
        w.cache = nullptr;
      } else {
        task = nullptr;
      }
    }
    // Algorithm 1 lines 26-28: occasionally wake an idler to balance load.
    if (_options.balance_wake_probability > 0.0 &&
        w.rng.uniform() < _options.balance_wake_probability &&
        _num_idlers.load(std::memory_order_relaxed) > 0) {
      wake_one(nullptr);
    }
  }

  tls_worker.executor = nullptr;
  tls_worker.worker = nullptr;
}

// ---------------------------------------------------------------------------
// SimpleExecutor
// ---------------------------------------------------------------------------

SimpleExecutor::SimpleExecutor(std::size_t num_workers) {
  if (num_workers == 0) num_workers = 1;
  _threads.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    _threads.emplace_back([this, i] { worker_loop(i); });
  }
}

SimpleExecutor::~SimpleExecutor() {
  stop_timer_wheel();  // see WorkStealingExecutor::~WorkStealingExecutor
  {
    std::scoped_lock lock(_mutex);
    _stop = true;
  }
  _cv.notify_all();
  for (auto& t : _threads) t.join();
}

void SimpleExecutor::schedule(Node* node) {
  {
    std::scoped_lock lock(_mutex);
    _queue.push_back(node);
  }
  _cv.notify_one();
}

void SimpleExecutor::schedule_batch(Node* const* nodes, std::size_t n) {
  if (n == 0) return;
  {
    std::scoped_lock lock(_mutex);
    for (std::size_t i = 0; i < n; ++i) _queue.push_back(nodes[i]);
  }
  if (n == 1) {
    _cv.notify_one();
  } else {
    _cv.notify_all();
  }
}

ExecutorInterface::SchedulerStats SimpleExecutor::stats() const {
  SchedulerStats s;
  s.backend = "simple";
  s.num_workers = _threads.size();
  {
    std::scoped_lock lock(_mutex);
    s.queue_depth = _queue.size();
  }
  return s;
}

void SimpleExecutor::worker_loop(std::size_t worker_id) {
  for (;;) {
    Node* task = nullptr;
    {
      std::unique_lock lock(_mutex);
      _cv.wait(lock, [&] { return _stop || !_queue.empty(); });
      if (_queue.empty()) return;  // stop and drained
      task = _queue.front();
      _queue.pop_front();
    }
    run_task(worker_id, task);
  }
}

std::shared_ptr<WorkStealingExecutor> make_executor(std::size_t n,
                                                    WorkStealingOptions options) {
  return std::make_shared<WorkStealingExecutor>(n, options);
}

}  // namespace tf

// admission.hpp - detail::Admission, every admission-control decision of one
// tf::Executor (DESIGN.md §11), and tf::ExecutorOptions, its configuration.
//
// Admission owns no thread, lock, clock or future.  The executor feeds it
// events under its admission lock, the time as an argument, and carries out
// the decisions.  Each run's Admission::Run record (a base of tf::Topology)
// links into the band rings and shed order, so no decision allocates once a
// run is queued.  Client records are keyed by run-queue ids, never reused.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace tf {

/// Number of RunPolicy::priority bands (0 = lowest .. kNumPriorities-1).
inline constexpr int kNumPriorities = 3;

/// Admission-control configuration of an Executor (DESIGN.md §11).  Every
/// knob defaults to off: a default-constructed ExecutorOptions reproduces the
/// paper's unbounded submission behavior exactly, and the executor then skips
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
  /// runs above it wait in their taskflows' run queues and are dispatched by
  /// deficit round-robin over clients within strict priority bands, so one
  /// hot client cannot starve the others.  0 = start at queue head
  /// immediately (the paper's behavior; fairness and priority are then inert).
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

namespace detail {

class Admission {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  enum class Verdict : unsigned char { admitted, full, breaker_open };
  enum class Breaker : unsigned char { closed, open, half_open };

  /// One client's state; a record exists only while it holds a pending run,
  /// an open or half-open breaker, or a failure count, and its client lives
  /// (a dead client's record goes at a later record creation).
  struct Client {
    std::uint64_t key{0};
    std::weak_ptr<const void> owner;  // the client; expired once it is gone
    std::size_t pending{0};  // admitted, not yet finished or shed
    std::size_t deficit{0};  // deficit-round-robin credit, in node units
    int failures{0};         // consecutive failed runs while closed
    Breaker breaker{Breaker::closed};
    TimePoint opened_at{};
    // The live half-open probe claim (0: none).  A breaker transition voids
    // it, so the finish of an older probe cannot free a newer one.
    std::uint64_t probe{0};
  };

  /// A run's record, written by Admission alone; a plain value until queued,
  /// so a submission fills one before its run exists and copies it in.
  struct Run {
    enum class State : unsigned char {
      idle,     // not admitted, withdrawn or finished
      queued,   // in its queue behind others: sheddable
      waiting,  // a head in its band's ring, awaiting a slot: sheddable
      started,  // holds a concurrency slot
      shed,     // evicted before it started
    };
    struct Links { Run* prev{nullptr}; Run* next{nullptr}; };

    Client* client{nullptr};
    std::size_t cost{1};     // deficit-round-robin cost: the graph's node count
    std::uint64_t probe{0};  // the probe claim it holds (0: none)
    int band{1};             // RunPolicy::priority, clamped
    State state{State::idle};
    Links in_ring;        // its band's ring, while waiting
    Links in_shed_order;  // its band's shed order, while sheddable
  };

  explicit Admission(const ExecutorOptions& options);
  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

  /// Any knob set?  All-defaults keeps the zero-policy path, which never
  /// calls into this module.
  [[nodiscard]] static bool enabled(const ExecutorOptions& o) noexcept {
    return o.max_pending_topologies != 0 || o.max_pending_per_client != 0 ||
           o.shed_watermark != 0 || o.max_concurrent_topologies != 0 ||
           o.breaker_threshold != 0;
  }

  /// The configuration, fairness_quantum raised to at least 1.
  [[nodiscard]] const ExecutorOptions& options() const noexcept { return _options; }

  /// A run of client `key`, alive while `owner` is, in band `priority`
  /// (clamped), costing `cost` nodes, asks to enter at `now`.  Admitted:
  /// `run` holds the pending charge and, when half-open, the probe claim.
  /// Else nothing changed.  Only an admission allocates (a new record); on
  /// bad_alloc nothing is charged.
  Verdict admit(Run& run, std::uint64_t key, const std::weak_ptr<const void>& owner,
                int priority, std::size_t cost, TimePoint now);

  /// Give back the charge of an admitted run that never entered its queue.
  void withdraw(Run& run) noexcept {
    release(run);
    --_admitted;
  }

  /// `run` became its queue's head.  True: start it now (no concurrency
  /// cap, or a slot is free and no other head waits).  False: it waits in
  /// its band's ring, or was shed meanwhile.
  bool head(Run& run) noexcept;

  /// `run` was just queued (and went through head() if it is the head): the
  /// newest shed candidate of its band.  Above the watermark, returns the
  /// shed run: lowest band, newest first.  One admission raises pending by
  /// one, so one victim restores "pending <= watermark or none sheddable".
  Run* shed(Run& run) noexcept;

  /// Started `run` finished at `now` (`failed`: with a stored exception);
  /// `next`, when not nullptr, became its queue's head by it.  Returns the
  /// run to start in the freed slot, or nullptr.
  Run* finish(Run& run, bool failed, TimePoint now, Run* next) noexcept;

  // Gauges, read under the same lock as the events.
  [[nodiscard]] std::size_t pending() const noexcept { return _pending; }
  [[nodiscard]] std::size_t started() const noexcept { return _started; }
  [[nodiscard]] std::size_t waiting() const noexcept {  // ringed heads
    std::size_t n = 0;
    for (const auto& ring : _rings) n += ring.size;
    return n;
  }
  [[nodiscard]] std::size_t admitted() const noexcept { return _admitted; }
  [[nodiscard]] std::size_t trips() const noexcept { return _trips; }
  [[nodiscard]] const auto& clients() const noexcept { return _clients; }
  /// The oldest head waiting in `band`'s ring (then along in_ring.next).
  [[nodiscard]] const Run* ring(int band) const noexcept { return _rings[band].head; }

 private:
  // An intrusive FIFO of runs through one of their link pairs.
  template <Run::Links Run::*L>
  struct List {
    Run* head{nullptr};
    Run* tail{nullptr};
    std::size_t size{0};

    void push_back(Run& run) noexcept {
      (run.*L) = {tail, nullptr};
      (tail != nullptr ? (tail->*L).next : head) = &run;
      tail = &run;
      ++size;
    }
    void erase(Run& run) noexcept {
      Run::Links& links = run.*L;
      (links.prev != nullptr ? (links.prev->*L).next : head) = links.next;
      (links.next != nullptr ? (links.next->*L).prev : tail) = links.prev;
      links = {};
      --size;
    }
  };

  void start(Run& run) noexcept;
  Run* dispatch() noexcept;
  void release(Run& run) noexcept;

  ExecutorOptions _options;
  std::unordered_map<std::uint64_t, Client> _clients;
  std::size_t _kept{0};      // records left by the last sweep of dead clients
  std::size_t _pending{0};   // admitted, not finished or shed
  std::size_t _started{0};   // holding a concurrency slot
  std::size_t _admitted{0};  // lifetime admissions, net of withdrawals
  std::size_t _trips{0};     // lifetime breaker trips
  std::uint64_t _claims{0};  // probe claims made so far
  List<&Run::in_ring> _rings[kNumPriorities];
  List<&Run::in_shed_order> _shed_order[kNumPriorities];  // newest last
};

}  // namespace detail
}  // namespace tf

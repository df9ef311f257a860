// server.hpp - tf::Server: the end-to-end serving layer over the taskflow
// admission/resilience primitives (DESIGN.md §13).
//
// A Server owns one tf::Executor configured with admission control and
// accepts requests from N in-process client threads.  Each client thread
// calls Server::connect() once and submits through its ServerClient, which
// owns a small window of *slots*; each slot is a reusable composed /
// conditional pipeline taskflow:
//
//     ingest ──> validate ──0──> [process module: handle(retry+fallback)]
//                    │                        │
//                    1──> degrade (respond)   └──> respond
//
// `validate` is a condition task (malformed requests branch straight to the
// degraded response); `process` is a module task composed of the slot's
// handler taskflow (retry + fallback-to-degraded attach to the handler, so a
// chaos exception that exhausts its retries still produces a degraded
// response instead of a failure).  Each submission runs under a RunPolicy
// carrying the server's deadline and the request's priority band, so the
// executor's backpressure / shedding / fairness / breaker machinery applies
// per request.
//
// Outcome accounting (the zero-lost-responses contract): every submit()
// tallies exactly one Outcome through the server's MetricsRegistry - door
// rejections immediately, everything else when the slot's handle is
// harvested (on window reuse, drain(), or after shutdown()).  The soak test
// asserts the counter identities at quiescence.
//
// Chaos mode (ChaosOptions) deterministically injects malformed requests,
// stage exceptions, and stage stalls from a per-slot seeded stream; slow
// clients are the storm driver's half (it simply sleeps between submits).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/metrics.hpp"
#include "support/rng.hpp"
#include "taskflow/taskflow.hpp"

namespace tf {

/// Deterministic fault injection of the request pipeline.  Rates are
/// probabilities in [0, 1], drawn per request from a seeded per-slot stream
/// (reproducible storms; REPRO_FAULT_SEED-style).
struct ChaosOptions {
  bool enabled{false};
  /// P(request is malformed): the validate condition branches straight to
  /// the degraded response.
  double malformed_rate{0.0};
  /// P(one handler attempt throws).  Independent per attempt, so retries
  /// usually recover and only unlucky streaks fall to the fallback.
  double exception_rate{0.0};
  /// P(the handler stalls for `stall` before finishing).
  double stall_rate{0.0};
  std::chrono::microseconds stall{200};
  std::uint64_t seed{0x5eed5eed};
};

/// Server configuration: executor shape + per-request policy + chaos.
struct ServerOptions {
  std::size_t num_workers{2};
  /// Admission-control knobs of the owned executor (bounds, watermark,
  /// fairness, breaker).  All-default = unbounded admission.
  ExecutorOptions executor{};
  /// RunPolicy::timeout of every request; 0 = no deadline.
  std::chrono::nanoseconds deadline{0};
  /// Backpressure vs fail-fast at the admission bound.
  AdmissionPolicy admission{AdmissionPolicy::block};
  /// Bound on a blocked submission's wait; 0 = wait indefinitely.
  std::chrono::nanoseconds admission_timeout{0};
  /// Handler retry budget (total attempts) and backoff before a retry.
  int max_attempts{2};
  std::chrono::nanoseconds retry_backoff{std::chrono::microseconds(50)};
  /// In-flight requests each client pipelines before submit() harvests the
  /// oldest (also the number of pipeline slots built per client).
  std::size_t client_window{4};
  ChaosOptions chaos{};
};

/// One request.  `priority` maps to the RunPolicy band (0 = low .. 2 =
/// high); `work` is the simulated handler cost.
struct Request {
  std::uint64_t id{0};
  int priority{1};
  std::chrono::microseconds work{20};
};

/// One accounted response.  `latency` is admission→response for completed
/// (ok/degraded) requests, zero otherwise.
struct Response {
  std::uint64_t id{0};
  Outcome outcome{Outcome::ok};
  std::chrono::nanoseconds latency{0};
};

class Server;

/// Per-client-thread submission endpoint (not thread-safe: one ServerClient
/// per client thread, the server side is).  Owns `client_window` pipeline
/// slots; every submit() eventually yields exactly one Response, delivered
/// to the optional sink and tallied in the server's MetricsRegistry.
class ServerClient {
 public:
  /// Submit one request.  May block on window harvest and (AdmissionPolicy::
  /// block) admission backpressure.  When the window is full the oldest
  /// slot's Response is harvested first (delivered through the sink, if
  /// set); door rejections are delivered inline.
  void submit(const Request& request);

  /// Harvest every outstanding slot (blocks until their handles are ready).
  void drain();

  /// Submit-and-wait convenience: the window is bypassed (the request's own
  /// handle is harvested immediately).
  Response call(const Request& request);

  /// Per-response hook (latency collection, per-client tallies); called on
  /// this client's thread during submit()/drain().
  void set_response_sink(std::function<void(const Response&)> sink) {
    _sink = std::move(sink);
  }

  [[nodiscard]] std::uint64_t submitted() const noexcept { return _submitted; }
  [[nodiscard]] std::uint64_t count(Outcome o) const noexcept {
    return _counts[static_cast<std::size_t>(o)];
  }

 private:
  friend class Server;

  /// One reusable pipeline instance.  Reused only after harvest, so the
  /// non-atomic per-request fields are never touched while in flight.
  struct Slot {
    Taskflow handler;   // the composed "process" module target
    Taskflow pipeline;  // ingest -> validate -> process/degrade -> respond
    ExecutionHandle handle;
    bool inflight{false};

    std::uint64_t id{0};
    std::chrono::microseconds work{0};
    std::chrono::steady_clock::time_point admitted_at{};
    std::chrono::steady_clock::time_point completed_at{};
    bool malformed{false};         // chaos draw: validate branches to degrade
    int throwing_attempts{0};      // chaos draw: handler attempts that throw
    bool stalling{false};          // chaos draw: handler stalls once
    std::chrono::microseconds _chaos_stall{0};  // stall duration when stalling
    std::atomic<int> attempt{0};   // handler attempt counter (worker-side)
    std::atomic<bool> degraded{false};
    std::atomic<bool> responded{false};  // respond/degrade stage ran
  };

  ServerClient(Server& server, std::uint64_t chaos_seed);
  void build_slot(Slot& slot);
  void harvest(Slot& slot);
  void deliver(const Response& r);
  [[nodiscard]] Response classify(Slot& slot);

  Server* _server;
  std::vector<std::unique_ptr<Slot>> _slots;
  std::uint64_t _seq{0};  // submissions started (slot = _seq % window)
  std::uint64_t _submitted{0};
  std::array<std::uint64_t, kNumOutcomes> _counts{};
  std::function<void(const Response&)> _sink;
  Response _last{};  // most recently delivered response (for call())
  support::Xoshiro256 _chaos_rng;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  /// Drains via shutdown(ShutdownMode::drain).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register a client endpoint (thread-safe; typically once per client
  /// thread).  The returned reference lives as long as the server.
  ServerClient& connect();

  /// Stop accepting (subsequent submits tally Outcome::shutdown_rejected
  /// without touching the executor) and shut the executor down.  drain lets
  /// queued and running requests finish; abort cancels them (their
  /// responses harvest as cancelled).  On return every in-flight handle is
  /// ready - clients still call drain() to harvest and account them.
  void shutdown(ShutdownMode mode = ShutdownMode::drain);

  [[nodiscard]] bool is_shutdown() const noexcept {
    return _executor.is_shutdown();
  }

  /// Counter + percentile + executor-state snapshot (DESIGN.md §13).
  [[nodiscard]] MetricsSnapshot metrics() const {
    return _registry.snapshot(_executor);
  }

  /// The /healthz probe body: "status ok|overloaded|draining" plus the
  /// snapshot rendered one key per line.
  [[nodiscard]] std::string healthz() const;

  /// Human-readable state dump: healthz + the executor's dump_state.
  void dump_state(std::ostream& os) const;

  [[nodiscard]] Executor& executor() noexcept { return _executor; }
  [[nodiscard]] const ServerOptions& options() const noexcept { return _options; }
  [[nodiscard]] MetricsRegistry& registry() noexcept { return _registry; }

 private:
  friend class ServerClient;

  ServerOptions _options;
  Executor _executor;
  MetricsRegistry _registry;

  std::mutex _connect_mutex;  // guards _clients
  std::deque<std::unique_ptr<ServerClient>> _clients;
};

}  // namespace tf

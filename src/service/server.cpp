#include "service/server.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace tf {

namespace {

/// Injected handler failure (chaos mode).  A plain runtime_error subtype so
/// the retry/fallback machinery treats it like any user exception.
struct ChaosError : std::runtime_error {
  ChaosError() : std::runtime_error("chaos: injected handler exception") {}
};

/// Simulated handler cost: busy-spin (the work is CPU-bound by contract);
/// cancel-aware so deadline-cancelled and abort-shutdown runs drain
/// promptly, and long waits yield so an oversubscribed host keeps moving.
void busy_spin(std::chrono::microseconds us) {
  if (us.count() <= 0) return;
  const auto end = std::chrono::steady_clock::now() + us;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= end || tf::this_task::is_cancelled()) return;
    if (end - now > std::chrono::microseconds(500)) std::this_thread::yield();
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerClient
// ---------------------------------------------------------------------------

ServerClient::ServerClient(Server& server, std::uint64_t chaos_seed)
    : _server(&server), _chaos_rng(chaos_seed) {
  const std::size_t window =
      std::max<std::size_t>(1, server._options.client_window);
  _slots.reserve(window);
  for (std::size_t i = 0; i < window; ++i) {
    _slots.push_back(std::make_unique<Slot>());
    build_slot(*_slots.back());
  }
}

void ServerClient::build_slot(Slot& slot) {
  Slot* s = &slot;
  const ServerOptions& opts = _server->_options;

  // The handler module target: one task carrying the simulated work plus
  // the chaos injection points.  Retry + fallback attach HERE - the policy
  // is deep-copied by module instantiation, so a chaos exception that
  // exhausts its retries degrades the response instead of failing the run.
  Task handle = slot.handler.emplace([s] {
    const int attempt = s->attempt.fetch_add(1, std::memory_order_relaxed);
    if (attempt < s->throwing_attempts) throw ChaosError{};
    if (s->stalling) busy_spin(s->_chaos_stall);
    busy_spin(s->work);
  });
  handle.name("handle");
  RetryPolicy retry;
  retry.max_attempts = std::max(1, opts.max_attempts);
  retry.backoff = opts.retry_backoff;
  handle.retry(retry);
  handle.fallback([s] { s->degraded.store(true, std::memory_order_relaxed); });

  // The request pipeline: ingest -> validate (condition) -> process (module)
  // -> respond, with the malformed branch short-circuiting to a degraded
  // response.  Forward-built, so dispatch takes the O(V) fast accept.
  Task ingest = slot.pipeline.emplace([] {});
  ingest.name("ingest");
  Task validate = slot.pipeline.emplace(
      [s]() -> int { return s->malformed ? 1 : 0; });
  validate.name("validate");
  Task process = slot.pipeline.composed_of(slot.handler);
  process.name("process");
  Task respond = slot.pipeline.emplace([s] {
    s->completed_at = std::chrono::steady_clock::now();
    s->responded.store(true, std::memory_order_relaxed);
  });
  respond.name("respond");
  Task degrade = slot.pipeline.emplace([s] {
    s->degraded.store(true, std::memory_order_relaxed);
    s->completed_at = std::chrono::steady_clock::now();
    s->responded.store(true, std::memory_order_relaxed);
  });
  degrade.name("degrade");

  ingest.precede(validate);
  validate.precede(process);  // branch 0: valid request
  validate.precede(degrade);  // branch 1: malformed -> degraded response
  process.precede(respond);
}

void ServerClient::submit(const Request& request) {
  Slot& slot = *_slots[_seq % _slots.size()];
  if (slot.inflight) harvest(slot);  // window full: harvest the oldest

  const ServerOptions& opts = _server->_options;
  slot.id = request.id;
  slot.work = request.work;
  slot.attempt.store(0, std::memory_order_relaxed);
  slot.degraded.store(false, std::memory_order_relaxed);
  slot.responded.store(false, std::memory_order_relaxed);
  slot.malformed = false;
  slot.throwing_attempts = 0;
  slot.stalling = false;
  if (opts.chaos.enabled) {
    slot.malformed = _chaos_rng.uniform() < opts.chaos.malformed_rate;
    // Geometric draw: each attempt fails independently, so retries usually
    // absorb the fault and only streaks reach the fallback.
    while (slot.throwing_attempts < opts.max_attempts &&
           _chaos_rng.uniform() < opts.chaos.exception_rate) {
      ++slot.throwing_attempts;
    }
    slot.stalling = _chaos_rng.uniform() < opts.chaos.stall_rate;
    slot._chaos_stall = opts.chaos.stall;
  }

  ++_seq;
  ++_submitted;
  _server->_registry.record_submitted();

  RunPolicy policy;
  policy.timeout = opts.deadline;
  policy.admission = opts.admission;
  policy.admission_timeout = opts.admission_timeout;
  policy.priority = request.priority;
  try {
    slot.admitted_at = std::chrono::steady_clock::now();
    slot.handle = _server->_executor.run(slot.pipeline, policy);
    slot.inflight = true;
  } catch (const ShutdownError&) {
    deliver(Response{slot.id, Outcome::shutdown_rejected, {}});
  } catch (const OverloadError&) {
    // Door rejection: at-capacity reject, bounded backpressure wait that
    // expired, or an open breaker (BreakerOpenError IS-A OverloadError).
    deliver(Response{slot.id, Outcome::rejected, {}});
  }
}

void ServerClient::drain() {
  for (auto& slot : _slots) {
    if (slot->inflight) harvest(*slot);
  }
}

Response ServerClient::call(const Request& request) {
  const std::size_t idx = _seq % _slots.size();
  submit(request);
  Slot& slot = *_slots[idx];
  if (slot.inflight) harvest(slot);
  return _last;
}

void ServerClient::harvest(Slot& slot) {
  slot.inflight = false;
  deliver(classify(slot));
}

Response ServerClient::classify(Slot& slot) {
  Response r;
  r.id = slot.id;
  try {
    slot.handle.get();  // synchronizes with the pipeline's final task
    if (slot.responded.load(std::memory_order_relaxed)) {
      r.outcome = slot.degraded.load(std::memory_order_relaxed)
                      ? Outcome::degraded
                      : Outcome::ok;
      r.latency = slot.completed_at - slot.admitted_at;
      if (r.latency.count() < 0) r.latency = {};
    } else {
      // Drained without reaching a respond stage: cancelled (shutdown(abort)
      // or an explicit handle cancel).
      r.outcome = Outcome::cancelled;
    }
  } catch (const TimeoutError&) {
    r.outcome = Outcome::timed_out;
  } catch (const OverloadError&) {
    r.outcome = Outcome::shed;  // admitted, evicted above the watermark
  } catch (...) {
    r.outcome = Outcome::failed;  // unabsorbed pipeline exception
  }
  return r;
}

void ServerClient::deliver(const Response& r) {
  ++_counts[static_cast<std::size_t>(r.outcome)];
  _server->_registry.record_outcome(r.outcome, r.latency);
  _last = r;
  if (_sink) _sink(r);
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(ServerOptions options)
    : _options(std::move(options)),
      _executor(std::max<std::size_t>(1, _options.num_workers),
                _options.executor) {}

Server::~Server() {
  // Drain BEFORE members die: clients own the pipeline graphs, and queued
  // topologies reference them until the executor finishes.
  shutdown(ShutdownMode::drain);
}

ServerClient& Server::connect() {
  std::scoped_lock lock(_clients_mutex);
  // Decorrelate per-client chaos streams from one configured seed.
  const std::uint64_t seed =
      _options.chaos.seed ^
      (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(_clients.size() + 1));
  _clients.push_back(
      std::unique_ptr<ServerClient>(new ServerClient(*this, seed)));
  return *_clients.back();
}

void Server::shutdown(ShutdownMode mode) { _executor.shutdown(mode); }

std::string Server::healthz() const {
  const MetricsSnapshot s = metrics();
  const char* status = "ok";
  if (s.executor.shutdown) {
    status = "draining";
  } else if (s.executor.breakers_open > 0 ||
             (s.executor.adm_pending_limit != 0 &&
              s.executor.adm_pending >= s.executor.adm_pending_limit)) {
    status = "overloaded";
  }
  std::ostringstream os;
  render_healthz(os, status, s);
  return os.str();
}

void Server::dump_state(std::ostream& os) const {
  os << healthz() << "--- executor ---\n";
  _executor.dump_state(os);
}

}  // namespace tf

#include "taskflow/admission.hpp"

#include <algorithm>

namespace tf::detail {

Admission::Admission(const ExecutorOptions& options) : _options(options) {
  _options.fairness_quantum = std::max<std::size_t>(1, _options.fairness_quantum);
}

Admission::Verdict Admission::admit(Run& run, std::uint64_t key,
                                    const std::weak_ptr<const void>& owner, int priority,
                                    std::size_t cost, TimePoint now) {
  // A refused submission leaves no record: create one only on admission.
  const auto found = _clients.find(key);
  const Client fresh{};
  const Client& client = found != _clients.end() ? found->second : fresh;
  if (_options.breaker_threshold > 0) {
    // Fail fast while open-and-cooling or while the half-open probe is out;
    // an elapsed cooldown falls through and claims the probe below.
    if (client.breaker == Breaker::open && now < client.opened_at + _options.breaker_cooldown) {
      return Verdict::breaker_open;
    }
    if (client.breaker == Breaker::half_open && client.probe != 0) return Verdict::breaker_open;
  }
  if ((_options.max_pending_topologies != 0 && _pending >= _options.max_pending_topologies) ||
      (_options.max_pending_per_client != 0 && client.pending >= _options.max_pending_per_client)) {
    return Verdict::full;
  }
  const bool created = found == _clients.end();
  if (created && _clients.size() > 2 * _kept) {
    // A record can outlive its client (an open breaker, a failure count),
    // and a dead client's run-queue id never comes back: drop dead clients'
    // idle records once the map has doubled since the last sweep, an
    // amortized O(1) per new record.  A pending run pins its record.
    std::erase_if(_clients, [](const auto& entry) {
      return entry.second.pending == 0 && entry.second.owner.expired();
    });
    _kept = _clients.size();
  }
  Client& charged = _clients[key];
  charged.key = key;
  if (created) charged.owner = owner;
  run = Run{&charged, std::max<std::size_t>(1, cost), 0,
            std::clamp(priority, 0, kNumPriorities - 1), Run::State::queued, {}, {}};
  if (charged.breaker != Breaker::closed) {
    charged.breaker = Breaker::half_open;
    charged.probe = run.probe = ++_claims;
  }
  ++charged.pending;
  ++_pending;
  ++_admitted;
  return Verdict::admitted;
}

bool Admission::head(Run& run) noexcept {
  // Shed meanwhile: the shed already handed the queue to the run behind.
  if (run.state != Run::State::queued) return false;
  const std::size_t limit = _options.max_concurrent_topologies;
  if (limit == 0 || (_started < limit && waiting() == 0)) {
    start(run);
    return true;
  }
  // A contended slot goes through the DRR / priority arbiter (dispatch): a
  // direct start would let a deep-queued hot client monopolize the slot its
  // previous run just freed.
  _rings[run.band].push_back(run);
  run.state = Run::State::waiting;
  return false;
}

Admission::Run* Admission::shed(Run& run) noexcept {
  if (_options.shed_watermark == 0) return nullptr;
  if (run.state == Run::State::queued || run.state == Run::State::waiting) {
    _shed_order[run.band].push_back(run);
  }
  if (_pending <= _options.shed_watermark) return nullptr;
  for (auto& order : _shed_order) {  // lowest band first, newest first within
    if (order.tail == nullptr) continue;
    Run& victim = *order.tail;
    order.erase(victim);
    // A waiting head leaves its ring; a shed probe frees its claim, so the
    // breaker cannot wedge half-open with nothing in flight.
    if (victim.state == Run::State::waiting) _rings[victim.band].erase(victim);
    release(victim);
    victim.state = Run::State::shed;
    return &victim;
  }
  return nullptr;  // everything pending has already started
}

Admission::Run* Admission::finish(Run& run, bool failed, TimePoint now, Run* next) noexcept {
  --_started;
  Client& client = *run.client;
  if (_options.breaker_threshold > 0) {
    // Failure = the run completed with a stored exception (task error or
    // deadline).  A cancelled or fallback-degraded run completes cleanly
    // and counts as success.  Either transition voids a live probe claim.
    if (!failed) {
      client.failures = 0;
      if (client.breaker != Breaker::closed) {
        client.breaker = Breaker::closed;
        client.probe = 0;
      }
    } else if (client.breaker == Breaker::half_open ||
               (client.breaker == Breaker::closed &&
                ++client.failures >= _options.breaker_threshold)) {
      client.breaker = Breaker::open;
      client.opened_at = now;
      client.failures = 0;
      client.probe = 0;
      ++_trips;
    }
  }
  release(run);
  if (next != nullptr && head(*next)) return next;
  return dispatch();
}

void Admission::start(Run& run) noexcept {
  auto& order = _shed_order[run.band];
  if (run.in_shed_order.prev != nullptr || order.head == &run) order.erase(run);
  run.state = Run::State::started;
  ++_started;
}

Admission::Run* Admission::dispatch() noexcept {
  // One finish frees one slot, and heads wait only while every slot is
  // taken: one start refills it.  Strict priority across bands, deficit
  // round-robin across clients within one.
  if (_started >= _options.max_concurrent_topologies) return nullptr;
  for (int band = kNumPriorities - 1; band >= 0; --band) {
    auto& ring = _rings[band];
    std::size_t fruitless = 0;  // consecutive visits that dispatched nothing
    while (ring.head != nullptr) {
      Run& run = *ring.head;
      std::size_t& deficit = run.client->deficit;
      if (deficit < run.cost) {
        deficit += _options.fairness_quantum;
        if (deficit < run.cost) {
          if (++fruitless < ring.size) {
            ring.erase(run);  // rotate: cheaper heads go first
            ring.push_back(run);
            continue;
          }
          // A full fruitless lap: force progress - work conservation beats
          // idling the slot because every queued head is "too expensive".
          deficit = run.cost;
        }
      }
      deficit -= run.cost;
      ring.erase(run);
      start(run);
      return &run;
    }
  }
  return nullptr;
}

void Admission::release(Run& run) noexcept {
  // The one release step of a finished, shed or withdrawn run: its pending
  // charge, its probe claim if still live, and a record left holding
  // nothing (breaker state must survive idle periods, so it stays).
  Client& client = *run.client;
  --client.pending;
  --_pending;
  if (run.probe != 0 && run.probe == client.probe) client.probe = 0;
  run.client = nullptr;
  run.probe = 0;
  run.state = Run::State::idle;
  if (client.pending == 0 && client.breaker == Breaker::closed && client.failures == 0) {
    _clients.erase(client.key);
  }
}

}  // namespace tf::detail

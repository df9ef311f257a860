// test_admission_model - an exhaustive model test of detail::Admission, the
// executor's admission decisions as a thread-free value type (DESIGN.md §11).
//
// A single-threaded harness plays the executor: per-client FIFOs of runs, a
// fake clock, and the event calls Executor::submit, on_topology_done and
// take_head make.  Breadth first, it enumerates every order of submits (in
// every band), rolled-back submits, ok and failed finishes, breaker clock
// ticks and head hand-overs delivered late after a shed, up to a bound per
// client; it dedupes visited states and checks the admission invariants
// after every step against its own reference model.  The first violation
// fails the test with the event sequence that reached it.  No Executor,
// Taskflow or thread is constructed.
#include "taskflow/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

namespace {

using tf::detail::Admission;
using Breaker = Admission::Breaker;
using State = Admission::Run::State;
using Verdict = Admission::Verdict;

constexpr int kClients = 3;
constexpr long kCooldownTicks = 1;
// Deficit-round-robin cost of each client's runs; the quantum is 2.
constexpr std::size_t kCost[kClients] = {1, 3, 2};
constexpr std::size_t kMaxCost = 3;

struct Event {
  enum class Kind : unsigned char { submit, rollback, finish, fail, tick, deliver };
  Kind kind;
  int arg{0};   // client (submit, rollback) or run (finish, fail, deliver)
  int band{1};  // submit only
};

std::string describe(const Event& e) {
  switch (e.kind) {
    case Event::Kind::submit:
      return "submit(c" + std::to_string(e.arg) + ", band " + std::to_string(e.band) + ")";
    case Event::Kind::rollback:
      return "rolled-back submit(c" + std::to_string(e.arg) + ")";
    case Event::Kind::finish:
      return "finish(r" + std::to_string(e.arg) + ", ok)";
    case Event::Kind::fail:
      return "finish(r" + std::to_string(e.arg) + ", failed)";
    case Event::Kind::tick:
      return "tick";
    case Event::Kind::deliver:
      return "late head hand-over(r" + std::to_string(e.arg) + ")";
  }
  return "?";
}

std::string describe(const std::vector<Event>& events) {
  std::string s;
  for (const Event& e : events) s += (s.empty() ? "" : "; ") + describe(e);
  return s;
}

const char* name(Verdict v) {
  return v == Verdict::admitted ? "admitted" : v == Verdict::full ? "full" : "breaker_open";
}

// The harness: the executor's side of every event, a reference model of the
// breaker and the bounds, and the invariant checks.
class Harness {
 public:
  Harness(const tf::ExecutorOptions& options, int runs_per_client)
      : _options(options), _admission(options), _runs_per_client(runs_per_client) {}

  void enabled(std::vector<Event>& out) const {
    out.clear();
    // Bands matter only to the slot arbiter and the shed order.
    const bool banded = _options.shed_watermark != 0 || _options.max_concurrent_topologies != 0;
    for (int c = 0; c < kClients; ++c) {
      if (_submitted[c] >= _runs_per_client) continue;
      for (int band = banded ? 0 : 1; band <= (banded ? tf::kNumPriorities - 1 : 1); ++band) {
        out.push_back({Event::Kind::submit, c, band});
      }
      out.push_back({Event::Kind::rollback, c, 1});
    }
    for (int id = 0; id < static_cast<int>(_runs.size()); ++id) {
      if (_runs[id].fate == Fate::started) {
        out.push_back({Event::Kind::finish, id, 0});
        if (_options.breaker_threshold > 0) out.push_back({Event::Kind::fail, id, 0});
      }
      if (_runs[id].delivery) out.push_back({Event::Kind::deliver, id, 0});
    }
    for (const Mirror& m : _mirror) {
      if (m.breaker == Breaker::open && cooling(m)) {
        out.push_back({Event::Kind::tick, 0, 0});
        break;
      }
    }
  }

  void apply(const Event& e) {
    _started_now.clear();
    switch (e.kind) {
      case Event::Kind::submit: submit(e.arg, e.band, false); break;
      case Event::Kind::rollback: submit(e.arg, e.band, true); break;
      case Event::Kind::finish: finish(e.arg, false); break;
      case Event::Kind::fail: finish(e.arg, true); break;
      case Event::Kind::tick: ++_now; break;
      case Event::Kind::deliver: deliver(e.arg); break;
    }
    if (_failure.empty()) check_invariants();
  }

  [[nodiscard]] const std::string& failure() const { return _failure; }

  /// Everything that decides the future: the live runs (in admission
  /// order when shedding reads it, else per client), the rings, each
  /// client's counts, deficit and breaker.
  [[nodiscard]] std::string key() const {
    std::ostringstream os;
    std::vector<int> order;
    for (int id = 0; id < static_cast<int>(_runs.size()); ++id) {
      if (live(_runs[id]) || _runs[id].delivery) order.push_back(id);
    }
    if (_options.shed_watermark == 0) {
      std::stable_sort(order.begin(), order.end(),
                       [&](int a, int b) { return _runs[a].client < _runs[b].client; });
    }
    std::vector<int> rank(_runs.size(), -1);
    int next_rank = 0;
    for (int id : order) {
      const ModelRun& run = _runs[id];
      rank[id] = next_rank++;
      os << run.client << run.band << static_cast<int>(run.fate) << run.delivery << ',';
    }
    os << '|';
    for_each_waiting([&](const Admission::Run& r) { os << rank[id_of(&r)] << ','; });
    os << '|';
    for (int c = 0; c < kClients; ++c) {
      const Mirror& m = _mirror[c];
      const Admission::Client* rec = record(c);
      os << _submitted[c] << ':' << (rec != nullptr ? rec->deficit : 0) << ':'
         << static_cast<int>(m.breaker) << m.failures << cooling(m) << ':'
         << (m.probe >= 0 ? rank[m.probe] : -1) << ';';
    }
    return os.str();
  }

  [[nodiscard]] std::size_t admitted() const { return _admitted; }

 private:
  enum class Fate : unsigned char { refused, withdrawn, queued, ringed, started, finished, shed };

  struct ModelRun {
    Admission::Run record;
    int client{0};
    int band{1};
    Fate fate{Fate::refused};
    bool delivery{false};  // a late head hand-over is on its way
  };

  // The reference breaker of one client (DESIGN.md §11).
  struct Mirror {
    Breaker breaker{Breaker::closed};
    int failures{0};
    long opened_at{0};
    int probe{-1};  // the run holding the live probe claim
  };

  static std::uint64_t key_of(int client) { return 1000 + static_cast<std::uint64_t>(client); }
  static bool live(const ModelRun& run) {
    return run.fate == Fate::queued || run.fate == Fate::ringed || run.fate == Fate::started;
  }
  static bool sheddable(const ModelRun& run) {
    return run.fate == Fate::queued || run.fate == Fate::ringed;
  }
  [[nodiscard]] bool cooling(const Mirror& m) const {
    return m.breaker == Breaker::open && _now < m.opened_at + kCooldownTicks;
  }
  [[nodiscard]] Admission::TimePoint now() const {
    return Admission::TimePoint(std::chrono::nanoseconds(_now));
  }

  // Records the first violation; callers build the message only on failure.
  void fail(std::string what) {
    if (_failure.empty()) _failure = std::move(what);
  }
  static std::string r(int id) { return std::string(1, 'r') += std::to_string(id); }

  [[nodiscard]] const Admission::Client* record(int client) const {
    const auto it = _admission.clients().find(key_of(client));
    return it == _admission.clients().end() ? nullptr : &it->second;
  }

  // f(run) for every ringed head, high band first, ring order within.
  template <typename F>
  void for_each_waiting(F&& f) const {
    for (int band = tf::kNumPriorities - 1; band >= 0; --band) {
      for (const Admission::Run* run = _admission.ring(band); run != nullptr;
           run = run->in_ring.next) {
        f(*run);
      }
    }
  }

  [[nodiscard]] bool is_head(int id) const {
    const auto& fifo = _fifo[_runs[id].client];
    return !fifo.empty() && fifo.front() == id;
  }

  [[nodiscard]] int id_of(const Admission::Run* record) const {
    for (int id = 0; id < static_cast<int>(_runs.size()); ++id) {
      if (&_runs[id].record == record) return id;
    }
    return -1;
  }

  [[nodiscard]] std::size_t count(int client, bool (*pred)(const ModelRun&)) const {
    return static_cast<std::size_t>(
        std::count_if(_runs.begin(), _runs.end(), [&](const ModelRun& run) {
          return (client < 0 || run.client == client) && pred(run);
        }));
  }

  void submit(int c, int band, bool rollback) {
    ++_submitted[c];
    const int id = static_cast<int>(_runs.size());
    ModelRun& run = _runs.emplace_back();
    run.client = c;
    run.band = band;
    const std::size_t pending = count(-1, live);
    const std::size_t client_pending = count(c, live);
    const Verdict verdict = _admission.admit(run.record, key_of(c), band, kCost[c], now());

    Mirror& m = _mirror[c];
    const bool breaker_refuses =
        _options.breaker_threshold > 0 &&
        (cooling(m) || (m.breaker == Breaker::half_open && m.probe >= 0));
    const bool full =
        (_options.max_pending_topologies != 0 && pending >= _options.max_pending_topologies) ||
        (_options.max_pending_per_client != 0 &&
         client_pending >= _options.max_pending_per_client);
    const Verdict expected =
        breaker_refuses ? Verdict::breaker_open : full ? Verdict::full : Verdict::admitted;
    if (verdict != expected) {
      fail(r(id) + " " + name(verdict) + ", expected " + name(expected) +
           (expected == Verdict::admitted && verdict == Verdict::breaker_open
                ? " (the breaker refuses with no probe in flight)"
                : ""));
    }
    if (verdict != Verdict::admitted) {
      ++_refused;
      return;
    }
    ++_admitted;
    // Bounds at every admit.
    if (_options.max_pending_topologies != 0 &&
        _admission.pending() > _options.max_pending_topologies) {
      fail("global pending above max_pending_topologies");
    }
    if (_options.max_pending_per_client != 0 &&
        count(c, live) + 1 > _options.max_pending_per_client) {
      fail("client pending above max_pending_per_client");
    }
    // The probe: claimed exactly when the breaker is open and cooled, or
    // half-open with no probe out.
    const bool probe = _options.breaker_threshold > 0 && m.breaker != Breaker::closed;
    if ((run.record.probe != 0) != probe) {
      fail(r(id) + (probe ? " was not claimed as the probe"
                          : " claimed a probe on a closed breaker"));
    }
    if (probe) {
      m.breaker = Breaker::half_open;
      m.probe = id;
    }
    if (rollback) {
      _admission.withdraw(run.record);
      run.fate = Fate::withdrawn;
      ++_withdrawn;
      if (m.probe == id) m.probe = -1;
      return;
    }
    run.fate = Fate::queued;
    _fifo[c].push_back(id);
    if (_fifo[c].size() == 1) head(id, _admission.head(run.record));
    shed(run);
  }

  // Admission::head() said `started` for FIFO head `id`.
  void head(int id, bool started) {
    ModelRun& run = _runs[id];
    if (run.fate == Fate::shed) {
      if (started) fail("shed run " + r(id) + " was started by its late hand-over");
      if (run.record.state != State::shed) {
        fail("shed run " + r(id) + " was ringed by its late hand-over");
      }
      return;
    }
    if (run.fate != Fate::queued || !is_head(id)) {
      fail("head step for " + r(id) + ", which is not a queued head");
    }
    if (started) {
      start(id);
    } else {
      run.fate = Fate::ringed;
    }
  }

  void start(int id) {
    ModelRun& run = _runs[id];
    if (!sheddable(run)) fail(r(id) + " started while not queued");
    run.fate = Fate::started;
    _started_now.push_back(id);
  }

  void shed(ModelRun& newest) {
    Admission::Run* victim = _admission.shed(newest.record);
    // Expected: above the watermark, the sheddable run of the lowest band,
    // newest first within it.
    int expected = -1;
    if (_options.shed_watermark != 0 && count(-1, live) > _options.shed_watermark) {
      for (int id = 0; id < static_cast<int>(_runs.size()); ++id) {
        if (!sheddable(_runs[id])) continue;
        if (expected < 0 || _runs[id].band <= _runs[expected].band) expected = id;
      }
    }
    const int got = victim == nullptr ? -1 : id_of(victim);
    if (got != expected) {
      fail("shed " + r(got) + ", expected " + r(expected) +
           " (lowest band, newest first, never a started run)");
    }
    if (got < 0) return;
    ModelRun& run = _runs[got];
    if (!sheddable(run)) return;
    auto& fifo = _fifo[run.client];
    const bool was_head = fifo.front() == got;
    fifo.erase(std::find(fifo.begin(), fifo.end(), got));
    run.fate = Fate::shed;
    // The run behind a shed head is handed on after the lock: late.
    if (was_head && !fifo.empty()) _runs[fifo.front()].delivery = true;
    Mirror& m = _mirror[run.client];
    if (m.probe == got) m.probe = -1;  // a shed probe frees the claim
    if (count(-1, live) > _options.shed_watermark && count(-1, sheddable) != 0) {
      fail("pending above the watermark after a shed step while a run is sheddable");
    }
  }

  void finish(int id, bool failed) {
    ModelRun& run = _runs[id];
    const int c = run.client;
    auto& fifo = _fifo[c];
    if (!is_head(id)) {
      fail("finished " + r(id) + " is not a head");
      return;
    }
    fifo.pop_front();
    const int next = fifo.empty() ? -1 : fifo.front();
    Admission::Run* to_start =
        _admission.finish(run.record, failed, now(), next < 0 ? nullptr : &_runs[next].record);
    run.fate = Fate::finished;

    Mirror& m = _mirror[c];
    if (_options.breaker_threshold > 0) {
      if (failed) {
        if (m.breaker == Breaker::half_open ||
            (m.breaker == Breaker::closed && ++m.failures >= _options.breaker_threshold)) {
          m = Mirror{Breaker::open, 0, _now, -1};
          ++_trips;
        }
      } else {
        m.failures = 0;
        if (m.breaker != Breaker::closed) m = Mirror{};
      }
    }
    if (m.probe == id) m.probe = -1;

    const int got = to_start == nullptr ? -1 : id_of(to_start);
    if (next >= 0) head(next, got == next);
    if (got >= 0 && got != next) {
      if (_runs[got].fate != Fate::ringed) fail(r(got) + " started from a ring it was not in");
      start(got);
    }
  }

  void deliver(int id) {
    _runs[id].delivery = false;
    head(id, _admission.head(_runs[id].record));
  }

  void check_invariants() {
    // submitted == admitted + refused; the module's count nets withdrawals.
    int submitted = 0;
    for (int n : _submitted) submitted += n;
    if (static_cast<std::size_t>(submitted) != _admitted + _refused) {
      fail("submitted != admitted + refused");
    }
    if (_admission.admitted() != _admitted - _withdrawn) fail("admitted count differs");

    // Each run's record agrees with its fate: ended once, never started
    // after it was shed.
    for (int id = 0; id < static_cast<int>(_runs.size()); ++id) {
      const ModelRun& run = _runs[id];
      const State want = run.fate == Fate::queued    ? State::queued
                         : run.fate == Fate::ringed  ? State::waiting
                         : run.fate == Fate::started ? State::started
                         : run.fate == Fate::shed    ? State::shed
                                                     : State::idle;
      if (run.record.state != want) {
        fail(r(id) + " record state " + std::to_string(static_cast<int>(run.record.state)) +
             ", expected " + std::to_string(static_cast<int>(want)));
      }
    }

    // Pending and started counts, global and per client.
    if (_admission.pending() != count(-1, live)) fail("pending differs from the harness count");
    for (int c = 0; c < kClients; ++c) {
      const Admission::Client* rec = record(c);
      if ((rec != nullptr ? rec->pending : 0) != count(c, live)) {
        fail("client c" + std::to_string(c) + " pending differs");
      }
    }
    const std::size_t started =
        count(-1, [](const ModelRun& run) { return run.fate == Fate::started; });
    const std::size_t limit = _options.max_concurrent_topologies;
    if (_admission.started() != started) fail("started differs from the harness count");
    if (limit != 0 && started > limit) fail("started above max_concurrent_topologies");

    // Rings: queued heads only, at most one per client; a head waits only
    // while every slot is taken, and a start took the highest band.
    std::vector<bool> ringed(kClients, false);
    int top_band = -1;
    std::size_t in_rings = 0;
    for_each_waiting([&](const Admission::Run& waiting) {
      const int id = id_of(&waiting);
      const ModelRun& run = _runs[id];
      if (run.fate != Fate::ringed || !is_head(id)) {
        fail("ring holds " + r(id) + ", which is not a waiting head");
      }
      if (ringed[run.client]) fail("ring holds two heads of client c" + std::to_string(run.client));
      ringed[run.client] = true;
      top_band = std::max(top_band, run.band);
      ++in_rings;
    });
    if (in_rings != count(-1, [](const ModelRun& run) { return run.fate == Fate::ringed; }) ||
        _admission.waiting() != in_rings) {
      fail("ringed heads differ");
    }
    if (in_rings != 0 && started != limit) fail("a slot is free while a head waits");
    for (int id : _started_now) {
      if (_runs[id].band < top_band) {
        fail(r(id) + " (band " + std::to_string(_runs[id].band) + ") took a slot while a band " +
             std::to_string(top_band) + " head waits");
      }
    }

    // Records: DRR deficits bounded, breaker as the reference says, at most
    // one live probe claim, and no record that holds nothing.
    if (_admission.trips() != _trips) fail("breaker trips differ");
    std::size_t records = 0;
    for (int c = 0; c < kClients; ++c) {
      const Admission::Client* rec = record(c);
      const Mirror& m = _mirror[c];
      const std::string who = "client c" + std::to_string(c);
      if (rec == nullptr) {
        if (m.breaker != Breaker::closed || m.failures != 0) {
          fail(who + " lost its breaker state (" + std::to_string(static_cast<int>(m.breaker)) +
               ")");
        }
        continue;
      }
      ++records;
      if (rec->pending == 0 && rec->breaker == Breaker::closed && rec->failures == 0) {
        fail(who + " keeps a record that holds nothing");
      }
      if (rec->deficit >= kMaxCost + _admission.options().fairness_quantum) {
        fail(who + " deficit " + std::to_string(rec->deficit) + " unbounded");
      }
      if (rec->breaker != m.breaker || rec->failures != m.failures) {
        fail(who + " breaker " + std::to_string(static_cast<int>(rec->breaker)) + "/" +
             std::to_string(rec->failures) + ", expected " +
             std::to_string(static_cast<int>(m.breaker)) + "/" + std::to_string(m.failures));
      }
      if ((rec->probe != 0) != (m.probe >= 0)) {
        fail(who + (rec->probe != 0 ? " holds a probe claim with no probe in flight"
                                    : " lost the claim of its probe in flight"));
      }
      std::size_t claims = 0;
      for (const ModelRun& run : _runs) {
        if (run.client == c && live(run) && rec->probe != 0 && run.record.probe == rec->probe) {
          ++claims;
        }
      }
      if (claims > 1) fail(who + " has two probes in flight");
    }
    if (_admission.clients().size() != records) fail("records of unknown clients");
  }

  tf::ExecutorOptions _options;
  Admission _admission;
  int _runs_per_client;
  std::deque<ModelRun> _runs;  // stable addresses: the module links records
  std::deque<int> _fifo[kClients];
  Mirror _mirror[kClients];
  int _submitted[kClients] = {};
  std::size_t _admitted{0};
  std::size_t _refused{0};
  std::size_t _withdrawn{0};
  std::size_t _trips{0};
  long _now{0};
  std::vector<int> _started_now;  // runs started by the current step
  std::string _failure;
};

struct Exploration {
  std::size_t states{0};
  std::size_t steps{0};
  std::size_t max_depth{0};
};

// Breadth-first over event sequences; a state is rebuilt by replaying its
// sequence (the harness links records by address, so it is not copied).
Exploration explore(const tf::ExecutorOptions& options, int runs_per_client) {
  Exploration stats;
  std::unordered_set<std::string> seen;
  std::deque<std::vector<Event>> frontier{{}};
  seen.insert(Harness(options, runs_per_client).key());
  std::vector<Event> events;
  while (!frontier.empty()) {
    const std::vector<Event> path = std::move(frontier.front());
    frontier.pop_front();
    stats.max_depth = std::max(stats.max_depth, path.size());
    Harness parent(options, runs_per_client);
    for (const Event& e : path) parent.apply(e);
    parent.enabled(events);
    for (const Event& e : events) {
      Harness child(options, runs_per_client);
      for (const Event& p : path) child.apply(p);
      child.apply(e);
      stats.steps += path.size() + 1;
      std::vector<Event> next = path;
      next.push_back(e);
      if (!child.failure().empty()) {
        ADD_FAILURE() << child.failure() << "\n  after: " << describe(next);
        return stats;
      }
      if (seen.insert(child.key()).second) frontier.push_back(std::move(next));
    }
  }
  stats.states = seen.size();
  return stats;
}

struct OptionSet {
  const char* name;
  tf::ExecutorOptions options;
  int runs_per_client;
};

tf::ExecutorOptions make(std::size_t max_pending, std::size_t per_client, std::size_t watermark,
                         std::size_t concurrent, int breaker) {
  tf::ExecutorOptions o;
  o.max_pending_topologies = max_pending;
  o.max_pending_per_client = per_client;
  o.shed_watermark = watermark;
  o.max_concurrent_topologies = concurrent;
  o.fairness_quantum = 2;
  o.breaker_threshold = breaker;
  o.breaker_cooldown = std::chrono::nanoseconds(kCooldownTicks);
  return o;
}

TEST(AdmissionModel, EveryEventOrderKeepsTheInvariants) {
  const OptionSet sets[] = {
      {"max_pending_topologies=2", make(2, 0, 0, 0, 0), 4},
      {"max_pending_per_client=1", make(0, 1, 0, 0, 0), 4},
      {"shed_watermark=2", make(0, 0, 2, 0, 0), 3},
      {"max_concurrent_topologies=1", make(0, 0, 0, 1, 0), 2},
      {"breaker_threshold=2", make(0, 0, 0, 0, 2), 3},
      {"all knobs", make(4, 2, 2, 1, 1), 2},
  };
  std::size_t total = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (const OptionSet& set : sets) {
    const auto t0 = std::chrono::steady_clock::now();
    const Exploration stats = explore(set.options, set.runs_per_client);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    std::cout << "[ model    ] " << set.name << ": " << stats.states << " states, depth "
              << stats.max_depth << ", " << stats.steps << " steps replayed, " << ms << " ms\n";
    total += stats.states;
    if (HasFailure()) return;
  }
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - begin)
                      .count();
  std::cout << "[ model    ] " << total << " states in " << ms << " ms\n";
  RecordProperty("states", static_cast<int>(total));
  RecordProperty("ms", static_cast<int>(ms));
}

// The release step: a refused, a shed and a rolled-back submission each
// leave no record behind, and so does a finished run.
TEST(AdmissionModel, RefusedShedAndWithdrawnRunsLeaveNoRecord) {
  tf::ExecutorOptions options;
  options.max_pending_topologies = 2;
  options.shed_watermark = 1;
  Admission admission(options);
  const Admission::TimePoint now{};
  Admission::Run a, b, c, d;

  ASSERT_EQ(admission.admit(a, 1, 1, 1, now), Verdict::admitted);
  ASSERT_TRUE(admission.head(a));  // no concurrency cap: started
  EXPECT_EQ(admission.shed(a), nullptr);

  ASSERT_EQ(admission.admit(b, 2, 1, 1, now), Verdict::admitted);  // queued behind
  EXPECT_EQ(admission.admit(c, 3, 1, 1, now), Verdict::full);      // refused
  EXPECT_EQ(admission.clients().count(3), 0u);
  EXPECT_EQ(admission.shed(b), &b);  // pending 2 > watermark 1
  EXPECT_EQ(b.state, State::shed);
  EXPECT_EQ(admission.clients().count(2), 0u);

  ASSERT_EQ(admission.admit(d, 4, 1, 1, now), Verdict::admitted);
  admission.withdraw(d);  // rolled back before it was queued
  EXPECT_EQ(admission.clients().count(4), 0u);

  EXPECT_EQ(admission.finish(a, false, now, nullptr), nullptr);
  EXPECT_TRUE(admission.clients().empty());
  EXPECT_EQ(admission.pending(), 0u);
  EXPECT_EQ(admission.started(), 0u);
  EXPECT_EQ(admission.admitted(), 2u);  // a and b; d was withdrawn
}

}  // namespace

// Admission-control suite (ISSUE 7, DESIGN.md §11): bounded submission with
// backpressure / reject / try_run, load shedding above the watermark,
// deficit-round-robin fairness with priority bands, and the per-taskflow
// circuit breaker - plus the interplay with the PR 2/4 error model (shed
// runs never execute, queued deadlines stay timeouts, fallback-degraded
// probes close the breaker) and the ShutdownError / OverloadError
// distinction.  Every wait is bounded so a bug fails instead of hanging.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace std::chrono_literals;

constexpr auto kDeadline = 120s;

struct Boom : std::runtime_error {
  Boom() : std::runtime_error("boom") {}
};

// Scope guard opening a gate at test exit, so a failing ASSERT (early
// return) cannot leave a gate task spinning through the executor's
// destructor drain.  Declare AFTER the executor: it must open first.
struct GateOpener {
  explicit GateOpener(std::atomic<bool>& g) : gate(g) {}
  ~GateOpener() { gate.store(true); }
  std::atomic<bool>& gate;
};

// A task body that parks its run until the gate opens (cancel-aware so
// shutdown(abort) and cancelled runs still drain promptly).
void spin_until(const std::atomic<bool>& gate) {
  while (!gate.load() && !tf::this_task::is_cancelled()) {
    std::this_thread::yield();
  }
}

// ---------------------------------------------------------------------------
// Defaults: the zero-policy executor admits everything and meters nothing.
// ---------------------------------------------------------------------------

TEST(Admission, DefaultOptionsAdmitUnbounded) {
  tf::Executor executor(2);
  EXPECT_EQ(executor.options().max_pending_topologies, 0u);
  EXPECT_EQ(executor.options().max_pending_per_client, 0u);
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  flow.emplace([&] { ran++; });
  std::vector<tf::ExecutionHandle> handles;
  for (int i = 0; i < 64; ++i) handles.push_back(executor.run(flow));
  for (auto& h : handles) {
    ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready);
    h.get();
  }
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(executor.metrics().admitted, 0u);  // admission layer never engaged
  EXPECT_EQ(executor.metrics().rejected, 0u);
  EXPECT_EQ(executor.metrics().shed, 0u);
  std::ostringstream os;
  executor.dump_state(os);
  EXPECT_EQ(("\n" + os.str()).find("\nadm_"), std::string::npos) << os.str();
}

TEST(Admission, TryRunOnDefaultExecutorAdmits) {
  tf::Executor executor(2);
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  flow.emplace([&] { ran++; });
  auto handle = executor.try_run(flow);
  ASSERT_TRUE(handle.has_value());
  ASSERT_EQ(handle->wait_for(kDeadline), std::future_status::ready);
  handle->get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(Admission, TryRunEmptyGraphIsEngagedAndReady) {
  tf::ExecutorOptions opts;
  opts.max_pending_topologies = 4;
  tf::Executor executor(1, opts);
  tf::Taskflow empty;
  auto handle = executor.try_run(empty);
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(handle->wait_for(0s), std::future_status::ready);
  EXPECT_NO_THROW(handle->get());
  EXPECT_EQ(executor.metrics().admitted, 0u);  // nothing to meter
}

TEST(Admission, PriorityFieldIsInertWithoutAdmissionControl) {
  tf::Executor executor(2);
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  flow.emplace([&] { ran++; });
  tf::RunPolicy policy;
  policy.priority = 2;
  policy.admission = tf::AdmissionPolicy::reject;
  executor.run(flow, policy).get();
  EXPECT_EQ(ran.load(), 1);
}

// ---------------------------------------------------------------------------
// Bounded admission: backpressure, timeout, reject, try_run.
// ---------------------------------------------------------------------------

TEST(Admission, PerClientBoundBlocksThenResumes) {
  tf::ExecutorOptions opts;
  opts.max_pending_per_client = 2;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  flow.emplace([&] {
    spin_until(gate);
    ran++;
  });

  auto h0 = executor.run(flow);  // in flight, parked on the gate
  auto h1 = executor.run(flow);  // queued: per-client bound reached
  std::atomic<bool> admitted{false};
  tf::ExecutionHandle h2;
  std::thread blocked([&] {
    h2 = executor.run(flow);  // backpressure: waits for capacity
    admitted = true;
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(admitted.load());  // still parked at the bound

  gate = true;  // h0 completes -> capacity frees -> the submitter wakes
  blocked.join();
  EXPECT_TRUE(admitted.load());
  for (auto* h : {&h0, &h1, &h2}) {
    ASSERT_EQ(h->wait_for(kDeadline), std::future_status::ready);
    EXPECT_NO_THROW(h->get());
  }
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(executor.metrics().admitted, 3u);
  EXPECT_EQ(executor.metrics().rejected, 0u);
}

TEST(Admission, GlobalBoundSpansClients) {
  tf::ExecutorOptions opts;
  opts.max_pending_topologies = 2;
  tf::Executor executor(2, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow a, b, c;
  a.emplace([&] { spin_until(gate); });
  b.emplace([&] { spin_until(gate); });
  std::atomic<int> c_ran{0};
  c.emplace([&] { c_ran++; });

  auto ha = executor.run(a);
  auto hb = executor.run(b);
  // The global budget is spent by two other clients: reject fails fast...
  tf::RunPolicy reject;
  reject.admission = tf::AdmissionPolicy::reject;
  EXPECT_THROW((void)executor.run(c, reject), tf::OverloadError);
  // ...and try_run reports no capacity without blocking or throwing.
  EXPECT_FALSE(executor.try_run(c).has_value());
  EXPECT_EQ(executor.metrics().rejected, 2u);

  gate = true;
  ASSERT_EQ(ha.wait_for(kDeadline), std::future_status::ready);
  ASSERT_EQ(hb.wait_for(kDeadline), std::future_status::ready);
  executor.wait_for_all();
  auto hc = executor.try_run(c);  // capacity is back
  ASSERT_TRUE(hc.has_value());
  ASSERT_EQ(hc->wait_for(kDeadline), std::future_status::ready);
  EXPECT_EQ(c_ran.load(), 1);
  EXPECT_EQ(executor.metrics().admitted, 3u);
}

TEST(Admission, AdmissionTimeoutExpiresIntoOverloadError) {
  tf::ExecutorOptions opts;
  opts.max_pending_per_client = 1;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow flow;
  flow.emplace([&] { spin_until(gate); });

  auto h0 = executor.run(flow);
  tf::RunPolicy policy;
  policy.admission_timeout = 50ms;
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_THROW((void)executor.run(flow, policy), tf::OverloadError);
  const auto waited = std::chrono::steady_clock::now() - begin;
  EXPECT_GE(waited, 40ms);  // it genuinely waited before giving up
  EXPECT_EQ(executor.metrics().rejected, 1u);
  gate = true;
  ASSERT_EQ(h0.wait_for(kDeadline), std::future_status::ready);
}

TEST(Admission, RunNIsOneAdmissionUnit) {
  tf::ExecutorOptions opts;
  opts.max_pending_per_client = 1;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  auto head = flow.emplace([&] { spin_until(gate); });
  head.precede(flow.emplace([&] { ran++; }));

  auto handle = executor.run_n(flow, 3);  // three repeats, ONE pending slot
  EXPECT_FALSE(executor.try_run(flow).has_value());  // the slot is taken
  gate = true;
  ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
  handle.get();
  EXPECT_EQ(ran.load(), 3);
  auto again = executor.try_run(flow);
  ASSERT_TRUE(again.has_value());
  ASSERT_EQ(again->wait_for(kDeadline), std::future_status::ready);
}

// ---------------------------------------------------------------------------
// Shutdown vs overload: distinguishable rejections (satellite).
// ---------------------------------------------------------------------------

TEST(Admission, TryRunAfterShutdownIsEmptyNotThrowing) {
  tf::ExecutorOptions opts;
  opts.max_pending_per_client = 4;
  tf::Executor executor(1, opts);
  tf::Taskflow flow;
  flow.emplace([] {});
  executor.run(flow).get();
  executor.shutdown();
  EXPECT_FALSE(executor.try_run(flow).has_value());
  EXPECT_THROW((void)executor.run(flow), tf::ShutdownError);
  // Shutdown rejections are not overload: the reject counter stays clean.
  EXPECT_EQ(executor.metrics().rejected, 0u);
}

TEST(Admission, TryRunAfterShutdownOnDefaultExecutorIsEmpty) {
  tf::Executor executor(1);
  tf::Taskflow flow;
  flow.emplace([] {});
  executor.shutdown();
  EXPECT_FALSE(executor.try_run(flow).has_value());
  EXPECT_THROW((void)executor.run(flow), tf::ShutdownError);
}

TEST(Admission, BlockedSubmitterUnblocksWithShutdownError) {
  tf::ExecutorOptions opts;
  opts.max_pending_per_client = 1;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow flow;
  flow.emplace([&] { spin_until(gate); });

  auto h0 = executor.run(flow);
  std::atomic<bool> got_shutdown_error{false};
  std::thread blocked([&] {
    try {
      (void)executor.run(flow);  // blocks at the per-client bound
    } catch (const tf::ShutdownError&) {
      got_shutdown_error = true;
    } catch (const tf::OverloadError&) {
    }
  });
  std::this_thread::sleep_for(50ms);
  executor.shutdown(tf::ShutdownMode::abort);  // cancels the gated run too
  blocked.join();
  EXPECT_TRUE(got_shutdown_error.load());
  EXPECT_EQ(h0.wait_for(0s), std::future_status::ready);
}

// ---------------------------------------------------------------------------
// Load shedding.
// ---------------------------------------------------------------------------

TEST(Admission, ShedRunNeverExecutesAndReportsOverloadError) {
  tf::ExecutorOptions opts;
  opts.shed_watermark = 1;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  auto head = flow.emplace([&] { spin_until(gate); });
  head.precede(flow.emplace([&] { ran++; }));

  auto h0 = executor.run(flow);  // in flight (started: not sheddable)
  auto h1 = executor.run(flow);  // pending 2 > watermark 1: shed on the spot
  ASSERT_EQ(h1.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(h1.get(), tf::OverloadError);
  EXPECT_TRUE(h1.is_cancelled());
  EXPECT_FALSE(h1.timed_out());
  EXPECT_EQ(executor.metrics().shed, 1u);

  gate = true;
  ASSERT_EQ(h0.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(h0.get());
  executor.wait_for_all();
  EXPECT_EQ(ran.load(), 1);  // the shed run executed no task
  EXPECT_EQ(executor.num_topologies(), 0u);
}

TEST(Admission, SheddingEvictsLowestPriorityNewestFirst) {
  tf::ExecutorOptions opts;
  opts.shed_watermark = 3;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  auto head = flow.emplace([&] { spin_until(gate); });
  head.precede(flow.emplace([&] { ran++; }));

  tf::RunPolicy low, high;
  low.priority = 0;
  high.priority = 2;
  auto running = executor.run(flow, high);  // started
  auto victim = executor.run(flow, low);    // queued, band 0
  auto kept = executor.run(flow, high);     // queued, band 2, NEWER than victim
  auto pusher = executor.run(flow);         // pending 4 > 3: shed band 0 first
  ASSERT_EQ(victim.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(victim.get(), tf::OverloadError);
  EXPECT_EQ(executor.metrics().shed, 1u);

  gate = true;
  for (auto* h : {&running, &kept, &pusher}) {
    ASSERT_EQ(h->wait_for(kDeadline), std::future_status::ready);
    EXPECT_NO_THROW(h->get());
  }
  EXPECT_EQ(ran.load(), 3);
}

TEST(Admission, DeadlineExpiryWhileQueuedIsTimeoutNotShed) {
  tf::ExecutorOptions opts;
  opts.shed_watermark = 10;  // admission active, but no shedding here
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  auto head = flow.emplace([&] { spin_until(gate); });
  head.precede(flow.emplace([&] { ran++; }));

  auto h0 = executor.run(flow);
  tf::RunPolicy policy;
  policy.timeout = 30ms;
  auto expired = executor.run(flow, policy);  // spends its budget queued
  std::this_thread::sleep_for(120ms);
  gate = true;
  ASSERT_EQ(expired.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(expired.get(), tf::TimeoutError);
  EXPECT_TRUE(expired.timed_out());
  EXPECT_EQ(executor.metrics().shed, 0u);  // a queue-time timeout is not a shed
  ASSERT_EQ(h0.wait_for(kDeadline), std::future_status::ready);
  executor.wait_for_all();
}

// ---------------------------------------------------------------------------
// Fairness: deficit round-robin + priority ladder (needs a concurrency cap).
// ---------------------------------------------------------------------------

TEST(Admission, DeficitRoundRobinKeepsHotClientFromStarvingSmallOne) {
  tf::ExecutorOptions opts;
  opts.max_concurrent_topologies = 1;
  opts.fairness_quantum = 4;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);

  std::mutex order_mutex;
  std::string order;
  auto record = [&](char who) {
    std::scoped_lock lock(order_mutex);
    order.push_back(who);
  };

  // Hot client: a 64-node graph (cost 64), queue deep.  Its first run parks
  // on the gate so every submission below lands before anything dispatches.
  tf::Taskflow hot;
  auto hot_head = hot.emplace([&] {
    record('H');
    spin_until(gate);
  });
  for (int i = 0; i < 63; ++i) hot_head.precede(hot.emplace([] {}));

  // Small client: a 3-node graph (cost 3).
  tf::Taskflow small;
  auto small_head = small.emplace([&] { record('s'); });
  small_head.precede(small.emplace([] {}));
  small_head.precede(small.emplace([] {}));

  std::vector<tf::ExecutionHandle> handles;
  handles.push_back(executor.run(hot));  // takes the only slot, parks
  for (int i = 0; i < 3; ++i) handles.push_back(executor.run(hot));
  for (int i = 0; i < 6; ++i) handles.push_back(executor.run(small));
  gate = true;

  for (auto& h : handles) {
    ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready)
        << executor.stall_report();
    h.get();
  }
  // Deterministic with one worker and one slot: the parked hot run first;
  // then DRR (quantum 4 vs cost 64) lets every queued small run (cost 3)
  // through before the hot client accrues enough credit; plain FIFO would
  // have replayed H H H H first instead.
  EXPECT_EQ(order, "HssssssHHH");
  executor.wait_for_all();
}

TEST(Admission, PriorityLadderDispatchesHighBandFirst) {
  tf::ExecutorOptions opts;
  opts.max_concurrent_topologies = 1;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);

  std::mutex order_mutex;
  std::string order;
  auto record = [&](char who) {
    std::scoped_lock lock(order_mutex);
    order.push_back(who);
  };

  tf::Taskflow parked, low_flow, normal_flow, high_flow;
  parked.emplace([&] { spin_until(gate); });
  low_flow.emplace([&] { record('l'); });
  normal_flow.emplace([&] { record('n'); });
  high_flow.emplace([&] { record('h'); });

  tf::RunPolicy low, high;
  low.priority = 0;
  high.priority = 2;
  auto hp = executor.run(parked);           // holds the single slot
  auto hl = executor.run(low_flow, low);    // ringed in band 0
  auto hn = executor.run(normal_flow);      // ringed in band 1
  auto hh = executor.run(high_flow, high);  // ringed in band 2
  gate = true;
  for (auto* h : {&hp, &hl, &hn, &hh}) {
    ASSERT_EQ(h->wait_for(kDeadline), std::future_status::ready)
        << executor.stall_report();
    h->get();
  }
  EXPECT_EQ(order, "hnl");  // strict bands: high, normal, low
}

TEST(Admission, CancelledQueuedRunStillDrainsCleanly) {
  tf::ExecutorOptions opts;
  opts.max_concurrent_topologies = 1;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow parked, victim_flow;
  parked.emplace([&] { spin_until(gate); });
  std::atomic<int> ran{0};
  victim_flow.emplace([&] { ran++; });

  auto hp = executor.run(parked);
  auto hv = executor.run(victim_flow);  // waiting for the slot
  hv.cancel();                          // cancelled before it ever started
  gate = true;
  ASSERT_EQ(hv.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(hv.get());  // a plain cancel drains without an exception
  EXPECT_EQ(ran.load(), 0);   // its task was skipped
  ASSERT_EQ(hp.wait_for(kDeadline), std::future_status::ready);
  executor.wait_for_all();
}

// ---------------------------------------------------------------------------
// Circuit breaker.
// ---------------------------------------------------------------------------

TEST(Admission, BreakerOpensAfterConsecutiveFailuresAndRejects) {
  tf::ExecutorOptions opts;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown = 10s;  // long: stays open for the whole test
  tf::Executor executor(1, opts);
  tf::Taskflow failing;
  failing.emplace([] { throw Boom(); });
  tf::Taskflow healthy;
  std::atomic<int> healthy_ran{0};
  healthy.emplace([&] { healthy_ran++; });

  for (int i = 0; i < 2; ++i) {
    auto h = executor.run(failing);
    ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready);
    EXPECT_THROW(h.get(), Boom);
  }
  EXPECT_EQ(executor.metrics().breaker_trips, 1u);
  EXPECT_THROW((void)executor.run(failing), tf::BreakerOpenError);
  // BreakerOpenError IS an OverloadError (one catch handles both)...
  EXPECT_THROW((void)executor.run(failing), tf::OverloadError);
  EXPECT_FALSE(executor.try_run(failing).has_value());
  EXPECT_EQ(executor.metrics().rejected, 3u);
  // ...but the breaker is per taskflow: other clients are unaffected.
  executor.run(healthy).get();
  EXPECT_EQ(healthy_ran.load(), 1);
}

TEST(Admission, BreakerHalfOpenProbeSuccessCloses) {
  tf::ExecutorOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown = 50ms;
  tf::Executor executor(1, opts);
  std::atomic<bool> fail{true};
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  flow.emplace([&] {
    ran++;
    if (fail.load()) throw Boom();
  });

  auto h = executor.run(flow);
  ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(h.get(), Boom);
  EXPECT_THROW((void)executor.run(flow), tf::BreakerOpenError);  // open

  std::this_thread::sleep_for(100ms);  // cooldown elapses
  fail = false;
  executor.run(flow).get();  // the half-open probe: succeeds, closes
  executor.run(flow).get();  // closed again: plain admission
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(executor.metrics().breaker_trips, 1u);
}

TEST(Admission, BreakerProbeFailureReopens) {
  tf::ExecutorOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown = 50ms;
  tf::Executor executor(1, opts);
  tf::Taskflow failing;
  failing.emplace([] { throw Boom(); });

  auto h = executor.run(failing);
  ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(h.get(), Boom);
  std::this_thread::sleep_for(100ms);
  auto probe = executor.run(failing);  // half-open probe, admitted
  ASSERT_EQ(probe.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(probe.get(), Boom);     // probe failed: re-open
  EXPECT_THROW((void)executor.run(failing), tf::BreakerOpenError);
  EXPECT_EQ(executor.metrics().breaker_trips, 2u);
}

TEST(Admission, BreakerAdmitsOneProbeAtATime) {
  tf::ExecutorOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown = 50ms;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  std::atomic<bool> fail{true};
  tf::Taskflow flow;
  flow.emplace([&] {
    spin_until(gate);
    if (fail.load()) throw Boom();
  });

  auto h = executor.run(flow);
  gate = true;
  ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(h.get(), Boom);

  std::this_thread::sleep_for(100ms);
  gate = false;
  fail = false;
  auto probe = executor.run(flow);  // the probe parks on the gate
  // While the single probe is in flight, everything else still fails fast.
  EXPECT_THROW((void)executor.run(flow), tf::BreakerOpenError);
  EXPECT_FALSE(executor.try_run(flow).has_value());
  gate = true;
  ASSERT_EQ(probe.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(probe.get());  // success closes the breaker
  executor.run(flow).get();
}

TEST(Admission, FallbackDegradedProbeClosesBreaker) {
  // Satellite interplay: a breaker-open taskflow recovers through its PR 4
  // fallback - a fallback-degraded run completes cleanly and counts as the
  // probe success.
  tf::ExecutorOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown = 50ms;
  tf::Executor executor(1, opts);
  std::atomic<bool> fallback_ok{false};
  std::atomic<int> degraded{0};
  tf::Taskflow flow;
  auto task = flow.emplace([] { throw Boom(); });
  task.fallback([&] {
    if (!fallback_ok.load()) throw Boom();  // a throwing fallback = failure
    degraded++;
  });

  auto h = executor.run(flow);
  ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(h.get(), Boom);
  EXPECT_THROW((void)executor.run(flow), tf::BreakerOpenError);

  std::this_thread::sleep_for(100ms);
  fallback_ok = true;
  auto probe = executor.run(flow);
  ASSERT_EQ(probe.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(probe.get());  // degraded, but a success for the breaker
  executor.run(flow).get();      // breaker closed: admitted normally
  EXPECT_EQ(degraded.load(), 2);
}

TEST(Admission, NewTaskflowAtAReusedAddressStartsClosed) {
  // Admission records belong to a taskflow's run queue, not to its address:
  // a taskflow built in the storage of one whose breaker is open must not
  // inherit that breaker.
  tf::ExecutorOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown = 600s;  // long: the dead taskflow's breaker stays open
  tf::Executor executor(1, opts);
  std::optional<tf::Taskflow> flow;
  flow.emplace();
  flow->emplace([] { throw Boom(); });
  auto failed = executor.run(*flow);
  ASSERT_EQ(failed.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(failed.get(), Boom);
  EXPECT_THROW((void)executor.run(*flow), tf::BreakerOpenError);

  flow.reset();
  flow.emplace();  // same storage, a new taskflow that never ran
  std::atomic<int> ran{0};
  flow->emplace([&] { ran++; });
  auto handle = executor.run(*flow);
  ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(handle.get());
  EXPECT_EQ(ran.load(), 1);
  executor.wait_for_all();
}

TEST(Admission, DeadTaskflowsLeaveNoRecords) {
  // A taskflow that dies with an open breaker takes its breaker with it:
  // no later submission can reach its record, so it must not count.
  tf::ExecutorOptions opts;
  opts.breaker_threshold = 1;
  opts.breaker_cooldown = 1ms;
  tf::Executor executor(3, opts);
  for (int i = 0; i < 100; ++i) {
    tf::Taskflow flow;
    flow.emplace([] { throw Boom(); });
    auto handle = executor.run(flow);
    ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
    EXPECT_THROW(handle.get(), Boom);
  }
  std::this_thread::sleep_for(50ms);
  tf::Taskflow good;
  good.emplace([] {});
  executor.run(good).get();
  const auto metrics = executor.metrics();
  EXPECT_EQ(metrics.breakers_open, 0u);
  EXPECT_EQ(metrics.breaker_trips, 100u);
}

// ---------------------------------------------------------------------------
// Observability: counters, dump_state.
// ---------------------------------------------------------------------------

TEST(Admission, ObserverReceivesAdmitRejectShedEvents) {
  // The admit/reject/shed counts live in metrics() (the observer carries
  // task events only).
  tf::ExecutorOptions opts;
  opts.max_pending_per_client = 2;
  opts.shed_watermark = 3;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow flow, other;
  flow.emplace([&] { spin_until(gate); });
  other.emplace([] {});

  auto h0 = executor.run(flow);                      // admit #1 (started)
  auto h1 = executor.run(flow);                      // admit #2 (queued)
  EXPECT_FALSE(executor.try_run(flow).has_value());  // reject: client bound
  auto h2 = executor.run(other);                     // admit #3, pending 3
  auto h3 = executor.run(other);                     // admit #4: 4 > 3, shed
  ASSERT_EQ(h3.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(h3.get(), tf::OverloadError);
  gate = true;
  for (auto* h : {&h0, &h1, &h2}) {
    ASSERT_EQ(h->wait_for(kDeadline), std::future_status::ready);
    EXPECT_NO_THROW(h->get());
  }
  executor.wait_for_all();

  EXPECT_EQ(executor.metrics().admitted, 4u);
  EXPECT_EQ(executor.metrics().rejected, 1u);
  EXPECT_EQ(executor.metrics().shed, 1u);
}

TEST(Admission, DumpStateReportsAdmissionDepthAndCounters) {
  tf::ExecutorOptions opts;
  opts.max_pending_topologies = 8;
  opts.max_concurrent_topologies = 1;
  opts.breaker_threshold = 3;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow parked, waiting;
  parked.emplace([&] { spin_until(gate); });
  waiting.emplace([] {});

  auto h0 = executor.run(parked);
  auto h1 = executor.run(waiting);  // ringed, awaiting the slot
  std::string report = executor.stall_report();
  EXPECT_NE(report.find("\nadm_pending 2\nadm_pending_limit 8\n"), std::string::npos)
      << report;
  EXPECT_NE(report.find("\nadm_started 1\nadm_started_limit 1\n"), std::string::npos)
      << report;
  EXPECT_NE(report.find("\nadm_waiting_clients 1\n"), std::string::npos) << report;
  EXPECT_NE(report.find("\nadm_admitted 2\n"), std::string::npos) << report;
  EXPECT_NE(report.find("\nbreaker_trips 0\n"), std::string::npos) << report;
  gate = true;
  ASSERT_EQ(h0.wait_for(kDeadline), std::future_status::ready);
  ASSERT_EQ(h1.wait_for(kDeadline), std::future_status::ready);
  executor.wait_for_all();
}

// ---------------------------------------------------------------------------
// Concurrency: the bookkeeping identities hold under a multi-client storm.
// ---------------------------------------------------------------------------

TEST(Admission, ConcurrentClientsBookkeepingBalances) {
  tf::ExecutorOptions opts;
  opts.max_pending_topologies = 8;
  opts.max_pending_per_client = 4;
  opts.shed_watermark = 6;
  opts.max_concurrent_topologies = 2;
  opts.fairness_quantum = 8;
  // The flows are declared BEFORE the executor: its destructor drains every
  // in-flight run, so the graphs must outlive it.
  constexpr int kNumClientFlows = 4;
  std::vector<std::unique_ptr<tf::Taskflow>> flows;
  for (int c = 0; c < kNumClientFlows; ++c) {
    flows.push_back(std::make_unique<tf::Taskflow>());
    auto head = flows.back()->emplace([] { std::this_thread::yield(); });
    head.precede(flows.back()->emplace([] {}));
    head.precede(flows.back()->emplace([] {}));
  }
  tf::Executor executor(2, opts);

  constexpr int kClients = 4;
  constexpr int kRounds = 50;
  std::atomic<long> admitted{0}, rejected{0};
  std::vector<std::thread> clients;
  std::vector<std::vector<tf::ExecutionHandle>> handles(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto& mine = *flows[c];
      for (int round = 0; round < kRounds; ++round) {
        try {
          switch (round % 3) {
            case 0: {
              handles[c].push_back(executor.run(mine));  // backpressure
              admitted++;
              break;
            }
            case 1: {
              if (auto h = executor.try_run(mine)) {
                handles[c].push_back(*h);
                admitted++;
              } else {
                rejected++;
              }
              break;
            }
            default: {
              tf::RunPolicy reject;
              reject.admission = tf::AdmissionPolicy::reject;
              reject.priority = round % 2;
              handles[c].push_back(executor.run(mine, reject));
              admitted++;
              break;
            }
          }
        } catch (const tf::OverloadError&) {
          rejected++;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  long ok = 0, shed = 0;
  for (auto& client_handles : handles) {
    for (auto& h : client_handles) {
      ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready)
          << executor.stall_report();
      try {
        h.get();
        ok++;
      } catch (const tf::OverloadError&) {
        shed++;
      }
    }
  }
  executor.wait_for_all();
  EXPECT_EQ(executor.metrics().admitted, static_cast<std::size_t>(admitted.load()));
  EXPECT_EQ(executor.metrics().rejected, static_cast<std::size_t>(rejected.load()));
  EXPECT_EQ(executor.metrics().shed, static_cast<std::size_t>(shed));
  EXPECT_EQ(admitted.load(), ok + shed);  // every admitted run resolved
  EXPECT_EQ(executor.num_topologies(), 0u);
}

}  // namespace

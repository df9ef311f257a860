// Fault-injection harness (ISSUE 2): randomized DAGs where tasks throw and
// runs get cancelled mid-flight, stressing the drain/skip paths under heavy
// fan-out and subflow spawning on both backends.  Deterministic per seed:
//   REPRO_FAULT_ITERS  iterations per executor kind (default 30)
//   REPRO_FAULT_SEED   base seed (default 42)
// Every wait is bounded so a scheduler bug fails the test instead of
// hanging it, and the stall report is attached to the failure message.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backends.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace {

using namespace std::chrono_literals;

struct InjectedFault : std::runtime_error {
  InjectedFault() : std::runtime_error("injected fault") {}
};

constexpr auto kDrainDeadline = 120s;

class FaultModel : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<tf::ExecutorInterface> make(std::size_t n = 4) const {
    return tf_test::make_backend(GetParam(), n);
  }

  /// Per-(kind, iteration) stream so both backends replay identical graphs
  /// for a given seed, yet iterations stay decorrelated.
  [[nodiscard]] static support::Xoshiro256 stream(int iteration) {
    const std::uint64_t kind = std::string(GetParam()) == "nocache_steal0" ? 1 : 0;
    return support::Xoshiro256(support::repro_fault_seed() +
                               0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(iteration) +
                               kind);
  }
};

// Random forward-edged DAG of static + dynamic (subflow) tasks.  Each task
// throws with probability ~1/16 except on every 4th iteration, which runs
// fault-free so the "everything executed exactly once" invariant is also
// exercised.  ~30% of iterations additionally cancel mid-run.
TEST_P(FaultModel, RandomThrowersAndCancelsAlwaysDrain) {
  const int iters = support::repro_fault_iters();
  for (int iter = 0; iter < iters; ++iter) {
    auto rng = stream(iter);
    const bool clean = (iter % 4 == 0);
    const double p_throw = clean ? 0.0 : 1.0 / 16.0;

    tf::Taskflow tf(make());
    std::atomic<long> executed{0};
    long total = 0;  // task count of a fully-clean run (children included)

    const int n = 120 + static_cast<int>(rng.below(31));
    std::vector<tf::Task> tasks;
    tasks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ++total;
      if (rng.bernoulli(0.15)) {  // dynamic task spawning a subflow
        const int kids = 2 + static_cast<int>(rng.below(3));
        std::uint64_t kid_throw_mask = 0;
        for (int j = 0; j < kids; ++j) {
          if (rng.bernoulli(p_throw)) kid_throw_mask |= 1ull << j;
        }
        const bool detach = rng.bernoulli(0.25);
        const bool parent_throws = rng.bernoulli(p_throw);
        total += kids;
        tasks.push_back(
            tf.emplace([&executed, kids, kid_throw_mask, detach,
                        parent_throws](tf::SubflowBuilder& sf) {
              executed++;
              for (int j = 0; j < kids; ++j) {
                const bool kid_throws = (kid_throw_mask >> j) & 1;
                sf.emplace([&executed, kid_throws] {
                  executed++;
                  if (kid_throws) throw InjectedFault();
                });
              }
              if (detach) sf.detach();
              // Mid-construction fault: the just-built subflow is abandoned.
              if (parent_throws) throw InjectedFault();
            }));
      } else {
        const bool throws = rng.bernoulli(p_throw);
        tasks.push_back(tf.emplace([&executed, throws] {
          executed++;
          if (throws) throw InjectedFault();
        }));
      }
    }
    // Forward-only edges keep the graph acyclic by construction.
    for (int v = 1; v < n; ++v) {
      const auto edges = rng.below(3);
      for (std::uint64_t e = 0; e < edges; ++e) {
        tasks[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(v)))]
            .precede(tasks[static_cast<std::size_t>(v)]);
      }
    }

    const bool do_cancel = rng.bernoulli(0.3);
    auto handle = tf.dispatch();
    if (do_cancel) {
      for (std::uint64_t spins = rng.below(200); spins > 0; --spins) {
        std::this_thread::yield();  // race the cancel against live execution
      }
      handle.cancel();
    }

    ASSERT_EQ(handle.wait_for(kDrainDeadline), std::future_status::ready)
        << "iteration " << iter << " stalled\n"
        << tf.stall_report();
    bool threw = false;
    try {
      handle.get();
    } catch (const InjectedFault&) {
      threw = true;
    }
    if (threw) {
      EXPECT_TRUE(handle.is_cancelled());  // an error always drains
    }
    if (clean && !do_cancel) {
      EXPECT_FALSE(threw) << "iteration " << iter;
      EXPECT_EQ(executed.load(), total) << "iteration " << iter;
    } else {
      EXPECT_LE(executed.load(), total) << "iteration " << iter;
    }
    try {
      tf.wait_for_all();
    } catch (const InjectedFault&) {
    }
    EXPECT_EQ(tf.num_topologies(), 0u);
  }
}

// A reusable graph re-run across faulting iterations: the same graph must
// keep working once faults stop.
TEST_P(FaultModel, FrameworkSurvivesRepeatedFaults) {
  tf::Executor executor(make());
  tf::Taskflow fw;
  std::atomic<long> executed{0};
  std::atomic<bool> inject{false};
  auto rng = stream(10007);
  constexpr int n = 40;
  std::vector<tf::Task> tasks;
  tasks.reserve(n);
  for (int i = 0; i < n; ++i) {
    const bool thrower = rng.bernoulli(0.2);
    tasks.push_back(fw.emplace([&executed, &inject, thrower] {
      executed++;
      if (thrower && inject.load()) throw InjectedFault();
    }));
  }
  for (int v = 1; v < n; ++v) {
    tasks[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(v)))]
        .precede(tasks[static_cast<std::size_t>(v)]);
  }

  const int iters = support::repro_fault_iters();
  for (int iter = 0; iter < iters; ++iter) {
    inject = (iter % 2 == 1);
    auto handle = executor.run(fw);
    ASSERT_EQ(handle.wait_for(kDrainDeadline), std::future_status::ready)
        << "iteration " << iter << " stalled\n"
        << executor.stall_report();
    try {
      handle.get();
      EXPECT_FALSE(inject.load()) << "iteration " << iter;
    } catch (const InjectedFault&) {
      EXPECT_TRUE(inject.load()) << "iteration " << iter;
    }
  }
  // Faults off: a full clean pass still executes every task.
  inject = false;
  executed = 0;
  auto handle = executor.run(fw);
  ASSERT_EQ(handle.wait_for(kDrainDeadline), std::future_status::ready);
  handle.get();
  EXPECT_EQ(executed.load(), n);
}

// Throw/cancel photo finish: every iteration races a thrower against an
// external cancel.  Whatever wins, the topology must drain, and the handle
// must report one coherent outcome (exception iff get() throws).
TEST_P(FaultModel, ThrowVersusCancelRace) {
  const int iters = support::repro_fault_iters();
  for (int iter = 0; iter < iters; ++iter) {
    auto rng = stream(20011 + iter);
    tf::Taskflow tf(make(2));
    // If the cancel wins the race the root is skipped and never throws; if
    // the root wins, the exception is captured.  Either outcome must drain.
    auto root = tf.emplace([] { throw InjectedFault(); });
    for (int i = 0; i < 16; ++i) root.precede(tf.emplace([] {}));
    auto handle = tf.dispatch();
    for (std::uint64_t spins = rng.below(64); spins > 0; --spins) {
      std::this_thread::yield();
    }
    handle.cancel();
    ASSERT_EQ(handle.wait_for(kDrainDeadline), std::future_status::ready)
        << "iteration " << iter << " stalled\n"
        << tf.stall_report();
    EXPECT_TRUE(handle.is_cancelled());
    bool threw = false;
    try {
      handle.get();
    } catch (const InjectedFault&) {
      threw = true;
    }
    EXPECT_EQ(threw, handle.exception() != nullptr) << "iteration " << iter;
    try {
      tf.wait_for_all();
    } catch (const InjectedFault&) {
    }
  }
}

// Executor-centric multi-client fault storm (ISSUE 3): several client
// threads share one tf::Executor and hammer run / run_n / run_until / async
// while faults fire and external cancels race live runs.  Every client's
// every handle must drain (bounded wait), errors must stay confined to the
// handle that owns them, and the executor must end fully drained.
TEST_P(FaultModel, ConcurrentClientsSurviveFaultStorm) {
  constexpr int kClients = 8;
  const int iters = std::max(4, support::repro_fault_iters() / 4);
  tf::Executor executor(make());

  // A taskflow contended by every client, with a probabilistic thrower:
  // FIFO serialization must hold even while runs of it fail and drain.
  tf::Taskflow shared_flow;
  std::atomic<int> shared_in_flight{0};
  std::atomic<bool> shared_overlap{false};
  std::atomic<std::uint64_t> shared_ticket{0};
  // The probe balances its counter within one task: a throwing or cancelled
  // run skips the *rest* of its graph (skip-but-finalize drain), so a
  // two-node enter/exit pair would leak an increment and report a false
  // overlap.  The fault fires only after the slot is released.
  auto probe = shared_flow.emplace([&] {
    if (shared_in_flight.fetch_add(1) != 0) shared_overlap = true;
    for (int i = 0; i < 32; ++i) std::this_thread::yield();
    shared_in_flight.fetch_sub(1);
    if (shared_ticket.fetch_add(1) % 7 == 6) throw InjectedFault();
  });
  probe.precede(shared_flow.emplace([] {}));

  std::atomic<long> drained_handles{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto rng = stream(30013 + c);
      tf::Taskflow mine;
      std::atomic<long> mine_runs{0};
      std::uint64_t fault_mask = rng();
      auto head = mine.emplace([&, c] {
        const auto run = static_cast<std::uint64_t>(mine_runs.fetch_add(1));
        if ((fault_mask >> (run % 64)) & 1) throw InjectedFault();
      });
      // A joined subflow keeps the drain paths honest under concurrency too.
      auto tail = mine.emplace([&](tf::SubflowBuilder& sf) {
        sf.emplace([] {});
        sf.emplace([] {});
      });
      head.precede(tail);

      for (int iter = 0; iter < iters; ++iter) {
        std::vector<tf::ExecutionHandle> handles;
        handles.push_back(executor.run(mine));
        handles.push_back(executor.run(shared_flow));
        handles.push_back(executor.run_n(mine, 1 + rng.below(6)));
        const long target = mine_runs.load() + 3;
        handles.push_back(executor.run_until(
            mine, [&mine_runs, target] { return mine_runs.load() >= target; }));
        auto async_future =
            executor.async([iter]() noexcept { return iter; });
        if (rng.bernoulli(0.4)) {
          for (std::uint64_t spins = rng.below(100); spins > 0; --spins) {
            std::this_thread::yield();  // race the cancel against execution
          }
          handles[rng.below(handles.size())].cancel();
        }
        for (auto& h : handles) {
          ASSERT_EQ(h.wait_for(kDrainDeadline), std::future_status::ready)
              << "client " << c << " iteration " << iter << " stalled\n"
              << executor.stall_report();
          try {
            h.get();
          } catch (const InjectedFault&) {
            EXPECT_TRUE(h.is_cancelled());  // an error always drains
          }
          drained_handles++;
        }
        EXPECT_EQ(async_future.get(), iter);
      }
    });
  }
  for (auto& t : clients) t.join();

  executor.wait_for_all();
  EXPECT_FALSE(shared_overlap.load()) << "shared-taskflow runs overlapped";
  EXPECT_EQ(drained_handles.load(), static_cast<long>(kClients) * iters * 4);
  EXPECT_EQ(executor.num_topologies(), 0u);
  EXPECT_EQ(executor.num_asyncs(), 0u);
}

// Flaky-task mode (resilience tentpole): every task fails its first k
// attempts (k drawn per node from the seeded stream) and carries a retry
// budget.  Tasks whose k fits the budget must converge; tasks whose k
// exceeds it must degrade through their fallback - so under concurrent
// multi-client load, no handle may ever surface an error.
TEST_P(FaultModel, FlakyTasksConvergeUnderConcurrentLoad) {
  constexpr int kClients = 6;
  const int iters = std::max(3, support::repro_fault_iters() / 8);
  tf::Executor executor(make());
  std::atomic<long> fallbacks{0};
  std::atomic<long> expected_fallbacks{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto rng = stream(40009 + c);
      constexpr int kNodes = 12;
      tf::Taskflow flow;
      // One failure counter per node, reset before every run (the executor
      // resets the *policy* budget per run; the injected flakiness must
      // reset too so each run replays its fail-first-k script).
      std::vector<std::unique_ptr<std::atomic<int>>> counters;
      std::vector<int> fail_first;
      std::vector<tf::Task> tasks;
      for (int i = 0; i < kNodes; ++i) {
        counters.push_back(std::make_unique<std::atomic<int>>(0));
        // k in [0, 4]; retry budget allows 3 failures -> k == 4 must fall
        // back, everything else must converge.
        const int k = static_cast<int>(rng.below(5));
        fail_first.push_back(k);
        std::atomic<int>* counter = counters.back().get();
        tf::RetryPolicy policy;
        policy.max_attempts = 4;
        policy.backoff = rng.bernoulli(0.5) ? 500us : 0us;  // timer queue + direct
        policy.jitter = 0.5;
        auto task = flow.emplace([counter, k] {
          if (counter->fetch_add(1) < k) throw InjectedFault();
        });
        task.retry(policy);
        task.fallback([&fallbacks] { fallbacks++; });
        tasks.push_back(task);
      }
      for (int v = 1; v < kNodes; ++v) {  // forward edges: acyclic
        tasks[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(v)))]
            .precede(tasks[static_cast<std::size_t>(v)]);
      }
      const long unlucky = static_cast<long>(
          std::count(fail_first.begin(), fail_first.end(), 4));

      for (int iter = 0; iter < iters; ++iter) {
        for (auto& counter : counters) counter->store(0);
        expected_fallbacks += unlucky;
        auto handle = executor.run(flow);
        ASSERT_EQ(handle.wait_for(kDrainDeadline), std::future_status::ready)
            << "client " << c << " iteration " << iter << " stalled\n"
            << executor.stall_report();
        EXPECT_NO_THROW(handle.get()) << "client " << c << " iteration " << iter;
        EXPECT_FALSE(handle.is_cancelled());
      }
    });
  }
  for (auto& t : clients) t.join();
  executor.wait_for_all();
  EXPECT_EQ(fallbacks.load(), expected_fallbacks.load());
  EXPECT_EQ(executor.num_topologies(), 0u);
}

// Overload storm (ISSUE 7): concurrent clients hammer an admission-controlled
// executor with randomized options - bounds, watermark, concurrency cap,
// breaker - through every submission flavor (blocking, admission-timeout,
// reject, try_run, priorities, deadlines) with random cancels and a 25%
// chance of a mid-storm shutdown.  Every handle must drain within the
// deadline and the admission counters must balance the per-client outcome
// tallies exactly: an admitted run resolves as success, shed, timeout, or
// fault - never silently, never twice.
TEST_P(FaultModel, OverloadStormDrainsWithCoherentOutcomes) {
  constexpr int kClients = 5;
  constexpr int kRounds = 16;
  const int iters = std::max(3, support::repro_fault_iters() / 8);

  for (int iter = 0; iter < iters; ++iter) {
    auto rng = stream(50021 + iter);
    tf::ExecutorOptions opts;
    opts.max_pending_topologies = 6 + rng.below(6);
    opts.max_pending_per_client = 2 + rng.below(3);
    opts.shed_watermark = rng.bernoulli(0.7) ? 3 + rng.below(5) : 0;
    opts.max_concurrent_topologies = rng.bernoulli(0.5) ? 1 + rng.below(3) : 0;
    opts.fairness_quantum = 1 + rng.below(64);
    if (rng.bernoulli(0.5)) {
      opts.breaker_threshold = 2 + static_cast<int>(rng.below(3));
      opts.breaker_cooldown = 1ms;
    }
    tf::Executor executor(make(2 + rng.below(3)), opts);
    const bool chaos = rng.bernoulli(0.25);
    const bool chaos_abort = rng.bernoulli(0.5);

    std::atomic<long> ok{0}, shed{0}, rejected{0}, empty_try{0}, timed{0},
        faulted{0}, shut{0};
    std::vector<std::uint64_t> seeds;
    for (int c = 0; c < kClients; ++c) seeds.push_back(rng());

    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto crng = support::Xoshiro256(seeds[static_cast<std::size_t>(c)]);
        tf::Taskflow mine;
        std::atomic<std::uint64_t> runs{0};
        const std::uint64_t fault_mask = crng();
        auto head = mine.emplace([&] {
          for (int i = 0; i < 16; ++i) std::this_thread::yield();
          if ((fault_mask >> (runs.fetch_add(1) % 64)) & 1) throw InjectedFault();
        });
        head.precede(mine.emplace([] {}));

        std::vector<tf::ExecutionHandle> handles;
        for (int round = 0; round < kRounds; ++round) {
          tf::RunPolicy policy;
          policy.priority = static_cast<int>(crng.below(3));
          try {
            switch (crng.below(4)) {
              case 0: {
                if (auto h = executor.try_run(mine, policy)) {
                  handles.push_back(*h);
                } else {
                  empty_try++;  // overload - or shutdown, in a chaos round
                }
                break;
              }
              case 1: {
                if (crng.bernoulli(0.3)) policy.admission_timeout = 2ms;
                handles.push_back(executor.run_n(mine, 1 + crng.below(2), policy));
                break;
              }
              case 2: {
                policy.admission = tf::AdmissionPolicy::reject;
                handles.push_back(executor.run(mine, policy));
                break;
              }
              default: {
                policy.timeout = 1ms;  // a deadline racing the queue + run
                handles.push_back(executor.run(mine, policy));
                break;
              }
            }
          } catch (const tf::ShutdownError&) {
            shut++;
            break;  // the executor is gone for good: stop submitting
          } catch (const tf::OverloadError&) {
            rejected++;  // reject policy, admission timeout, or open breaker
          }
          if (crng.bernoulli(0.2) && !handles.empty()) {
            handles[crng.below(handles.size())].cancel();
          }
        }
        for (auto& h : handles) {
          ASSERT_EQ(h.wait_for(kDrainDeadline), std::future_status::ready)
              << "client " << c << " iteration " << iter << " stalled\n"
              << executor.stall_report();
          try {
            h.get();
            ok++;
          } catch (const tf::TimeoutError&) {
            timed++;
          } catch (const tf::OverloadError&) {
            shed++;  // a load-shed run: completed without executing
          } catch (const InjectedFault&) {
            faulted++;
          }
        }
      });
    }
    if (chaos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + rng.below(8)));
      executor.shutdown(chaos_abort ? tf::ShutdownMode::abort
                                    : tf::ShutdownMode::drain);
    }
    for (auto& t : clients) t.join();
    executor.wait_for_all();

    // Conservation: every admitted run resolved exactly once, every shed was
    // counted, and nothing is left in flight.
    EXPECT_EQ(executor.metrics().shed, static_cast<std::size_t>(shed.load()))
        << "iteration " << iter;
    EXPECT_EQ(executor.metrics().admitted,
              static_cast<std::size_t>(ok.load() + shed.load() + timed.load() +
                                       faulted.load()))
        << "iteration " << iter;
    if (!chaos) {
      // Without a shutdown in the mix, an empty try_run is always an
      // overload rejection and the executor counted it as one.
      EXPECT_EQ(executor.metrics().rejected,
                static_cast<std::size_t>(rejected.load() + empty_try.load()))
          << "iteration " << iter;
    }
    EXPECT_EQ(executor.num_topologies(), 0u) << "iteration " << iter;
  }
}

// ---------------------------------------------------------------------------
// Allocation-failure injection (ISSUE 9 satellite): detail::arm_alloc_failure
// makes the n-th GraphArena slab acquisition throw std::bad_alloc.  A failure
// on a worker thread (subflow spawn, module instantiation) must ride the
// skip-but-finalize drain to the future; a failure on the builder thread
// throws straight to the caller.  Either way the executor survives.
// ---------------------------------------------------------------------------

TEST(AllocFailure, BuildTimeSlabGrowthThrowsToTheCallerAndDisarms) {
  tf::Taskflow flow;  // arena is lazy: no slab yet
  tf::detail::arm_alloc_failure(0);
  EXPECT_THROW((void)flow.emplace([] {}), std::bad_alloc);
  // One-shot: the injector disarmed itself when it fired.
  std::atomic<int> ran{0};
  EXPECT_NO_THROW((void)flow.emplace([&] { ran++; }));
  tf::detail::disarm_alloc_failure();
  tf::Executor executor(1);
  EXPECT_NO_THROW(executor.run(flow).get());
  EXPECT_EQ(ran.load(), 1);
}

TEST_P(FaultModel, AllocFailureDuringSubflowSpawnReachesTheFuture) {
  tf::Executor executor(make(2));
  tf::detail::disarm_alloc_failure();

  std::atomic<bool> gate{false};
  tf::Taskflow flow;
  std::atomic<int> kids_ran{0};
  auto pre = flow.emplace([&] {
    while (!gate.load()) std::this_thread::yield();
  });
  auto dyn = flow.emplace([&](tf::SubflowBuilder& sf) {
    for (int i = 0; i < 64; ++i) sf.emplace([&] { kids_ran++; });
  });
  pre.precede(dyn);

  auto h = executor.run(flow);  // build + dispatch done: nodes already have slabs
  // The next slab acquisition anywhere is the subflow child graph's first
  // node, allocated on the worker mid-run.
  tf::detail::arm_alloc_failure(0);
  gate = true;
  ASSERT_EQ(h.wait_for(kDrainDeadline), std::future_status::ready);
  EXPECT_THROW(h.get(), std::bad_alloc);
  tf::detail::disarm_alloc_failure();

  // Survivable: the same executor keeps running clean work, and the same
  // flow re-runs successfully once allocation recovers.
  auto h2 = executor.run(flow);
  ASSERT_EQ(h2.wait_for(kDrainDeadline), std::future_status::ready);
  EXPECT_NO_THROW(h2.get());
  EXPECT_EQ(kids_ran.load(), 64);
}

TEST_P(FaultModel, AllocFailureDuringModuleInstantiationReachesTheFuture) {
  tf::Executor executor(make(2));
  tf::detail::disarm_alloc_failure();

  std::atomic<bool> gate{false};
  std::atomic<int> target_ran{0};
  tf::Taskflow target;
  auto t0 = target.emplace([&] { target_ran++; });
  auto t1 = target.emplace([&] { target_ran++; });
  t0.precede(t1);

  tf::Taskflow parent;
  auto pre = parent.emplace([&] {
    while (!gate.load()) std::this_thread::yield();
  });
  auto mod = parent.composed_of(target).name("alloc-victim");
  pre.precede(mod);

  auto h = executor.run(parent);
  // Module expansion deep-copies `target` into a fresh child graph on the
  // worker; its first node allocation is the next slab acquisition.
  tf::detail::arm_alloc_failure(0);
  gate = true;
  ASSERT_EQ(h.wait_for(kDrainDeadline), std::future_status::ready);
  EXPECT_THROW(h.get(), std::bad_alloc);
  EXPECT_EQ(target_ran.load(), 0);  // the expansion never materialized
  tf::detail::disarm_alloc_failure();

  auto h2 = executor.run(parent);
  ASSERT_EQ(h2.wait_for(kDrainDeadline), std::future_status::ready);
  EXPECT_NO_THROW(h2.get());
  EXPECT_EQ(target_ran.load(), 2);
}

INSTANTIATE_TEST_SUITE_P(Executors, FaultModel,
                         ::testing::Values("work_stealing", "nocache_steal0"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace

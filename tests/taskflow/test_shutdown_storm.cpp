// Shutdown-under-storm interplay (ISSUE 9 satellite): shutdown(drain) and
// shutdown(abort) racing live admission machinery - parked backpressure
// submitters, pending runs above the shed watermark, and half-open breaker
// probes.  The contract under test: every submitter unblocks, every handle
// handed out becomes ready, and the admission counter identities hold on
// both backends.  Every wait is bounded so a lost wake-up fails loudly.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backends.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace {

using namespace std::chrono_literals;

constexpr auto kDeadline = 120s;

struct Boom : std::runtime_error {
  Boom() : std::runtime_error("boom") {}
};

// Cancel-aware park (aborted runs must drain promptly).
void spin_until(const std::atomic<bool>& gate) {
  while (!gate.load() && !tf::this_task::is_cancelled()) {
    std::this_thread::yield();
  }
}

struct GateOpener {
  explicit GateOpener(std::atomic<bool>& g) : gate(g) {}
  ~GateOpener() { gate.store(true); }
  std::atomic<bool>& gate;
};

class ShutdownStorm : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<tf::ExecutorInterface> make(std::size_t n = 2) const {
    return tf_test::make_backend(GetParam(), n);
  }
};

// ---------------------------------------------------------------------------
// Parked backpressure submitters: shutdown(drain) wakes every one of them
// with ShutdownError while the in-flight run finishes normally.
// ---------------------------------------------------------------------------

TEST_P(ShutdownStorm, DrainUnblocksEveryParkedSubmitter) {
  tf::ExecutorOptions opts;
  opts.max_pending_topologies = 1;
  tf::Executor executor(make(2), opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);

  tf::Taskflow gated;
  gated.emplace([&] { spin_until(gate); });
  auto h0 = executor.run(gated);  // occupies the single admission slot

  constexpr int kSubmitters = 4;
  std::atomic<int> parked{0};
  std::atomic<int> shutdown_rejected{0};
  std::atomic<int> admitted_late{0};
  std::vector<std::thread> submitters;
  std::vector<tf::Taskflow> flows(kSubmitters);
  for (int i = 0; i < kSubmitters; ++i) {
    flows[static_cast<std::size_t>(i)].emplace([] {});
    submitters.emplace_back([&, i] {
      parked++;
      try {
        // AdmissionPolicy::block with no timeout: parks until capacity or
        // shutdown.  The slot never frees before shutdown (the gate is
        // closed), so every submitter must leave through ShutdownError.
        auto h = executor.run(flows[static_cast<std::size_t>(i)]);
        admitted_late++;
        h.wait();
      } catch (const tf::ShutdownError&) {
        shutdown_rejected++;
      }
    });
  }
  while (parked.load() < kSubmitters) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);  // let them reach the backpressure wait

  // drain blocks until the gated run retires, so open the gate from the
  // side once shutdown is underway.
  std::thread open_later([&] {
    std::this_thread::sleep_for(20ms);
    gate = true;
  });
  executor.shutdown(tf::ShutdownMode::drain);
  open_later.join();
  for (auto& t : submitters) t.join();

  EXPECT_EQ(shutdown_rejected.load() + admitted_late.load(), kSubmitters);
  ASSERT_EQ(h0.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(h0.get());
  // Shutdown rejections are not overload: the reject counter stays clean,
  // and the admitted count covers exactly the runs that got in.
  EXPECT_EQ(executor.metrics().rejected, 0u);
  EXPECT_EQ(executor.metrics().admitted,
            1u + static_cast<std::size_t>(admitted_late.load()));
  EXPECT_EQ(executor.num_topologies(), 0u);
}

// ---------------------------------------------------------------------------
// Pending sheds: shutdown(abort) readies every handle - the started run, the
// queued-over-watermark sheds that already failed, and the still-queued rest.
// ---------------------------------------------------------------------------

TEST_P(ShutdownStorm, AbortReadiesShedAndQueuedHandles) {
  tf::ExecutorOptions opts;
  opts.shed_watermark = 2;
  tf::Executor executor(make(1), opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);

  tf::Taskflow gated;
  std::atomic<int> ran{0};
  gated.emplace([&] {
    ran++;
    spin_until(gate);
  });

  std::vector<tf::Taskflow> flows(6);
  std::vector<tf::ExecutionHandle> handles;
  handles.push_back(executor.run(gated));  // started: not sheddable
  for (auto& flow : flows) {
    flow.emplace([&] { ran++; });
    handles.push_back(executor.run(flow));  // queued; overflow sheds lowest
  }

  executor.shutdown(tf::ShutdownMode::abort);

  // Every handle handed out is ready the moment shutdown returns.
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& h : handles) {
    ASSERT_EQ(h.wait_for(0s), std::future_status::ready);
    try {
      h.get();
      ++ok;
    } catch (const tf::OverloadError&) {
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, handles.size());
  EXPECT_EQ(executor.metrics().shed, shed);
  EXPECT_EQ(executor.metrics().admitted, handles.size());
  EXPECT_EQ(executor.metrics().rejected, 0u);
  EXPECT_EQ(executor.num_topologies(), 0u);
  EXPECT_THROW((void)executor.run(gated), tf::ShutdownError);
}

// ---------------------------------------------------------------------------
// Half-open breaker probe racing shutdown(drain): the in-flight probe
// retires normally, its handle is ready, and the counters stay consistent.
// ---------------------------------------------------------------------------

TEST_P(ShutdownStorm, HalfOpenBreakerProbeSurvivesDrain) {
  tf::ExecutorOptions opts;
  opts.breaker_threshold = 2;
  opts.breaker_cooldown = 1ms;
  tf::Executor executor(make(2), opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);

  tf::Taskflow flaky;
  std::atomic<bool> heal{false};
  flaky.emplace([&] {
    if (!heal.load()) throw Boom{};
    spin_until(gate);  // the healed probe parks so shutdown races it
  });

  for (int i = 0; i < 2; ++i) {
    EXPECT_THROW(executor.run(flaky).get(), Boom);
  }
  EXPECT_EQ(executor.metrics().breaker_trips, 1u);
  EXPECT_THROW((void)executor.run(flaky), tf::BreakerOpenError);  // open

  std::this_thread::sleep_for(2ms);  // past the cooldown: half-open
  heal = true;
  auto probe = executor.run(flaky);  // the single half-open probe, parked

  std::thread open_later([&] {
    std::this_thread::sleep_for(10ms);
    gate = true;
  });
  executor.shutdown(tf::ShutdownMode::drain);
  open_later.join();

  ASSERT_EQ(probe.wait_for(0s), std::future_status::ready);
  EXPECT_NO_THROW(probe.get());
  // Two failing runs + the probe were admitted; the BreakerOpenError while
  // open was a door rejection.
  EXPECT_EQ(executor.metrics().admitted, 3u);
  EXPECT_EQ(executor.metrics().rejected, 1u);
  EXPECT_THROW((void)executor.run(flaky), tf::ShutdownError);
}

// ---------------------------------------------------------------------------
// Randomized storm: submitter threads race a mid-storm shutdown of either
// mode.  Deterministic per REPRO_FAULT_SEED; every handle must be ready
// after shutdown and the counter identities must balance exactly.
// ---------------------------------------------------------------------------

TEST_P(ShutdownStorm, MidStormShutdownAccountsEveryHandle) {
  const int iters = std::max(4, support::repro_fault_iters() / 4);
  for (int iter = 0; iter < iters; ++iter) {
    support::Xoshiro256 rng(support::repro_fault_seed() +
                            0x9e3779b97f4a7c15ULL *
                                static_cast<std::uint64_t>(iter));
    const bool abort_mode = (iter % 2) == 1;

    tf::ExecutorOptions opts;
    opts.max_pending_topologies = 4;
    opts.shed_watermark = 3;
    opts.breaker_threshold = 3;
    opts.breaker_cooldown = 500us;
    tf::Executor executor(make(2), opts);

    constexpr int kThreads = 6;
    constexpr int kRequests = 24;
    std::atomic<std::uint64_t> door_rejected{0};
    std::atomic<std::uint64_t> door_shutdown{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> faulted{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<int> never_ready{0};  // gtest asserts stay on the main thread

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      const std::uint64_t seed = rng();
      threads.emplace_back([&, t, seed] {
        support::Xoshiro256 mine(seed);
        // One flow per thread: the per-taskflow breaker and per-client
        // bounds engage, and reuse exercises topology recycling mid-race.
        tf::Taskflow flow;
        std::atomic<bool> throws{false};
        flow.emplace([&] {
          const auto end =
              std::chrono::steady_clock::now() + std::chrono::microseconds(20);
          while (std::chrono::steady_clock::now() < end &&
                 !tf::this_task::is_cancelled()) {
          }
          if (throws.load(std::memory_order_relaxed)) throw Boom{};
        });
        std::vector<tf::ExecutionHandle> handles;
        handles.reserve(kRequests);
        for (int r = 0; r < kRequests; ++r) {
          throws.store(mine.bernoulli(0.1), std::memory_order_relaxed);
          tf::RunPolicy policy;
          policy.priority = static_cast<int>(mine.below(3));
          policy.admission = mine.bernoulli(0.5)
                                 ? tf::AdmissionPolicy::block
                                 : tf::AdmissionPolicy::reject;
          if (policy.admission == tf::AdmissionPolicy::block) {
            policy.admission_timeout = std::chrono::milliseconds(2);
          }
          try {
            handles.push_back(executor.run(flow, policy));
          } catch (const tf::ShutdownError&) {
            door_shutdown++;
            break;  // the server is gone: stop submitting
          } catch (const tf::OverloadError&) {
            door_rejected++;  // at-capacity, expired wait, or open breaker
          }
          // `throws` is only safe to flip after the handle resolves; the
          // window here is one in-flight run per thread.
          if (!handles.empty() &&
              handles.back().wait_for(kDeadline) != std::future_status::ready) {
            never_ready++;
            return;
          }
        }
        for (auto& h : handles) {
          if (h.wait_for(kDeadline) != std::future_status::ready) {
            never_ready++;
            return;
          }
          try {
            h.get();
            ok++;
          } catch (const Boom&) {
            faulted++;
          } catch (const tf::OverloadError&) {
            shed++;
          }
        }
      });
    }

    // Pull the rug mid-storm at a random point.
    std::this_thread::sleep_for(
        std::chrono::microseconds(100 + rng.below(2000)));
    executor.shutdown(abort_mode ? tf::ShutdownMode::abort
                                 : tf::ShutdownMode::drain);
    for (auto& t : threads) t.join();

    // Every handle handed out became ready within the (generous) deadline.
    ASSERT_EQ(never_ready.load(), 0) << "iteration " << iter;
    // Conservation at quiescence: every admitted run resolved exactly once;
    // door rejections (overload, NOT shutdown) match the reject counter.
    EXPECT_EQ(executor.metrics().admitted, ok.load() + faulted.load() + shed.load())
        << "iteration " << iter;
    EXPECT_EQ(executor.metrics().shed, shed.load()) << "iteration " << iter;
    EXPECT_EQ(executor.metrics().rejected, door_rejected.load())
        << "iteration " << iter;
    EXPECT_EQ(executor.num_topologies(), 0u) << "iteration " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ShutdownStorm,
                         ::testing::Values("work_stealing", "nocache_steal0"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace

// Stress tests of the batched release path: one finishing node makes a large
// set of successors ready at once and the executor must publish them as one
// batch (single fence, bounded wakeups) without losing or duplicating any.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace {

constexpr int kFanOut = 512;
constexpr int kRepeats = 20;

// One source releases kFanOut successors in a single finalization; every
// successor must run exactly once and the sink exactly once per round.
void run_fanout_exactly_once(const std::shared_ptr<tf::ExecutorInterface>& executor) {
  for (int round = 0; round < kRepeats; ++round) {
    tf::Taskflow tf(executor);
    std::vector<std::atomic<int>> runs(kFanOut);
    std::atomic<int> sink_runs{0};
    auto source = tf.emplace([] {});
    auto sink = tf.emplace([&sink_runs] { ++sink_runs; });
    for (int i = 0; i < kFanOut; ++i) {
      auto mid = tf.emplace([&runs, i] { runs[i].fetch_add(1, std::memory_order_relaxed); });
      source.precede(mid);
      mid.precede(sink);
    }
    tf.wait_for_all();
    for (int i = 0; i < kFanOut; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "successor " << i << " round " << round;
    }
    ASSERT_EQ(sink_runs.load(), 1) << "round " << round;
  }
}

TEST(BatchRelease, FanOutExactlyOnceWorkStealing) {
  run_fanout_exactly_once(tf::make_executor(4));
}

TEST(BatchRelease, FanOutExactlyOnceSimpleExecutor) {
  run_fanout_exactly_once(std::make_shared<tf::SimpleExecutor>(4));
}

// The batch must be published while the other workers are parked: let the
// executor go fully idle between rounds so the release path has to wake them
// (exercises wake_n / the direct cache hand-off, not just queue pushes).
TEST(BatchRelease, FanOutWakesParkedWorkers) {
  tf::WorkStealingOptions opt;
  opt.spin_tries = 0;  // park immediately: every round starts from idlers
  auto executor = tf::make_executor(4, opt);
  for (int round = 0; round < kRepeats; ++round) {
    // Give workers time to reach the idler list before dispatching.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tf::Taskflow tf(executor);
    std::atomic<int> total{0};
    auto source = tf.emplace([] {});
    for (int i = 0; i < kFanOut; ++i) {
      auto mid = tf.emplace([&total] { total.fetch_add(1, std::memory_order_relaxed); });
      source.precede(mid);
    }
    tf.wait_for_all();
    ASSERT_EQ(total.load(), kFanOut) << "round " << round;
  }
  const auto stats = executor->stats();
  EXPECT_GT(stats.parks, 0u);
  EXPECT_GT(stats.wakes, 0u);
}

// With stealing disabled entirely, batched tasks must still drain through
// the central queue / park hand-off (the guaranteed-progress path).
TEST(BatchRelease, FanOutDrainsWithStealingDisabled) {
  tf::WorkStealingOptions opt;
  opt.steal_rounds = 0;
  opt.spin_tries = 0;
  opt.balance_wake_probability = 0.0;
  auto executor = tf::make_executor(4, opt);
  run_fanout_exactly_once(executor);
}

// Nested fan-out: each first-layer successor releases its own second layer,
// so many batches are in flight concurrently from different workers.
TEST(BatchRelease, ConcurrentBatchesFromManyWorkers) {
  auto executor = tf::make_executor(4);
  constexpr int kLayer1 = 32;
  constexpr int kLayer2 = 64;
  tf::Taskflow tf(executor);
  std::atomic<int> total{0};
  auto source = tf.emplace([] {});
  for (int i = 0; i < kLayer1; ++i) {
    auto mid = tf.emplace([&total] { total.fetch_add(1, std::memory_order_relaxed); });
    source.precede(mid);
    for (int j = 0; j < kLayer2; ++j) {
      auto leaf = tf.emplace([&total] { total.fetch_add(1, std::memory_order_relaxed); });
      mid.precede(leaf);
    }
  }
  tf.wait_for_all();
  EXPECT_EQ(total.load(), kLayer1 + kLayer1 * kLayer2);
}

// Subflow sources are also published as one batch; a dynamic task spawning a
// wide subflow while other graphs run must not lose children.
TEST(BatchRelease, WideSubflowBatch) {
  auto executor = tf::make_executor(4);
  tf::Taskflow tf(executor);
  std::atomic<int> total{0};
  tf.emplace([&total](tf::SubflowBuilder& sf) {
    for (int i = 0; i < kFanOut; ++i) {
      sf.emplace([&total] { total.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  tf.wait_for_all();
  EXPECT_EQ(total.load(), kFanOut);
}

}  // namespace

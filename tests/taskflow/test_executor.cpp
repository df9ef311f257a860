// Executor semantics (paper §III-E): work-stealing correctness under load,
// pluggability, sharing across taskflows, and Algorithm-1 heuristics.
#include "taskflow/executor.hpp"
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "backends.hpp"

namespace {

class ExecutorStress : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorStress, ManyIndependentTasks) {
  const int workers = GetParam();
  tf::Taskflow tf(static_cast<std::size_t>(workers));
  std::atomic<long> counter{0};
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) tf.emplace([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  tf.wait_for_all();
  EXPECT_EQ(counter.load(), n);
}

TEST_P(ExecutorStress, DeepLinearChain) {
  // Exercises the per-worker cache (speculative chain execution): a strictly
  // linear dependency graph must still execute in order.
  const int workers = GetParam();
  tf::Taskflow tf(static_cast<std::size_t>(workers));
  constexpr int n = 10000;
  int sequential_value = 0;  // written strictly in dependency order
  bool ok = true;
  std::vector<tf::Task> chain;
  chain.reserve(n);
  for (int i = 0; i < n; ++i) {
    chain.push_back(tf.emplace([&, i] {
      if (sequential_value != i) ok = false;
      sequential_value = i + 1;
    }));
  }
  tf.linearize(chain);
  tf.wait_for_all();
  EXPECT_TRUE(ok);
  EXPECT_EQ(sequential_value, n);
}

TEST_P(ExecutorStress, WideFanOutFanIn) {
  const int workers = GetParam();
  tf::Taskflow tf(static_cast<std::size_t>(workers));
  std::atomic<int> mids{0};
  std::atomic<bool> fanin_saw_all{false};
  auto src = tf.emplace([] {});
  auto sink = tf.emplace([&] { fanin_saw_all = (mids.load() == 5000); });
  for (int i = 0; i < 5000; ++i) {
    auto mid = tf.emplace([&] { mids.fetch_add(1, std::memory_order_relaxed); });
    src.precede(mid);
    mid.precede(sink);
  }
  tf.wait_for_all();
  EXPECT_TRUE(fanin_saw_all.load());
}

TEST_P(ExecutorStress, RandomDagRespectsAllEdges) {
  // Build a random DAG and verify every edge ordering at runtime.
  const int workers = GetParam();
  constexpr int n = 2000;
  tf::Taskflow tf(static_cast<std::size_t>(workers));
  std::vector<std::atomic<int>> stamp(n);
  for (auto& s : stamp) s.store(-1);
  std::atomic<int> clock{0};

  std::vector<tf::Task> tasks;
  tasks.reserve(n);
  for (int i = 0; i < n; ++i) {
    tasks.push_back(tf.emplace([&stamp, &clock, i] {
      stamp[static_cast<std::size_t>(i)].store(clock.fetch_add(1));
    }));
  }
  support::Xoshiro256 rng(321);
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    const int degree = static_cast<int>(rng.below(4));
    for (int e = 0; e < degree; ++e) {
      const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(v)));
      tasks[static_cast<std::size_t>(u)].precede(tasks[static_cast<std::size_t>(v)]);
      edges.emplace_back(u, v);
    }
  }
  tf.wait_for_all();
  for (auto [u, v] : edges) {
    EXPECT_LT(stamp[static_cast<std::size_t>(u)].load(),
              stamp[static_cast<std::size_t>(v)].load());
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ExecutorStress, ::testing::Values(1, 2, 4, 8));

TEST(Executor, SharedAcrossTaskflows) {
  // Paper §III-E: sharing an executor among taskflow objects avoids thread
  // over-subscription; all taskflows must still complete correctly.
  auto executor = tf::make_executor(4);
  std::atomic<int> counter{0};
  {
    std::vector<std::unique_ptr<tf::Taskflow>> flows;
    for (int f = 0; f < 8; ++f) {
      flows.push_back(std::make_unique<tf::Taskflow>(executor));
      for (int i = 0; i < 500; ++i) flows.back()->emplace([&] { counter++; });
      flows.back()->silent_dispatch();
    }
    for (auto& f : flows) f->wait_for_all();
  }
  EXPECT_EQ(counter.load(), 8 * 500);
  EXPECT_EQ(executor->num_workers(), 4u);
}

// A backend outside the library: it implements only schedule_batch and
// num_workers, and the run's middle task fails twice before it succeeds, so
// the timer thread re-enqueues it through schedule_batch after each backoff.
TEST(Executor, CustomBackendRunsGraphsCorrectly) {
  auto executor = std::make_shared<tf_test::CustomBackend>();
  tf::Taskflow tf(executor);
  std::atomic<int> order_errors{0};
  std::atomic<int> stage{0};
  std::atomic<int> attempts{0};
  auto A = tf.emplace([&] {
    if (stage.exchange(1) != 0) order_errors++;
  });
  auto B = tf.emplace([&] {
    if (attempts.fetch_add(1) < 2) throw std::runtime_error("transient");
    if (stage.exchange(2) != 1) order_errors++;
  });
  tf::RetryPolicy retry;
  retry.max_attempts = 3;  // retry(2) with a backoff
  retry.backoff = std::chrono::milliseconds(1);
  B.retry(retry);
  auto C = tf.emplace([&] {
    if (stage.exchange(3) != 2) order_errors++;
  });
  A.precede(B);
  B.precede(C);
  tf.wait_for_all();
  EXPECT_EQ(order_errors.load(), 0);
  EXPECT_EQ(stage.load(), 3);
  EXPECT_EQ(attempts.load(), 3);
}

TEST(Executor, CustomBackendSubflows) {
  auto executor = std::make_shared<tf_test::CustomBackend>();
  tf::Taskflow tf(executor);
  std::atomic<int> counter{0};
  auto B = tf.emplace([&](tf::SubflowBuilder& sf) {
    for (int i = 0; i < 50; ++i) sf.emplace([&] { counter++; });
  });
  auto D = tf.emplace([&] { EXPECT_EQ(counter.load(), 50); });
  B.precede(D);
  tf.wait_for_all();
  EXPECT_EQ(counter.load(), 50);
}

TEST(Executor, CacheDisabledStillCorrect) {
  tf::WorkStealingOptions opt;
  opt.enable_worker_cache = false;
  auto executor = tf::make_executor(4, opt);
  tf::Taskflow tf(executor);
  std::atomic<int> counter{0};
  std::vector<tf::Task> chain;
  for (int i = 0; i < 1000; ++i) chain.push_back(tf.emplace([&] { counter++; }));
  tf.linearize(chain);
  tf.wait_for_all();
  EXPECT_EQ(counter.load(), 1000);
  EXPECT_EQ(executor->stats().cache_hits, 0u);
}

TEST(Executor, CacheEnabledReportsHitsOnLinearChain) {
  auto executor = tf::make_executor(2);
  tf::Taskflow tf(executor);
  std::vector<tf::Task> chain;
  for (int i = 0; i < 1000; ++i) chain.push_back(tf.emplace([] {}));
  tf.linearize(chain);
  tf.wait_for_all();
  // Nearly every link of the chain should have gone through the cache.
  EXPECT_GT(executor->stats().cache_hits, 500u);
}

TEST(Executor, ZeroBalanceProbabilityStillCompletes) {
  tf::WorkStealingOptions opt;
  opt.balance_wake_probability = 0.0;
  auto executor = tf::make_executor(4, opt);
  tf::Taskflow tf(executor);
  std::atomic<int> counter{0};
  for (int i = 0; i < 5000; ++i) tf.emplace([&] { counter++; });
  tf.wait_for_all();
  EXPECT_EQ(counter.load(), 5000);
}

TEST(Executor, IdlersParkWhenNoWork) {
  auto executor = tf::make_executor(4);
  // Give workers time to go idle.
  for (int i = 0; i < 200 && executor->stats().num_idlers < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(executor->stats().num_idlers, 4u);
  // They must wake up and do work afterwards.
  tf::Taskflow tf(executor);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) tf.emplace([&] { counter++; });
  tf.wait_for_all();
  EXPECT_EQ(counter.load(), 100);
}

TEST(Executor, RepeatedConstructionDestruction) {
  // Start/stop churn must not deadlock or leak tasks.
  for (int rep = 0; rep < 20; ++rep) {
    tf::Taskflow tf(3);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i) tf.emplace([&] { counter++; });
    tf.wait_for_all();
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(Executor, MillionTaskScale) {
  // Million-scale tasking is the paper's headline workload scale.
  tf::Taskflow tf(4);
  std::atomic<long> counter{0};
  constexpr int n = 1'000'000;
  tf.parallel_for(0, n, 1, [&](int) { counter.fetch_add(1, std::memory_order_relaxed); },
                  256);
  tf.wait_for_all();
  EXPECT_EQ(counter.load(), n);
}

}  // namespace

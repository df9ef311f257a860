// Property sweep over the executor configuration space: every combination
// of (worker count, cache on/off, balance-wake probability, executor kind)
// must execute randomized DAGs correctly - the broad-coverage counterpart
// of the targeted tests in test_executor.cpp.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "backends.hpp"

namespace {

// No padding bytes: gtest prints a parameter without PrintTo as its raw
// bytes, and those bytes are part of the ctest IDs, so every one of them
// must be defined for the IDs to stay the same from build to build.
struct MatrixParam {
  int workers;
  int cache;  // bool, widened to fill the word before the double
  double wake_probability;
};
static_assert(sizeof(MatrixParam) == 2 * sizeof(int) + sizeof(double));

class ExecutorMatrix : public ::testing::TestWithParam<MatrixParam> {
 protected:
  std::shared_ptr<tf::WorkStealingExecutor> make() const {
    const auto& p = GetParam();
    tf::WorkStealingOptions opt;
    opt.enable_worker_cache = p.cache;
    opt.balance_wake_probability = p.wake_probability;
    return tf::make_executor(static_cast<std::size_t>(p.workers), opt);
  }
};

TEST_P(ExecutorMatrix, RandomDagOrderingHolds) {
  auto executor = make();
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    tf::Taskflow tf(executor);
    constexpr int n = 600;
    std::vector<std::atomic<int>> stamp(n);
    for (auto& s : stamp) s.store(-1);
    std::atomic<int> clock{0};

    std::vector<tf::Task> tasks;
    tasks.reserve(n);
    for (int i = 0; i < n; ++i) {
      tasks.push_back(tf.emplace(
          [&stamp, &clock, i] { stamp[static_cast<std::size_t>(i)] = clock++; }));
    }
    support::Xoshiro256 rng(seed);
    std::vector<std::pair<int, int>> edges;
    for (int v = 1; v < n; ++v) {
      for (std::uint64_t e = 0; e < rng.below(3); ++e) {
        const int u = static_cast<int>(rng.below(static_cast<std::uint64_t>(v)));
        tasks[static_cast<std::size_t>(u)].precede(tasks[static_cast<std::size_t>(v)]);
        edges.emplace_back(u, v);
      }
    }
    tf.wait_for_all();
    for (auto [u, v] : edges) {
      ASSERT_LT(stamp[static_cast<std::size_t>(u)].load(),
                stamp[static_cast<std::size_t>(v)].load())
          << "seed " << seed;
    }
  }
}

TEST_P(ExecutorMatrix, SubflowsJoinUnderEveryConfiguration) {
  auto executor = make();
  tf::Taskflow tf(executor);
  std::atomic<int> order_violations{0};
  std::atomic<int> children{0};
  for (int i = 0; i < 40; ++i) {
    auto parent = tf.emplace([&](tf::SubflowBuilder& sf) {
      for (int j = 0; j < 6; ++j) sf.emplace([&] { children++; });
    });
    auto after = tf.emplace([&, i] {
      // All children of *this* parent must have finished; since parents are
      // independent, children is at least 6*(number of finished parents) and
      // our own parent's 6 are included.  A cheap necessary condition:
      if (children.load() < 6) order_violations++;
    });
    parent.precede(after);
  }
  tf.wait_for_all();
  EXPECT_EQ(order_violations.load(), 0);
  EXPECT_EQ(children.load(), 240);
}

TEST_P(ExecutorMatrix, AlgorithmsProduceExactResults) {
  auto executor = make();
  tf::Taskflow tf(executor);
  std::vector<long> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<long>(i % 97);
  long sum = 0;
  tf.reduce(data.begin(), data.end(), sum, std::plus<long>{});
  tf.wait_for_all();
  long expected = 0;
  for (long v : data) expected += v;
  EXPECT_EQ(sum, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ExecutorMatrix,
    ::testing::Values(MatrixParam{1, true, 1.0 / 64}, MatrixParam{1, false, 0.0},
                      MatrixParam{2, true, 0.0}, MatrixParam{2, false, 1.0 / 8},
                      MatrixParam{4, true, 1.0 / 64}, MatrixParam{4, false, 1.0},
                      MatrixParam{8, true, 0.5}, MatrixParam{8, false, 1.0 / 64}),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      return "w" + std::to_string(info.param.workers) +
             (info.param.cache ? "_cache" : "_nocache") + "_p" +
             std::to_string(static_cast<int>(info.param.wake_probability * 64));
    });

// Cross-kind comparison: a backend outside the library must agree with work
// stealing on a deterministic pipeline computation.
TEST(ExecutorKinds, PipelineResultIdentical) {
  auto run = [](std::shared_ptr<tf::ExecutorInterface> executor) {
    tf::Taskflow tf(std::move(executor));
    std::vector<double> stages(6, 0.0);
    std::vector<tf::Task> tasks;
    for (int s = 0; s < 6; ++s) {
      tasks.push_back(tf.emplace([&stages, s] {
        stages[static_cast<std::size_t>(s)] =
            (s == 0 ? 1.0 : stages[static_cast<std::size_t>(s - 1)]) * (s + 2);
      }));
    }
    tf.linearize(tasks);
    tf.wait_for_all();
    return stages.back();
  };
  const double a = run(tf::make_executor(4));
  const double b = run(std::make_shared<tf_test::CustomBackend>());
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_DOUBLE_EQ(a, 2.0 * 3 * 4 * 5 * 6 * 7);
}

}  // namespace

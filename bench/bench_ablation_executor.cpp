// bench_ablation_executor - ablation of the Algorithm-1 design choices the
// paper highlights (google-benchmark):
//   * per-worker cache (speculative linear-chain execution) on vs off,
//     on a chain-heavy workload;
//   * probabilistic load-balance wakeups at several probabilities, on an
//     independent-task workload;
//   * the independent-task workload at 1, 2 and 4 workers.
#include <benchmark/benchmark.h>

#include "taskflow/taskflow.hpp"

namespace {

constexpr int kChainLength = 20000;
constexpr int kFanTasks = 20000;

void run_chain(const std::shared_ptr<tf::ExecutorInterface>& executor) {
  tf::Taskflow tf(executor);
  long value = 0;
  std::vector<tf::Task> chain;
  chain.reserve(kChainLength);
  for (int i = 0; i < kChainLength; ++i) {
    chain.push_back(tf.emplace([&value] { ++value; }));
  }
  tf.linearize(chain);
  tf.wait_for_all();
  benchmark::DoNotOptimize(value);
}

void run_fan(const std::shared_ptr<tf::ExecutorInterface>& executor) {
  tf::Taskflow tf(executor);
  std::atomic<long> value{0};
  for (int i = 0; i < kFanTasks; ++i) {
    tf.emplace([&value] { value.fetch_add(1, std::memory_order_relaxed); });
  }
  tf.wait_for_all();
  benchmark::DoNotOptimize(value.load());
}

void BM_Chain_WorkerCache(benchmark::State& state) {
  tf::WorkStealingOptions opt;
  opt.enable_worker_cache = state.range(0) != 0;
  auto executor = tf::make_executor(4, opt);
  for (auto _ : state) run_chain(executor);
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kChainLength, benchmark::Counter::kIsRate);
  state.counters["cache_hits"] = static_cast<double>(executor->stats().cache_hits);
}
BENCHMARK(BM_Chain_WorkerCache)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Fan_WakeProbability(benchmark::State& state) {
  tf::WorkStealingOptions opt;
  opt.balance_wake_probability = static_cast<double>(state.range(0)) / 1024.0;
  auto executor = tf::make_executor(4, opt);
  for (auto _ : state) run_fan(executor);
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kFanTasks, benchmark::Counter::kIsRate);
  state.counters["steals"] = static_cast<double>(executor->stats().steals);
}
BENCHMARK(BM_Fan_WakeProbability)->Arg(0)->Arg(16)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_Fan_WorkStealing(benchmark::State& state) {
  auto executor = tf::make_executor(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) run_fan(executor);
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kFanTasks, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fan_WorkStealing)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// bench_scheduler_hotpath - microbenchmark of the scheduler fast paths
// (google-benchmark):
//   * linear chain: the worker-cache speculative path (no queue traffic);
//   * fan-out burst: one finishing node releasing many successors at once -
//     the batched release / wake_n path;
//   * bursty repeat: small bursts separated by idle gaps, with the
//     spin-then-park phase on vs off; reports num_parks / num_wakes so the
//     park/wake churn reduction is directly visible;
//   * external submit: many small topologies dispatched from a non-worker
//     thread, exercising the central-queue batch hand-off;
//   * iterative convergence: N laps of a tiny pipeline, as one in-graph
//     condition loop (one topology, the condition re-arms the body) vs
//     run_until resubmission (one topology per lap) - the per-iteration
//     cost of in-graph control flow vs the submit/arm/retire cycle.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "taskflow/taskflow.hpp"

namespace {

// One source fans out to `fanout` independent tasks which all join a sink;
// the source's finalization releases the whole middle layer in one batch.
void run_fanout_burst(const std::shared_ptr<tf::ExecutorInterface>& executor,
                      int fanout) {
  tf::Taskflow tf(executor);
  std::atomic<long> value{0};
  auto source = tf.emplace([] {});
  auto sink = tf.emplace([] {});
  for (int i = 0; i < fanout; ++i) {
    auto mid = tf.emplace([&value] { value.fetch_add(1, std::memory_order_relaxed); });
    source.precede(mid);
    mid.precede(sink);
  }
  tf.wait_for_all();
  benchmark::DoNotOptimize(value.load());
}

void BM_LinearChain(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  auto executor = tf::make_executor(workers);
  for (auto _ : state) {
    tf::Taskflow tf(executor);
    long value = 0;
    std::vector<tf::Task> chain;
    chain.reserve(static_cast<std::size_t>(length));
    for (int i = 0; i < length; ++i) chain.push_back(tf.emplace([&value] { ++value; }));
    tf.linearize(chain);
    tf.wait_for_all();
    benchmark::DoNotOptimize(value);
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * length, benchmark::Counter::kIsRate);
  state.counters["cache_hits"] = static_cast<double>(executor->stats().cache_hits);
}
BENCHMARK(BM_LinearChain)
    ->Args({16384, 1})
    ->Args({16384, 4})
    ->Unit(benchmark::kMillisecond);

void BM_FanOutBurst(benchmark::State& state) {
  const int fanout = static_cast<int>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  auto executor = tf::make_executor(workers);
  for (auto _ : state) run_fanout_burst(executor, fanout);
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * (fanout + 2), benchmark::Counter::kIsRate);
  state.counters["wakes"] = static_cast<double>(executor->stats().wakes);
}
BENCHMARK(BM_FanOutBurst)
    ->Args({256, 4})
    ->Args({4096, 4})
    ->Unit(benchmark::kMillisecond);

// Bursts of independent tasks separated by a gap slightly longer than a
// scheduling quantum.  Without the spin phase every worker parks in each gap
// and must be woken by the next burst; with it, workers ride out the gap
// spinning/yielding.  Arg: spin_tries (0 = park immediately, seed behavior).
void BM_BurstyRepeat(benchmark::State& state) {
  tf::WorkStealingOptions opt;
  opt.spin_tries = static_cast<int>(state.range(0));
  auto executor = tf::make_executor(4, opt);
  constexpr int kBurst = 64;
  constexpr int kBurstsPerIter = 32;
  for (auto _ : state) {
    for (int b = 0; b < kBurstsPerIter; ++b) {
      tf::Taskflow tf(executor);
      std::atomic<long> value{0};
      for (int i = 0; i < kBurst; ++i) {
        tf.emplace([&value] { value.fetch_add(1, std::memory_order_relaxed); });
      }
      tf.wait_for_all();
      benchmark::DoNotOptimize(value.load());
    }
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kBurst * kBurstsPerIter,
      benchmark::Counter::kIsRate);
  const auto stats = executor->stats();
  state.counters["parks"] = static_cast<double>(stats.parks);
  state.counters["wakes"] = static_cast<double>(stats.wakes);
  state.counters["parks/burst"] =
      static_cast<double>(stats.parks) /
      (static_cast<double>(state.iterations()) * kBurstsPerIter);
}
BENCHMARK(BM_BurstyRepeat)->Arg(0)->Arg(64)->Unit(benchmark::kMillisecond);

// Many small independent topologies dispatched from the calling (non-worker)
// thread: every dispatch goes through the external schedule_batch path into
// parked workers' caches / the central queue.
void BM_ExternalSubmit(benchmark::State& state) {
  auto executor = tf::make_executor(static_cast<std::size_t>(state.range(0)));
  constexpr int kGraphs = 64;
  constexpr int kTasksPerGraph = 16;
  for (auto _ : state) {
    std::atomic<long> value{0};
    std::vector<std::unique_ptr<tf::Taskflow>> flows;
    flows.reserve(kGraphs);
    for (int g = 0; g < kGraphs; ++g) {
      flows.push_back(std::make_unique<tf::Taskflow>(executor));
      for (int i = 0; i < kTasksPerGraph; ++i) {
        flows.back()->emplace(
            [&value] { value.fetch_add(1, std::memory_order_relaxed); });
      }
      flows.back()->silent_dispatch();
    }
    for (auto& f : flows) f->wait_for_all();
    benchmark::DoNotOptimize(value.load());
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kGraphs * kTasksPerGraph,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExternalSubmit)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// The per-lap pipeline of the iterative-convergence pair below: a chain of
// kPipelineDepth tasks, the shape of one optimization step in the paper's
// motivating applications.  Both variants execute the same chain per lap;
// they differ only in who drives the next lap - an in-graph condition
// (re-fires the chain head, nothing else is touched) or the executor's
// repeat machinery (re-arms every node of the topology and resubmits).
constexpr int kPipelineDepth = 8;

// N laps where the chain's last task is the convergence condition itself
// (the idiomatic in-graph loop: do the tail work, return the branch): the
// whole convergence is ONE topology, each lap costing exactly kPipelineDepth
// node executions with no submission, re-arming, or retirement.
void BM_IterativeConditionLoop(benchmark::State& state) {
  const int laps = static_cast<int>(state.range(0));
  tf::Executor executor(static_cast<std::size_t>(state.range(1)));
  tf::Taskflow flow;
  int lap = 0;
  long value = 0;
  auto init = flow.emplace([&] { lap = 0; });
  std::vector<tf::Task> chain;
  for (int i = 0; i < kPipelineDepth; ++i) {
    chain.push_back(flow.emplace([&] { ++value; }));
    if (i > 0) chain[i - 1].precede(chain[i]);
  }
  chain.back().work([&]() -> int {
    ++value;
    return ++lap < laps ? 0 : 1;
  });
  auto done = flow.emplace([] {});
  init.precede(chain.front());
  chain.back().precede(chain.front());  // branch 0: next lap
  chain.back().precede(done);           // branch 1: converged
  for (auto _ : state) {
    executor.run(flow).get();
    benchmark::DoNotOptimize(value);
  }
  state.counters["laps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * laps, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IterativeConditionLoop)
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same convergence via executor resubmission: run_until re-runs the
// chain until the predicate trips, paying a topology re-arm (every node's
// counters) plus the repeat bookkeeping per lap.  laps/s here vs the
// condition loop above is the per-iteration saving of in-graph control flow.
void BM_IterativeRunUntil(benchmark::State& state) {
  const int laps = static_cast<int>(state.range(0));
  tf::Executor executor(static_cast<std::size_t>(state.range(1)));
  tf::Taskflow flow;
  int lap = 0;
  long value = 0;
  std::vector<tf::Task> chain;
  for (int i = 0; i < kPipelineDepth; ++i) {
    chain.push_back(flow.emplace([&] { ++value; }));
    if (i > 0) chain[i - 1].precede(chain[i]);
  }
  chain.back().work([&] {
    ++value;
    ++lap;
  });
  for (auto _ : state) {
    lap = 0;
    executor.run_until(flow, [&] { return lap >= laps; }).get();
    benchmark::DoNotOptimize(value);
  }
  state.counters["laps/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * laps, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IterativeRunUntil)
    ->Args({1024, 1})
    ->Args({1024, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

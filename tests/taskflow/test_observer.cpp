// Executor observer interface and the recording observer used for the CPU
// utilization profile (paper Fig. 10 right).
#include "taskflow/observer.hpp"
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

class CountingObserver final : public tf::ExecutorObserverInterface {
 public:
  std::atomic<int> setups{0};
  std::atomic<int> entries{0};
  std::atomic<int> exits{0};
  std::atomic<std::size_t> workers{0};

  void set_up(std::size_t num_workers) override {
    setups++;
    workers = num_workers;
  }
  void on_entry(std::size_t, const tf::Node&) override { entries++; }
  void on_exit(std::size_t, const tf::Node&) override { exits++; }
};

TEST(Observer, ReceivesSetUpWithWorkerCount) {
  auto executor = tf::make_executor(3);
  auto obs = std::make_shared<CountingObserver>();
  executor->set_observer(obs);
  EXPECT_EQ(obs->setups.load(), 1);
  EXPECT_EQ(obs->workers.load(), 3u);
}

TEST(Observer, EntryExitPerTask) {
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<CountingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  for (int i = 0; i < 100; ++i) tf.emplace([] {});
  tf.wait_for_all();
  EXPECT_EQ(obs->entries.load(), 100);
  EXPECT_EQ(obs->exits.load(), 100);
}

TEST(Observer, PlaceholdersAreNotObserved) {
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<CountingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  auto a = tf.emplace([] {});
  auto p = tf.placeholder();  // no callable: synchronization only
  a.precede(p);
  tf.wait_for_all();
  EXPECT_EQ(obs->entries.load(), 1);
}

TEST(Observer, DynamicTasksObservedOncePerSpawn) {
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<CountingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  tf.emplace([](tf::SubflowBuilder& sf) {
    sf.emplace([] {});
    sf.emplace([] {});
  });
  tf.wait_for_all();
  EXPECT_EQ(obs->entries.load(), 3);  // parent + 2 children
  EXPECT_EQ(obs->exits.load(), 3);
}

TEST(Observer, AttachBeforeDispatchSeesEveryEventIncludingSubflows) {
  // The documented contract (ISSUE 2 satellite): attach while no graph is
  // running, and the observer sees every task of subsequently dispatched
  // graphs - including dynamically spawned subflow children.
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<CountingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  for (int i = 0; i < 20; ++i) {
    tf.emplace([](tf::SubflowBuilder& sf) {
      sf.emplace([] {});
      sf.emplace([] {});
    });
  }
  tf.wait_for_all();
  EXPECT_EQ(obs->entries.load(), 60);  // 20 parents + 40 children
  EXPECT_EQ(obs->exits.load(), 60);
}

TEST(Observer, ThrowingTaskGetsEntryWithoutExit) {
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<CountingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  tf.emplace([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(tf.wait_for_all(), std::runtime_error);
  EXPECT_EQ(obs->entries.load(), 1);  // the task did start...
  EXPECT_EQ(obs->exits.load(), 0);    // ...but never completed
}

TEST(Observer, SkippedTasksProduceNoEvents) {
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<CountingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  auto a = tf.emplace([] { throw std::runtime_error("boom"); });
  auto b = tf.emplace([] {});
  auto c = tf.emplace([] {});
  a.precede(b);
  b.precede(c);
  EXPECT_THROW(tf.wait_for_all(), std::runtime_error);
  // b and c were drained (their bookkeeping ran) but never executed, so the
  // observer timeline records only the task that actually ran.
  EXPECT_EQ(obs->entries.load(), 1);
  EXPECT_EQ(obs->exits.load(), 0);
}

// A steal-heavy shape: a chain riding one worker's cache while each step
// sprays leaves into that worker's queue, so the other workers live off steals.
void run_spray_chain(tf::Executor& executor, int steps, int spray) {
  tf::Taskflow tf;
  auto sink = tf.emplace([] {});
  tf::Task prev;
  for (int s = 0; s < steps; ++s) {
    auto step = tf.emplace([] {});
    if (s > 0) prev.precede(step);
    for (int l = 0; l < spray; ++l) step.precede(tf.emplace([] {}).precede(sink));
    prev = step;
  }
  prev.precede(sink);
  executor.run(tf).get();
}

TEST(Observer, StealStormUnderDiagnosticProberSeesOnePairPerTask) {
  // The stall report and metrics() read the backend through stats() and the
  // admission state under its lock, while the watchdog samples the progress
  // probes: hammering both from another thread mid-storm must not disturb
  // the one entry/exit pair per task.
  tf::ExecutorOptions opts;
  opts.max_pending_topologies = 64;  // admission active: its keys render too
  tf::Executor executor(4, opts);
  tf::WatchdogOptions watchdog;
  watchdog.period = std::chrono::milliseconds(1);
  executor.enable_watchdog(watchdog);
  auto obs = std::make_shared<CountingObserver>();
  executor.set_observer(obs);
  std::atomic<bool> stop{false};
  std::atomic<int> reports{0};
  std::thread prober([&] {
    do {
      const std::string report = executor.stall_report();
      if (report.find("\nadm_pending ") != std::string::npos) reports++;
      (void)executor.metrics();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    } while (!stop.load(std::memory_order_relaxed));
  });
  run_spray_chain(executor, 64, 4);
  stop.store(true);
  prober.join();
  EXPECT_GT(reports.load(), 0);
  EXPECT_EQ(obs->entries.load(), 64 * 5 + 1);  // chain + leaves + sink
  EXPECT_EQ(obs->exits.load(), 64 * 5 + 1);
}

TEST(Observer, QuiescentStatsMatchSchedulerCounters) {
  // bench/e2e derives its scheduler.*_per_op metrics from stats(), so its
  // counters must obey exact identities.  Every park either is still parked
  // or was ended by exactly one counted wake: at quiescence
  // parks == wakes + num_idlers.
  auto backend = tf::make_executor(4);
  {
    tf::Executor executor(backend);
    for (int r = 0; r < 5; ++r) run_spray_chain(executor, 32, 4);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto s = backend->stats();
  // A worker advertises itself parked an instant before it counts the park,
  // so poll until the last one has finished parking.
  while ((s.num_idlers < 4 || s.parks != s.wakes + s.num_idlers) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = backend->stats();
  }
  ASSERT_EQ(s.num_idlers, 4u);
  EXPECT_EQ(s.parks, s.wakes + s.num_idlers);
  EXPECT_GT(s.cache_hits, 0u);  // the chain rides the worker cache

  // One worker, an N-task linear chain: each of the N-1 releases hands its
  // successor to the worker's own cache, and there is no one to steal from.
  constexpr std::size_t kChain = 100;
  auto single = tf::make_executor(1);
  tf::Executor executor(single);
  tf::Taskflow chain;
  std::vector<tf::Task> tasks;
  for (std::size_t i = 0; i < kChain; ++i) tasks.push_back(chain.emplace([] {}));
  chain.linearize(tasks);
  const auto before = single->stats();
  executor.run(chain).get();
  const auto after = single->stats();
  EXPECT_EQ(after.cache_hits - before.cache_hits, kChain - 1);
  EXPECT_EQ(after.steals - before.steals, 0u);
}

TEST(RecordingObserver, CountsTasks) {
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<tf::RecordingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  for (int i = 0; i < 50; ++i) tf.emplace([] {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  });
  tf.wait_for_all();
  EXPECT_EQ(obs->num_tasks(), 50u);
}

TEST(RecordingObserver, UtilizationReflectsBusyTime) {
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<tf::RecordingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  // One long task: ~40ms busy on one worker.
  tf.emplace([] { std::this_thread::sleep_for(std::chrono::milliseconds(40)); });
  tf.wait_for_all();
  const auto util = obs->utilization(std::chrono::milliseconds(10));
  ASSERT_GE(util.size(), 3u);
  double total = 0.0;
  for (double u : util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 200.0 + 1e-9);  // 2 workers -> max 200%
    total += u;
  }
  EXPECT_GT(total, 100.0);  // roughly 4 buckets at ~100%
}

TEST(RecordingObserver, EmptyUtilizationWhenNothingRecorded) {
  tf::RecordingObserver obs;
  obs.set_up(2);
  EXPECT_TRUE(obs.utilization(std::chrono::milliseconds(10)).empty());
  EXPECT_EQ(obs.num_tasks(), 0u);
}

TEST(RecordingObserver, ClearResets) {
  auto executor = tf::make_executor(1);
  auto obs = std::make_shared<tf::RecordingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  tf.emplace([] {});
  tf.wait_for_all();
  EXPECT_EQ(obs->num_tasks(), 1u);
  obs->clear();
  EXPECT_EQ(obs->num_tasks(), 0u);
}


TEST(RecordingObserver, ChromeTracingExport) {
  auto executor = tf::make_executor(2);
  auto obs = std::make_shared<tf::RecordingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  tf.emplace([] { std::this_thread::sleep_for(std::chrono::milliseconds(2)); })
      .name("alpha");
  tf.emplace([] {}).name("beta \"quoted\"");
  tf.wait_for_all();

  std::ostringstream ss;
  obs->dump_chrome_tracing(ss);
  const std::string json = ss.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("beta \\\"quoted\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  // Crude structural validity: balanced braces, one event per task.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 2);
  EXPECT_EQ(std::count(json.begin(), json.end(), '}'), 2);
}

class ResilienceObserver final : public tf::ExecutorObserverInterface {
 public:
  std::atomic<int> retries{0};
  std::atomic<int> last_attempt{0};
  std::atomic<int> fallbacks{0};
  std::atomic<int> timeouts{0};

  void on_task_retry(std::size_t, const tf::Node&, int attempt) override {
    retries++;
    last_attempt = attempt;
  }
  void on_task_fallback(std::size_t, const tf::Node&) override { fallbacks++; }
  void on_topology_timeout() override { timeouts++; }
};

TEST(Observer, RetryAndFallbackEvents) {
  tf::Executor executor(2);
  auto obs = std::make_shared<ResilienceObserver>();
  executor.set_observer(obs);
  tf::Taskflow taskflow;
  // Fails all 3 attempts, then degrades: 2 retry events (after attempts 1
  // and 2), then 1 fallback event.
  taskflow.emplace([] { throw std::runtime_error("boom"); })
      .retry(2)
      .fallback([] {});
  executor.run(taskflow).get();
  EXPECT_EQ(obs->retries.load(), 2);
  EXPECT_EQ(obs->last_attempt.load(), 2);
  EXPECT_EQ(obs->fallbacks.load(), 1);
  EXPECT_EQ(obs->timeouts.load(), 0);
}

TEST(Observer, TopologyTimeoutEventFiresExactlyOnce) {
  tf::Executor executor(2);
  auto obs = std::make_shared<ResilienceObserver>();
  executor.set_observer(obs);
  tf::Taskflow taskflow;
  taskflow.emplace([] {
    const auto hard_stop = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!tf::this_task::is_cancelled() &&
           std::chrono::steady_clock::now() < hard_stop) {
      std::this_thread::yield();
    }
  });
  auto handle = executor.run(taskflow, tf::RunPolicy{std::chrono::milliseconds(10)});
  EXPECT_THROW(handle.get(), tf::TimeoutError);
  // The timer queue expires the run once; the first-writer protocol admits
  // exactly one timeout event.
  EXPECT_EQ(obs->timeouts.load(), 1);
  EXPECT_EQ(obs->retries.load(), 0);
  EXPECT_EQ(obs->fallbacks.load(), 0);
}

TEST(Observer, DefaultResilienceHandlersAreNoOps) {
  // A pre-resilience observer (CountingObserver overrides nothing new) must
  // compile and run unchanged through retries, fallbacks, and timeouts.
  tf::Executor executor(2);
  auto obs = std::make_shared<CountingObserver>();
  executor.set_observer(obs);
  tf::Taskflow taskflow;
  std::atomic<int> attempts{0};
  taskflow.emplace([&] {
    if (attempts.fetch_add(1) == 0) throw std::runtime_error("boom");
  }).retry(1);
  executor.run(taskflow).get();
  EXPECT_EQ(obs->entries.load(), 2);  // both attempts started
  EXPECT_EQ(obs->exits.load(), 1);    // only the successful one completed
}

TEST(Observer, DefaultAdmissionHandlersAreNoOps) {
  // A task-event observer runs unchanged through admits, rejects and sheds,
  // and a shed run's task never reaches it.
  tf::ExecutorOptions opts;
  opts.max_pending_per_client = 2;
  opts.shed_watermark = 2;
  tf::Executor executor(1, opts);
  auto obs = std::make_shared<CountingObserver>();
  executor.set_observer(obs);
  tf::Taskflow a, b;
  std::atomic<bool> gate{false};
  a.emplace([&] {
    while (!gate.load() && !tf::this_task::is_cancelled()) std::this_thread::yield();
  });
  b.emplace([] {});
  auto ha = executor.run(a);                       // admit (started, parked)
  auto hq = executor.run(a);                       // admit (queued behind ha)
  EXPECT_FALSE(executor.try_run(a).has_value());   // reject (client bound)
  auto hb = executor.run(b);                       // admit: 3 > 2, sheds hq
  EXPECT_THROW(hq.get(), tf::OverloadError);
  gate = true;
  ha.get();
  hb.get();
  executor.wait_for_all();
  EXPECT_EQ(obs->entries.load(), 2);  // a's gated run and b's; never hq
  EXPECT_EQ(obs->exits.load(), 2);
}

TEST(RecordingObserver, IntervalAccessorsExposeNames) {
  auto executor = tf::make_executor(1);
  auto obs = std::make_shared<tf::RecordingObserver>();
  executor->set_observer(obs);
  tf::Taskflow tf(executor);
  tf.emplace([] {}).name("only");
  tf.wait_for_all();
  ASSERT_EQ(obs->num_workers(), 1u);
  ASSERT_EQ(obs->intervals(0).size(), 1u);
  EXPECT_EQ(obs->intervals(0)[0].name, "only");
  EXPECT_LE(obs->intervals(0)[0].begin, obs->intervals(0)[0].end);
}

}  // namespace


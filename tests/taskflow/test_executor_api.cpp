// Tests of the executor-centric API (ISSUE 3): tf::Executor as the run entry
// point - run / run_n / run_until / async / wait_for_all - submitted from
// one thread and from many concurrent client threads, over both scheduler
// backends.  Covers the serialization contract (runs of one taskflow are
// FIFO-serialized, distinct taskflows overlap), the PR 2 error semantics
// through the new entry points (first-exception rethrow, cancel drain,
// CycleError), and the multi-client diagnostics.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
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

// Run each test over both pluggable backends.
class ExecutorApi : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] static std::shared_ptr<tf::ExecutorInterface> backend(std::size_t n) {
    if (std::string(GetParam()) == "simple") {
      return std::make_shared<tf::SimpleExecutor>(n);
    }
    return tf::make_executor(n);
  }
  [[nodiscard]] static tf::Executor make(std::size_t n = 4) {
    return tf::Executor(backend(n));
  }
};

TEST_P(ExecutorApi, RunOnceCompletesAndIsRepeatable) {
  tf::Taskflow taskflow;  // pure graph: no private executor, no threads
  std::atomic<int> counter{0};
  auto [a, b, c] = taskflow.emplace([&] { counter++; }, [&] { counter++; },
                                    [&] { counter++; });
  a.precede(b);
  b.precede(c);

  auto executor = make();
  executor.run(taskflow).get();
  EXPECT_EQ(counter.load(), 3);
  executor.run(taskflow).get();  // same graph, re-armed
  EXPECT_EQ(counter.load(), 6);
  EXPECT_EQ(executor.num_topologies(), 0u);
}

TEST_P(ExecutorApi, RunEmptyTaskflowIsReadyImmediately) {
  tf::Taskflow taskflow;
  auto executor = make();
  auto handle = executor.run(taskflow);
  EXPECT_EQ(handle.wait_for(0s), std::future_status::ready);
  EXPECT_NO_THROW(handle.get());
  EXPECT_EQ(executor.num_topologies(), 0u);
}

TEST_P(ExecutorApi, RunNRepeats) {
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&] { runs++; });

  auto executor = make();
  executor.run_n(taskflow, 0).get();  // no-op, ready immediately
  EXPECT_EQ(runs.load(), 0);
  executor.run_n(taskflow, 7).get();
  EXPECT_EQ(runs.load(), 7);
}

TEST_P(ExecutorApi, RunNSubflowsRespawnEveryRepeat) {
  tf::Taskflow taskflow;
  std::atomic<int> children{0};
  taskflow.emplace([&](tf::SubflowBuilder& sf) {
    for (int i = 0; i < 3; ++i) sf.emplace([&] { children++; });
  });
  auto executor = make();
  executor.run_n(taskflow, 5).get();
  EXPECT_EQ(children.load(), 15);
}

TEST_P(ExecutorApi, RunUntilStopsWhenPredicateHolds) {
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&] { runs++; });

  auto executor = make();
  executor.run_until(taskflow, [&] { return runs.load() >= 5; }).get();
  EXPECT_EQ(runs.load(), 5);

  // The predicate is evaluated after each run: even an immediately-true
  // predicate still runs at least once.
  executor.run_until(taskflow, [] { return true; }).get();
  EXPECT_EQ(runs.load(), 6);
}

TEST_P(ExecutorApi, SameTaskflowRunsAreSerializedFifo) {
  tf::Taskflow taskflow;
  std::atomic<int> in_flight{0};
  std::atomic<bool> overlapped{false};
  std::atomic<int> runs{0};
  auto first = taskflow.emplace([&] {
    if (in_flight.fetch_add(1) != 0) overlapped = true;
  });
  auto last = taskflow.emplace([&] {
    runs++;
    in_flight.fetch_sub(1);
  });
  first.precede(last);

  auto executor = make();
  std::vector<tf::ExecutionHandle> handles;
  handles.reserve(16);
  for (int i = 0; i < 8; ++i) handles.push_back(executor.run(taskflow));
  handles.push_back(executor.run_n(taskflow, 8));
  for (auto& h : handles) {
    ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready)
        << executor.stall_report();
    h.get();
  }
  EXPECT_FALSE(overlapped.load()) << "runs of one taskflow overlapped";
  EXPECT_EQ(runs.load(), 16);
}

TEST_P(ExecutorApi, DistinctTaskflowsOverlap) {
  // A's task blocks until B's task has run: if distinct taskflows were
  // serialized behind each other this would deadlock (the bounded wait turns
  // that into a failure instead of a hang).
  auto executor = make(2);
  std::promise<void> b_ran;
  std::shared_future<void> b_ran_future = b_ran.get_future().share();

  tf::Taskflow a;
  a.emplace([b_ran_future] { b_ran_future.wait(); });
  tf::Taskflow b;
  b.emplace([&b_ran] { b_ran.set_value(); });

  auto ha = executor.run(a);
  auto hb = executor.run(b);
  ASSERT_EQ(ha.wait_for(kDeadline), std::future_status::ready)
      << executor.stall_report();
  ASSERT_EQ(hb.wait_for(kDeadline), std::future_status::ready);
  ha.get();
  hb.get();
}

TEST_P(ExecutorApi, AsyncDeliversValuesVoidsAndExceptions) {
  auto executor = make();

  auto value = executor.async([] { return 40 + 2; });
  EXPECT_EQ(value.get(), 42);

  std::atomic<bool> ran{false};
  auto done = executor.async([&] { ran = true; });
  done.get();
  EXPECT_TRUE(ran.load());

  auto failing = executor.async([]() -> int { throw Boom(); });
  EXPECT_THROW(failing.get(), Boom);

  // Move-only captures are first-class (the callable is never copied).
  auto boxed = std::make_unique<int>(7);
  auto moved = executor.async([boxed = std::move(boxed)] { return *boxed * 6; });
  EXPECT_EQ(moved.get(), 42);

  executor.wait_for_all();
  EXPECT_EQ(executor.num_asyncs(), 0u);
}

TEST_P(ExecutorApi, AsyncFromInsideATask) {
  auto executor = make();
  tf::Taskflow taskflow;
  std::future<int> inner;
  taskflow.emplace([&] { inner = executor.async([] { return 99; }); });
  executor.run(taskflow).get();
  EXPECT_EQ(inner.get(), 99);
}

TEST_P(ExecutorApi, WaitForAllDrainsEverythingAndCountersReturnToZero) {
  auto executor = make();
  tf::Taskflow a;
  std::atomic<int> runs{0};
  a.emplace([&] { runs++; });
  tf::Taskflow b;
  b.emplace([&] { runs++; });

  (void)executor.run_n(a, 5);
  (void)executor.run_n(b, 5);
  for (int i = 0; i < 10; ++i) (void)executor.async([&] { runs++; });
  executor.wait_for_all();
  EXPECT_EQ(runs.load(), 20);
  EXPECT_EQ(executor.num_topologies(), 0u);
  EXPECT_EQ(executor.num_asyncs(), 0u);
  EXPECT_TRUE(executor.wait_for_all_for(0ms));
}

TEST_P(ExecutorApi, TaskExceptionRethrowsFromHandleAndStopsRepeats) {
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&] {
    if (runs.fetch_add(1) + 1 == 3) throw Boom();
  });

  auto executor = make();
  auto handle = executor.run_n(taskflow, 10);
  ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(handle.get(), Boom);
  EXPECT_EQ(runs.load(), 3) << "a failing run must stop the remaining repeats";
  EXPECT_TRUE(handle.is_cancelled());  // an error always drains

  // The taskflow itself stays reusable: the next submission re-arms cleanly.
  auto again = executor.run(taskflow);
  ASSERT_EQ(again.wait_for(kDeadline), std::future_status::ready);
  again.get();
  EXPECT_EQ(runs.load(), 4);
}

TEST_P(ExecutorApi, FailedRunHandsQueueToNextClientSubmission) {
  // A failing run of a taskflow must not wedge its FIFO queue: runs queued
  // behind it still execute.
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&] {
    if (runs.fetch_add(1) + 1 == 1) throw Boom();
  });

  auto executor = make();
  auto h1 = executor.run(taskflow);
  auto h2 = executor.run(taskflow);
  ASSERT_EQ(h2.wait_for(kDeadline), std::future_status::ready)
      << executor.stall_report();
  EXPECT_THROW(h1.get(), Boom);
  EXPECT_NO_THROW(h2.get());
  EXPECT_EQ(runs.load(), 2);
}

TEST_P(ExecutorApi, CancelStopsRemainingRepeats) {
  tf::Taskflow taskflow;
  std::atomic<long> runs{0};
  taskflow.emplace([&] { runs++; });

  auto executor = make();
  auto handle = executor.run_n(taskflow, 1000000);
  while (runs.load() == 0) std::this_thread::yield();  // let it start
  handle.cancel();
  ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(handle.get());  // cancellation is not an error
  EXPECT_TRUE(handle.is_cancelled());
  EXPECT_LT(runs.load(), 1000000L);
}

TEST_P(ExecutorApi, TasksObserveCancellation) {
  tf::Taskflow taskflow;
  std::atomic<bool> observed{false};
  std::promise<void> started;
  std::atomic<bool> release{false};
  auto first = taskflow.emplace([&] {
    started.set_value();
    while (!release.load()) std::this_thread::yield();
    observed = tf::this_task::is_cancelled();
  });
  first.precede(taskflow.emplace([] {}));

  auto executor = make();
  auto handle = executor.run(taskflow);
  started.get_future().wait();
  handle.cancel();
  release = true;
  ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
  handle.get();
  EXPECT_TRUE(observed.load());
}

TEST_P(ExecutorApi, CyclicTaskflowThrowsCycleErrorSynchronously) {
  tf::Taskflow taskflow;
  auto [a, b] = taskflow.emplace([] {}, [] {});
  a.precede(b);
  b.precede(a);

  auto executor = make();
  EXPECT_THROW((void)executor.run(taskflow), tf::CycleError);
  EXPECT_THROW((void)executor.run_n(taskflow, 3), tf::CycleError);
  EXPECT_EQ(executor.num_topologies(), 0u);
  executor.wait_for_all();  // nothing was enqueued; must not hang
}

TEST_P(ExecutorApi, StallReportShowsClientQueuesAndAsyncs) {
  auto executor = make(2);
  std::atomic<bool> release{false};
  std::atomic<bool> started_once{false};
  std::promise<void> started;
  tf::Taskflow taskflow;
  taskflow.emplace([&] {
    if (!started_once.exchange(true)) started.set_value();  // runs twice
    while (!release.load()) std::this_thread::yield();
  });

  auto h1 = executor.run(taskflow);
  auto h2 = executor.run(taskflow);  // queued behind the blocked run
  started.get_future().wait();

  const std::string report = executor.stall_report();
  EXPECT_NE(report.find("executor stall report"), std::string::npos) << report;
  EXPECT_NE(report.find("2 queued run(s)"), std::string::npos) << report;
  EXPECT_NE(report.find("\nqueue_depth 2\n"), std::string::npos) << report;
  EXPECT_NE(report.find("in-flight task execution(s)"), std::string::npos)
      << report;

  release = true;
  ASSERT_EQ(h2.wait_for(kDeadline), std::future_status::ready);
  h1.get();
  h2.get();

  const std::string drained = executor.stall_report();
  EXPECT_NE(drained.find("\nqueue_depth 0\nasyncs 0\n"), std::string::npos)
      << drained;
  EXPECT_EQ(drained.find("queued run(s)"), std::string::npos)
      << "drained clients must leave the registry:\n"
      << drained;
}

TEST_P(ExecutorApi, ObserverAttachedMidRunIsSafe) {
  // The set_observer data-race fix: attaching/swapping observers while tasks
  // execute must be safe (TSan-verified) and later tasks become visible.
  auto executor = make(2);
  tf::Taskflow taskflow;
  for (int i = 0; i < 64; ++i) taskflow.emplace([] {});

  auto handle = executor.run_n(taskflow, 50);
  for (int i = 0; i < 8; ++i) {
    executor.set_observer(std::make_shared<tf::RecordingObserver>());
  }
  ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
  handle.get();

  // Attach-before-run visibility: a fresh observer sees every task of runs
  // submitted afterwards.
  auto observer = std::make_shared<tf::RecordingObserver>();
  executor.set_observer(observer);
  executor.run_n(taskflow, 2).get();
  EXPECT_EQ(observer->num_tasks(), 128u);
}

TEST_P(ExecutorApi, ObserverAttachedMidAdmissionStormIsSafe) {
  // The attach-mid-run hammer, extended to the admission events: swapping
  // observers while an admission-controlled executor churns through admits,
  // rejects, and sheds must be safe (TSan-verified), and the new hooks fire
  // on whichever observer is attached when each event lands.
  tf::ExecutorOptions opts;
  opts.max_pending_per_client = 2;
  opts.shed_watermark = 6;
  tf::Executor executor(backend(2), opts);
  tf::Taskflow taskflow;
  for (int i = 0; i < 8; ++i) taskflow.emplace([] { std::this_thread::yield(); });

  std::atomic<bool> done{false};
  std::thread storm([&] {
    tf::Taskflow mine;
    mine.emplace([] { std::this_thread::yield(); });
    for (int i = 0; i < 200; ++i) {
      std::vector<tf::ExecutionHandle> handles;
      handles.push_back(executor.run(mine));
      if (auto h = executor.try_run(mine)) handles.push_back(*h);
      if (auto h = executor.try_run(mine)) handles.push_back(*h);
      for (auto& h : handles) {
        if (h.wait_for(kDeadline) != std::future_status::ready) break;
        try {
          h.get();
        } catch (const tf::OverloadError&) {
        }
      }
    }
    done = true;
  });
  while (!done.load()) {
    executor.set_observer(std::make_shared<tf::RecordingObserver>());
    std::this_thread::yield();
  }
  storm.join();
  executor.wait_for_all();
  EXPECT_EQ(executor.num_topologies(), 0u);
}

// The acceptance-criteria workload: >= 8 client threads hammering one shared
// executor with run / run_n / run_until / async, mixed with throwing and
// cancelled runs plus a shared taskflow contended by every client.  Verifies
// completion, per-client counts, the serialization contract on the shared
// graph, and that the executor drains to zero.
TEST_P(ExecutorApi, EightConcurrentClientsHammerOneExecutor) {
  constexpr int kClients = 8;
  constexpr int kIters = 12;
  auto executor = make(4);

  // One graph contended by all clients: FIFO serialization must hold.
  tf::Taskflow shared_flow;
  std::atomic<int> shared_in_flight{0};
  std::atomic<bool> shared_overlap{false};
  std::atomic<long> shared_runs{0};
  auto enter = shared_flow.emplace([&] {
    if (shared_in_flight.fetch_add(1) != 0) shared_overlap = true;
  });
  auto leave = shared_flow.emplace([&] {
    shared_runs++;
    shared_in_flight.fetch_sub(1);
  });
  enter.precede(leave);

  std::atomic<long> private_runs{0};
  std::atomic<long> async_sum{0};
  std::atomic<long> exceptions_seen{0};
  std::atomic<long> cancels_seen{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client owns a private taskflow (graph building is single-owner;
      // submission is the concurrent part).
      tf::Taskflow mine;
      std::atomic<long> mine_runs{0};
      std::atomic<bool> throw_now{false};
      auto head = mine.emplace([&] {
        mine_runs++;
        if (throw_now.load()) throw Boom();
      });
      head.precede(mine.emplace([] {}), mine.emplace([] {}));

      for (int i = 0; i < kIters; ++i) {
        switch (i % 4) {
          case 0: {  // plain run + contended run on the shared graph
            auto h = executor.run(mine);
            auto hs = executor.run(shared_flow);
            h.get();
            hs.get();
            break;
          }
          case 1: {  // multi-run with a mid-sequence cancel
            auto h = executor.run_n(mine, 64);
            if (c % 2 == 0) {
              h.cancel();
              cancels_seen++;
            }
            h.get();
            break;
          }
          case 2: {  // throwing run: rethrow + repeats stop
            throw_now = true;
            auto h = executor.run_n(mine, 8);
            try {
              h.get();
            } catch (const Boom&) {
              exceptions_seen++;
            }
            throw_now = false;
            break;
          }
          default: {  // run_until + a burst of asyncs
            const long target = mine_runs.load() + 3;
            auto h = executor.run_until(mine, [&, target] {
              return mine_runs.load() >= target;
            });
            std::vector<std::future<long>> futs;
            futs.reserve(4);
            for (long k = 0; k < 4; ++k) {
              futs.push_back(executor.async([k] { return k; }));
            }
            h.get();
            for (auto& f : futs) async_sum += f.get();
            break;
          }
        }
      }
      private_runs += mine_runs.load();
    });
  }
  for (auto& t : clients) t.join();

  executor.wait_for_all();
  EXPECT_FALSE(shared_overlap.load()) << "shared-taskflow runs overlapped";
  EXPECT_EQ(shared_runs.load(), kClients * (kIters / 4 + (kIters % 4 > 0)));
  EXPECT_EQ(async_sum.load(), kClients * (kIters / 4) * 6);  // 0+1+2+3 per burst
  EXPECT_EQ(exceptions_seen.load(), kClients * (kIters / 4));
  EXPECT_GT(private_runs.load(), 0);
  EXPECT_EQ(executor.num_topologies(), 0u);
  EXPECT_EQ(executor.num_asyncs(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecutorApi,
                         ::testing::Values("work_stealing", "simple"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Executor-owned default backend (no explicit ExecutorInterface).
TEST(ExecutorApiDefault, DefaultConstructedExecutorRuns) {
  tf::Executor executor(2);
  EXPECT_EQ(executor.num_workers(), 2u);
  tf::Taskflow taskflow;
  std::atomic<int> n{0};
  taskflow.emplace([&] { n++; });
  executor.run_n(taskflow, 3).get();
  EXPECT_EQ(n.load(), 3);
  EXPECT_EQ(executor.async([] { return 5; }).get(), 5);
}

// Paper-era entry points are clients of Executor::run: dispatch() boxes the
// present graph and runs it on a private executor that is created lazily,
// so a pure-graph Taskflow spawns no threads until dispatch needs them.
TEST(ExecutorApiLegacy, PaperEraShimsStillWork) {
  tf::Taskflow tf(2);
  std::atomic<int> n{0};
  auto [a, b] = tf.emplace([&] { n++; }, [&] { n++; });
  a.precede(b);
  auto handle = tf.dispatch();
  std::shared_future<void> fut = handle;  // implicit conversion retained
  fut.get();
  EXPECT_EQ(n.load(), 2);
  EXPECT_EQ(tf.num_topologies(), 1u);
  tf.wait_for_all();
  EXPECT_EQ(tf.num_topologies(), 0u);

  tf::Taskflow fw;  // the same type is the reusable graph of Executor::run
  fw.emplace([&] { n++; });
  tf::Executor executor(2);
  executor.run_n(fw, 3).get();
  EXPECT_EQ(n.load(), 5);
}

}  // namespace

// Stall/cycle diagnostics: dispatch-time cycle detection throws
// tf::CycleError with a descriptive message instead of hanging
// wait_for_all() forever, wait_for_all_for() bounds waits, and
// stall_report() snapshots executor + run state for deadlock triage.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "backends.hpp"
#include "support/rng.hpp"

namespace {

using namespace std::chrono_literals;

TEST(CycleCheck, SelfLoopThrowsAtDispatch) {
  tf::Taskflow tf(2);
  auto a = tf.emplace([] {}).name("selfie");
  a.precede(a);
  EXPECT_THROW(tf.dispatch(), tf::CycleError);
  // A failed dispatch leaves the present graph intact.
  EXPECT_EQ(tf.num_nodes(), 1u);
  EXPECT_EQ(tf.num_topologies(), 0u);
}

TEST(CycleCheck, TwoCycleMessageNamesTheTasks) {
  tf::Taskflow tf(2);
  auto a = tf.emplace([] {}).name("alpha");
  auto b = tf.emplace([] {}).name("beta");
  a.precede(b);
  b.precede(a);
  try {
    tf.dispatch();
    FAIL() << "cyclic dispatch must throw";
  } catch (const tf::CycleError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
    EXPECT_NE(what.find("->"), std::string::npos) << what;
  }
}

TEST(CycleCheck, CycleBehindASourceIsStillDetected) {
  // Kahn's algorithm must not be fooled by the presence of valid sources.
  tf::Taskflow tf(2);
  auto s = tf.emplace([] {});
  auto a = tf.emplace([] {});
  auto b = tf.emplace([] {});
  s.precede(a);
  a.precede(b);
  b.precede(a);
  EXPECT_THROW(tf.silent_dispatch(), tf::CycleError);
}

TEST(CycleCheck, UnnamedTasksGetPositionalLabels) {
  tf::Taskflow tf(2);
  auto a = tf.emplace([] {});
  auto b = tf.emplace([] {});
  a.precede(b);
  b.precede(a);
  try {
    tf.dispatch();
    FAIL() << "cyclic dispatch must throw";
  } catch (const tf::CycleError& e) {
    EXPECT_NE(std::string(e.what()).find("task#"), std::string::npos) << e.what();
  }
}

TEST(CycleCheck, LargeAcyclicGraphDispatchesClean) {
  tf::Taskflow tf(4);
  std::atomic<int> executed{0};
  constexpr int n = 2000;
  std::vector<tf::Task> tasks;
  tasks.reserve(n);
  for (int i = 0; i < n; ++i) tasks.push_back(tf.emplace([&] { executed++; }));
  support::Xoshiro256 rng(99);
  for (int v = 1; v < n; ++v) {
    for (std::uint64_t e = 0; e < rng.below(3); ++e) {
      tasks[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(v)))]
          .precede(tasks[static_cast<std::size_t>(v)]);
    }
  }
  tf.wait_for_all();
  EXPECT_EQ(executed.load(), n);
}

TEST(CycleCheck, CyclicFrameworkRunThrows) {
  tf::Executor executor(2);
  tf::Taskflow fw;
  auto a = fw.emplace([] {});
  auto b = fw.emplace([] {});
  a.precede(b);
  b.precede(a);
  EXPECT_THROW((void)executor.run(fw), tf::CycleError);
  EXPECT_EQ(executor.num_topologies(), 0u);
  EXPECT_EQ(fw.num_nodes(), 2u);
}

TEST(CycleCheck, CyclicSubflowSurfacesThroughTheFuture) {
  tf::Taskflow tf(2);
  tf.emplace([](tf::SubflowBuilder& sf) {
     auto x = sf.emplace([] {});
     auto y = sf.emplace([] {});
     x.precede(y);
     y.precede(x);
   }).name("spawner");
  auto handle = tf.dispatch();
  try {
    handle.get();
    FAIL() << "cyclic subflow must fail the topology";
  } catch (const tf::CycleError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("subflow"), std::string::npos) << what;
    EXPECT_NE(what.find("spawner"), std::string::npos) << what;
  }
  EXPECT_THROW(tf.wait_for_all(), tf::CycleError);
}

TEST(TimedWait, TimesOutOnBlockedTaskThenFinishes) {
  tf::Taskflow tf(2);
  std::atomic<bool> gate{false};
  tf.emplace([&] {
    while (!gate.load()) std::this_thread::yield();
  });
  tf.silent_dispatch();
  EXPECT_FALSE(tf.wait_for_all_for(50ms));  // stalled
  EXPECT_EQ(tf.num_topologies(), 1u);       // topologies kept for triage
  gate = true;
  EXPECT_TRUE(tf.wait_for_all_for(10s));
  EXPECT_EQ(tf.num_topologies(), 0u);
}

TEST(TimedWait, DispatchesThePresentGraphLikeWaitForAll) {
  tf::Taskflow tf(2);
  std::atomic<int> executed{0};
  for (int i = 0; i < 10; ++i) tf.emplace([&] { executed++; });
  EXPECT_TRUE(tf.wait_for_all_for(10s));
  EXPECT_EQ(executed.load(), 10);
}

TEST(TimedWait, RethrowsTaskExceptionOnCompletion) {
  tf::Taskflow tf(2);
  tf.emplace([] { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)tf.wait_for_all_for(10s), std::runtime_error);
  EXPECT_EQ(tf.num_topologies(), 0u);
}

TEST(TimedWait, HandleDeadlineWaits) {
  tf::Taskflow tf(2);
  std::atomic<bool> gate{false};
  tf.emplace([&] {
    while (!gate.load()) std::this_thread::yield();
  });
  auto handle = tf.dispatch();
  EXPECT_EQ(handle.wait_for(10ms), std::future_status::timeout);
  EXPECT_EQ(handle.wait_until(std::chrono::steady_clock::now() + 10ms),
            std::future_status::timeout);
  gate = true;
  EXPECT_EQ(handle.wait_for(10s), std::future_status::ready);
  tf.wait_for_all();
}

// Taskflow::stall_report() is the private executor's report: a dispatched
// run is one client of that executor, listed while it is in flight.

TEST(StallReport, DescribesBlockedTopologyAndExecutor) {
  tf::Taskflow tf(2);
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  auto root = tf.emplace([&] {
    started = true;
    while (!gate.load()) std::this_thread::yield();
  });
  root.precede(tf.emplace([] {}));
  tf.silent_dispatch();
  while (!started.load()) std::this_thread::yield();
  const std::string report = tf.stall_report();
  EXPECT_NE(report.find("\nbackend work-stealing\n"), std::string::npos) << report;
  EXPECT_NE(report.find("worker"), std::string::npos) << report;
  EXPECT_NE(report.find("\nqueue_depth 1\n"), std::string::npos) << report;
  gate = true;
  tf.wait_for_all();
  EXPECT_NE(tf.stall_report().find("\nqueue_depth 0\n"), std::string::npos);
}

TEST(StallReport, DispatchedRunsAreClientsOfThePrivateExecutor) {
  tf::Taskflow tf(2);
  std::atomic<bool> gate{false};
  std::atomic<int> started{0};
  for (int i = 0; i < 2; ++i) {
    tf.emplace([&] {
      started++;
      while (!gate.load()) std::this_thread::yield();
    });
    tf.silent_dispatch();
  }
  // Two dispatches of one taskflow overlap: each is its own client.
  while (started.load() < 2) std::this_thread::yield();
  const std::string report = tf.stall_report();
  gate = true;
  const std::string line = "1 queued run(s); running: 1 in-flight task execution(s)";
  const auto first = report.find(line);
  ASSERT_NE(first, std::string::npos) << report;
  EXPECT_NE(report.find(line, first + line.size()), std::string::npos) << report;
  EXPECT_NE(report.rfind("client ", first), std::string::npos) << report;
  tf.wait_for_all();
}

TEST(StallReport, CoversCustomBackendAndCancelledState) {
  tf::Taskflow tf(std::make_shared<tf_test::CustomBackend>());
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  tf.emplace([&] {
    started = true;
    while (!gate.load()) std::this_thread::yield();
  });
  auto handle = tf.dispatch();
  while (!started.load()) std::this_thread::yield();
  // A backend that does not override stats() reports the default snapshot.
  EXPECT_NE(tf.stall_report().find("\nbackend custom\n"), std::string::npos);
  handle.cancel();
  const std::string report = tf.stall_report();
  EXPECT_NE(report.find("[draining: cancelled]"), std::string::npos) << report;
  gate = true;
  tf.wait_for_all();
}

TEST(StallReport, ShowsExceptionDrain) {
  tf::Taskflow tf(2);
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  tf.emplace([&] {
    started = true;
    while (!gate.load()) std::this_thread::yield();
  });
  tf.emplace([&] {
    while (!started.load()) std::this_thread::yield();
    throw std::runtime_error("boom");
  });
  auto handle = tf.dispatch();
  while (handle.exception() == nullptr) std::this_thread::yield();
  const std::string report = tf.stall_report();
  EXPECT_NE(report.find("[draining: task exception]"), std::string::npos) << report;
  gate = true;
  EXPECT_THROW(tf.wait_for_all(), std::runtime_error);
}

}  // namespace

// Cooperative cancellation (ISSUE 2 tentpole): ExecutionHandle::cancel()
// flips a dispatched topology into draining mode - tasks not yet started
// skip their work, running tasks can poll tf::this_task::is_cancelled(),
// and the completion future becomes ready normally (no exception).
// Parameterized over both scheduling disciplines of backends.hpp.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "backends.hpp"

namespace {

class CancelModel : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<tf::ExecutorInterface> make(std::size_t n = 4) const {
    return tf_test::make_backend(GetParam(), n);
  }
};

TEST_P(CancelModel, CancelSkipsNotYetReleasedTasks) {
  tf::Taskflow tf(make());
  std::atomic<bool> gate{false};
  std::atomic<bool> root_started{false};
  std::atomic<int> executed{0};
  // The root gates every other task, so cancelling while it blocks
  // deterministically skips all 100 successors.
  auto root = tf.emplace([&] {
    root_started = true;
    while (!gate.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 100; ++i) {
    root.precede(tf.emplace([&] { executed++; }));
  }
  auto handle = tf.dispatch();
  while (!root_started.load()) std::this_thread::yield();
  handle.cancel();
  gate = true;
  handle.get();  // no exception: cancellation is not an error
  EXPECT_TRUE(handle.is_cancelled());
  EXPECT_EQ(handle.exception(), nullptr);
  EXPECT_EQ(executed.load(), 0);
  tf.wait_for_all();  // no rethrow for a cancelled topology
}

TEST_P(CancelModel, IsCancelledObservableInsideRunningTask) {
  tf::Taskflow tf(make(2));
  std::atomic<bool> started{false};
  std::atomic<bool> observed{false};
  tf.emplace([&] {
    started = true;
    // Cooperative loop: a long-running task exits early once cancelled.
    while (!tf::this_task::is_cancelled()) std::this_thread::yield();
    observed = true;
  });
  auto handle = tf.dispatch();
  while (!started.load()) std::this_thread::yield();
  handle.cancel();
  handle.get();
  EXPECT_TRUE(observed.load());
  tf.wait_for_all();
}

TEST_P(CancelModel, IsCancelledFalseInHealthyRunAndOutsideTasks) {
  EXPECT_FALSE(tf::this_task::is_cancelled());  // not inside any task
  tf::Taskflow tf(make(2));
  std::atomic<bool> inside{true};
  tf.emplace([&] { inside = tf::this_task::is_cancelled(); });
  tf.wait_for_all();
  EXPECT_FALSE(inside.load());
  EXPECT_FALSE(tf::this_task::is_cancelled());
}

TEST_P(CancelModel, CancelFrameworkRunAndReuse) {
  tf::Executor executor(make(2));
  tf::Taskflow fw;
  std::atomic<bool> gate{false};
  std::atomic<bool> root_started{false};
  std::atomic<int> executed{0};
  auto root = fw.emplace([&] {
    root_started = true;
    while (!gate.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 20; ++i) {
    root.precede(fw.emplace([&] { executed++; }));
  }
  auto handle = executor.run(fw);
  while (!root_started.load()) std::this_thread::yield();
  handle.cancel();
  gate = true;
  handle.get();
  EXPECT_EQ(executed.load(), 0);
  // A cancelled run does not poison the graph: the next run re-arms a
  // fresh topology with its own (clean) cancellation state.
  root_started = false;
  executor.run(fw).get();
  EXPECT_EQ(executed.load(), 20);
}

TEST_P(CancelModel, CancelOneTopologyDoesNotAffectAnother) {
  tf::Taskflow tf(make(2));
  std::atomic<bool> gate{false};
  std::atomic<bool> started{false};
  std::atomic<int> cancelled_ran{0};
  std::atomic<int> healthy_ran{0};
  auto root = tf.emplace([&] {
    started = true;
    while (!gate.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 10; ++i) root.precede(tf.emplace([&] { cancelled_ran++; }));
  auto first = tf.dispatch();
  for (int i = 0; i < 10; ++i) tf.emplace([&] { healthy_ran++; });
  auto second = tf.dispatch();
  while (!started.load()) std::this_thread::yield();
  first.cancel();
  gate = true;
  first.get();
  second.get();
  EXPECT_EQ(cancelled_ran.load(), 0);
  EXPECT_EQ(healthy_ran.load(), 10);
  EXPECT_FALSE(second.is_cancelled());
  tf.wait_for_all();
}

TEST_P(CancelModel, SelfCancellingTaskStopsRunN) {
  tf::Executor executor(make(2));
  tf::Taskflow fw;
  std::atomic<int> runs{0};
  std::atomic<tf::ExecutionHandle*> slot{nullptr};
  fw.emplace([&] {
    // The task of run #2 cancels its own run through the published handle -
    // the run loop must then stop the sequence.
    if (runs.fetch_add(1) == 1) {
      tf::ExecutionHandle* h = nullptr;
      while ((h = slot.load()) == nullptr) std::this_thread::yield();
      h->cancel();
    }
  });
  // Publish the run_n handle for the task to cancel through.
  tf::ExecutionHandle handle = executor.run_n(fw, 5);
  slot = &handle;
  handle.get();
  slot = nullptr;
  EXPECT_TRUE(handle.is_cancelled());
  EXPECT_EQ(runs.load(), 2);  // repeats 3..5 skipped after the cancellation
}

TEST_P(CancelModel, CancelDuringSubflowStorm) {
  tf::Taskflow tf(make());
  std::atomic<int> spawned{0};
  for (int i = 0; i < 64; ++i) {
    tf.emplace([&](tf::SubflowBuilder& sf) {
      spawned++;
      for (int j = 0; j < 8; ++j) sf.emplace([&] { spawned++; });
    });
  }
  auto handle = tf.dispatch();
  while (spawned.load() < 16) std::this_thread::yield();  // mid-run
  handle.cancel();
  handle.get();  // must drain without deadlock, whatever was in flight
  EXPECT_TRUE(handle.is_cancelled());
  tf.wait_for_all();
}

INSTANTIATE_TEST_SUITE_P(Executors, CancelModel,
                         ::testing::Values("work_stealing", "nocache_steal0"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(CancelHandle, DefaultHandleIsReadyAndCancelIsNoop) {
  tf::ExecutionHandle handle;
  handle.get();  // already complete
  handle.cancel();
  EXPECT_FALSE(handle.is_cancelled());
  EXPECT_EQ(handle.exception(), nullptr);
}

TEST(CancelHandle, EmptyDispatchReturnsReadyHandle) {
  tf::Taskflow tf(2);
  auto handle = tf.dispatch();
  EXPECT_EQ(handle.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  handle.cancel();  // no-op, no crash
  EXPECT_FALSE(handle.is_cancelled());
}

TEST(CancelHandle, SharedAcrossCopies) {
  tf::Taskflow tf(2);
  std::atomic<bool> gate{false};
  tf.emplace([&] {
    while (!gate.load() && !tf::this_task::is_cancelled()) std::this_thread::yield();
  });
  auto h1 = tf.dispatch();
  auto h2 = h1;  // copy shares the cancellation state
  h2.cancel();
  EXPECT_TRUE(h1.is_cancelled());
  h1.get();
  gate = true;
  tf.wait_for_all();
}

TEST(CancelHandle, OutlivesTopologyRelease) {
  tf::Taskflow tf(2);
  std::atomic<int> executed{0};
  tf.emplace([&] { executed++; });
  auto handle = tf.dispatch();
  tf.wait_for_all();  // releases the topology
  EXPECT_EQ(tf.num_topologies(), 0u);
  handle.get();  // the shared state keeps the handle valid
  handle.cancel();
  EXPECT_TRUE(handle.is_cancelled());  // flag settable, but the run is over
  EXPECT_EQ(executed.load(), 1);
}

TEST(CancelHandle, ConvertsToSharedFuture) {
  tf::Taskflow tf(2);
  std::atomic<int> executed{0};
  tf.emplace([&] { executed++; });
  std::shared_future<void> fut = tf.dispatch();  // paper-era call shape
  fut.get();
  EXPECT_EQ(executed.load(), 1);
  tf.wait_for_all();
}

}  // namespace

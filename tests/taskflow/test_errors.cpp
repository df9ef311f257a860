// Exception propagation through the scheduler core (ISSUE 2 tentpole):
// a throwing task must not terminate the process - the first exception is
// captured per topology, remaining tasks are skipped while the topology
// drains its bookkeeping, and the exception rethrows from the dispatch
// handle, run() handle, and wait_for_all().  Parameterized over both
// scheduling disciplines of backends.hpp so the semantics cannot diverge
// between them.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "backends.hpp"

namespace {

struct TaskError : std::runtime_error {
  explicit TaskError(int id)
      : std::runtime_error("task error #" + std::to_string(id)), id(id) {}
  int id;
};

class ErrorModel : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<tf::ExecutorInterface> make(std::size_t n = 4) const {
    return tf_test::make_backend(GetParam(), n);
  }
};

TEST_P(ErrorModel, ThrowSurfacesFromDispatchHandle) {
  tf::Taskflow tf(make());
  std::atomic<int> executed{0};
  for (int i = 0; i < 50; ++i) tf.emplace([&] { executed++; });
  tf.emplace([] { throw TaskError(7); });
  auto handle = tf.dispatch();
  EXPECT_THROW(
      {
        try {
          handle.get();
        } catch (const TaskError& e) {
          EXPECT_EQ(e.id, 7);
          throw;
        }
      },
      TaskError);
  EXPECT_TRUE(handle.is_cancelled());  // error flips the topology to draining
  EXPECT_NE(handle.exception(), nullptr);
  // Like a shared future, every observation of the failed run rethrows:
  // wait_for_all reports it again while releasing the topology.
  EXPECT_THROW(tf.wait_for_all(), TaskError);
  EXPECT_EQ(tf.num_topologies(), 0u);
}

TEST_P(ErrorModel, ThrowSurfacesFromWaitForAll) {
  tf::Taskflow tf(make());
  tf.emplace([] { throw TaskError(1); });
  EXPECT_THROW(tf.wait_for_all(), TaskError);
  // The taskflow stays fully usable after a failed run.
  EXPECT_EQ(tf.num_topologies(), 0u);
  std::atomic<int> executed{0};
  for (int i = 0; i < 20; ++i) tf.emplace([&] { executed++; });
  tf.wait_for_all();
  EXPECT_EQ(executed.load(), 20);
}

TEST_P(ErrorModel, DownstreamTasksAreSkippedButTopologyDrains) {
  tf::Taskflow tf(make());
  std::atomic<bool> b_ran{false};
  std::atomic<bool> c_ran{false};
  auto a = tf.emplace([] { throw TaskError(2); });
  auto b = tf.emplace([&] { b_ran = true; });
  auto c = tf.emplace([&] { c_ran = true; });
  a.precede(b);
  b.precede(c);
  auto handle = tf.dispatch();
  EXPECT_THROW(handle.get(), TaskError);  // future ready => fully drained
  EXPECT_FALSE(b_ran.load());
  EXPECT_FALSE(c_ran.load());
  EXPECT_THROW(tf.wait_for_all(), TaskError);
  EXPECT_EQ(tf.num_topologies(), 0u);
}

TEST_P(ErrorModel, FirstExceptionWinsUnderConcurrentThrowers) {
  tf::Taskflow tf(make(4));
  constexpr int n = 64;
  for (int i = 0; i < n; ++i) {
    tf.emplace([i] { throw TaskError(i); });
  }
  auto handle = tf.dispatch();
  int caught = -1;
  try {
    handle.get();
  } catch (const TaskError& e) {
    caught = e.id;
  }
  ASSERT_GE(caught, 0);  // exactly one of the concurrent throwers won
  ASSERT_LT(caught, n);
  // Every copy of the shared future observes the same winner.
  try {
    handle.get();
  } catch (const TaskError& e) {
    EXPECT_EQ(e.id, caught);
  }
  EXPECT_THROW(tf.wait_for_all(), TaskError);
}

TEST_P(ErrorModel, JoinedSubflowChildThrowPropagates) {
  tf::Taskflow tf(make());
  std::atomic<bool> successor_ran{false};
  auto parent = tf.emplace([](tf::SubflowBuilder& sf) {
    sf.emplace([] {});
    sf.emplace([] { throw TaskError(3); });
    sf.emplace([] {});
  });
  auto after = tf.emplace([&] { successor_ran = true; });
  parent.precede(after);
  EXPECT_THROW(tf.wait_for_all(), TaskError);
  EXPECT_FALSE(successor_ran.load());  // skipped during the drain
}

TEST_P(ErrorModel, DetachedSubflowChildThrowPropagates) {
  tf::Taskflow tf(make());
  auto parent = tf.emplace([](tf::SubflowBuilder& sf) {
    sf.emplace([] { throw TaskError(4); });
    sf.detach();
  });
  (void)parent;
  EXPECT_THROW(tf.wait_for_all(), TaskError);
}

TEST_P(ErrorModel, NestedSubflowThrowPropagates) {
  tf::Taskflow tf(make());
  tf.emplace([](tf::SubflowBuilder& sf) {
    sf.emplace([](tf::SubflowBuilder& inner) {
      inner.emplace([] { throw TaskError(5); });
    });
  });
  EXPECT_THROW(tf.wait_for_all(), TaskError);
}

TEST_P(ErrorModel, DynamicWorkItselfThrowsMidConstruction) {
  tf::Taskflow tf(make());
  std::atomic<bool> child_ran{false};
  tf.emplace([&](tf::SubflowBuilder& sf) {
    sf.emplace([&] { child_ran = true; });  // built but never made live
    throw TaskError(6);
  });
  EXPECT_THROW(tf.wait_for_all(), TaskError);
  EXPECT_FALSE(child_ran.load());  // the partial subflow is abandoned
}

TEST_P(ErrorModel, FrameworkRunRethrowsAndStaysReusable) {
  tf::Executor executor(make());
  tf::Taskflow fw;
  std::atomic<int> runs{0};
  std::atomic<bool> fail{true};
  fw.emplace([&] {
    runs++;
    if (fail.load()) throw TaskError(8);
  });
  EXPECT_THROW(executor.run(fw).get(), TaskError);
  fail = false;
  executor.run(fw).get();  // re-armed: the same graph runs clean afterwards
  EXPECT_EQ(runs.load(), 2);
  // Failures belong to the run handles: the executor-wide drain never
  // rethrows them.
  EXPECT_NO_THROW(executor.wait_for_all());
}

TEST_P(ErrorModel, RunNStopsAtFirstFailingRun) {
  tf::Executor executor(make());
  tf::Taskflow fw;
  std::atomic<int> runs{0};
  fw.emplace([&] {
    if (runs.fetch_add(1) == 1) throw TaskError(9);  // second run fails
  });
  EXPECT_THROW(executor.run_n(fw, 5).get(), TaskError);
  EXPECT_EQ(runs.load(), 2);  // runs 3..5 never started
}

TEST_P(ErrorModel, ParallelForChunkThrowPropagates) {
  tf::Taskflow tf(make());
  std::vector<int> data(1000, 0);
  tf.parallel_for(data.begin(), data.end(), [&](int& v) {
    if (&v == &data[500]) throw TaskError(10);
    v = 1;
  });
  EXPECT_THROW(tf.wait_for_all(), TaskError);
}

TEST_P(ErrorModel, ReduceWorkerThrowSkipsCombiner) {
  tf::Taskflow tf(make());
  std::vector<long> data(5000, 1);
  long result = -123;  // must remain untouched: the combiner target is skipped
  tf.reduce(data.begin(), data.end(), result, [](long a, long b) -> long {
    if (a + b > 100) throw TaskError(11);
    return a + b;
  });
  EXPECT_THROW(tf.wait_for_all(), TaskError);
  EXPECT_EQ(result, -123);
}

TEST_P(ErrorModel, NonStdExceptionIsCapturedToo) {
  tf::Taskflow tf(make());
  tf.emplace([] { throw 42; });  // not derived from std::exception
  auto handle = tf.dispatch();
  EXPECT_THROW(handle.get(), int);
  EXPECT_THROW(tf.wait_for_all(), int);
}

TEST_P(ErrorModel, MultiTopologyWaitForAllRethrowsFirstInDispatchOrder) {
  tf::Taskflow tf(make());
  std::atomic<int> ok{0};
  for (int i = 0; i < 10; ++i) tf.emplace([&] { ok++; });
  tf.silent_dispatch();  // topology 0: clean
  tf.emplace([] { throw TaskError(12); });
  tf.silent_dispatch();  // topology 1: fails
  tf.emplace([] { throw TaskError(13); });
  // topology 2 (auto-dispatched by wait_for_all): also fails
  int caught = -1;
  try {
    tf.wait_for_all();
  } catch (const TaskError& e) {
    caught = e.id;
  }
  EXPECT_EQ(caught, 12);  // first failing topology in dispatch order
  EXPECT_EQ(ok.load(), 10);
  EXPECT_EQ(tf.num_topologies(), 0u);
}

// The timer thread may pop a run's deadline just as the run finishes: an
// expiry that lands after finish() must lose, or get() and timed_out()
// disagree.
TEST(ErrorState, DeadlineFiringAfterFinishLosesTheCapture) {
  tf::Graph graph;
  tf::Topology late(&graph);
  tf::ExecutionHandle late_handle(late.future(), late.shared_error_state());
  late_handle.cancel();
  late.finish();
  EXPECT_FALSE(late.error_state()->expire("run deadline exceeded"));
  EXPECT_NO_THROW(late_handle.get());
  EXPECT_FALSE(late_handle.timed_out());

  // An expiry before finish() wins and reports both ways.
  tf::Topology expired(&graph);
  tf::ExecutionHandle expired_handle(expired.future(), expired.shared_error_state());
  EXPECT_TRUE(expired.error_state()->expire("run deadline exceeded"));
  expired.finish();
  EXPECT_THROW(expired_handle.get(), tf::TimeoutError);
  EXPECT_TRUE(expired_handle.timed_out());
}

INSTANTIATE_TEST_SUITE_P(Executors, ErrorModel,
                         ::testing::Values("work_stealing", "nocache_steal0"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace

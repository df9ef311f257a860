// In-graph control flow via condition tasks (ISSUE 8 tentpole): an
// int-returning callable selects which successor fires, edges out of a
// condition are weak (no join contribution), and a back-edge through a
// condition forms a legal in-graph loop that re-arms visited nodes without
// re-arming the topology.  The suite also pins the composition with the
// error model (out-of-range branches, retry/fallback on a condition) and
// with cancellation/deadline draining mid-loop.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "backends.hpp"

using namespace std::chrono_literals;

namespace {

constexpr auto kDeadline = std::chrono::seconds(30);

class Condition : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<tf::ExecutorInterface> make(std::size_t n = 4) const {
    return tf_test::make_backend(GetParam(), n);
  }
};

TEST_P(Condition, EmplaceDetectsIntReturningCallable) {
  tf::Taskflow flow;
  auto cond = flow.emplace([] { return 0; });
  auto stat = flow.emplace([] {});
  EXPECT_TRUE(cond.is_condition());
  EXPECT_FALSE(stat.is_condition());
  EXPECT_FALSE(cond.is_module());
  EXPECT_EQ(cond.last_branch(), -1);  // never executed
}

TEST_P(Condition, PlaceholderAssignedConditionWorkFlipsEdgeStrength) {
  // Edges wired before the callable exists must be re-classified when the
  // placeholder later becomes a condition (and vice versa).
  tf::Executor executor(make());
  tf::Taskflow flow;
  std::atomic<int> a_runs{0};
  std::atomic<int> b_runs{0};
  auto entry = flow.emplace([] {});
  auto chooser = flow.placeholder();
  auto a = flow.emplace([&] { a_runs++; });
  auto b = flow.emplace([&] { b_runs++; });
  entry.precede(chooser);
  chooser.precede(a);
  chooser.precede(b);
  chooser.work([] { return 0; });  // kind flip after the edges exist
  EXPECT_TRUE(chooser.is_condition());
  executor.run(flow).get();
  EXPECT_EQ(a_runs.load(), 1);
  EXPECT_EQ(b_runs.load(), 0);  // weak edge: not fired by a join
}

TEST_P(Condition, SelectsExactlyOneSuccessor) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  std::atomic<int> taken_a{0};
  std::atomic<int> taken_b{0};
  auto cond = flow.emplace([] { return 1; });
  cond.precede(flow.emplace([&] { taken_a++; }));
  cond.precede(flow.emplace([&] { taken_b++; }));
  executor.run(flow).get();
  EXPECT_EQ(taken_a.load(), 0);
  EXPECT_EQ(taken_b.load(), 1);
  EXPECT_EQ(cond.last_branch(), 1);
}

TEST_P(Condition, LoopIteratesUntilConditionBreaks) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  int laps = 0;
  auto init = flow.emplace([&] { laps = 0; }).name("init");
  auto body = flow.emplace([&] { ++laps; }).name("body");
  auto cond = flow.emplace([&] { return laps < 100 ? 0 : 1; }).name("cond");
  auto done = flow.emplace([&] { laps = -laps; }).name("done");
  init.precede(body);
  body.precede(cond);
  cond.precede(body);  // branch 0: loop back
  cond.precede(done);  // branch 1: exit
  executor.run(flow).get();
  EXPECT_EQ(laps, -100);
  EXPECT_EQ(cond.last_branch(), 1);
}

TEST_P(Condition, LoopBodyWithInternalFanOutReArmsJoins) {
  // The loop body is a diamond: the join node's counter must be restored
  // after every lap, otherwise lap 2 would fire it early (or never).
  tf::Executor executor(make());
  tf::Taskflow flow;
  std::atomic<int> joins{0};
  int laps = 0;
  auto start = flow.emplace([] {}).name("start");
  auto fork = flow.emplace([] {}).name("fork");
  auto left = flow.emplace([] {}).name("left");
  auto right = flow.emplace([] {}).name("right");
  auto join = flow.emplace([&] { joins++; }).name("join");
  auto cond = flow.emplace([&] { return ++laps < 10 ? 0 : 1; }).name("cond");
  auto exit = flow.emplace([] {}).name("exit");
  start.precede(fork);
  fork.precede(left);
  fork.precede(right);
  left.precede(join);
  right.precede(join);
  join.precede(cond);
  cond.precede(fork);
  cond.precede(exit);
  executor.run(flow).get();
  EXPECT_EQ(joins.load(), 10);
}

TEST_P(Condition, NestedLoopsConverge) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  int outer = 0;
  int inner = 0;
  int total_inner = 0;
  auto outer_init = flow.emplace([&] { outer = 0; });
  auto inner_init = flow.emplace([&] { inner = 0; });
  auto inner_body = flow.emplace([&] {
    ++inner;
    ++total_inner;
  });
  auto inner_cond = flow.emplace([&] { return inner < 5 ? 0 : 1; });
  auto outer_cond = flow.emplace([&] { return ++outer < 4 ? 0 : 1; });
  auto done = flow.emplace([] {});
  outer_init.precede(inner_init);
  inner_init.precede(inner_body);
  inner_body.precede(inner_cond);
  inner_cond.precede(inner_body);  // 0: inner lap
  inner_cond.precede(outer_cond);  // 1: inner done
  outer_cond.precede(inner_init);  // 0: outer lap
  outer_cond.precede(done);        // 1: exit
  executor.run(flow).get();
  EXPECT_EQ(total_inner, 20);  // 4 outer laps x 5 inner laps
}

TEST_P(Condition, MixedStrongAndWeakPredecessorsFireOnEither) {
  // tf2 semantics: a node with both strong and weak predecessors becomes
  // ready when its strong join completes OR when a condition selects it.
  tf::Executor executor(make());
  tf::Taskflow flow;
  std::atomic<int> runs{0};
  auto strong_pred = flow.emplace([] {}).name("strong");
  auto cond = flow.emplace([] { return 0; }).name("cond");
  auto target = flow.emplace([&] { runs++; }).name("target");
  strong_pred.precede(target);
  cond.precede(target);
  strong_pred.precede(cond);
  executor.run(flow).get();
  // The strong join fires it once; the condition selection fires it again.
  EXPECT_EQ(runs.load(), 2);
}

TEST_P(Condition, RunNReArmsTheLoopEachRun) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  int laps = 0;
  std::atomic<int> total{0};
  auto init = flow.emplace([&] { laps = 0; });
  auto body = flow.emplace([&] {
    ++laps;
    total++;
  });
  auto cond = flow.emplace([&] { return laps < 7 ? 0 : 1; });
  auto tail = flow.emplace([] {});
  init.precede(body);
  body.precede(cond);
  cond.precede(body);
  cond.precede(tail);
  executor.run_n(flow, 3).get();
  EXPECT_EQ(total.load(), 21);
}

// ---------------------------------------------------------------------------
// Cycle legality: back-edges through a condition are loops; pure-static
// cycles and sourceless graphs stay errors.
// ---------------------------------------------------------------------------

TEST_P(Condition, PureStaticCycleStillThrows) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  auto a = flow.emplace([] {}).name("alpha");
  auto b = flow.emplace([] {}).name("beta");
  a.precede(b);
  b.precede(a);
  try {
    (void)executor.run(flow);
    FAIL() << "expected CycleError";
  } catch (const tf::CycleError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("alpha"), std::string::npos) << what;
    EXPECT_NE(what.find("beta"), std::string::npos) << what;
  }
}

TEST_P(Condition, StaticCycleBehindAConditionIsStillNamed) {
  // The condition only legalizes its own out-edges: a strong cycle reached
  // through a condition branch remains a deadlock and must be reported.
  tf::Executor executor(make());
  tf::Taskflow flow;
  auto entry = flow.emplace([] { return 0; }).name("entry");
  auto a = flow.emplace([] {}).name("alpha");
  auto b = flow.emplace([] {}).name("beta");
  entry.precede(a);
  a.precede(b);
  b.precede(a);
  EXPECT_THROW((void)executor.run(flow), tf::CycleError);
}

TEST_P(Condition, SourcelessConditionLoopIsRejected) {
  // Legal back-edge, but no task has zero total dependents: nothing could
  // ever start, so dispatch must refuse rather than hang.
  tf::Executor executor(make());
  tf::Taskflow flow;
  auto body = flow.emplace([] {});
  auto cond = flow.emplace([] { return 0; });
  body.precede(cond);
  cond.precede(body);
  try {
    (void)executor.run(flow);
    FAIL() << "expected CycleError";
  } catch (const tf::CycleError& e) {
    EXPECT_NE(std::string(e.what()).find("no source task"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Composition with the error model (ISSUE 2/4): out-of-range branches are
// captured errors; retry/fallback apply to conditions like any other task;
// cancellation and deadlines break loops between iterations.
// ---------------------------------------------------------------------------

TEST_P(Condition, OutOfRangeBranchSurfacesAsCapturedError) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  auto cond = flow.emplace([] { return 7; }).name("chooser");
  cond.precede(flow.emplace([&] { ran++; }));
  cond.precede(flow.emplace([&] { ran++; }));
  auto handle = executor.run(flow);
  try {
    handle.get();
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chooser"), std::string::npos) << what;
    EXPECT_NE(what.find("7"), std::string::npos) << what;
    EXPECT_NE(what.find("2"), std::string::npos) << what;
  }
  EXPECT_TRUE(handle.is_cancelled());  // error drains the topology
  EXPECT_EQ(ran.load(), 0);            // no branch fired
  EXPECT_EQ(cond.last_branch(), -1);   // selection never happened
}

TEST_P(Condition, NegativeBranchIsAlsoOutOfRange) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  auto cond = flow.emplace([] { return -2; });
  cond.precede(flow.emplace([] {}));
  EXPECT_THROW(executor.run(flow).get(), std::out_of_range);
}

TEST_P(Condition, RetryRecoversAThrowingCondition) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  std::atomic<int> attempts{0};
  std::atomic<int> exits{0};
  auto cond = flow.emplace([&]() -> int {
    if (attempts.fetch_add(1) < 2) throw std::runtime_error("transient");
    return 1;
  });
  cond.retry(5);
  cond.precede(flow.emplace([] {}));
  cond.precede(flow.emplace([&] { exits++; }));
  executor.run(flow).get();
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(exits.load(), 1);
  EXPECT_EQ(cond.last_branch(), 1);
}

TEST_P(Condition, FallbackSuccessSelectsNoBranchAndEndsTheLoop) {
  // When a condition's fallback absorbs the failure, no branch index was
  // produced: the run succeeds and the loop simply terminates.
  tf::Executor executor(make());
  tf::Taskflow flow;
  std::atomic<int> body_runs{0};
  std::atomic<bool> fell_back{false};
  std::atomic<bool> exited{false};
  auto init = flow.emplace([] {});
  auto body = flow.emplace([&] { body_runs++; });
  auto cond = flow.emplace([&]() -> int {
    if (body_runs.load() < 3) return 0;
    throw std::runtime_error("boom");
  });
  cond.fallback([&] { fell_back = true; });
  init.precede(body);
  body.precede(cond);
  cond.precede(body);
  cond.precede(flow.emplace([&] { exited = true; }));
  auto handle = executor.run(flow);
  EXPECT_NO_THROW(handle.get());
  EXPECT_EQ(body_runs.load(), 3);
  EXPECT_TRUE(fell_back.load());
  EXPECT_FALSE(exited.load());  // neither branch was selected
}

TEST_P(Condition, CancellationBreaksTheLoopBetweenIterations) {
  tf::Executor executor(make());
  tf::Taskflow flow;
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<long> laps{0};
  auto init = flow.emplace([] {});
  auto body = flow.emplace([&] {
    started = true;
    // The first lap parks until the test has cancelled; later laps (if the
    // drain is slow to take hold) fly through without blocking.
    while (!release.load() && !tf::this_task::is_cancelled()) {
      std::this_thread::yield();
    }
    laps++;
  });
  auto cond = flow.emplace([] { return 0; });  // loop forever
  init.precede(body);
  body.precede(cond);
  cond.precede(body);
  auto handle = executor.run(flow);
  while (!started.load()) std::this_thread::yield();
  handle.cancel();
  release = true;
  ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(handle.get());
  EXPECT_TRUE(handle.is_cancelled());
  // Draining skips the condition's work, so no branch is selected and the
  // otherwise-infinite loop unwinds after at most a couple of laps.
  EXPECT_LE(laps.load(), 2);
}

TEST_P(Condition, DeadlineExpiryBreaksTheLoop) {
  tf::Executor executor(2);
  tf::Taskflow flow;
  std::atomic<long> laps{0};
  auto init = flow.emplace([] {});
  auto body = flow.emplace([&] {
    laps++;
    std::this_thread::sleep_for(1ms);
  });
  auto cond = flow.emplace([] { return 0; });  // loop forever
  init.precede(body);
  body.precede(cond);
  cond.precede(body);
  tf::RunPolicy policy;
  policy.timeout = 50ms;
  auto handle = executor.run(flow, policy);
  ASSERT_EQ(handle.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(handle.get(), tf::TimeoutError);
  EXPECT_TRUE(handle.timed_out());
  executor.wait_for_all();
  EXPECT_GE(laps.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Backends, Condition,
                         ::testing::Values("work_stealing", "nocache_steal0"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace

// Resilience policies (DESIGN.md §8): per-task retry/backoff via the
// executor timer queue, fallback degradation handlers, RunPolicy deadlines
// and cancel_after, the executor watchdog, and shutdown(drain|abort) -
// including destruction with in-flight topologies and pending asyncs - plus
// the timer queue itself.
#include "taskflow/taskflow.hpp"
#include "taskflow/timer_queue.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backends.hpp"

namespace {

using namespace std::chrono_literals;

struct Flaky : std::runtime_error {
  Flaky() : std::runtime_error("flaky failure") {}
};

struct Fatal : std::runtime_error {
  Fatal() : std::runtime_error("fatal failure") {}
};

// Cooperative stall: burns time until the topology drains (cancel, sibling
// error, or deadline expiry).  Hard-bounded so a resilience bug fails the
// test instead of hanging it.
void spin_until_cancelled() {
  const auto hard_stop = std::chrono::steady_clock::now() + 60s;
  while (!tf::this_task::is_cancelled() &&
         std::chrono::steady_clock::now() < hard_stop) {
    std::this_thread::yield();
  }
}

// Both scheduler backends share the retry/fallback plumbing through the
// common run_task path, so the policy tests run against each.
class ResilienceModel : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<tf::ExecutorInterface> make(std::size_t n = 4) const {
    return tf_test::make_backend(GetParam(), n);
  }
};

// ---------------------------------------------------------------------------
// Retry
// ---------------------------------------------------------------------------

// The acceptance graph: a task under retry(3) that fails twice and then
// succeeds completes its topology with no error surfaced.
TEST_P(ResilienceModel, RetryConvergesAfterTransientFailures) {
  tf::Executor executor(make());
  tf::Taskflow taskflow;
  std::atomic<int> attempts{0};
  std::atomic<bool> downstream{false};
  auto flaky = taskflow.emplace([&] {
    if (attempts.fetch_add(1) < 2) throw Flaky();
  });
  flaky.retry(3);
  EXPECT_TRUE(flaky.has_policy());
  flaky.precede(taskflow.emplace([&] { downstream = true; }));

  auto handle = executor.run(taskflow);
  EXPECT_NO_THROW(handle.get());
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_TRUE(downstream.load());
  EXPECT_FALSE(handle.is_cancelled());
}

TEST_P(ResilienceModel, RetryExhaustionRethrowsAndDrains) {
  tf::Executor executor(make());
  tf::Taskflow taskflow;
  std::atomic<int> attempts{0};
  std::atomic<bool> downstream{false};
  auto doomed = taskflow.emplace([&] {
    attempts++;
    throw Flaky();
  });
  doomed.retry(2);  // 3 total attempts, all fail
  doomed.precede(taskflow.emplace([&] { downstream = true; }));

  auto handle = executor.run(taskflow);
  EXPECT_THROW(handle.get(), Flaky);
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_FALSE(downstream.load());  // exhaustion drains: successors skipped
  EXPECT_TRUE(handle.is_cancelled());
}

TEST_P(ResilienceModel, RetryBudgetResetsAcrossRepeatRuns) {
  tf::Executor executor(make());
  tf::Taskflow taskflow;
  std::atomic<int> attempts{0};
  // Fails once per run, succeeds on the in-run retry: every repeat of run_n
  // must get a fresh budget (arm() resets failed_attempts).
  std::atomic<int> in_run{0};
  auto first = taskflow.emplace([&] { in_run = 0; });
  auto flaky = taskflow.emplace([&] {
    attempts++;
    if (in_run.fetch_add(1) == 0) throw Flaky();
  });
  first.precede(flaky);
  flaky.retry(1);

  EXPECT_NO_THROW(executor.run_n(taskflow, 5).get());
  EXPECT_EQ(attempts.load(), 10);  // 2 attempts per run, 5 runs
}

TEST_P(ResilienceModel, BackoffDelaysRetriesWithoutBlockingWorkers) {
  tf::Executor executor(make(2));
  tf::Taskflow taskflow;
  std::atomic<int> attempts{0};
  tf::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff = 25ms;
  policy.multiplier = 1.0;
  policy.jitter = 0.0;
  taskflow.emplace([&] {
    if (attempts.fetch_add(1) < 2) throw Flaky();
  }).retry(policy);

  const auto begin = std::chrono::steady_clock::now();
  auto handle = executor.run(taskflow);
  // While the retried node parks on the timer queue, the workers stay free:
  // independent asyncs must complete during the ~50ms of accumulated backoff.
  std::vector<std::future<int>> fills;
  for (int i = 0; i < 16; ++i) fills.push_back(executor.async([i] { return i; }));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fills[static_cast<std::size_t>(i)].get(), i);

  EXPECT_NO_THROW(handle.get());
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_GE(elapsed, 40ms);  // two backoff waits of 25ms (timer: >= requested)
}

TEST_P(ResilienceModel, RetryIfFilterStopsUnretryableErrors) {
  tf::Executor executor(make());
  tf::Taskflow taskflow;
  std::atomic<int> attempts{0};
  tf::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff = 0ms;
  policy.retry_if = [](const std::exception_ptr& e) {
    try {
      std::rethrow_exception(e);
    } catch (const Flaky&) {
      return true;
    } catch (...) {
      return false;
    }
  };
  taskflow.emplace([&] {
    if (attempts.fetch_add(1) == 0) throw Flaky();  // retried
    throw Fatal();                                  // filtered: no retry
  }).retry(policy);

  auto handle = executor.run(taskflow);
  EXPECT_THROW(handle.get(), Fatal);
  EXPECT_EQ(attempts.load(), 2);
}

TEST_P(ResilienceModel, SubflowTasksCarryRetryPolicies) {
  tf::Executor executor(make());
  tf::Taskflow taskflow;
  std::atomic<int> parent_attempts{0};
  std::atomic<int> child_attempts{0};
  std::atomic<int> child_runs{0};
  // The dynamic parent fails once *after* building children: the partially
  // built subflow must be dropped and respawned fresh on the retry, so the
  // children run exactly once.  One child is itself flaky with its own
  // retry policy.
  taskflow.emplace([&](tf::SubflowBuilder& sf) {
    sf.emplace([&] { child_runs++; });
    sf.emplace([&] {
      if (child_attempts.fetch_add(1) == 0) throw Flaky();
      child_runs++;
    }).retry(1);
    if (parent_attempts.fetch_add(1) == 0) throw Flaky();
  }).retry(1);

  EXPECT_NO_THROW(executor.run(taskflow).get());
  EXPECT_EQ(parent_attempts.load(), 2);
  EXPECT_EQ(child_attempts.load(), 2);  // spawned once, retried once
  EXPECT_EQ(child_runs.load(), 2);      // each child completed exactly once
}

// ---------------------------------------------------------------------------
// Fallback
// ---------------------------------------------------------------------------

// The acceptance graph: a permanently failing task with a fallback lets the
// topology complete successfully.
TEST_P(ResilienceModel, FallbackDegradesInsteadOfFailing) {
  tf::Executor executor(make());
  tf::Taskflow taskflow;
  std::atomic<int> attempts{0};
  std::atomic<bool> degraded{false};
  std::atomic<bool> downstream{false};
  auto doomed = taskflow.emplace([&] {
    attempts++;
    throw Flaky();
  });
  doomed.retry(2).fallback([&] { degraded = true; });
  doomed.precede(taskflow.emplace([&] { downstream = true; }));

  auto handle = executor.run(taskflow);
  EXPECT_NO_THROW(handle.get());
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_TRUE(degraded.load());
  EXPECT_TRUE(downstream.load());  // the topology completed normally
  EXPECT_FALSE(handle.is_cancelled());
}

TEST_P(ResilienceModel, FallbackWithoutRetryFiresOnFirstFailure) {
  tf::Executor executor(make());
  tf::Taskflow taskflow;
  std::atomic<int> attempts{0};
  std::atomic<bool> degraded{false};
  taskflow.emplace([&] {
    attempts++;
    throw Flaky();
  }).fallback([&] { degraded = true; });

  EXPECT_NO_THROW(executor.run(taskflow).get());
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_TRUE(degraded.load());
}

TEST_P(ResilienceModel, ThrowingFallbackSurfacesItsOwnError) {
  tf::Executor executor(make());
  tf::Taskflow taskflow;
  taskflow.emplace([] { throw Flaky(); }).fallback([] { throw Fatal(); });

  auto handle = executor.run(taskflow);
  EXPECT_THROW(handle.get(), Fatal);  // the fallback's error, not the task's
  EXPECT_TRUE(handle.is_cancelled());
}

INSTANTIATE_TEST_SUITE_P(Executors, ResilienceModel,
                         ::testing::Values("work_stealing", "nocache_steal0"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Deadlines (RunPolicy) and cancel_after
// ---------------------------------------------------------------------------

// The acceptance graph: a 50ms deadline on a stalled (cooperatively
// spinning) graph returns TimeoutError promptly.
TEST(Resilience, DeadlineExpiryDeliversTimeoutError) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<bool> downstream{false};
  auto stall = taskflow.emplace([] { spin_until_cancelled(); });
  stall.precede(taskflow.emplace([&] { downstream = true; }));

  const auto begin = std::chrono::steady_clock::now();
  auto handle = executor.run(taskflow, tf::RunPolicy{50ms});
  EXPECT_THROW(handle.get(), tf::TimeoutError);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_GE(elapsed, 45ms);  // the timer queue never fires early
  EXPECT_LT(elapsed, 30s);   // ...and the drain is prompt, not the hard stop
  EXPECT_TRUE(handle.timed_out());
  EXPECT_TRUE(handle.is_cancelled());
  EXPECT_FALSE(downstream.load());  // expiry drains: successors skipped
}

TEST(Resilience, DeadlineMetInTimeLeavesRunUntouched) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&] { runs++; });

  // Generous budget: the run finishes long before expiry, the completion
  // path withdraws the timer, and nothing times out - repeatedly.
  for (int i = 0; i < 20; ++i) {
    auto handle = executor.run(taskflow, tf::RunPolicy{10s});
    EXPECT_NO_THROW(handle.get());
    EXPECT_FALSE(handle.timed_out());
    EXPECT_FALSE(handle.is_cancelled());
  }
  EXPECT_EQ(runs.load(), 20);
}

TEST(Resilience, DeadlineBoundsWholeRepeatSequence) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&] {
    runs++;
    std::this_thread::sleep_for(5ms);
  });

  // One 60ms budget across all repeats: far fewer than 1000 runs fit.
  auto handle = executor.run_n(taskflow, 1000, tf::RunPolicy{60ms});
  EXPECT_THROW(handle.get(), tf::TimeoutError);
  EXPECT_TRUE(handle.timed_out());
  EXPECT_LT(runs.load(), 1000);
  executor.wait_for_all();
}

TEST(Resilience, ThisTaskDeadlineExposesRemainingBudget) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<bool> saw_budget{false};
  std::atomic<bool> saw_none{false};
  taskflow.emplace([&] {
    if (auto remaining = tf::this_task::deadline()) {
      saw_budget = *remaining > 0ns && *remaining <= 10s;
    }
  });

  executor.run(taskflow, tf::RunPolicy{10s}).get();
  EXPECT_TRUE(saw_budget.load());

  tf::Taskflow unbounded;
  unbounded.emplace([&] { saw_none = !tf::this_task::deadline().has_value(); });
  executor.run(unbounded).get();
  EXPECT_TRUE(saw_none.load());
  EXPECT_FALSE(tf::this_task::deadline().has_value());  // outside any task
}

TEST(Resilience, CancelAfterIsAPlainDeferredCancel) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  taskflow.emplace([] { spin_until_cancelled(); });

  auto handle = executor.run(taskflow);
  handle.cancel_after(20ms);
  EXPECT_NO_THROW(handle.get());  // unlike a deadline: no TimeoutError
  EXPECT_TRUE(handle.is_cancelled());
  EXPECT_FALSE(handle.timed_out());
}

TEST(Resilience, ExplicitCancelBeatsCancelAfter) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&] {
    runs++;
    spin_until_cancelled();
  });

  auto handle = executor.run(taskflow);
  handle.cancel_after(10s);  // would fire far in the future...
  handle.cancel();           // ...but the explicit cancel lands now
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(handle.get());
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 9s);
  EXPECT_TRUE(handle.is_cancelled());
  EXPECT_FALSE(handle.timed_out());
  executor.wait_for_all();  // the stale 10s timer pins nothing but the state
}

TEST(Resilience, CancelAfterRacesDeadlineCoherently) {
  // cancel_after and a RunPolicy deadline race on the same drain: whichever
  // fires first wins, and the handle reports exactly one coherent outcome.
  for (int i = 0; i < 10; ++i) {
    tf::Executor executor(2);
    tf::Taskflow taskflow;
    taskflow.emplace([] { spin_until_cancelled(); });
    auto handle = executor.run(taskflow, tf::RunPolicy{std::chrono::milliseconds(5 + i)});
    handle.cancel_after(std::chrono::milliseconds(15 - i));
    bool threw = false;
    try {
      handle.get();
    } catch (const tf::TimeoutError&) {
      threw = true;
    }
    EXPECT_EQ(threw, handle.timed_out()) << "iteration " << i;
    EXPECT_TRUE(handle.is_cancelled()) << "iteration " << i;
  }
}

TEST(Resilience, StallReportNotesPoliciesAndDeadline) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<bool> entered{false};
  auto stall = taskflow.emplace([&] {
    entered = true;
    spin_until_cancelled();
  });
  stall.retry(3).fallback([] {});

  auto handle = executor.run(taskflow, tf::RunPolicy{10s});
  while (!entered.load()) std::this_thread::yield();
  const std::string report = executor.stall_report();
  EXPECT_NE(report.find("retry/fallback policies"), std::string::npos) << report;
  EXPECT_NE(report.find("deadline in"), std::string::npos) << report;
  handle.cancel();
  handle.get();
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(Resilience, WatchdogFlagsLongRunningTask) {
  tf::Executor executor(2);
  std::atomic<int> stall_reports{0};
  std::atomic<bool> saw_busy_worker{false};
  tf::WatchdogOptions options;
  options.period = 10ms;
  options.task_threshold = 25ms;
  options.on_stall = [&](const std::string& report) {
    stall_reports++;
    if (report.find("busy in one task") != std::string::npos) {
      saw_busy_worker = true;
    }
  };
  executor.enable_watchdog(options);
  EXPECT_TRUE(executor.watchdog_enabled());

  tf::Taskflow taskflow;
  std::atomic<bool> release{false};
  taskflow.emplace([&] {
    const auto hard_stop = std::chrono::steady_clock::now() + 60s;
    while (!release.load() && std::chrono::steady_clock::now() < hard_stop) {
      std::this_thread::yield();
    }
  });
  auto handle = executor.run(taskflow);
  // The watchdog (10ms period, 25ms threshold) must flag the stuck worker
  // well within this bound.
  const auto flag_deadline = std::chrono::steady_clock::now() + 30s;
  while (stall_reports.load() == 0 &&
         std::chrono::steady_clock::now() < flag_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  release = true;
  handle.get();
  EXPECT_GE(stall_reports.load(), 1);
  EXPECT_TRUE(saw_busy_worker.load());

  executor.disable_watchdog();
  EXPECT_FALSE(executor.watchdog_enabled());
}

TEST(Resilience, WatchdogEnforcesDeadlines) {
  // A running watchdog (no stall hook) leaves deadline expiry to the
  // backend's timer queue, the one deadline mechanism: the run still
  // delivers exactly one TimeoutError.
  tf::Executor executor(2);
  executor.enable_watchdog(5ms);
  tf::Taskflow taskflow;
  taskflow.emplace([] { spin_until_cancelled(); });
  auto handle = executor.run(taskflow, tf::RunPolicy{20ms});
  EXPECT_THROW(handle.get(), tf::TimeoutError);
  EXPECT_TRUE(handle.timed_out());
  executor.disable_watchdog();
}

TEST(Resilience, QuietWatchdogNeverFires) {
  tf::Executor executor(2);
  std::atomic<int> stall_reports{0};
  tf::WatchdogOptions options;
  options.period = 5ms;
  options.task_threshold = 10s;  // nothing here runs remotely that long
  options.on_stall = [&](const std::string&) { stall_reports++; };
  executor.enable_watchdog(options);

  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  for (int i = 0; i < 32; ++i) taskflow.emplace([&] { runs++; });
  executor.run_n(taskflow, 10).get();
  executor.disable_watchdog();
  EXPECT_EQ(runs.load(), 320);
  EXPECT_EQ(stall_reports.load(), 0);
}

// ---------------------------------------------------------------------------
// Timer queue
// ---------------------------------------------------------------------------

// Voluntary context switches of the calling thread so far.
long voluntary_switches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

TEST(TimerQueue, SleepsUntilTheEarliestEntryIsDue) {
  // One entry pending for 300 ms: the timer thread sleeps through the wait
  // instead of waking on a fixed tick.  Both readings come from callbacks,
  // so they measure the timer thread.
  tf::detail::TimerQueue timers;
  std::promise<long> at_start;
  std::promise<long> at_due;
  timers.schedule_after(300ms, [&] { at_due.set_value(voluntary_switches()); });
  timers.schedule_after(0ms, [&] { at_start.set_value(voluntary_switches()); });
  const long start = at_start.get_future().get();
  const long due = at_due.get_future().get();
  EXPECT_LE(due - start, 5);
}

TEST(TimerQueue, CancelReleasesTheCallbackBeforeReturning) {
  tf::detail::TimerQueue timers;
  auto state = std::make_shared<int>(0);
  std::weak_ptr<int> watch = state;
  const auto id = timers.schedule_after(10s, [state = std::move(state)] {});
  EXPECT_EQ(timers.num_pending(), 1u);
  EXPECT_TRUE(timers.cancel(id));
  EXPECT_TRUE(watch.expired());  // captured state gone with the entry
  EXPECT_EQ(timers.num_pending(), 0u);
  EXPECT_FALSE(timers.cancel(id));  // already cancelled

  std::promise<void> fired;
  const auto done = timers.schedule_after(0ms, [&] { fired.set_value(); });
  fired.get_future().wait();
  EXPECT_FALSE(timers.cancel(done));  // already fired
}

TEST(TimerQueue, FiresInDueOrderNotScheduleOrder) {
  tf::detail::TimerQueue timers;
  std::vector<int> order;  // written by the timer thread only
  std::promise<void> both;
  auto record = [&](int due_ms) {
    order.push_back(due_ms);
    if (order.size() == 2) both.set_value();
  };
  timers.schedule_after(600ms, [&] { record(600); });
  timers.schedule_after(5ms, [&] { record(5); });
  both.get_future().wait();
  EXPECT_EQ(order, (std::vector<int>{5, 600}));
}

// ---------------------------------------------------------------------------
// Shutdown and destruction
// ---------------------------------------------------------------------------

TEST(Resilience, ShutdownDrainLetsWorkFinishThenRejects) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&] {
    std::this_thread::sleep_for(1ms);
    runs++;
  });
  auto handle = executor.run_n(taskflow, 20);
  auto async_future = executor.async([] { return 7; });

  executor.shutdown();  // drain: everything submitted completes normally
  EXPECT_TRUE(executor.is_shutdown());
  EXPECT_NO_THROW(handle.get());
  EXPECT_EQ(runs.load(), 20);
  EXPECT_EQ(async_future.get(), 7);

  EXPECT_THROW((void)executor.run(taskflow), tf::ShutdownError);
  EXPECT_THROW((void)executor.run_n(taskflow, 3), tf::ShutdownError);
  EXPECT_THROW((void)executor.run_until(taskflow, [] { return true; }),
               tf::ShutdownError);
  EXPECT_THROW((void)executor.async([] {}), tf::ShutdownError);
  executor.shutdown();  // idempotent
  EXPECT_EQ(executor.num_topologies(), 0u);
}

TEST(Resilience, ShutdownAbortCancelsQueuedAndInFlightRuns) {
  tf::Executor executor(2);
  tf::Taskflow slow;
  std::atomic<int> started{0};
  slow.emplace([&] {
    started++;
    spin_until_cancelled();
  });
  // One in flight + several queued behind it on the same taskflow, plus an
  // independent repeat run; abort must cancel them all and return promptly.
  std::vector<tf::ExecutionHandle> handles;
  for (int i = 0; i < 4; ++i) handles.push_back(executor.run(slow));
  tf::Taskflow repeat;
  repeat.emplace([] { spin_until_cancelled(); });
  handles.push_back(executor.run_n(repeat, 1000));
  while (started.load() == 0) std::this_thread::yield();

  const auto begin = std::chrono::steady_clock::now();
  executor.shutdown(tf::ShutdownMode::abort);
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 30s);
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait_for(0s), std::future_status::ready);
    EXPECT_NO_THROW(handle.get());  // cancelled, not failed
    EXPECT_TRUE(handle.is_cancelled());
  }
  EXPECT_LT(started.load(), 1004);  // queued runs were skipped, not executed
  EXPECT_EQ(executor.num_topologies(), 0u);
}

TEST(Resilience, ShutdownAbortKeepsAsyncPromises) {
  tf::Executor executor(2);
  std::atomic<bool> release{false};
  auto blocker = executor.async([&] {
    const auto hard_stop = std::chrono::steady_clock::now() + 60s;
    while (!release.load() && std::chrono::steady_clock::now() < hard_stop) {
      std::this_thread::yield();
    }
    return 1;
  });
  std::thread releaser([&] {
    std::this_thread::sleep_for(10ms);
    release = true;
  });
  // Abort must still wait for the async (its promise must be kept).
  executor.shutdown(tf::ShutdownMode::abort);
  EXPECT_EQ(blocker.get(), 1);
  releaser.join();
  EXPECT_EQ(executor.num_asyncs(), 0u);
}

TEST(Resilience, DestructorDrainsInFlightTopologiesAndAsyncs) {
  // The destruction contract: ~Executor() == shutdown(drain).  Handles and
  // futures outlive the executor (shared state) and must all be complete
  // the moment the destructor returned.
  std::vector<tf::ExecutionHandle> handles;
  std::vector<std::future<int>> futures;
  tf::Taskflow taskflow;  // must outlive its runs, so declared first
  std::atomic<int> runs{0};
  taskflow.emplace([&] {
    std::this_thread::sleep_for(1ms);
    runs++;
  });
  {
    tf::Executor executor(4);
    for (int i = 0; i < 8; ++i) handles.push_back(executor.run_n(taskflow, 4));
    for (int i = 0; i < 8; ++i) futures.push_back(executor.async([i] { return i; }));
  }  // destructor: drain everything, then tear down workers and timer queue
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait_for(0s), std::future_status::ready);
    EXPECT_NO_THROW(handle.get());
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i);
  EXPECT_EQ(runs.load(), 32);
}

TEST(Resilience, DestructionUnderMultiClientHammer) {
  // 8 client threads hammer one executor with runs, repeats, asyncs, retried
  // flaky tasks, and deadline runs; once they finish submitting, the
  // executor is destroyed with much of that work still in flight.  Run under
  // TSan/ASan this is the satellite's destruction-safety gate.
  constexpr int kClients = 8;
  constexpr int kItersPerClient = 6;
  std::vector<std::unique_ptr<tf::Taskflow>> flows;
  std::vector<tf::ExecutionHandle> handles[kClients];
  std::vector<std::future<int>> futures[kClients];
  std::atomic<int> attempts{0};
  for (int c = 0; c < kClients; ++c) {
    auto flow = std::make_unique<tf::Taskflow>();
    auto flaky = flow->emplace([&attempts] {
      if (attempts.fetch_add(1) % 3 == 0) throw Flaky();
    });
    flaky.retry(4).fallback([] {});
    flaky.precede(flow->emplace([] { std::this_thread::yield(); }));
    flows.push_back(std::move(flow));
  }
  {
    tf::Executor executor(4);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kItersPerClient; ++i) {
          handles[c].push_back(executor.run(*flows[static_cast<std::size_t>(c)]));
          handles[c].push_back(
              executor.run_n(*flows[static_cast<std::size_t>(c)], 3));
          handles[c].push_back(executor.run(*flows[static_cast<std::size_t>(c)],
                                            tf::RunPolicy{30s}));
          futures[c].push_back(executor.async([i] { return i; }));
        }
      });
    }
    for (auto& t : clients) t.join();
  }  // destructor races nothing: submissions ended, the drain begins
  for (int c = 0; c < kClients; ++c) {
    for (auto& handle : handles[c]) {
      EXPECT_EQ(handle.wait_for(0s), std::future_status::ready);
      EXPECT_NO_THROW(handle.get());  // every flake retried or degraded
    }
    for (std::size_t i = 0; i < futures[c].size(); ++i) {
      EXPECT_EQ(futures[c][i].get(), static_cast<int>(i));
    }
  }
}

TEST(Resilience, RetriesAndFallbacksConvergeUnderConcurrentClients) {
  // Many clients, distinct taskflows, every task flaky: retries must
  // converge (or degrade via fallback) for every single run - no handle may
  // ever deliver an error.
  constexpr int kClients = 8;
  tf::Executor executor(4);
  std::atomic<int> degraded{0};
  std::atomic<int> converged{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      tf::Taskflow flow;
      std::atomic<int> node_attempts[4] = {};
      for (int i = 0; i < 4; ++i) {
        // Node i fails its first i attempts; node 3 fails one attempt more
        // than its budget allows and must degrade through its fallback.
        const int failures = (i == 3) ? 3 : i;
        tf::RetryPolicy policy;
        policy.max_attempts = 3;
        policy.backoff = (c % 2 == 0) ? 0ms : 1ms;  // mixed: direct + timer queue
        policy.jitter = 0.5;
        auto task = flow.emplace([&node_attempts, i, failures, &converged] {
          if (node_attempts[i].fetch_add(1) < failures) throw Flaky();
          converged++;
        });
        task.retry(policy);
        task.fallback([&degraded] { degraded++; });
      }
      for (int iter = 0; iter < 5; ++iter) {
        for (auto& a : node_attempts) a = 0;
        EXPECT_NO_THROW(executor.run(flow).get()) << "client " << c;
      }
    });
  }
  for (auto& t : clients) t.join();
  executor.wait_for_all();
  EXPECT_EQ(degraded.load(), kClients * 5);       // node 3, every run
  EXPECT_EQ(converged.load(), kClients * 5 * 3);  // nodes 0-2, every run
}

// ---------------------------------------------------------------------------
// Topology recycling interplay (DESIGN.md §10)
// ---------------------------------------------------------------------------
// run_n replays re-arm one Topology in place and recycle spawned subflow
// graphs instead of rebuilding them; these tests pin the recycled state
// against the resilience layer - retry budgets, fallbacks, deadlines and
// cancellation must behave exactly as on a freshly built topology.

TEST(Resilience, ThousandReplaysKeepOrderingOnRecycledTopology) {
  tf::Executor executor(4);
  tf::Taskflow taskflow;
  std::atomic<int> stage{0};
  std::atomic<int> violations{0};
  auto a = taskflow.emplace([&] { stage = 1; });
  auto b = taskflow.emplace([&] { if (stage.load() != 1) violations++; });
  auto c = taskflow.emplace([&] { if (stage.load() != 1) violations++; });
  auto d = taskflow.emplace([&] { if (stage.exchange(0) != 1) violations++; });
  a.precede(b);
  a.precede(c);
  b.precede(d);
  c.precede(d);
  // Every replay re-arms the same join counters and walks the same packed
  // successor spans: a stale counter or edge would break the diamond order.
  EXPECT_NO_THROW(executor.run_n(taskflow, 1000).get());
  EXPECT_EQ(violations.load(), 0);
}

TEST(Resilience, RecycledSubflowRetriesAcrossManyReplays) {
  tf::Executor executor(4);
  tf::Taskflow taskflow;
  std::atomic<int> parent_attempts{0};
  std::atomic<int> child_runs{0};
  std::atomic<int> in_run{0};
  auto reset = taskflow.emplace([&] { in_run = 0; });
  auto parent = taskflow.emplace([&](tf::SubflowBuilder& sf) {
    parent_attempts++;
    for (int i = 0; i < 4; ++i) sf.emplace([&] { child_runs++; });
    if (in_run.fetch_add(1) == 0) throw Flaky();  // first attempt, every run
  });
  reset.precede(parent);
  parent.retry(1);

  constexpr int kRuns = 1000;
  EXPECT_NO_THROW(executor.run_n(taskflow, kRuns).get());
  // Fresh retry budget per replay: two attempts each run.  Only the
  // successful attempt's children became live, built in the subgraph the
  // failed attempt (and the previous 999 runs) recycled in place.
  EXPECT_EQ(parent_attempts.load(), 2 * kRuns);
  EXPECT_EQ(child_runs.load(), 4 * kRuns);
}

TEST(Resilience, FallbackAbandonsRecycledSubflowChildren) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<int> degraded{0};
  std::atomic<int> child_runs{0};
  taskflow.emplace([&](tf::SubflowBuilder& sf) {
    sf.emplace([&] { child_runs++; });
    throw Flaky();  // children are never made live
  }).fallback([&] { degraded++; });

  constexpr int kRuns = 200;
  EXPECT_NO_THROW(executor.run_n(taskflow, kRuns).get());
  EXPECT_EQ(degraded.load(), kRuns);  // degrade once per replay...
  EXPECT_EQ(child_runs.load(), 0);    // ...abandoned children never run
}

TEST(Resilience, DeadlineMidReplaysLeavesTaskflowReusable) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<int> child_runs{0};
  taskflow.emplace([&](tf::SubflowBuilder& sf) {
    sf.emplace([&] {
      child_runs++;
      std::this_thread::sleep_for(1ms);
    });
  });

  auto handle = executor.run_n(taskflow, 1000000, tf::RunPolicy{50ms});
  EXPECT_THROW(handle.get(), tf::TimeoutError);
  EXPECT_TRUE(handle.timed_out());
  EXPECT_LT(child_runs.load(), 1000000);

  // Expiry drained the sequence mid-replay, possibly with the subflow
  // half-spawned; a fresh run of the same taskflow must re-arm the recycled
  // topology cleanly and complete every remaining replay.
  child_runs = 0;
  auto again = executor.run_n(taskflow, 50);
  EXPECT_NO_THROW(again.get());
  EXPECT_FALSE(again.timed_out());
  EXPECT_EQ(child_runs.load(), 50);
}

TEST(Resilience, CancelMidReplaysLeavesTaskflowReusable) {
  tf::Executor executor(2);
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&](tf::SubflowBuilder& sf) {
    runs++;
    for (int i = 0; i < 8; ++i) sf.emplace([] {});
  });

  auto handle = executor.run_n(taskflow, 1000000);
  while (runs.load() < 10) std::this_thread::yield();
  handle.cancel();
  EXPECT_NO_THROW(handle.get());  // cancellation is not an error
  EXPECT_TRUE(handle.is_cancelled());
  EXPECT_LT(runs.load(), 1000000);

  const int after_cancel = runs.load();
  auto again = executor.run_n(taskflow, 25);
  EXPECT_NO_THROW(again.get());
  EXPECT_FALSE(again.is_cancelled());
  EXPECT_EQ(runs.load(), after_cancel + 25);
}

TEST(Resilience, CancelDrainsLiveRecycledSubflowChildren) {
  tf::Executor executor(4);
  tf::Taskflow taskflow;
  std::atomic<int> spawned{0};
  taskflow.emplace([&](tf::SubflowBuilder& sf) {
    for (int i = 0; i < 4; ++i) {
      sf.emplace([&] {
        spawned++;
        spin_until_cancelled();
      });
    }
  });

  // Children of a replayed (recycled) subflow are live and stalling when
  // the cancel lands: they must observe it and drain without error.
  auto handle = executor.run_n(taskflow, 100);
  while (spawned.load() == 0) std::this_thread::yield();
  handle.cancel();
  EXPECT_NO_THROW(handle.get());
  EXPECT_TRUE(handle.is_cancelled());
  executor.wait_for_all();
}

}  // namespace

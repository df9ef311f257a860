// Composable module tasks (ISSUE 8 tentpole): composed_of(target) embeds a
// non-owning reference to another Taskflow's graph; at execution the module
// deep-copies the target into its own subgraph (so one target can appear in
// several concurrently running parents) and runs it as a joined subflow.
// The suite pins reuse across parents, nesting, loop re-expansion, the
// move-only-callable diagnostic, and interaction with admission shedding.
#include "taskflow/taskflow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "backends.hpp"

using namespace std::chrono_literals;

namespace {

constexpr auto kDeadline = std::chrono::seconds(30);

// Cancel-aware park, so aborted/shed runs still drain promptly.
void spin_until(const std::atomic<bool>& flag) {
  while (!flag.load() && !tf::this_task::is_cancelled()) std::this_thread::yield();
}

// Opens the gate on scope exit even when an assertion bails out early, so
// the executor destructor can always drain.
struct GateOpener {
  explicit GateOpener(std::atomic<bool>& g) : gate(g) {}
  ~GateOpener() { gate.store(true); }
  std::atomic<bool>& gate;
};

class Composition : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::shared_ptr<tf::ExecutorInterface> make(std::size_t n = 4) const {
    return tf_test::make_backend(GetParam(), n);
  }
};

TEST_P(Composition, ModuleRunsTheTargetGraph) {
  tf::Executor executor(make());
  tf::Taskflow target;
  std::atomic<int> order{0};
  std::atomic<int> first{-1};
  std::atomic<int> second{-1};
  auto a = target.emplace([&] { first = order.fetch_add(1); });
  auto b = target.emplace([&] { second = order.fetch_add(1); });
  a.precede(b);  // the target's internal ordering must be preserved

  tf::Taskflow parent;
  std::atomic<int> before{-1};
  std::atomic<int> after{-1};
  auto pre = parent.emplace([&] { before = order.fetch_add(1); });
  auto mod = parent.composed_of(target).name("target-module");
  auto post = parent.emplace([&] { after = order.fetch_add(1); });
  pre.precede(mod);
  mod.precede(post);
  EXPECT_TRUE(mod.is_module());
  EXPECT_FALSE(mod.is_condition());

  executor.run(parent).get();
  EXPECT_EQ(before.load(), 0);
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 2);
  EXPECT_EQ(after.load(), 3);  // module joins before its successors fire
}

TEST_P(Composition, EmptyTargetModuleIsANoOp) {
  tf::Executor executor(make());
  tf::Taskflow empty;
  tf::Taskflow parent;
  std::atomic<bool> after{false};
  auto mod = parent.composed_of(empty);
  mod.precede(parent.emplace([&] { after = true; }));
  executor.run(parent).get();  // must not hang on a sourceless empty expansion
  EXPECT_TRUE(after.load());
}

TEST_P(Composition, OneTargetComposedIntoTwoConcurrentParents) {
  tf::Executor executor(make());
  tf::Taskflow target;
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  target.emplace([&] {
    started++;
    spin_until(release);
    finished++;
  });

  tf::Taskflow parent_a;
  tf::Taskflow parent_b;
  parent_a.composed_of(target);
  parent_b.composed_of(target);

  auto ha = executor.run(parent_a);
  auto hb = executor.run(parent_b);
  // Both parents hold their own instantiation of `target` in flight at once:
  // a shared mutable expansion would deadlock or double-run here.
  while (started.load() < 2) std::this_thread::yield();
  release = true;
  ASSERT_EQ(ha.wait_for(kDeadline), std::future_status::ready);
  ASSERT_EQ(hb.wait_for(kDeadline), std::future_status::ready);
  ha.get();
  hb.get();
  EXPECT_EQ(finished.load(), 2);
}

TEST_P(Composition, ModulesNestRecursively) {
  tf::Executor executor(make());
  tf::Taskflow innermost;
  std::atomic<int> inner_runs{0};
  innermost.emplace([&] { inner_runs++; });

  tf::Taskflow middle;
  std::atomic<int> middle_runs{0};
  auto mid_task = middle.emplace([&] { middle_runs++; });
  auto mid_mod = middle.composed_of(innermost);
  mid_task.precede(mid_mod);

  tf::Taskflow outer;
  outer.composed_of(middle);
  executor.run(outer).get();
  EXPECT_EQ(middle_runs.load(), 1);
  EXPECT_EQ(inner_runs.load(), 1);
}

TEST_P(Composition, ConditionLoopReExpandsTheModuleEachLap) {
  // A module on a condition loop must re-instantiate per lap (its _spawned
  // latch resets on finalize), so the target's tasks run once per lap.
  tf::Executor executor(make());
  tf::Taskflow target;
  std::atomic<int> expansions{0};
  target.emplace([&] { expansions++; });

  tf::Taskflow parent;
  int laps = 0;
  auto init = parent.emplace([&] { laps = 0; });
  auto mod = parent.composed_of(target);
  auto cond = parent.emplace([&] { return ++laps < 5 ? 0 : 1; });
  auto done = parent.emplace([] {});
  init.precede(mod);
  mod.precede(cond);
  cond.precede(mod);   // 0: run the module again
  cond.precede(done);  // 1: exit
  executor.run(parent).get();
  EXPECT_EQ(expansions.load(), 5);
}

TEST_P(Composition, RunNReusesTheModuleParent) {
  tf::Executor executor(make());
  tf::Taskflow target;
  std::atomic<int> runs{0};
  target.emplace([&] { runs++; });
  tf::Taskflow parent;
  parent.composed_of(target);
  executor.run_n(parent, 4).get();
  EXPECT_EQ(runs.load(), 4);
}

TEST_P(Composition, TargetWithConditionLoopComposes) {
  // In-graph control flow survives instantiation: the copied condition's
  // weak edges and loop behave exactly like the original's.
  tf::Executor executor(make());
  tf::Taskflow target;
  std::atomic<int> total{0};
  int laps = 0;
  auto init = target.emplace([&] { laps = 0; });
  auto body = target.emplace([&] {
    ++laps;
    total++;
  });
  auto cond = target.emplace([&] { return laps < 6 ? 0 : 1; });
  auto exit = target.emplace([] {});
  init.precede(body);
  body.precede(cond);
  cond.precede(body);
  cond.precede(exit);
  tf::Taskflow parent;
  parent.composed_of(target);
  executor.run(parent).get();
  EXPECT_EQ(total.load(), 6);
}

TEST_P(Composition, MoveOnlyCallableInTargetIsACapturedError) {
  // Instantiation clones the target's callables; a move-only one cannot be
  // cloned, and the failure must surface as a captured run error (with the
  // descriptive SmallFunction message), not a crash or a silent skip.
  tf::Executor executor(make());
  tf::Taskflow target;
  auto token = std::make_unique<int>(42);
  target.emplace([token = std::move(token)] { (void)*token; });
  tf::Taskflow parent;
  parent.composed_of(target);
  auto handle = executor.run(parent);
  try {
    handle.get();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("not copy-constructible"),
              std::string::npos)
        << e.what();
  }
}

TEST_P(Composition, ModuleGraphsUnderAdmissionShedding) {
  // A shed parent run never expands its module: the target's tasks must not
  // execute again, and the shed handle reports the OverloadError.
  tf::ExecutorOptions opts;
  opts.shed_watermark = 1;
  tf::Executor executor(1, opts);
  std::atomic<bool> gate{false};
  GateOpener opener(gate);
  tf::Taskflow target;
  std::atomic<int> ran{0};
  target.emplace([&] {
    ran++;
    spin_until(gate);
  });
  tf::Taskflow parent;
  parent.composed_of(target);

  auto h0 = executor.run(parent);  // in flight (started: not sheddable)
  auto h1 = executor.run(parent);  // queued behind h0; pending 2 > 1: shed
  ASSERT_EQ(h1.wait_for(kDeadline), std::future_status::ready);
  EXPECT_THROW(h1.get(), tf::OverloadError);
  EXPECT_TRUE(h1.is_cancelled());
  EXPECT_EQ(executor.metrics().shed, 1u);
  gate = true;
  ASSERT_EQ(h0.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(h0.get());
  executor.wait_for_all();
  EXPECT_EQ(ran.load(), 1);  // only h0's expansion executed the target
}

// ---------------------------------------------------------------------------
// Recursion guards (ISSUE 9 satellite): composed_of rejects statically
// detectable module cycles at build time; recursion assembled at runtime
// (through dynamic subflows, invisible to the static walk) hits the
// expansion-depth cap and surfaces a captured, task-naming CompositionError
// through the future instead of a stack overflow.
// ---------------------------------------------------------------------------

TEST(CompositionGuard, SelfCompositionThrowsAtBuildTime) {
  tf::Taskflow flow;
  std::atomic<int> ran{0};
  flow.emplace([&] { ran++; });
  EXPECT_THROW((void)flow.composed_of(flow), tf::CompositionError);
  // The guard fires before the module node is created: the flow stays
  // intact and runnable.
  tf::Executor executor(1);
  EXPECT_NO_THROW(executor.run(flow).get());
  EXPECT_EQ(ran.load(), 1);
}

TEST(CompositionGuard, MutualCompositionThrowsAtBuildTime) {
  tf::Taskflow a;
  tf::Taskflow b;
  a.emplace([] {});
  b.emplace([] {});
  (void)a.composed_of(b);
  try {
    (void)b.composed_of(a);
    FAIL() << "closing a mutual module cycle must throw";
  } catch (const tf::CompositionError& e) {
    EXPECT_NE(std::string(e.what()).find("recurs"), std::string::npos)
        << e.what();
  }
}

TEST(CompositionGuard, TransitiveCompositionThrowsButDiamondReuseIsLegal) {
  tf::Taskflow a;
  tf::Taskflow b;
  tf::Taskflow c;
  c.emplace([] {});
  (void)a.composed_of(b);
  (void)b.composed_of(c);
  EXPECT_THROW((void)c.composed_of(a), tf::CompositionError);
  // Reuse without a cycle must stay legal: a already reaches c through b,
  // and composing c a second time is a diamond, not recursion.
  EXPECT_NO_THROW((void)a.composed_of(c));
}

TEST_P(Composition, DeepLegalNestingRunsUnderTheCap) {
  // A 48-deep linear module chain stays under kMaxModuleDepth (64) and must
  // complete normally - the cap only fires on runaway recursion.
  constexpr int kDepth = 48;
  std::atomic<int> ran{0};
  std::vector<std::unique_ptr<tf::Taskflow>> flows;
  flows.push_back(std::make_unique<tf::Taskflow>());
  flows.back()->emplace([&] { ran++; });
  for (int i = 1; i < kDepth; ++i) {
    flows.push_back(std::make_unique<tf::Taskflow>());
    (void)flows.back()->composed_of(*flows[static_cast<std::size_t>(i) - 1]);
  }
  tf::Executor executor(make());
  auto h = executor.run(*flows.back());
  ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready);
  EXPECT_NO_THROW(h.get());
  EXPECT_EQ(ran.load(), 1);
}

TEST_P(Composition, RuntimeAssembledRecursionHitsTheDepthCap) {
  // The static walk cannot see this cycle: each run of `rec` spawns a fresh
  // subflow graph that composes `rec` again, so the reference chain only
  // exists at execution time.  The depth cap must stop it and deliver a
  // CompositionError naming the module task through the future.
  tf::Taskflow rec;
  std::atomic<int> expansions{0};
  rec.emplace([&](tf::SubflowBuilder& sf) {
    expansions++;
    sf.composed_of(rec).name("recurse");
  });

  tf::Executor executor(make());
  auto h = executor.run(rec);
  ASSERT_EQ(h.wait_for(kDeadline), std::future_status::ready);
  try {
    h.get();
    FAIL() << "unbounded runtime recursion must surface CompositionError";
  } catch (const tf::CompositionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("recurse"), std::string::npos) << what;
    EXPECT_NE(what.find("depth cap"), std::string::npos) << what;
  }
  // Bounded damage: the cap stops expansion near kMaxModuleDepth levels.
  EXPECT_GE(expansions.load(), 32);
  EXPECT_LE(expansions.load(), 80);
}

INSTANTIATE_TEST_SUITE_P(Backends, Composition,
                         ::testing::Values("work_stealing", "nocache_steal0"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace

// Engine equivalence: the OpenMP-levelized v1 and the taskflow v2 engines
// must agree with the sequential oracle on full updates and - crucially -
// across long incremental resize sequences.
#include "taskflow/graph.hpp"
#include "taskflow/observer.hpp"
#include "timer/modifier.hpp"
#include "timer/timers.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <new>
#include <sstream>
#include <string>

namespace {

class EngineTest : public ::testing::Test {
 protected:
  ot::CellLibrary lib = ot::CellLibrary::make_synthetic();
  ot::TimerOptions opt;

  EngineTest() {
    opt.num_threads = 4;
    opt.clock_period = 2.0;
  }

  ot::Netlist circuit(std::size_t gates, std::uint64_t seed) {
    ot::CircuitSpec spec;
    spec.num_gates = gates;
    spec.num_inputs = 16;
    spec.seed = seed;
    return ot::make_circuit(lib, spec);
  }

  static void expect_equal_state(const ot::TimerBase& a, const ot::TimerBase& b,
                                 double tol = 1e-9) {
    ASSERT_EQ(a.graph().num_pins(), b.graph().num_pins());
    for (std::size_t p = 0; p < a.graph().num_pins(); ++p) {
      const auto& da = a.state().data(static_cast<int>(p));
      const auto& db = b.state().data(static_cast<int>(p));
      for (int s : {ot::kEarly, ot::kLate}) {
        for (int t : {ot::kRise, ot::kFall}) {
          const auto ss = static_cast<std::size_t>(s);
          const auto tt = static_cast<std::size_t>(t);
          ASSERT_NEAR(da.at[ss][tt], db.at[ss][tt], tol) << "pin " << p;
          ASSERT_NEAR(da.slew[ss][tt], db.slew[ss][tt], tol) << "pin " << p;
          ASSERT_NEAR(da.rat[ss][tt], db.rat[ss][tt], tol) << "pin " << p;
        }
      }
    }
  }
};

TEST_F(EngineTest, FullUpdateAgreesAcrossEngines) {
  auto nl_seq = circuit(1500, 77);
  auto nl_v1 = circuit(1500, 77);
  auto nl_v2 = circuit(1500, 77);

  ot::SeqTimer seq(nl_seq, opt);
  ot::TimerV1 v1(nl_v1, opt);
  ot::TimerV2 v2(nl_v2, opt);
  seq.full_update();
  v1.full_update();
  v2.full_update();

  expect_equal_state(seq, v1);
  expect_equal_state(seq, v2);
  EXPECT_TRUE(std::isfinite(seq.worst_slack()));
  EXPECT_NEAR(seq.worst_slack(), v2.worst_slack(), 1e-9);
}

TEST_F(EngineTest, IncrementalResizeMatchesFullRecompute) {
  // Oracle: after each incremental update, a from-scratch sequential
  // recompute over an identical netlist must give identical state.
  auto nl_inc = circuit(800, 13);
  auto nl_ref = circuit(800, 13);

  ot::TimerV2 inc(nl_inc, opt);
  ot::SeqTimer ref(nl_ref, opt);
  inc.full_update();
  ref.full_update();

  ot::ModifierStream mods(nl_inc, 99);
  for (int iter = 0; iter < 15; ++iter) {
    const auto m = mods.next();
    inc.resize(m.gate, *m.new_cell);
    ref.netlist().resize_gate(m.gate, *m.new_cell);
    ref.full_update();
    expect_equal_state(ref, inc);
  }
}

TEST_F(EngineTest, IncrementalV1MatchesFullRecompute) {
  auto nl_inc = circuit(800, 13);
  auto nl_ref = circuit(800, 13);

  ot::TimerV1 inc(nl_inc, opt);
  ot::SeqTimer ref(nl_ref, opt);
  inc.full_update();
  ref.full_update();

  ot::ModifierStream mods(nl_inc, 99);
  for (int iter = 0; iter < 15; ++iter) {
    const auto m = mods.next();
    inc.resize(m.gate, *m.new_cell);
    ref.netlist().resize_gate(m.gate, *m.new_cell);
    ref.full_update();
    expect_equal_state(ref, inc);
  }
}

TEST_F(EngineTest, SequentialIncrementalAlsoMatches) {
  // The cone algebra itself (independent of parallel execution).
  auto nl_inc = circuit(600, 5);
  auto nl_ref = circuit(600, 5);
  ot::SeqTimer inc(nl_inc, opt);
  ot::SeqTimer ref(nl_ref, opt);
  inc.full_update();
  ref.full_update();
  ot::ModifierStream mods(nl_inc, 7);
  for (int iter = 0; iter < 25; ++iter) {
    const auto m = mods.next();
    inc.resize(m.gate, *m.new_cell);
    ref.netlist().resize_gate(m.gate, *m.new_cell);
    ref.full_update();
    expect_equal_state(ref, inc);
  }
}

TEST_F(EngineTest, ResizeIsObservableAndInvertible) {
  auto nl = circuit(500, 3);
  auto nl_ref = circuit(500, 3);
  ot::SeqTimer t(nl, opt);
  ot::SeqTimer ref(nl_ref, opt);
  t.full_update();
  ref.full_update();

  // Find a resizable gate and move it along its drive ladder.
  ot::ModifierStream mods(nl, 17);
  const auto m = mods.next();
  const ot::Cell* original = nl.gate(m.gate).cell;

  t.resize(m.gate, *m.new_cell);
  // The gate's output arrival must have changed (resistance differs and its
  // output net carries a positive load).
  const int out_pin = nl.gate(m.gate).pins[static_cast<std::size_t>(
      nl.gate(m.gate).cell->output_pin())];
  EXPECT_NE(t.arrival(out_pin, ot::kLate, ot::kRise),
            ref.arrival(out_pin, ot::kLate, ot::kRise));

  // Resizing back restores the exact original analysis state.
  t.resize(m.gate, *original);
  expect_equal_state(ref, t, 0.0);
}

TEST_F(EngineTest, LastUpdateTaskCountsReported) {
  auto nl = circuit(700, 19);
  ot::TimerV2 t(nl, opt);
  t.full_update();
  EXPECT_EQ(t.last_update_tasks(), 2 * nl.num_pins());
  ot::ModifierStream mods(nl, 1);
  const auto m = mods.next();
  t.resize(m.gate, *m.new_cell);
  EXPECT_GT(t.last_update_tasks(), 0u);
  EXPECT_LE(t.last_update_tasks(), 2 * nl.num_pins());
}

TEST_F(EngineTest, V1ReportsLevelBuckets) {
  auto nl = circuit(400, 23);
  ot::TimerV1 t(nl, opt);
  t.full_update();
  EXPECT_GT(t.last_num_levels(), 2u);
}

TEST_F(EngineTest, V2DumpsTaskGraphOnSmallUpdates) {
  auto nl = circuit(60, 2);
  ot::TimerV2 t(nl, opt);
  t.full_update();
  const auto dot = t.dump_last_task_graph();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("fwd:"), std::string::npos);
  EXPECT_NE(dot.find("bwd:"), std::string::npos);
}

TEST_F(EngineTest, V2DumpIsEmptyAfterAnUpdateTooLargeToDump) {
  constexpr std::size_t kDumpLimit = 4096;
  auto nl = circuit(1500, 77);
  ot::TimerV2 t(nl, opt);
  t.full_update();
  ASSERT_GT(t.last_update_tasks(), kDumpLimit);
  EXPECT_TRUE(t.dump_last_task_graph().empty());

  // A small resize dumps its graph...
  ot::ModifierStream mods(nl, 5);
  bool dumped = false;
  for (int i = 0; i < 64 && !dumped; ++i) {
    const auto m = mods.next();
    t.resize(m.gate, *m.new_cell);
    dumped = t.last_update_tasks() > 0 && t.last_update_tasks() <= kDumpLimit;
  }
  ASSERT_TRUE(dumped) << "no resize cone small enough to dump";
  EXPECT_NE(t.dump_last_task_graph().find("digraph"), std::string::npos);

  // ...and the full update after it, too large to dump, leaves none.
  t.full_update();
  ASSERT_GT(t.last_update_tasks(), kDumpLimit);
  EXPECT_TRUE(t.dump_last_task_graph().empty());
}

TEST_F(EngineTest, V2BarrierPrecedesOnlyBackwardEnds) {
  // Every backward task with in-cone fan-out already waits on the barrier
  // through that fan-out chain, so on a full update the barrier's only
  // direct successors are the endpoints' backward tasks.
  auto nl = circuit(60, 2);
  ot::TimerV2 t(nl, opt);
  t.full_update();
  const auto dot = t.dump_last_task_graph();

  std::string barrier_id;
  std::size_t barrier_edges = 0;
  std::istringstream lines(dot);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("[label=\"forward/backward\"]") != std::string::npos) {
      barrier_id = line.substr(0, line.find(" ["));
    } else if (!barrier_id.empty() && line.rfind(barrier_id + " -> ", 0) == 0) {
      ++barrier_edges;
    }
  }
  ASSERT_FALSE(barrier_id.empty()) << dot;

  std::size_t endpoints = 0;
  for (std::size_t p = 0; p < t.graph().num_pins(); ++p) {
    if (t.graph().is_endpoint(static_cast<int>(p))) ++endpoints;
  }
  EXPECT_GT(endpoints, 0u);
  EXPECT_EQ(barrier_edges, endpoints);
}

TEST_F(EngineTest, V2ReplayedFullUpdatesMatchReference) {
  // Full updates replay the graph of the previous full update until an
  // incremental update recycles it; each must match a sequential recompute,
  // including after netlist edits made behind the timer's back.
  auto nl = circuit(800, 29);
  auto nl_ref = circuit(800, 29);
  ot::TimerV2 v2(nl, opt);
  ot::SeqTimer ref(nl_ref, opt);
  ot::ModifierStream mods(nl, 11);

  auto check = [&](const char* step) {
    SCOPED_TRACE(step);
    ref.full_update();
    expect_equal_state(ref, v2);
  };
  // The next modification on both netlists: through v2's incremental
  // update, or by a direct netlist edit that only a full update picks up.
  auto modify = [&](bool through_timer) {
    const auto m = mods.next();
    ref.netlist().resize_gate(m.gate, *m.new_cell);
    if (through_timer) {
      v2.resize(m.gate, *m.new_cell);
    } else {
      nl.resize_gate(m.gate, *m.new_cell);
    }
  };

  v2.full_update();
  check("first full update");
  v2.full_update();
  check("back-to-back replay");
  modify(true);
  check("resize");
  v2.full_update();
  check("full update after a resize");
  modify(false);
  v2.full_update();
  check("replay after a direct netlist edit");
  modify(false);
  modify(false);
  v2.full_update();
  check("replay after two direct netlist edits");
  modify(true);
  check("second resize");
  v2.full_update();
  v2.full_update();
  check("rebuild then replay");
}

TEST_F(EngineTest, V2ReplayRunsTheWholeGraph) {
  struct CountingObserver : tf::ExecutorObserverInterface {
    std::atomic<std::size_t> tasks{0};
    void on_exit(std::size_t, const tf::Node&) override {
      tasks.fetch_add(1, std::memory_order_relaxed);
    }
  };
  auto nl = circuit(500, 31);
  ot::TimerV2 t(nl, opt);
  auto counter = std::make_shared<CountingObserver>();
  t.set_observer(counter);

  t.full_update();
  const std::size_t first = counter->tasks.exchange(0);
  EXPECT_GE(first, 2 * nl.num_pins());
  for (int i = 0; i < 3; ++i) {
    t.full_update();
    EXPECT_EQ(counter->tasks.exchange(0), first) << "replay " << i;
  }
}

TEST_F(EngineTest, V2RecoversFromAFailedGraphBuild) {
  // Fail each slab acquisition of a fresh timer's first update in turn,
  // for a resize and for a full update.  A build that throws part-way must
  // leave no cone flags behind (the next update would wire edges through
  // stale task handles) and no half-built graph marked for replay.  Every
  // modification is mirrored on a sequential reference.
  const ot::CircuitSpec spec = ot::tv80_spec(0.05);
  for (const bool full : {false, true}) {
    bool threw = true;
    for (long long k = 0; threw; ++k) {
      SCOPED_TRACE(std::string(full ? "full update" : "resize") +
                   ", failing slab acquisition " + std::to_string(k));
      auto nl = ot::make_circuit(lib, spec);
      auto nl_ref = ot::make_circuit(lib, spec);
      ot::TimerV2 v2(nl, opt);
      ot::SeqTimer ref(nl_ref, opt);
      ot::ModifierStream mods(nl, 5);
      auto resize = [&] {
        const auto m = mods.next();
        ref.netlist().resize_gate(m.gate, *m.new_cell);
        v2.resize(m.gate, *m.new_cell);
      };
      auto update = [&] {
        if (full) {
          v2.full_update();
        } else {
          resize();
        }
      };

      tf::detail::arm_alloc_failure(k);
      try {
        update();
        threw = false;  // k is past the last acquisition of this update
      } catch (const std::bad_alloc&) {
      }
      tf::detail::disarm_alloc_failure();

      update();
      v2.full_update();
      for (int i = 0; i < 10; ++i) resize();
      ref.full_update();
      expect_equal_state(ref, v2);
    }
  }
}

TEST_F(EngineTest, WorstSlackQueriesAgreeAfterManyMods) {
  auto nl_v1 = circuit(1000, 41);
  auto nl_v2 = circuit(1000, 41);
  ot::TimerV1 v1(nl_v1, opt);
  ot::TimerV2 v2(nl_v2, opt);
  v1.full_update();
  v2.full_update();
  ot::ModifierStream m1(nl_v1, 5);
  ot::ModifierStream m2(nl_v2, 5);
  for (int i = 0; i < 20; ++i) {
    const auto a = m1.next();
    const auto b = m2.next();
    ASSERT_EQ(a.gate, b.gate);
    v1.resize(a.gate, *a.new_cell);
    v2.resize(b.gate, *b.new_cell);
    ASSERT_NEAR(v1.worst_slack(), v2.worst_slack(), 1e-9) << "iteration " << i;
  }
}

TEST_F(EngineTest, ModifierStreamIsDeterministicAndValid) {
  auto nl = circuit(300, 1);
  ot::ModifierStream a(nl, 42), b(nl, 42);
  for (int i = 0; i < 50; ++i) {
    const auto ma = a.next();
    const auto mb = b.next();
    EXPECT_EQ(ma.gate, mb.gate);
    EXPECT_EQ(ma.new_cell, mb.new_cell);
    EXPECT_NE(ma.new_cell, nl.gate(ma.gate).cell);  // always a real change
    EXPECT_EQ(ma.new_cell->kind, nl.gate(ma.gate).cell->kind);
  }
}

}  // namespace

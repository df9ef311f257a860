// test_arena - the graph memory layer (DESIGN.md §10): arena slab protocol,
// Graph::reserve/clear/recycle/shrink_to_fit, inline-then-spill successor
// storage with the CSR finalize step, the node-name side table, and graph
// move semantics (owner re-pointing).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "taskflow/taskflow.hpp"

namespace {

// The 128-byte node budget underpins the arena math (cache-aligned slabs
// hold a round number of two-cache-line nodes); the header static_asserts
// it, this keeps the number visible in test reports.
TEST(Arena, NodeSizeBudget) { EXPECT_EQ(sizeof(tf::Node), 128u); }

TEST(Arena, EmptyGraphOwnsNoSlabs) {
  tf::Graph g;
  EXPECT_EQ(g.arena_slabs(), 0u);
  EXPECT_EQ(g.arena_bytes_reserved(), 0u);
}

TEST(Arena, InlineSuccessorsNoSpill) {
  tf::Graph g;
  auto& a = g.emplace_back();
  auto& b = g.emplace_back();
  auto& c = g.emplace_back();
  a.precede(b);
  a.precede(c);  // exactly kInlineSuccessors: stays inline
  ASSERT_EQ(a.num_successors(), 2u);
  EXPECT_EQ(a.successors()[0], &b);
  EXPECT_EQ(a.successors()[1], &c);
  EXPECT_EQ(b.num_dependents(), 1u);
  EXPECT_EQ(c.num_dependents(), 1u);
}

TEST(Arena, SpillPreservesOrder) {
  tf::Graph g;
  auto& hub = g.emplace_back();
  std::vector<tf::Node*> spokes;
  for (int i = 0; i < 50; ++i) {
    auto& s = g.emplace_back();
    hub.precede(s);
    spokes.push_back(&s);
  }
  ASSERT_EQ(hub.num_successors(), 50u);
  for (std::size_t i = 0; i < spokes.size(); ++i) {
    EXPECT_EQ(hub.successors()[i], spokes[i]) << "successor " << i;
  }
}

TEST(Arena, FinalizePacksSpilledArraysContiguously) {
  tf::Graph g;
  auto& hub1 = g.emplace_back();
  auto& hub2 = g.emplace_back();
  std::vector<tf::Node*> spokes1, spokes2;
  for (int i = 0; i < 9; ++i) {
    auto& s = g.emplace_back();
    hub1.precede(s);
    spokes1.push_back(&s);
  }
  for (int i = 0; i < 17; ++i) {
    auto& s = g.emplace_back();
    hub2.precede(s);
    spokes2.push_back(&s);
  }
  g.finalize_edges();
  // Order survives the pack...
  for (std::size_t i = 0; i < spokes1.size(); ++i) {
    EXPECT_EQ(hub1.successors()[i], spokes1[i]);
  }
  for (std::size_t i = 0; i < spokes2.size(); ++i) {
    EXPECT_EQ(hub2.successors()[i], spokes2[i]);
  }
  // ...and the spilled arrays are adjacent in creation order (the CSR
  // property: the scheduler's release sweep walks linear memory).
  EXPECT_EQ(hub1.successor_data() + hub1.num_successors(), hub2.successor_data());
  // Idempotent: a second call must not move anything.
  const tf::Node* const* where = hub1.successor_data();
  g.finalize_edges();
  EXPECT_EQ(hub1.successor_data(), where);
}

TEST(Arena, PrecedeAfterFinalizeRespills) {
  tf::Graph g;
  auto& hub = g.emplace_back();
  for (int i = 0; i < 5; ++i) hub.precede(g.emplace_back());
  g.finalize_edges();
  auto& late = g.emplace_back();
  hub.precede(late);  // capacity was trimmed to size: must grow again
  ASSERT_EQ(hub.num_successors(), 6u);
  EXPECT_EQ(hub.successors()[5], &late);
  g.finalize_edges();
  EXPECT_EQ(hub.successors()[5], &late);
}

TEST(Arena, ReservePreventsSlabGrowth) {
  tf::Graph g;
  g.reserve(10000, 9999);
  const std::size_t slabs = g.arena_slabs();
  EXPECT_EQ(slabs, 1u);
  tf::Node* prev = &g.emplace_back();
  for (int i = 1; i < 10000; ++i) {
    tf::Node* next = &g.emplace_back();
    prev->precede(*next);
    prev = next;
  }
  EXPECT_EQ(g.arena_slabs(), slabs) << "reserved build must not grow the arena";
  EXPECT_EQ(g.size(), 10000u);
}

TEST(Arena, ClearReleasesSlabs) {
  tf::Graph g;
  for (int i = 0; i < 10000; ++i) g.emplace_back();
  EXPECT_GE(g.arena_bytes_reserved(), 10000u * sizeof(tf::Node));
  g.clear();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.arena_slabs(), 0u);
  EXPECT_EQ(g.arena_bytes_reserved(), 0u);
  // The graph stays usable after clear().
  auto& n = g.emplace_back();
  n.set_name("reborn");
  EXPECT_EQ(n.name(), "reborn");
}

TEST(Arena, RecycleKeepsSlabsAndReusesThem) {
  tf::Graph g;
  for (int i = 0; i < 10000; ++i) g.emplace_back();
  const std::size_t reserved = g.arena_bytes_reserved();
  const std::size_t slabs = g.arena_slabs();
  g.recycle();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.arena_bytes_reserved(), reserved);
  EXPECT_EQ(g.arena_bytes_used(), 0u);
  // Rebuilding the same shape must not acquire any new slab.
  for (int i = 0; i < 10000; ++i) g.emplace_back();
  EXPECT_EQ(g.arena_slabs(), slabs);
  EXPECT_EQ(g.arena_bytes_reserved(), reserved);
}

TEST(Arena, ShrinkToFitDropsUntouchedSlabs) {
  tf::Graph g;
  for (int i = 0; i < 8; ++i) g.emplace_back();
  g.reserve(100000);  // a big tail slab nothing has touched yet
  const std::size_t before = g.arena_bytes_reserved();
  ASSERT_GE(before, 100000u * sizeof(tf::Node));
  g.shrink_to_fit();
  EXPECT_LT(g.arena_bytes_reserved(), before);
  // The touched slab (holding the 8 live nodes) must survive.
  EXPECT_EQ(g.size(), 8u);
  g.node_at(0).precede(g.node_at(1));
  EXPECT_EQ(g.node_at(0).num_successors(), 1u);
}

TEST(Arena, NamesLiveInSideTable) {
  tf::Graph g;
  auto& a = g.emplace_back();
  auto& b = g.emplace_back();
  EXPECT_TRUE(a.name().empty());
  a.set_name("alpha");
  EXPECT_EQ(a.name(), "alpha");
  EXPECT_TRUE(b.name().empty());
  a.set_name("renamed");
  EXPECT_EQ(a.name(), "renamed");
  g.recycle();
  auto& fresh = g.emplace_back();
  EXPECT_TRUE(fresh.name().empty()) << "names must not leak across recycle()";
}

TEST(Arena, MoveRepointsNodeOwnership) {
  tf::Graph g;
  auto& a = g.emplace_back();
  a.set_name("mover");
  tf::Graph h(std::move(g));
  // Node addresses are stable (arena slabs moved wholesale) and the owner
  // link must now reach h's name table and arena.
  EXPECT_EQ(h.node_at(0).name(), "mover");
  EXPECT_EQ(&h.node_at(0), &a);
  a.set_name("still mover");
  EXPECT_EQ(h.node_at(0).name(), "still mover");
  // Spilling successors after the move must allocate from h's arena.
  for (int i = 0; i < 10; ++i) a.precede(h.emplace_back());
  EXPECT_EQ(a.num_successors(), 10u);

  tf::Graph i;
  i = std::move(h);
  EXPECT_EQ(i.node_at(0).name(), "still mover");
  EXPECT_EQ(i.node_at(0).num_successors(), 10u);
}

TEST(Arena, PointerStabilityAcrossGrowth) {
  tf::Graph g;
  std::vector<tf::Node*> nodes;
  for (int i = 0; i < 50000; ++i) nodes.push_back(&g.emplace_back());
  EXPECT_GT(g.arena_slabs(), 1u) << "test needs multiple slabs to be meaningful";
  for (int i = 0; i < 50000; ++i) {
    ASSERT_EQ(&g.node_at(static_cast<std::size_t>(i)), nodes[static_cast<std::size_t>(i)]);
  }
}

// Topology recycling through the public API: repeat runs of a dynamic graph
// reuse the spawned subgraph's storage in place (no per-iteration Graph).
TEST(Arena, SubflowStorageRecycledAcrossRuns) {
  auto executor_backend = tf::make_executor(2);
  tf::Executor executor(executor_backend);
  tf::Taskflow taskflow;
  std::atomic<int> child_runs{0};
  taskflow.emplace([&child_runs](tf::SubflowBuilder& sf) {
    for (int i = 0; i < 32; ++i) {
      sf.emplace([&child_runs] { child_runs.fetch_add(1); });
    }
  });
  executor.run_n(taskflow, 100).get();
  EXPECT_EQ(child_runs.load(), 32 * 100);
}

}  // namespace

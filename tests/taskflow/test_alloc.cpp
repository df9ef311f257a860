// test_alloc - allocation-counting harness (ISSUE 6 satellite): a global
// operator-new interposer counts every heap allocation made by this binary,
// proving the arena claims of DESIGN.md §10 hold - O(1) amortized heap
// allocations per emplace/precede (zero after Graph::reserve), recycled
// storage on run_n replays, and pooled Executor::async boxes.  A one-shot
// countdown also lets it fail the k-th allocation, to prove a submission that
// runs out of memory leaves the executor whole.
//
// Built only when REPRO_ALLOC_TESTS is ON and no sanitizer is active:
// ASan/TSan replace the allocator themselves and must win.  The graph-build
// and replay bounds are deliberately loose (2-4x slack over measured values)
// - they exist to catch a return to per-node/per-edge heap traffic (a
// 10-1000x regression).  The warm run path's counts are pinned exactly
// (WarmRunAllocationsArePinned): each of its allocations is a known object.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "test_alloc must not be built under a sanitizer (see CMakeLists.txt)"
#endif

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "service/server.hpp"
#include "taskflow/taskflow.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
// Allocations left before the one that fails; negative = disarmed or fired.
std::atomic<long> g_fail_countdown{-1};

std::size_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Arm the one-shot countdown: the k-th allocation from now (0-based) throws
// std::bad_alloc.
void fail_allocation(long k) { g_fail_countdown.store(k, std::memory_order_relaxed); }

// Disarm the countdown; returns whether it fired.
bool disarm_allocation_failure() {
  return g_fail_countdown.exchange(-1, std::memory_order_relaxed) < 0;
}

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (g_fail_countdown.load(std::memory_order_relaxed) >= 0 &&
      g_fail_countdown.fetch_sub(1, std::memory_order_relaxed) == 0) {
    throw std::bad_alloc();
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The interposer: every flavor the library (and the standard library) may
// call.  posix_memalign memory is free()-compatible, so one delete suffices.
void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

TEST(Alloc, InterposerCounts) {
  const std::size_t before = allocation_count();
  auto* p = new int(42);
  EXPECT_GT(allocation_count(), before);
  delete p;
}

// The headline claim: after reserve(nodes, edges), building the graph
// performs ZERO heap allocations - nodes and edges come out of the slab.
TEST(Alloc, ReservedChainAllocatesNothing) {
  constexpr std::size_t kNodes = 100000;
  tf::Graph g;
  g.reserve(kNodes, kNodes - 1);
  const std::size_t before = allocation_count();
  tf::Node* prev = &g.emplace_back();
  for (std::size_t i = 1; i < kNodes; ++i) {
    tf::Node* next = &g.emplace_back();
    prev->precede(*next);
    prev = next;
  }
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(g.size(), kNodes);
}

// Heavy fan-out spills successor arrays, but spills are arena chunks: a
// reserved build stays within the reserved slab's growth slack.
TEST(Alloc, ReservedFanoutAllocatesAlmostNothing) {
  constexpr std::size_t kSpokes = 100000;
  tf::Graph g;
  g.reserve(kSpokes + 1, kSpokes);
  const std::size_t before = allocation_count();
  tf::Node& hub = g.emplace_back();
  for (std::size_t i = 0; i < kSpokes; ++i) hub.precede(g.emplace_back());
  g.finalize_edges();
  EXPECT_LE(allocation_count() - before, 2u);
  EXPECT_EQ(hub.num_successors(), kSpokes);
}

// Without reserve the arena still amortizes: O(log n) slab acquisitions for
// n nodes + n edges, where the old per-node layout paid O(n) (one vector
// allocation per edge-bearing node plus one deque block per 4 nodes).
TEST(Alloc, UnreservedChainLogarithmicAllocations) {
  constexpr std::size_t kNodes = 100000;
  tf::Graph g;
  const std::size_t before = allocation_count();
  tf::Node* prev = &g.emplace_back();
  for (std::size_t i = 1; i < kNodes; ++i) {
    tf::Node* next = &g.emplace_back();
    prev->precede(*next);
    prev = next;
  }
  const std::size_t delta = allocation_count() - before;
  EXPECT_LE(delta, 64u) << "expected O(log n) slab/index growth, got " << delta;
}

// A destroyed graph's slab goes to the slab cache, so rebuilding the same
// graph (one fresh Taskflow per request) takes it from there.
TEST(Alloc, RebuiltGraphReusesFreedSlab) {
  auto build = [] { tf::Graph g; g.reserve(4096, 0); };
  build();
  const std::size_t before = allocation_count();
  build();
  EXPECT_LE(allocation_count() - before, 2u) << "node index and slab list only";
}

// Topology recycling: run_n replays of a static graph re-arm in place -
// join counters, sources and successor spans are all reused, so the
// amortized heap cost per replay is O(1) (scheduler queues aside).
TEST(Alloc, RunNReplaysAmortizedConstant) {
  constexpr std::size_t kReplays = 1000;
  auto backend = tf::make_executor(1);
  tf::Executor executor(backend);
  tf::Taskflow taskflow;
  tf::Task prev = taskflow.emplace([] {});
  for (int i = 1; i < 64; ++i) {
    tf::Task next = taskflow.emplace([] {});
    prev.precede(next);
    prev = next;
  }
  executor.run(taskflow).get();  // warm up queues and the timer-free path
  const std::size_t before = allocation_count();
  executor.run_n(taskflow, kReplays).get();
  const std::size_t delta = allocation_count() - before;
  EXPECT_LE(delta, kReplays * 2)
      << "replays must not rebuild topology scratch per iteration";
}

// Dynamic replays: the spawned subflow's graph is recycled in place, so the
// 32 child nodes of every replay reuse the first replay's slab.
TEST(Alloc, SubflowReplaysReuseSubgraphStorage) {
  constexpr std::size_t kReplays = 200;
  auto backend = tf::make_executor(1);
  tf::Executor executor(backend);
  tf::Taskflow taskflow;
  std::atomic<int> runs{0};
  taskflow.emplace([&runs](tf::SubflowBuilder& sf) {
    for (int i = 0; i < 32; ++i) sf.emplace([&runs] { runs.fetch_add(1); });
  });
  executor.run(taskflow).get();  // first spawn allocates the subgraph box
  const std::size_t before = allocation_count();
  executor.run_n(taskflow, kReplays).get();
  const std::size_t delta = allocation_count() - before;
  EXPECT_EQ(runs.load(), 32 * (kReplays + 1));
  // 32 children/replay would be >= 6400 allocations in the old layout (one
  // Graph + one deque block per 4 nodes + edge vectors); recycled storage
  // keeps it to scheduler noise.
  EXPECT_LE(delta, kReplays * 4) << "subflow replays must recycle their graph";
}

// Async storms: retired boxes (graph + topology) come back from the pool;
// the remaining per-call allocations are the user-facing promise plumbing.
TEST(Alloc, AsyncSteadyStateReusesBoxes) {
  constexpr std::size_t kAsyncs = 1000;
  auto backend = tf::make_executor(1);
  tf::Executor executor(backend);
  // Warm-up fills the pool shards touched by this thread pair.
  for (int i = 0; i < 100; ++i) executor.async([] {}).get();
  const std::size_t before = allocation_count();
  for (std::size_t i = 0; i < kAsyncs; ++i) executor.async([] {}).get();
  const std::size_t per_async =
      (allocation_count() - before + kAsyncs - 1) / kAsyncs;
  // Measured: ~3 (promise shared state + future plumbing).  A fresh
  // AsyncRun box per call (graph slab + box + index) would add ~3-4 more.
  EXPECT_LE(per_async, 5u) << "async boxes must come from the pool";
}

// Allocations of one warm `op` on `backend`: it runs 20 times to warm up,
// then 100 times counted, and every counted run must allocate the same
// number of times - a per-run count with no amortized growth term.  All
// workers park once first, so the idler list has its final capacity.
template <typename Op>
std::size_t warm_allocations(const tf::ExecutorInterface& backend, Op&& op) {
  constexpr int kRuns = 100;
  while (backend.stats().num_idlers < backend.num_workers()) std::this_thread::yield();
  for (int i = 0; i < 20; ++i) op();
  std::vector<std::size_t> counts;
  counts.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    const std::size_t before = allocation_count();
    op();
    counts.push_back(allocation_count() - before);
  }
  for (int i = 0; i < kRuns; ++i) {
    EXPECT_EQ(counts[i], counts.front()) << "run " << i << " cost differently";
  }
  return counts.front();
}

// The heap allocations of the warm run path on a 2-worker executor, pinned
// exactly.  A warm run(tf).get() allocates the Topology (make_shared), its
// promise's shared state and result, the ErrorState (make_shared), the
// _live registry node and the sources vector, which grows with the number
// of sources.  Admission adds the client's detail::Admission record, which
// is dropped when the client drains.  The run queue itself allocates
// nothing: runs link through the Topology.
TEST(Alloc, WarmRunAllocationsArePinned) {
  using namespace std::chrono_literals;
  auto backend = tf::make_executor(2);
  tf::Executor executor(backend);
  tf::Taskflow one, three;
  one.emplace([] {});
  three.emplace([] {}, [] {}, [] {});
  EXPECT_EQ(warm_allocations(*backend, [&] { executor.run(one).get(); }), 6u);
  EXPECT_EQ(warm_allocations(*backend, [&] { executor.run(three).get(); }), 8u);

  tf::ExecutorOptions bounded;
  bounded.max_pending_topologies = 1024;
  auto bounded_backend = tf::make_executor(2);
  tf::Executor admitted(bounded_backend, bounded);
  EXPECT_EQ(warm_allocations(*bounded_backend, [&] { admitted.run(one).get(); }), 7u);

  // A dispatch boxes the graph in a fresh Taskflow, which creates its run
  // queue; the box's graph storage comes back to the next build.
  auto paper_backend = tf::make_executor(2);
  tf::Taskflow paper_era(paper_backend);
  EXPECT_EQ(warm_allocations(*paper_backend,
                             [&] {
                               paper_era.emplace([] {});
                               paper_era.dispatch().get();
                               paper_era.wait_for_all();
                             }),
            8u);

  tf::ServerOptions server_options;
  server_options.executor.max_pending_per_client = 64;
  tf::Server server(server_options);
  tf::ServerClient& client = server.connect();
  std::uint64_t id = 0;
  EXPECT_EQ(warm_allocations(*server.executor().backend(),
                             [&] { (void)client.call({++id, 1, 0us}); }),
            9u);
}

// One submission on a fresh executor, plus the taskflows its runs borrow.
struct SubmitFixture {
  tf::Taskflow one;
  tf::Taskflow other;  // a second one-task client
  tf::Taskflow spinner;
  tf::Executor executor;
  explicit SubmitFixture(const tf::ExecutorOptions& options)
      : executor(tf::make_executor(1), options) {
    one.emplace([] {});
    other.emplace([] {});
    spinner.emplace([] {
      const auto hard_stop = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!tf::this_task::is_cancelled() &&
             std::chrono::steady_clock::now() < hard_stop) {
        std::this_thread::yield();
      }
    });
  }
};

// Fail the k-th allocation of run(taskflow, RunPolicy{10s}) for k = 0, 1,
// 2, ... until the countdown outlasts the call.  Every step of a
// submission's allocation - topology, its promise and error state, the
// _live registry node, deadline timer, the timer thread's start - may
// fail: the call then throws
// std::bad_alloc and leaves nothing queued or counted, or it returns a
// handle that becomes ready.  Either way a later deadline still fires.
// With `shed`, a spinner holds the one concurrency slot and a band-0 run of
// another taskflow waits for it, so the swept band-1 submission lifts
// pending above the watermark and sheds that run.  Nothing after the push -
// the shed, the victim's OverloadError, its completion - may allocate: the
// victim completes with OverloadError exactly when the call returned.
void sweep_submission_failures(const tf::ExecutorOptions& options, bool shed = false) {
  using namespace std::chrono_literals;
  long k = 0;
  for (;; ++k) {
    ASSERT_LT(k, 10000) << "the countdown never outlasted the submission";
    auto fixture = std::make_unique<SubmitFixture>(options);
    tf::Executor& executor = fixture->executor;
    // A worker's first park grows the idler list: let the one worker park
    // so the countdown sees the submission only.
    while (executor.metrics().scheduler.num_idlers < 1) std::this_thread::yield();
    tf::ExecutionHandle holder, victim;
    if (shed) {
      holder = executor.run(fixture->spinner);
      tf::RunPolicy low;
      low.priority = 0;
      victim = executor.run(fixture->other, low);
    }
    tf::ExecutionHandle handle;
    bool threw = false;
    fail_allocation(k);
    try {
      handle = executor.run(fixture->one, tf::RunPolicy{10s});
    } catch (const std::bad_alloc&) {
      threw = true;
    }
    const bool fired = disarm_allocation_failure();
    if (shed) {
      // Shed by a call that returned; else it runs once the slot frees.
      if (!threw && victim.wait_for(2s) != std::future_status::ready) {
        ADD_FAILURE() << "k=" << k << ": the shed victim never completed";
      }
      holder.cancel();
      EXPECT_EQ(holder.wait_for(2s), std::future_status::ready) << "k=" << k;
      if (victim.wait_for(2s) == std::future_status::ready) {
        if (threw) {
          EXPECT_NO_THROW(victim.get()) << "k=" << k << ": a failed submission shed a run";
        } else {
          EXPECT_THROW(victim.get(), tf::OverloadError) << "k=" << k;
        }
      }
    }
    if (!threw) {
      EXPECT_EQ(handle.wait_for(2s), std::future_status::ready) << "k=" << k;
    }
    if (!executor.wait_for_all_for(2s)) {
      ADD_FAILURE() << "k=" << k << ": a run stayed queued or in flight";
      // Its destructor would wait forever: leak the wedged executor.
      (void)fixture.release();
      return;
    }
    const tf::Executor::Metrics m = executor.metrics();
    EXPECT_EQ(m.adm_pending, 0u) << "k=" << k << ": leaked admission charge";
    EXPECT_EQ(m.adm_started, 0u) << "k=" << k;
    EXPECT_EQ(m.pending_timers, 0u) << "k=" << k << ": leaked deadline timer";
    auto late = executor.run(fixture->spinner, tf::RunPolicy{20ms});
    EXPECT_THROW(late.get(), tf::TimeoutError) << "k=" << k;
    if (!fired) break;
  }
  EXPECT_GE(k, 5) << "the sweep must reach the submission's allocations";
}

TEST(Alloc, FailedSubmissionLeavesTheExecutorWhole) {
  sweep_submission_failures(tf::ExecutorOptions{});
}

TEST(Alloc, FailedAdmittedSubmissionLeavesTheExecutorWhole) {
  tf::ExecutorOptions options;
  options.max_pending_per_client = 4;
  options.max_concurrent_topologies = 1;
  options.shed_watermark = 4;
  sweep_submission_failures(options);
}

TEST(Alloc, FailedSheddingSubmissionLeavesTheExecutorWhole) {
  tf::ExecutorOptions options;
  options.max_concurrent_topologies = 1;
  options.shed_watermark = 2;
  sweep_submission_failures(options, /*shed=*/true);
}

}  // namespace

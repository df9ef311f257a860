// graph.hpp - task dependency graph storage: tf::Node and tf::Graph.
//
// A Node stores a polymorphic work item (std::variant over a static
// callable and a dynamic subflow callable, per paper §III-D), its successor
// links, a runtime join counter of unfinished dependents, and - for dynamic
// tasking - the spawned subgraph plus a link to its parent node.
//
// Storage layout (DESIGN.md §10): nodes and successor arrays are carved out
// of large cache-aligned slabs owned by the Graph's arena, not the general-
// purpose heap.  Each node holds a small inline successor array (covering
// the common fan-out of <= 2) that spills to an arena-allocated chunk when
// it overflows; Graph::finalize_edges() packs the spilled arrays into one
// contiguous block at dispatch time so the scheduler walks linear memory
// (a CSR-style layout).  Graph::reserve(nodes, edges) pre-sizes the arena
// so steady-state construction performs no heap allocation at all.
//
// Nodes are created through tf::FlowBuilder (Taskflow / SubflowBuilder) and
// manipulated through the lightweight tf::Task handle; this header is the
// internal storage layer.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "support/function.hpp"

namespace tf {

class Graph;
class SubflowBuilder;
class Topology;

/// Inline capture capacity of a task callable: lambdas up to this many bytes
/// (the common case: a few pointers/references plus loop bounds) are stored
/// directly inside the Node with no heap allocation - twice what libstdc++'s
/// std::function can hold inline, without growing the node noticeably.
inline constexpr std::size_t kWorkCapacity = 32;

/// Work signature of a static task.
using StaticWork = support::SmallFunction<void(), kWorkCapacity>;
/// Work signature of a dynamic task: receives a SubflowBuilder to spawn a
/// subflow at runtime.
using DynamicWork = support::SmallFunction<void(SubflowBuilder&), kWorkCapacity>;

/// Inline capture capacity of a condition callable.  Smaller than
/// kWorkCapacity so that ConditionWork (callable + last-branch scratch) stays
/// no larger than StaticWork and the Node's work variant - and therefore the
/// Node itself - does not grow; larger captures fall back to one heap
/// allocation, exactly like oversized static work.
inline constexpr std::size_t kConditionCapacity = 24;

/// Work of a condition task (control-flow graph model, second Taskflow paper
/// §III-C): the callable returns the index of the successor to schedule; all
/// other successors stay idle.  Out-of-range indices are captured as errors
/// by the executor.  `last_branch` records the most recent selection (-1
/// before the first execution / when no branch was taken) for diagnostics -
/// atomic so stall reports can read it while a loop is running.
struct ConditionWork {
  support::SmallFunction<int(), kConditionCapacity> fn;
  std::atomic<int> last_branch{-1};

  template <typename C>
    requires(!std::is_same_v<std::decay_t<C>, ConditionWork>)
  explicit ConditionWork(C&& callable) : fn(std::forward<C>(callable)) {}
};

/// Work of a module task (Taskflow composition, second paper §III-D): a
/// non-owning reference to another Taskflow's graph.  At execution the
/// executor instantiates (deep-copies) the target into the module node's
/// private subgraph and runs it as a joined subflow, so one Taskflow can be
/// composed into several concurrently running parents.
struct ModuleWork {
  Graph* target{nullptr};
};

/// Per-task retry policy (Task::retry): how often and with what delay a
/// throwing task is re-attempted before the failure is surfaced.
struct RetryPolicy {
  /// Total attempts including the first (>= 1; 1 = no retry).
  int max_attempts{1};
  /// Delay before the first retry; 0 re-enqueues immediately.
  std::chrono::nanoseconds backoff{std::chrono::milliseconds(1)};
  /// Exponential growth factor of the delay per further retry (>= 1).
  double multiplier{2.0};
  /// Delay ceiling the exponential growth saturates at.
  std::chrono::nanoseconds max_backoff{std::chrono::seconds(1)};
  /// Uniform jitter fraction in [0, 1]: each delay d becomes a uniform draw
  /// from [d * (1 - jitter), d] to decorrelate retry storms.
  double jitter{0.1};
  /// Optional failure filter: return false to surface the exception at once
  /// (e.g. retry only transient I/O errors).  Empty = retry everything.
  std::function<bool(const std::exception_ptr&)> retry_if{};
};

namespace detail {

/// Allocation-failure injection (tests only).  `alloc_failure_countdown`
/// counts *slab acquisitions* across every GraphArena: arm(n) makes the n-th
/// subsequent acquisition (0 = the very next one) throw std::bad_alloc, after
/// which the injector disarms itself.  The check lives on the slab-growth
/// path only - the steady-state bump allocation fast path never reads it -
/// and the counter is process-global, so tests must pre-reserve any graphs
/// they do not want to trip (test_fault's allocation-failure suite).
extern std::atomic<long long> alloc_failure_countdown;  // < 0 = disarmed
inline void arm_alloc_failure(long long nth_acquisition) noexcept {
  alloc_failure_countdown.store(nth_acquisition, std::memory_order_relaxed);
}
inline void disarm_alloc_failure() noexcept {
  alloc_failure_countdown.store(-1, std::memory_order_relaxed);
}
void alloc_failure_check();  // throws std::bad_alloc when armed and expired

/// GraphArena slab storage (DESIGN.md §10): a 64-byte-aligned block, taken
/// from a bounded process-wide cache of released slabs of the same size when
/// there is one, so a fresh graph per request reuses the last one's memory.
[[nodiscard]] void* acquire_slab(std::size_t bytes);
void recycle_slab(void* slab, std::size_t bytes) noexcept;  // cache or free

/// Resilience state of one node, allocated lazily by Task::retry /
/// Task::fallback.  Nodes without policies keep a null pointer, so the
/// zero-policy execution hot path never touches (or allocates) any of this -
/// the executor reads the pointer only on the failure path.
struct ResiliencePolicy {
  RetryPolicy retry;
  /// Degradation handler: runs (on the worker) when retries are exhausted;
  /// if it returns normally the topology proceeds as if the task succeeded.
  StaticWork fallback;
  /// Failed attempts of the current run; reset at arm() and when a re-armed
  /// dynamic node respawns.  Atomic only for race-free stall reporting - the
  /// executor mutates it single-threaded per node.
  std::atomic<int> failed_attempts{0};
};

/// Slab/bump allocator behind one Graph: nodes and successor chunks are
/// carved sequentially out of cache-line-aligned slabs, so a million-node
/// build performs O(log n) heap allocations instead of one per node/edge
/// (and exactly the reserved ones after GraphArena::reserve).  Nothing is
/// freed individually - construction garbage (abandoned successor chunks
/// after growth) stays in the slab until release()/reset(), which is the
/// right trade for build-once-run-many graphs.
class GraphArena {
 public:
  /// Slab start alignment: one cache line, so the first node of every slab
  /// (and, at 128 B per node, every node after it) is cache-line aligned.
  static constexpr std::size_t kSlabAlignment = 64;
  /// Every allocation is rounded up to this granule; covers the alignment
  /// of everything the graph stores (Node's strictest member is 8-aligned).
  static constexpr std::size_t kGranule = 16;
  /// First slab size: small, so a single-node graph (Executor::async) does
  /// not commit more than the old per-node allocation scheme did.
  static constexpr std::size_t kFirstSlabBytes = 512;
  /// Slab growth doubles up to this cap, bounding worst-case slack on huge
  /// graphs to one slab.
  static constexpr std::size_t kMaxSlabBytes = std::size_t{4} << 20;

  GraphArena() = default;
  ~GraphArena() { release(); }

  GraphArena(GraphArena&& other) noexcept
      : _slabs(std::move(other._slabs)), _active(other._active) {
    other._slabs.clear();
    other._active = 0;
  }
  GraphArena& operator=(GraphArena&& other) noexcept {
    if (this != &other) {
      release();
      _slabs = std::move(other._slabs);
      _active = other._active;
      other._slabs.clear();
      other._active = 0;
    }
    return *this;
  }
  GraphArena(const GraphArena&) = delete;
  GraphArena& operator=(const GraphArena&) = delete;

  /// Bump-allocate `bytes` (rounded up to kGranule).  The returned storage
  /// is never individually freed; it lives until release()/reset().
  [[nodiscard]] void* allocate(std::size_t bytes) {
    bytes = (bytes + kGranule - 1) & ~(kGranule - 1);
    // Advance through (possibly recycled) slabs until one fits; slack left
    // behind in a skipped slab is abandoned, as in any bump allocator.
    while (_active < _slabs.size()) {
      Slab& s = _slabs[_active];
      if (s.used + bytes <= s.size) {
        void* p = s.data + s.used;
        s.used += bytes;
        return p;
      }
      ++_active;
    }
    grow(bytes);
    Slab& s = _slabs.back();
    void* p = s.data + s.used;
    s.used += bytes;
    return p;
  }

  /// Ensure at least `bytes` can be allocated without acquiring a new slab:
  /// the fast path behind Graph::reserve.
  void reserve(std::size_t bytes) {
    bytes = (bytes + kGranule - 1) & ~(kGranule - 1);
    std::size_t free = 0;
    for (std::size_t i = _active; i < _slabs.size(); ++i) {
      free += _slabs[i].size - _slabs[i].used;
    }
    if (free >= bytes) return;
    _slabs.push_back(make_slab(bytes - free));
    if (_slabs.size() == 1) _active = 0;
  }

  /// Rewind every slab to empty, keeping the memory for reuse (graph
  /// recycling: subflow respawn, topology replays, async-box reuse).
  void reset() noexcept {
    for (Slab& s : _slabs) s.used = 0;
    _active = 0;
  }

  /// Free every slab (Graph::clear / destruction).
  void release() noexcept {
    for (Slab& s : _slabs) recycle_slab(s.data, s.size);
    _slabs.clear();
    _active = 0;
  }

  /// Drop slabs not touched since the last reset (Graph::shrink_to_fit).
  void shrink_to_fit() noexcept {
    while (!_slabs.empty() && _slabs.back().used == 0) {
      recycle_slab(_slabs.back().data, _slabs.back().size);
      _slabs.pop_back();
    }
    if (_active >= _slabs.size() && _active > 0) {
      _active = _slabs.empty() ? 0 : _slabs.size() - 1;
    }
    _slabs.shrink_to_fit();
  }

  // Introspection for tests and reports.
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t n = 0;
    for (const Slab& s : _slabs) n += s.size;
    return n;
  }
  [[nodiscard]] std::size_t bytes_used() const noexcept {
    std::size_t n = 0;
    for (const Slab& s : _slabs) n += s.used;
    return n;
  }
  [[nodiscard]] std::size_t num_slabs() const noexcept { return _slabs.size(); }

 private:
  struct Slab {
    std::byte* data{nullptr};
    std::size_t size{0};
    std::size_t used{0};
  };

  [[nodiscard]] static Slab make_slab(std::size_t bytes) {
    alloc_failure_check();  // test hook: no-op unless armed
    bytes = (bytes + kSlabAlignment - 1) & ~(kSlabAlignment - 1);
    return Slab{static_cast<std::byte*>(acquire_slab(bytes)), bytes, 0};
  }

  void grow(std::size_t min_bytes) {
    std::size_t next = _slabs.empty()
                           ? kFirstSlabBytes
                           : std::min(_slabs.back().size * 2, kMaxSlabBytes);
    if (next < min_bytes) next = min_bytes;
    _slabs.push_back(make_slab(next));
    _active = _slabs.size() - 1;
  }

  std::vector<Slab> _slabs;
  std::size_t _active{0};  // slab currently bumped into
};

}  // namespace detail

/// One vertex of a task dependency graph.  Internal type: users hold
/// tf::Task handles instead (paper §III-A).
class Node {
 public:
  /// Successor pointers stored directly in the node before spilling to an
  /// arena chunk: covers the dominant <= 2 fan-out (chains, diamonds).
  static constexpr std::uint32_t kInlineSuccessors = 2;

  Node() = default;
  ~Node();  // out-of-line: Graph is incomplete here

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  Node(Node&&) = delete;
  Node& operator=(Node&&) = delete;

  /// Add a successor edge this -> v and bump v's dependent count.
  void precede(Node& v);

  /// Name accessors.  Names are rare debug/visualization metadata: they live
  /// in a side table on the owning Graph (node_name), not in the node, so
  /// the node spends its 128-byte budget on what dispatch actually reads.
  [[nodiscard]] const std::string& name() const noexcept;
  void set_name(std::string n);

  [[nodiscard]] std::size_t num_successors() const noexcept {
    return _num_successors;
  }
  [[nodiscard]] std::size_t num_dependents() const noexcept {
    return static_cast<std::size_t>(_static_dependents);
  }

  /// Successors in insertion order (contiguous; see Graph::finalize_edges).
  [[nodiscard]] std::span<Node* const> successors() const noexcept {
    return {successor_data(), _num_successors};
  }

  /// True when no callable has been assigned (a placeholder).
  [[nodiscard]] bool is_placeholder() const noexcept {
    return std::holds_alternative<std::monostate>(_work);
  }
  [[nodiscard]] bool is_dynamic() const noexcept {
    return std::holds_alternative<DynamicWork>(_work);
  }
  /// True when this node holds an int()-returning condition callable.
  [[nodiscard]] bool is_condition() const noexcept {
    return std::holds_alternative<ConditionWork>(_work);
  }
  /// True when this node is a module task (composed_of another Taskflow).
  [[nodiscard]] bool is_module() const noexcept {
    return std::holds_alternative<ModuleWork>(_work);
  }

  /// Predecessor counts split by edge kind: an edge from a condition task is
  /// *weak* (it fires on branch selection, not on join), every other edge is
  /// *strong* (it decrements the join counter).  num_dependents() stays the
  /// total of both.
  [[nodiscard]] int num_weak_dependents() const noexcept {
    return _weak_dependents;
  }
  [[nodiscard]] int num_strong_dependents() const noexcept {
    return _static_dependents - _weak_dependents;
  }

  /// Branch index the condition callable returned most recently: -1 before
  /// the first execution, when no branch was taken (error/fallback/drain),
  /// or when this is not a condition node.  Safe to call concurrently with
  /// execution (diagnostics).
  [[nodiscard]] int last_branch() const noexcept {
    const auto* cond = std::get_if<ConditionWork>(&_work);
    return cond == nullptr ? -1 : cond->last_branch.load(std::memory_order_relaxed);
  }

  /// True once this node has spawned a (non-empty or empty) subflow.
  [[nodiscard]] bool has_subgraph() const noexcept { return _subgraph != nullptr; }

  /// True when a retry policy or fallback is attached (Task::retry/fallback).
  [[nodiscard]] bool has_policy() const noexcept { return _policy != nullptr; }

  /// The node's resilience state, created on first access (build-time only;
  /// the executor never calls this).
  [[nodiscard]] detail::ResiliencePolicy& policy() {
    if (_policy == nullptr) _policy = std::make_unique<detail::ResiliencePolicy>();
    return *_policy;
  }

  /// Read-only view of the resilience state (nullptr when none attached);
  /// never allocates - used by stall reports and tests.
  [[nodiscard]] const detail::ResiliencePolicy* resilience() const noexcept {
    return _policy.get();
  }

  // -- internal execution state (used by executors and Topology) ----------

  [[nodiscard]] Node* const* successor_data() const noexcept {
    return _succ_capacity <= kInlineSuccessors ? _succ_inline : _succ_spill;
  }
  [[nodiscard]] Node** successor_data() noexcept {
    return _succ_capacity <= kInlineSuccessors ? _succ_inline : _succ_spill;
  }

  Graph* _graph{nullptr};  // owning graph: arena for edge spill, name table
  std::variant<std::monostate, StaticWork, DynamicWork, ConditionWork, ModuleWork>
      _work;
  // Successor storage: the inline array while _succ_capacity stays at
  // kInlineSuccessors, an arena-allocated chunk once it spills.  Same 24
  // bytes as the std::vector it replaced, but growth allocates from the
  // graph arena and dispatch-time finalize packs the chunks contiguously.
  union {
    Node* _succ_inline[kInlineSuccessors];
    Node** _succ_spill;
  };
  std::uint32_t _num_successors{0};
  std::uint32_t _succ_capacity{kInlineSuccessors};
  int _static_dependents{0};          // number of predecessors at build time
  std::atomic<int> _join_counter{0};  // pending dependents (or pending subflow
                                      // children once spawned); reset at dispatch
  int _creation_index{0};             // position in the owning graph's build order
  // The flags and the weak-dependent count pack into the ints' tail padding:
  // Node must stay <= 128 bytes (two cache lines) so arena slabs hold a
  // round number of cache-aligned nodes - construction throughput is
  // directly proportional to nodes per slab allocation.
  bool _has_backward_edge : 1 {false};  // some successor was created before this
                                        // node - the cheap acyclicity witness fails
  bool _spawned : 1 {false};            // dynamic/module work already expanded
  bool _detached : 1 {false};           // subflow spawned by this node detached
  // Predecessors that are condition tasks (weak edges).  uint16_t keeps the
  // node at 128 bytes; 65k condition predecessors on one node is far past
  // any sane control-flow graph.
  std::uint16_t _weak_dependents{0};
  std::unique_ptr<Graph> _subgraph;   // spawned subflow; recycled across runs
  // Retry/fallback policy, absent (nullptr) on the overwhelming majority of
  // nodes: one pointer of storage, dereferenced only on the failure path.
  std::unique_ptr<detail::ResiliencePolicy> _policy;
  Node* _parent{nullptr};             // joined-subflow parent, else nullptr
  Topology* _topology{nullptr};       // owning dispatched topology

 private:
  friend class Graph;

  /// Move the successor array to an arena chunk of at least `min_capacity`.
  void grow_successors(std::uint32_t min_capacity);
};

static_assert(sizeof(Node) == 128,
              "Node must stay exactly two cache lines; see the flag-packing "
              "comment above before growing it");
static_assert(alignof(Node) <= detail::GraphArena::kGranule,
              "arena granule must satisfy Node alignment");

/// An owning container of nodes with pointer stability (arena slabs), movable
/// so a Taskflow can hand its present graph to a Topology at dispatch time.
class Graph {
 public:
  Graph() = default;
  ~Graph() { destroy_nodes(); }

  /// Moves transfer the slabs (node addresses stay stable) and re-point each
  /// node's owner link: O(n), but only the legacy one-shot dispatch path
  /// moves graphs, and it pays an O(n) arm() right after anyway.
  Graph(Graph&& other) noexcept
      : _arena(std::move(other._arena)),
        _index(std::move(other._index)),
        _names(std::move(other._names)),
        _edges_dirty(other._edges_dirty) {
    for (Node* node : _index) node->_graph = this;
    other._edges_dirty = false;
  }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) {
      destroy_nodes();
      _arena = std::move(other._arena);
      _index = std::move(other._index);
      _names = std::move(other._names);
      _edges_dirty = other._edges_dirty;
      for (Node* node : _index) node->_graph = this;
      other._edges_dirty = false;
    }
    return *this;
  }
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Construct a new node in place (in the arena) and return it.
  Node& emplace_back() {
    void* mem = _arena.allocate(sizeof(Node));
    Node* node = new (mem) Node();
    node->_graph = this;
    node->_creation_index = static_cast<int>(_index.size());
    _index.push_back(node);
    return *node;
  }

  /// Pre-size the arena (and the node index) for `nodes` nodes and `edges`
  /// precede() calls: the fast path for graphs of known shape - steady-state
  /// emplace/precede after this performs no heap allocation (heavy fan-out
  /// past the growth slack may still acquire one more slab).
  void reserve(std::size_t nodes, std::size_t edges = 0) {
    _arena.reserve(nodes * sizeof(Node) + 2 * edges * sizeof(Node*));
    _index.reserve(_index.size() + nodes);
  }

  [[nodiscard]] std::size_t size() const noexcept { return _index.size(); }
  [[nodiscard]] bool empty() const noexcept { return _index.empty(); }

  /// The index-th node in creation order (0-based, index < size()).
  [[nodiscard]] Node& node_at(std::size_t index) noexcept { return *_index[index]; }

  /// Destroy every node and release the arena slabs back to the heap: a
  /// cleared million-node graph pins no memory.
  void clear() {
    destroy_nodes();
    _arena.release();
    std::vector<Node*>().swap(_index);
    _edges_dirty = false;
  }

  /// Destroy every node but keep the slabs (and index capacity) for reuse:
  /// the respawn path of recycled subflows and async runs builds the next
  /// generation of nodes with zero heap traffic.
  void recycle() {
    destroy_nodes();
    _arena.reset();
    _edges_dirty = false;
  }

  /// Return slab memory not used since the last recycle to the heap.
  void shrink_to_fit() {
    _arena.shrink_to_fit();
    _index.shrink_to_fit();
  }

  /// Pack every spilled successor array into one contiguous arena block in
  /// creation order (the CSR finalize step), so dispatch walks linear
  /// memory.  Idempotent and cheap when nothing spilled since the last call;
  /// must not run concurrently with task execution (same contract as arm()).
  void finalize_edges();

  // Iteration in creation order, yielding Node& (the nodes themselves live
  // in arena slabs; the index holds stable pointers to them).
  template <typename NodeT>
  class Iterator {
   public:
    using value_type = NodeT;
    using reference = NodeT&;
    using pointer = NodeT*;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iterator() = default;
    explicit Iterator(Node* const* it) noexcept : _it(it) {}

    [[nodiscard]] reference operator*() const noexcept { return **_it; }
    [[nodiscard]] pointer operator->() const noexcept { return *_it; }
    Iterator& operator++() noexcept {
      ++_it;
      return *this;
    }
    Iterator operator++(int) noexcept {
      Iterator copy = *this;
      ++_it;
      return copy;
    }
    [[nodiscard]] bool operator==(const Iterator&) const noexcept = default;

   private:
    Node* const* _it{nullptr};
  };
  using iterator = Iterator<Node>;
  using const_iterator = Iterator<const Node>;

  [[nodiscard]] iterator begin() noexcept { return iterator(_index.data()); }
  [[nodiscard]] iterator end() noexcept {
    return iterator(_index.data() + _index.size());
  }
  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(_index.data());
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(_index.data() + _index.size());
  }

  /// Total node count including recursively spawned subgraphs.
  [[nodiscard]] std::size_t size_recursive() const;

  /// Name side table (see Node::name): empty string when unnamed.
  void set_node_name(const Node& node, std::string name);
  [[nodiscard]] const std::string& node_name(const Node& node) const noexcept;

  // Arena introspection for tests and memory reports.
  [[nodiscard]] std::size_t arena_bytes_reserved() const noexcept {
    return _arena.bytes_reserved();
  }
  [[nodiscard]] std::size_t arena_bytes_used() const noexcept {
    return _arena.bytes_used();
  }
  [[nodiscard]] std::size_t arena_slabs() const noexcept {
    return _arena.num_slabs();
  }

 private:
  friend class Node;

  /// Arena storage for a spilled successor array of `count` pointers.
  [[nodiscard]] Node** allocate_edges(std::size_t count) {
    return static_cast<Node**>(_arena.allocate(count * sizeof(Node*)));
  }

  void destroy_nodes() noexcept {
    for (Node* node : _index) node->~Node();
    _index.clear();
    if (_names != nullptr) _names->clear();
  }

  detail::GraphArena _arena;
  std::vector<Node*> _index;  // creation order; stable across arena growth
  // Lazily allocated: the overwhelming majority of graphs name no task.
  std::unique_ptr<std::unordered_map<const Node*, std::string>> _names;
  bool _edges_dirty{false};  // a successor array spilled since finalize_edges
};

inline const std::string& Node::name() const noexcept {
  static const std::string empty;
  return _graph == nullptr ? empty : _graph->node_name(*this);
}

inline void Node::set_name(std::string n) {
  assert(_graph != nullptr);
  _graph->set_node_name(*this, std::move(n));
}

namespace detail {

/// Kahn's-algorithm acyclicity check over the static edges of `g`: returns
/// the empty string when the graph is acyclic, otherwise a human-readable
/// description naming one dependency cycle (up to `max_named` tasks).  The
/// nodes' join counters are used as scratch in-degrees, so this must only
/// run while `g` is not executing; Topology::arm / the subflow spawn path
/// re-initialize the counters right afterwards.
[[nodiscard]] std::string describe_cycle(Graph& g, std::size_t max_named = 8);

/// Deep-copy `src` into `dst` (which must be empty - freshly constructed or
/// recycled): the module-task instantiation step.  Work items, names,
/// resilience policies, and edges (with their strong/weak classification)
/// are all duplicated; nested module references are copied as references and
/// expand recursively at execution.  Throws std::logic_error when a work
/// item is move-only (a composed Taskflow must hold copyable callables).
void instantiate(const Graph& src, Graph& dst);

/// Build-time guard of FlowBuilder::composed_of: walks the module-reference
/// graph reachable from `target` (each graph's ModuleWork pointers) and
/// returns true when `owner` is reachable - i.e. making `owner` compose
/// `target` would close a reference cycle whose execution-time expansion
/// could never terminate.  `target == owner` (direct self-composition) is
/// the trivial positive.  O(reachable modules), build time only.
[[nodiscard]] bool composes_transitively(const Graph& target, const Graph& owner);

/// Runtime backstop for reference cycles assembled in ways the build-time
/// walk cannot see (e.g. a dynamic subflow composing its own ancestor
/// taskflow): module expansion deeper than this many nested module ancestors
/// throws a task-naming tf::CompositionError through the normal capture +
/// drain path instead of overflowing the worker stack.
inline constexpr std::size_t kMaxModuleDepth = 64;

}  // namespace detail

}  // namespace tf

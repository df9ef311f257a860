#include "taskflow/graph.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tf {

namespace detail {

std::atomic<long long> alloc_failure_countdown{-1};

void alloc_failure_check() {
  if (alloc_failure_countdown.load(std::memory_order_relaxed) < 0) return;
  // fetch_sub makes exactly one acquisition observe 0 even under concurrent
  // slab growth; everything after the trigger sees a negative value and
  // passes (the injector is one-shot until re-armed).
  if (alloc_failure_countdown.fetch_sub(1, std::memory_order_relaxed) == 0) {
    throw std::bad_alloc();
  }
}

namespace {

// At most 32 released slabs and 8 MiB, leaked so that graphs destroyed during
// static teardown still find it.  AddressSanitizer builds skip the cache so
// uses of a destroyed graph's memory are still reported.
struct SlabCache {
  std::mutex mutex;
  std::array<std::pair<void*, std::size_t>, 32> slabs{};
  std::size_t count{0};
  std::size_t bytes{0};
};
constexpr std::size_t kSlabCacheBytes = std::size_t{8} << 20;
SlabCache& slab_cache() {
  static auto* cache = new SlabCache;
  return *cache;
}

}  // namespace

void* acquire_slab(std::size_t bytes) {
#if !defined(__SANITIZE_ADDRESS__)
  {
    SlabCache& c = slab_cache();
    std::scoped_lock lock(c.mutex);
    for (std::size_t i = 0; i < c.count; ++i) {
      if (c.slabs[i].second != bytes) continue;
      void* slab = c.slabs[i].first;
      c.slabs[i] = c.slabs[--c.count];
      c.bytes -= bytes;
      return slab;
    }
  }
#endif
  return ::operator new(bytes, std::align_val_t{GraphArena::kSlabAlignment});
}

void recycle_slab(void* slab, std::size_t bytes) noexcept {
#if !defined(__SANITIZE_ADDRESS__)
  {
    SlabCache& c = slab_cache();
    std::scoped_lock lock(c.mutex);
    if (c.count < c.slabs.size() && c.bytes + bytes <= kSlabCacheBytes) {
      c.slabs[c.count++] = {slab, bytes};
      c.bytes += bytes;
      return;
    }
  }
#endif
  ::operator delete(slab, std::align_val_t{GraphArena::kSlabAlignment});
}

}  // namespace detail

Node::~Node() = default;

void Node::precede(Node& v) {
  if (_num_successors == _succ_capacity) {
    grow_successors(_num_successors + 1);
  }
  successor_data()[_num_successors++] = &v;
  ++v._static_dependents;
  // Edges out of a condition task are weak: they fire on branch selection
  // and must not count toward the successor's join.  Task::work keeps these
  // counts consistent when a callable is assigned after edges exist.
  if (is_condition()) ++v._weak_dependents;
  // Acyclicity witness, maintained as edges are built: an edge into an
  // earlier-created node (or a self-loop) breaks the "creation order is a
  // topological order" invariant, so dispatch must run the full check.
  if (v._creation_index <= _creation_index) _has_backward_edge = true;
}

void Node::grow_successors(std::uint32_t min_capacity) {
  // 2 (inline) -> 8 -> x4: few growth steps even for huge fan-out, and the
  // abandoned chunks are arena slack, not heap churn.
  std::uint32_t capacity =
      _succ_capacity <= kInlineSuccessors ? 8 : _succ_capacity * 4;
  if (capacity < min_capacity) capacity = min_capacity;
  Node** spill = _graph->allocate_edges(capacity);
  std::memcpy(spill, successor_data(), _num_successors * sizeof(Node*));
  _succ_spill = spill;
  _succ_capacity = capacity;
  _graph->_edges_dirty = true;
}

void Graph::finalize_edges() {
  if (!_edges_dirty) return;
  _edges_dirty = false;
  std::size_t spilled = 0;
  for (const Node* node : _index) {
    if (node->_succ_capacity > Node::kInlineSuccessors) {
      spilled += node->_num_successors;
    }
  }
  if (spilled == 0) return;
  // One contiguous block in creation order: the scheduler's finalize sweep
  // then walks successor arrays in (roughly) address order.  Capacities are
  // trimmed to size; a later precede() on a packed node re-spills.
  Node** block = allocate_edges(spilled);
  for (Node* node : _index) {
    if (node->_succ_capacity <= Node::kInlineSuccessors) continue;
    std::memcpy(block, node->_succ_spill, node->_num_successors * sizeof(Node*));
    node->_succ_spill = block;
    // A spilled node always has > kInlineSuccessors successors (growth only
    // happens on overflow), so the spill representation stays in force.
    node->_succ_capacity = node->_num_successors;
    block += node->_num_successors;
  }
}

void Graph::set_node_name(const Node& node, std::string name) {
  if (_names == nullptr) {
    _names = std::make_unique<std::unordered_map<const Node*, std::string>>();
  }
  (*_names)[&node] = std::move(name);
}

const std::string& Graph::node_name(const Node& node) const noexcept {
  static const std::string empty;
  if (_names == nullptr) return empty;
  auto it = _names->find(&node);
  return it == _names->end() ? empty : it->second;
}

namespace detail {
namespace {

// Display label of a node inside a cycle diagnostic: the user-given name, or
// a positional fallback for the (common) unnamed case.
std::string cycle_label(const Node* node,
                        const std::unordered_map<const Node*, std::size_t>& index) {
  if (!node->name().empty()) return "\"" + node->name() + "\"";
  return "task#" + std::to_string(index.at(node));
}

}  // namespace

std::string describe_cycle(Graph& g, std::size_t max_named) {
  // Kahn's algorithm, reusing the join counters as scratch in-degrees.  The
  // graph is quiescent here (dispatch runs before workers see it; a subflow
  // is checked before its children are armed), so the counters can be
  // updated with plain load/store instead of atomic RMWs, and the worklist
  // is a reused thread-local - the no-cycle path costs one O(V+E) sweep
  // and no steady-state allocation.
  // Fast accept: when every edge points from an earlier-created node to a
  // later one, creation order is already a topological order (the common
  // case - precede(A, B) written in build order).  Node::precede maintains
  // that witness per node, so this is one read-only sweep with no edge
  // dereferences.  Patterns that wire successors backward (e.g. the
  // parallel_for source/target pair, created before its workers) fall
  // through to the full check below.
  {
    bool forward = true;
    for (const auto& node : g) {
      if (node._has_backward_edge) {
        forward = false;
        break;
      }
    }
    if (forward) return {};
  }

  // Cycles are legal exactly when every lap passes through a condition task
  // (an in-graph loop, second Taskflow paper §III-C): the condition re-arms
  // the loop body one branch at a time, so execution cannot deadlock on it.
  // The check therefore runs over *strong* edges only - in-degrees exclude
  // weak (condition-out) edges and condition successors are not decremented.
  // A strongly-connected lap with no condition on it is a genuine deadlock
  // and stays an error.
  static thread_local std::vector<Node*> worklist;
  worklist.clear();
  worklist.reserve(g.size());
  for (auto& node : g) {
    node._join_counter.store(node.num_strong_dependents(),
                             std::memory_order_relaxed);
    if (node.num_strong_dependents() == 0) worklist.push_back(&node);
  }
  std::size_t processed = 0;
  while (!worklist.empty()) {
    Node* n = worklist.back();
    worklist.pop_back();
    ++processed;
    if (n->is_condition()) continue;  // weak out-edges: no join contribution
    for (Node* succ : n->successors()) {
      const int remaining = succ->_join_counter.load(std::memory_order_relaxed) - 1;
      succ->_join_counter.store(remaining, std::memory_order_relaxed);
      if (remaining == 0) worklist.push_back(succ);
    }
  }
  if (processed == g.size()) {
    // Strong-acyclic, but a control-flow graph still needs an entry point:
    // when every task has a predecessor (e.g. a condition loop with no way
    // in), dispatch would schedule nothing and the run could never finish.
    // Checked only on this path - a pure-static cycle below is the better
    // diagnostic, and the fast-accept above implies node 0 is a source.
    for (const auto& node : g) {
      if (node._static_dependents == 0) return {};
    }
    if (g.empty()) return {};
    return "graph has no source task (every task has a predecessor), so no "
           "task can ever start";
  }

  // Error path only: recover one concrete cycle with a colored DFS over the
  // unprocessed remainder (counter > 0 = on or downstream of a cycle).
  std::unordered_map<const Node*, std::size_t> index;
  std::unordered_map<const Node*, int> color;  // 0 white, 1 on path, 2 done
  index.reserve(g.size());
  std::size_t i = 0;
  for (const auto& node : g) index.emplace(&node, i++);

  std::vector<Node*> path;
  std::string cycle_text;
  for (auto& root : g) {
    if (root._join_counter.load(std::memory_order_relaxed) == 0 || color[&root] == 2) {
      continue;
    }
    // Iterative DFS with an explicit (node, next-successor) stack.
    std::vector<std::pair<Node*, std::size_t>> stack{{&root, 0}};
    color[&root] = 1;
    path = {&root};
    while (!stack.empty() && cycle_text.empty()) {
      auto& [node, next] = stack.back();
      // Condition out-edges are legal back-edges: never walk them, so the
      // named cycle consists of strong edges only.
      if (node->is_condition()) {
        color[node] = 2;
        path.pop_back();
        stack.pop_back();
        continue;
      }
      if (next < node->num_successors()) {
        Node* succ = node->successor_data()[next++];
        if (succ->_join_counter.load(std::memory_order_relaxed) == 0) continue;
        if (color[succ] == 1) {
          // Back edge: the cycle is the path suffix starting at succ.
          auto it = std::find(path.begin(), path.end(), succ);
          std::size_t named = 0;
          for (; it != path.end() && named < max_named; ++it, ++named) {
            cycle_text += cycle_label(*it, index) + " -> ";
          }
          cycle_text += it == path.end() ? cycle_label(succ, index) : "...";
          break;
        }
        if (color[succ] == 0) {
          color[succ] = 1;
          path.push_back(succ);
          stack.emplace_back(succ, 0);
        }
      } else {
        color[node] = 2;
        path.pop_back();
        stack.pop_back();
      }
    }
    if (!cycle_text.empty()) break;
  }
  return "dependency cycle detected (" + std::to_string(g.size() - processed) +
         " of " + std::to_string(g.size()) +
         " task(s) can never become ready): " + cycle_text;
}

void instantiate(const Graph& src, Graph& dst) {
  assert(dst.empty());
  std::size_t edges = 0;
  for (const Node& s : src) edges += s.num_successors();
  dst.reserve(src.size(), edges);
  // Pass 1: nodes, work items, policies, names.  Work is assigned before any
  // edge exists so precede() below classifies edge strength (strong vs weak)
  // from the copied source kinds.  The variant is copied by hand: its
  // alternatives hold move-only wrappers (SmallFunction) and an atomic, so
  // plain copy-assignment is unavailable - clone() duplicates the callables
  // and rejects move-only targets with a descriptive error.
  for (const Node& s : src) {
    Node& d = dst.emplace_back();
    switch (s._work.index()) {
      case 1:
        d._work.emplace<StaticWork>(std::get<StaticWork>(s._work).clone());
        break;
      case 2:
        d._work.emplace<DynamicWork>(std::get<DynamicWork>(s._work).clone());
        break;
      case 3:
        d._work.emplace<ConditionWork>(std::get<ConditionWork>(s._work).fn.clone());
        break;
      case 4:
        d._work.emplace<ModuleWork>(std::get<ModuleWork>(s._work));
        break;
      default:
        break;  // monostate placeholder
    }
    if (s._policy != nullptr) {
      auto policy = std::make_unique<ResiliencePolicy>();
      policy->retry = s._policy->retry;
      if (s._policy->fallback) policy->fallback = s._policy->fallback.clone();
      d._policy = std::move(policy);
    }
    if (const std::string& name = src.node_name(s); !name.empty()) {
      dst.set_node_name(d, name);
    }
  }
  // Pass 2: edges, mapped through creation indices (identical in the copy).
  for (const Node& s : src) {
    Node& d = dst.node_at(static_cast<std::size_t>(s._creation_index));
    for (const Node* succ : s.successors()) {
      d.precede(dst.node_at(static_cast<std::size_t>(succ->_creation_index)));
    }
  }
}

bool composes_transitively(const Graph& target, const Graph& owner) {
  if (&target == &owner) return true;
  // Iterative DFS over module references; `seen` also serves as the visit
  // stack guard.  Small vectors beat hashing here - real composition graphs
  // reference a handful of taskflows.
  std::vector<const Graph*> stack{&target};
  std::vector<const Graph*> seen{&target};
  while (!stack.empty()) {
    const Graph* g = stack.back();
    stack.pop_back();
    for (const Node& n : *g) {
      if (!n.is_module()) continue;
      const Graph* ref = std::get<ModuleWork>(n._work).target;
      if (ref == nullptr) continue;
      if (ref == &owner) return true;
      if (std::find(seen.begin(), seen.end(), ref) == seen.end()) {
        seen.push_back(ref);
        stack.push_back(ref);
      }
    }
  }
  return false;
}

}  // namespace detail

std::size_t Graph::size_recursive() const {
  std::size_t n = _index.size();
  for (const Node* node : _index) {
    if (node->_subgraph) n += node->_subgraph->size_recursive();
  }
  return n;
}

}  // namespace tf

// task.hpp - tf::Task, the lightweight user-facing handle over a graph node
// (paper §III-A).  A Task wraps a Node* and exposes attribute modification
// and dependency construction; it never owns the node.  A default-constructed
// Task is *empty* and can be used as a placeholder variable until assigned.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "taskflow/graph.hpp"

namespace tf {

class FlowBuilder;
class SubflowBuilder;

class Task {
 public:
  /// Construct an empty (null) handle.
  Task() = default;

  Task(const Task&) = default;
  Task& operator=(const Task&) = default;

  /// True when this handle is not associated with any node.
  [[nodiscard]] bool empty() const noexcept { return _node == nullptr; }

  /// Name accessors.  Naming tasks improves dump() output and profiling.
  Task& name(std::string n) {
    _node->set_name(std::move(n));
    return *this;
  }
  [[nodiscard]] const std::string& name() const noexcept { return _node->name(); }

  [[nodiscard]] std::size_t num_successors() const noexcept {
    return _node->num_successors();
  }
  [[nodiscard]] std::size_t num_dependents() const noexcept {
    return _node->num_dependents();
  }

  /// True when the node carries no callable yet.
  [[nodiscard]] bool is_placeholder() const noexcept { return _node->is_placeholder(); }

  /// True when this task is a condition task (int()-returning callable whose
  /// result selects the successor to fire).
  [[nodiscard]] bool is_condition() const noexcept { return _node->is_condition(); }

  /// True when this task is a module task (composed_of another Taskflow).
  [[nodiscard]] bool is_module() const noexcept { return _node->is_module(); }

  /// For condition tasks: the branch index returned by the most recent
  /// execution, or -1 before the first run / when no branch was taken.
  /// Always -1 for non-condition tasks.
  [[nodiscard]] int last_branch() const noexcept { return _node->last_branch(); }

  /// Adds dependency links: *this runs before every task in `others...`
  /// (variadic, paper Listing 3: `a1.precede(a2, b2)`).
  template <typename... Ts>
  Task& precede(Ts&&... others) {
    static_assert(sizeof...(Ts) >= 1, "precede requires at least one task");
    (_node->precede(*std::forward<Ts>(others)._node), ...);
    return *this;
  }

  /// Adds dependency links: *this runs after every task in `others...`.
  template <typename... Ts>
  Task& succeed(Ts&&... others) {
    static_assert(sizeof...(Ts) >= 1, "succeed requires at least one task");
    (std::forward<Ts>(others)._node->precede(*_node), ...);
    return *this;
  }

  /// v1-style container forms: *this precedes / succeeds every task in the
  /// vector.
  Task& broadcast(const std::vector<Task>& others) {
    for (const Task& t : others) _node->precede(*t._node);
    return *this;
  }
  Task& gather(const std::vector<Task>& others) {
    for (const Task& t : others) t._node->precede(*_node);
    return *this;
  }

  /// Replace the callable stored in the node.  The same static/dynamic
  /// dispatch rules as FlowBuilder::emplace apply.
  template <typename C>
  Task& work(C&& callable);

  // ---- resilience policies (DESIGN.md §8) --------------------------------

  /// Allow up to `n` retries after a failed first attempt (n + 1 total
  /// attempts), re-enqueued immediately with no backoff.  Only after every
  /// attempt failed does the error drain the topology (or the fallback run).
  Task& retry(int n) {
    RetryPolicy p;
    p.max_attempts = (n < 0 ? 0 : n) + 1;
    p.backoff = std::chrono::nanoseconds{0};
    return retry(std::move(p));
  }

  /// Attach a full retry policy: attempt budget, exponential backoff with
  /// jitter (the node re-enqueues through the executor's timer queue - no
  /// worker blocks during the delay), and an optional failure filter.
  Task& retry(RetryPolicy p) {
    if (p.max_attempts < 1) p.max_attempts = 1;
    if (p.multiplier < 1.0) p.multiplier = 1.0;
    if (p.jitter < 0.0) p.jitter = 0.0;
    if (p.jitter > 1.0) p.jitter = 1.0;
    if (p.max_backoff < p.backoff) p.max_backoff = p.backoff;
    _node->policy().retry = std::move(p);
    return *this;
  }

  /// Attach a degradation handler, run on the worker when the task's retry
  /// budget is exhausted (or on the first failure without a retry policy).
  /// If it returns normally the topology proceeds as if the task succeeded;
  /// if it throws, its exception drains the topology instead of the
  /// original.  Defined in flow_builder.hpp (needs the static-work traits).
  template <typename C>
  Task& fallback(C&& callable);

  /// True when a retry policy or fallback is attached.
  [[nodiscard]] bool has_policy() const noexcept { return _node->has_policy(); }

  [[nodiscard]] bool operator==(const Task& rhs) const noexcept {
    return _node == rhs._node;
  }

 private:
  friend class FlowBuilder;
  friend class SubflowBuilder;
  friend class Taskflow;

  explicit Task(Node& node) noexcept : _node(&node) {}

  Node* _node{nullptr};
};

}  // namespace tf

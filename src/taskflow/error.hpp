// error.hpp - the error model of the library: exception capture, cooperative
// cancellation, run deadlines, and cycle diagnostics (the robustness layer
// over paper §III).
//
// Every dispatched Topology owns one detail::ErrorState shared with the
// ExecutionHandle returned by Executor::run() / Taskflow::dispatch().  The
// first task that throws stores its std::exception_ptr there
// (first-writer-wins) and flips the topology into *draining* mode:
// remaining tasks skip their work but still run the finalize bookkeeping
// (join counters, subflow parents, live-task count), so the topology
// terminates cleanly and the stored
// exception is rethrown from the completion future.  ExecutionHandle::cancel
// uses the same drain path without an exception; a run deadline
// (Executor::run with a RunPolicy, or ExecutionHandle::cancel_after) uses it
// *with* one - a tf::TimeoutError captured through the same first-writer
// protocol, so a timeout and a task exception can race and exactly one wins.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

namespace tf {

/// Thrown by Executor::run() / Taskflow::dispatch() when the dependency
/// graph contains a cycle (which could never complete), and delivered
/// through the completion future when a dynamically spawned subflow turns
/// out to be cyclic.
class CycleError : public std::runtime_error {
 public:
  explicit CycleError(const std::string& what) : std::runtime_error(what) {}
};

/// Delivered through ExecutionHandle::get() when a run exceeded the deadline
/// of its RunPolicy: the topology flipped into the drain path at expiry and
/// completed with this error instead of its normal result.
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by Executor::run/run_n/run_until/async/dispatch after
/// Executor::shutdown() began: a shutting-down executor finishes its
/// in-flight work but accepts no new submissions.
class ShutdownError : public std::runtime_error {
 public:
  explicit ShutdownError(const std::string& what) : std::runtime_error(what) {}
};

/// The admission-control rejection (DESIGN.md §11): thrown by Executor::run
/// when the executor is at capacity and the submission asked for
/// AdmissionPolicy::reject (or its backpressure wait exceeded
/// RunPolicy::admission_timeout), and delivered through the completion future
/// of a run the executor load-shed while it waited, not yet started, above
/// the shed watermark.  Distinct from ShutdownError: an overloaded executor
/// may accept again, a shut-down one never does.
class OverloadError : public std::runtime_error {
 public:
  explicit OverloadError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown (or returned as an empty try_run handle) when the submitting
/// taskflow's circuit breaker is open: its recent runs failed
/// `ExecutorOptions::breaker_threshold` times in a row and the cooldown has
/// not yet admitted a half-open probe.  An OverloadError subtype so callers
/// treating every fail-fast rejection alike need one catch clause.
class BreakerOpenError : public OverloadError {
 public:
  explicit BreakerOpenError(const std::string& what) : OverloadError(what) {}
};

/// Recursive module composition.  Thrown by FlowBuilder::composed_of when the
/// new module edge statically closes a reference cycle (the target taskflow
/// already composes - directly or through other modules - the graph being
/// built: expansion could never terminate), and delivered through the
/// completion future, naming the offending task, when execution-time module
/// expansion exceeds the runtime depth cap (a cycle assembled in a way the
/// build-time walk cannot see, e.g. through a dynamic subflow).
class CompositionError : public std::runtime_error {
 public:
  explicit CompositionError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Error/cancellation state of one dispatched topology, shared (via
/// std::shared_ptr) between the Topology and any ExecutionHandle so the
/// handle stays valid after the topology is released by wait_for_all().
struct ErrorState {
  /// Draining flag: set by cancel() and by the first captured exception.
  /// Workers read it once per task to decide the skip-but-finalize path.
  std::atomic<bool> cancelled{false};

  /// Deadline of the run in steady-clock nanoseconds since epoch (0 = none).
  /// Set once at submission when the run carries a RunPolicy timeout; read
  /// by tf::this_task::deadline() and by the stall report.  Expiry itself is
  /// the backend timer queue's job - no sweep reads this field.
  std::atomic<std::int64_t> deadline_ns{0};

  /// Set (with the drain) when the deadline fired - distinguishes
  /// "[draining: deadline exceeded]" from a plain cancel in stall reports.
  std::atomic<bool> timed_out{false};

  /// Publication protocol for `exception`: 0 = empty, 1 = a winner is
  /// writing, 2 = stored, 3 = closed empty (see close()).  A task always
  /// captures *before* it retires, and the final retire_one() synchronizes
  /// with every earlier one (acq_rel RMW chain), so state 2 is visible to
  /// whichever task fulfils the completion promise.
  std::atomic<int> exception_phase{0};
  std::exception_ptr exception;

  [[nodiscard]] bool draining() const noexcept {
    return cancelled.load(std::memory_order_acquire);
  }

  void cancel() noexcept { cancelled.store(true, std::memory_order_release); }

  /// First-writer-wins capture; every caller (winner or not) also flips the
  /// topology into draining mode.  Returns true for the winner (never after
  /// close()).  A winning `timeout` sets timed_out before publishing.
  bool capture(std::exception_ptr e, bool timeout = false) noexcept {
    int expected = 0;
    const bool won =
        exception_phase.compare_exchange_strong(expected, 1, std::memory_order_acq_rel);
    if (won) {
      if (timeout) timed_out.store(true, std::memory_order_release);
      exception = std::move(e);
      exception_phase.store(2, std::memory_order_release);
    }
    cancelled.store(true, std::memory_order_release);
    return won;
  }

  /// End the capture window at completion - a later deadline or shed loses
  /// - and return the stored exception (nullptr when none).  A writer
  /// caught mid-capture is a few instructions from publishing: wait it out.
  std::exception_ptr close() noexcept {
    int phase = 0;
    while (!exception_phase.compare_exchange_weak(phase, 3, std::memory_order_acq_rel)) {
      if (phase >= 2) return phase == 2 ? exception : nullptr;
      phase = 0;  // a writer mid-capture (or a spurious failure): retry
      std::this_thread::yield();
    }
    return nullptr;
  }

  /// The stored exception, or nullptr when none was (fully) captured.
  [[nodiscard]] std::exception_ptr stored() const noexcept {
    return exception_phase.load(std::memory_order_acquire) == 2 ? exception : nullptr;
  }

  /// Deadline-expiry drain: capture a tf::TimeoutError through the normal
  /// first-writer protocol (so a timeout racing a task exception resolves to
  /// exactly one stored error) and mark the state timed out.  Returns true
  /// when the timeout won the capture race.
  bool expire(const std::string& what) noexcept {
    // Only a winner is flagged: timed_out() must not contradict get().
    return capture(std::make_exception_ptr(TimeoutError(what)), /*timeout=*/true);
  }

  /// Re-initialize for reuse (recycled Executor::async run boxes).  Only
  /// valid when no other thread can touch the state - the pool recycles a
  /// box strictly after its single task retired and before the next
  /// submission publishes it.
  void reset() noexcept {
    cancelled.store(false, std::memory_order_relaxed);
    deadline_ns.store(0, std::memory_order_relaxed);
    timed_out.store(false, std::memory_order_relaxed);
    exception = nullptr;
    exception_phase.store(0, std::memory_order_release);
  }

  /// Steady-clock deadline accessors (0 sentinel = no deadline).
  void set_deadline(std::chrono::steady_clock::time_point t) noexcept {
    deadline_ns.store(t.time_since_epoch().count(), std::memory_order_release);
  }
  [[nodiscard]] std::optional<std::chrono::steady_clock::time_point> deadline()
      const noexcept {
    const auto ns = deadline_ns.load(std::memory_order_acquire);
    if (ns == 0) return std::nullopt;
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(ns));
  }
};

}  // namespace detail

namespace this_task {

/// True when the topology executing the current task is draining (a sibling
/// task threw, ExecutionHandle::cancel was called, or the run's deadline
/// expired).  Long-running tasks poll this to cooperate with cancellation;
/// outside a task it is false.
[[nodiscard]] bool is_cancelled() noexcept;

/// Remaining time budget of the run executing the current task: nullopt when
/// the run carries no deadline (or outside a task), otherwise the duration
/// until the deadline - negative once it has expired.  Long tasks poll this
/// to exit early (checkpoint, degrade, or abandon) instead of being caught
/// mid-flight by the drain.
[[nodiscard]] std::optional<std::chrono::nanoseconds> deadline() noexcept;

}  // namespace this_task

}  // namespace tf

// metrics.hpp - tf::MetricsRegistry: the observability surface of the
// service layer (DESIGN.md §13).  One registry per tf::Server tallies every
// request outcome exactly once, records completed-request latency into a
// lock-free log-bucketed histogram (p50/p99/p999), and folds the owning
// executor's Executor::metrics() into one MetricsSnapshot - the payload
// behind Server::healthz() and Server::dump_state().  The /healthz body is
// the status line, the server's own lines, then the executor's key list
// (Executor::Metrics::for_each) - the same lines the stall report prints.
//
// Everything on the record path is a relaxed atomic increment: clients call
// record_outcome concurrently from dozens of threads mid-storm, and the
// snapshot is a best-effort cut (exact once the storm has drained - the
// counter identities the soak test asserts hold at quiescence).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "taskflow/taskflow.hpp"

namespace tf {

/// Terminal classification of one request.  Every submitted request maps to
/// exactly one Outcome - the zero-lost-responses contract: submitted ==
/// ok + degraded + rejected + shed + timed_out + cancelled + failed +
/// shutdown_rejected (MetricsSnapshot::accounted).
enum class Outcome : unsigned char {
  ok = 0,             // pipeline completed normally
  degraded,           // completed through a fallback / degrade branch
  rejected,           // refused at the door (OverloadError / open breaker)
  shed,               // admitted, then load-shed before starting
  timed_out,          // RunPolicy deadline expired
  cancelled,          // drained by shutdown(abort) before responding
  failed,             // pipeline exception that no fallback absorbed
  shutdown_rejected,  // refused because the server is shutting down
};
inline constexpr std::size_t kNumOutcomes = 8;

[[nodiscard]] const char* to_string(Outcome o) noexcept;

/// Lock-free latency histogram: 64 power-of-two octaves x 8 linear
/// sub-buckets over nanosecond values (~±6% relative resolution), 512
/// relaxed atomic counters.  record() is two shifts and one fetch_add;
/// percentile() walks the cumulative distribution.
class LatencyHistogram {
 public:
  static constexpr std::size_t kSubBits = 3;
  static constexpr std::size_t kSub = 1u << kSubBits;  // 8 sub-buckets
  static constexpr std::size_t kBuckets = 64 * kSub;

  void record(std::chrono::nanoseconds latency) noexcept;

  /// Approximate value (microseconds) of the nearest-rank sample at
  /// percentile `p` in [0, 100] (rank ceil(p * n / 100), at least 1);
  /// 0 when the histogram is empty.
  [[nodiscard]] double percentile_us(double p) const noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return _count.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> _bucket{};
  std::atomic<std::uint64_t> _count{0};
};

/// One consistent-at-quiescence cut of a server's counters, percentiles, and
/// the executor's admission state.
struct MetricsSnapshot {
  std::uint64_t submitted{0};
  std::array<std::uint64_t, kNumOutcomes> outcomes{};

  double p50_us{0};
  double p99_us{0};
  double p999_us{0};

  double shed_rate{0};  // shed / submitted

  Executor::Metrics executor;  // the executor's key list

  [[nodiscard]] std::uint64_t outcome(Outcome o) const noexcept {
    return outcomes[static_cast<std::size_t>(o)];
  }
  /// Sum over every outcome - must equal `submitted` once the storm has
  /// drained (the zero-lost-responses identity).
  [[nodiscard]] std::uint64_t accounted() const noexcept;
  /// Requests that completed with a response body (ok + degraded).
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return outcome(Outcome::ok) + outcome(Outcome::degraded);
  }
};

/// Render `s` as the /healthz probe body: the status line, then one
/// "key value" line per server counter, then the executor's key list.
void render_healthz(std::ostream& os, const std::string& status,
                    const MetricsSnapshot& s);

class MetricsRegistry {
 public:
  void record_submitted() noexcept {
    _submitted.fetch_add(1, std::memory_order_relaxed);
  }

  /// Tally `o`; a positive latency additionally lands in the histogram
  /// (completed requests record admission→response time, terminal
  /// non-responses pass 0).
  void record_outcome(Outcome o, std::chrono::nanoseconds latency =
                                     std::chrono::nanoseconds{0}) noexcept {
    _outcomes[static_cast<std::size_t>(o)].fetch_add(1, std::memory_order_relaxed);
    if (latency.count() > 0) _latency.record(latency);
  }

  [[nodiscard]] std::uint64_t submitted() const noexcept {
    return _submitted.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t outcome(Outcome o) const noexcept {
    return _outcomes[static_cast<std::size_t>(o)].load(std::memory_order_relaxed);
  }

  /// Snapshot counters + percentiles, folding in `executor.metrics()`.
  [[nodiscard]] MetricsSnapshot snapshot(const Executor& executor) const;

 private:
  std::atomic<std::uint64_t> _submitted{0};
  std::array<std::atomic<std::uint64_t>, kNumOutcomes> _outcomes{};
  LatencyHistogram _latency;
};

}  // namespace tf

#include "service/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

namespace tf {

const char* to_string(Outcome o) noexcept {
  switch (o) {
    case Outcome::ok: return "ok";
    case Outcome::degraded: return "degraded";
    case Outcome::rejected: return "rejected";
    case Outcome::shed: return "shed";
    case Outcome::timed_out: return "timed_out";
    case Outcome::cancelled: return "cancelled";
    case Outcome::failed: return "failed";
    case Outcome::shutdown_rejected: return "shutdown_rejected";
  }
  return "unknown";
}

namespace {

// Bucket of a nanosecond value: octave = position of the highest set bit,
// sub-bucket = the next kSubBits bits (linear refinement within the octave).
std::size_t bucket_of(std::uint64_t ns) noexcept {
  if (ns < LatencyHistogram::kSub) return static_cast<std::size_t>(ns);
  const int octave = 63 - std::countl_zero(ns);
  const std::uint64_t sub =
      (ns >> (octave - static_cast<int>(LatencyHistogram::kSubBits))) &
      (LatencyHistogram::kSub - 1);
  return static_cast<std::size_t>(octave) * LatencyHistogram::kSub +
         static_cast<std::size_t>(sub);
}

// Representative value (ns) of a bucket: midpoint of its covered range.
double bucket_value_ns(std::size_t b) noexcept {
  if (b < LatencyHistogram::kSub) return static_cast<double>(b);
  const std::size_t octave = b / LatencyHistogram::kSub;
  const std::size_t sub = b % LatencyHistogram::kSub;
  const double base = std::ldexp(1.0, static_cast<int>(octave));
  const double width = base / LatencyHistogram::kSub;
  return base + (static_cast<double>(sub) + 0.5) * width;
}

}  // namespace

void LatencyHistogram::record(std::chrono::nanoseconds latency) noexcept {
  const auto ns = static_cast<std::uint64_t>(latency.count() < 0 ? 0 : latency.count());
  _bucket[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  _count.fetch_add(1, std::memory_order_relaxed);
}

double LatencyHistogram::percentile_us(double p) const noexcept {
  const std::uint64_t n = _count.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest rank: the smallest sample at or above which p% of the samples
  // lie.  p * n / 100 keeps exact products exact (p / 100 * n turns p99.9
  // of 1,000 samples into 999.0000000000001, i.e. rank 1,000).
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  const std::uint64_t target = std::clamp<std::uint64_t>(rank, 1, n);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += _bucket[b].load(std::memory_order_relaxed);
    if (cum >= target) return bucket_value_ns(b) / 1000.0;
  }
  return bucket_value_ns(kBuckets - 1) / 1000.0;
}

std::uint64_t MetricsSnapshot::accounted() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : outcomes) sum += c;
  return sum;
}

MetricsSnapshot MetricsRegistry::snapshot(const Executor& executor) const {
  MetricsSnapshot s;
  s.submitted = submitted();
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    s.outcomes[i] = _outcomes[i].load(std::memory_order_relaxed);
  }
  s.p50_us = _latency.percentile_us(50);
  s.p99_us = _latency.percentile_us(99);
  s.p999_us = _latency.percentile_us(99.9);
  s.shed_rate = s.submitted == 0
                    ? 0
                    : static_cast<double>(s.outcome(Outcome::shed)) /
                          static_cast<double>(s.submitted);
  s.executor = executor.metrics();
  return s;
}

void render_healthz(std::ostream& os, const std::string& status,
                    const MetricsSnapshot& s) {
  os << "status " << status << "\n"
     << "submitted " << s.submitted << "\n";
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    os << to_string(static_cast<Outcome>(i)) << " " << s.outcomes[i] << "\n";
  }
  os << "accounted " << s.accounted() << "\n"
     << "p50_us " << s.p50_us << "\n"
     << "p99_us " << s.p99_us << "\n"
     << "p999_us " << s.p999_us << "\n"
     << "shed_rate " << s.shed_rate << "\n"
     << s.executor;
}

}  // namespace tf

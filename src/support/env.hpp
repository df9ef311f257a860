// env.hpp - environment-variable scaling knobs shared by the benchmark
// harnesses, so the same binaries scale from this small VM up to a many-core
// machine matching the paper's testbed.
#pragma once

#include <cstddef>
#include <string>

namespace support {

/// Read an integer environment variable; returns `fallback` when unset or
/// unparsable.
[[nodiscard]] long long env_int(const char* name, long long fallback);

/// Read a double environment variable; returns `fallback` when unset.
[[nodiscard]] double env_double(const char* name, double fallback);

/// Global problem-size multiplier (REPRO_SCALE, default 1.0).  Benches apply
/// this to their largest problem sizes so CI-class machines finish quickly.
[[nodiscard]] double repro_scale();

/// Maximum thread count explored by the thread sweeps (REPRO_MAX_THREADS).
/// Defaults to max(4, hardware_concurrency); the paper sweeps up to 64.
[[nodiscard]] unsigned repro_max_threads();

/// Number of repeats per measurement (REPRO_REPEATS, default 3).
[[nodiscard]] int repro_repeats();

/// Iterations of the fault-injection stress tests (REPRO_FAULT_ITERS,
/// default 30); raise for longer soak runs under the sanitizers.
[[nodiscard]] int repro_fault_iters();

/// Base RNG seed of the fault-injection stress tests (REPRO_FAULT_SEED,
/// default 42); every iteration derives its own stream from it.
[[nodiscard]] unsigned long long repro_fault_seed();

/// Per-client request count of the service-layer soak test
/// (REPRO_SOAK_ITERS, default 400 for the CI short soak).  Set to 42000+ to
/// opt into the acceptance storm: >= 1M requests across 24 client threads.
[[nodiscard]] long long repro_soak_iters();

}  // namespace support

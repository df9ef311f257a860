#include "support/env.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

namespace support {

long long env_int(const char* name, long long fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

double repro_scale() { return env_double("REPRO_SCALE", 1.0); }

unsigned repro_max_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const long long def = std::max(4u, hw);
  return static_cast<unsigned>(env_int("REPRO_MAX_THREADS", def));
}

int repro_repeats() {
  return static_cast<int>(env_int("REPRO_REPEATS", 3));
}

int repro_fault_iters() {
  return static_cast<int>(env_int("REPRO_FAULT_ITERS", 30));
}

unsigned long long repro_fault_seed() {
  return static_cast<unsigned long long>(env_int("REPRO_FAULT_SEED", 42));
}

long long repro_soak_iters() {
  return std::max(1ll, env_int("REPRO_SOAK_ITERS", 400));
}

}  // namespace support

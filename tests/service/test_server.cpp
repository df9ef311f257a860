// Service-layer suite (ISSUE 9 tentpole): tf::Server end-to-end - the
// composed/conditional request pipeline with retry + fallback-to-degraded,
// priority-banded admission under RunPolicy deadlines, the /healthz metrics
// snapshot and socket probe, chaos injection, and the soak contract: a
// multi-threaded ingest storm finishes with ZERO lost responses (submitted
// == sum of all outcome counters, exactly) and survives a mid-storm
// shutdown(drain) with every handle ready.
//
//   REPRO_SOAK_ITERS   requests per client in the soak (default 400, the CI
//                      short soak; >= 42000 with 24 clients is the 1M-request
//                      acceptance storm)
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/probe.hpp"
#include "support/env.hpp"

namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Single-request semantics.
// ---------------------------------------------------------------------------

TEST(Server, CallCompletesOk) {
  tf::Server server;
  auto& client = server.connect();
  const tf::Response r = client.call({/*id=*/7, /*priority=*/1, /*work=*/50us});
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.outcome, tf::Outcome::ok);
  EXPECT_GT(r.latency.count(), 0);
  EXPECT_EQ(client.count(tf::Outcome::ok), 1u);
  const auto snap = server.metrics();
  EXPECT_EQ(snap.submitted, 1u);
  EXPECT_EQ(snap.accounted(), 1u);
  EXPECT_EQ(snap.completed(), 1u);
}

TEST(Server, MalformedRequestDegrades) {
  tf::ServerOptions opts;
  opts.chaos.enabled = true;
  opts.chaos.malformed_rate = 1.0;  // every validate branches to degrade
  tf::Server server(opts);
  auto& client = server.connect();
  const tf::Response r = client.call({1});
  EXPECT_EQ(r.outcome, tf::Outcome::degraded);
  EXPECT_GT(r.latency.count(), 0);  // a degraded response is still a response
}

TEST(Server, ExhaustedRetriesFallBackToDegraded) {
  tf::ServerOptions opts;
  opts.max_attempts = 2;
  opts.retry_backoff = 10us;
  opts.chaos.enabled = true;
  opts.chaos.exception_rate = 1.0;  // every handler attempt throws
  tf::Server server(opts);
  auto& client = server.connect();
  for (int i = 0; i < 8; ++i) {
    const tf::Response r = client.call({static_cast<std::uint64_t>(i)});
    EXPECT_EQ(r.outcome, tf::Outcome::degraded) << "request " << i;
  }
  // The fallback absorbed every injected failure: nothing surfaced as
  // `failed`, and the executor saw only successful runs (breaker stays shut).
  EXPECT_EQ(client.count(tf::Outcome::failed), 0u);
  EXPECT_EQ(client.count(tf::Outcome::degraded), 8u);
}

TEST(Server, DeadlineSurfacesTimedOut) {
  tf::ServerOptions opts;
  opts.deadline = 2ms;
  tf::Server server(opts);
  auto& client = server.connect();
  const tf::Response r = client.call({1, 1, /*work=*/50ms});
  EXPECT_EQ(r.outcome, tf::Outcome::timed_out);
  EXPECT_EQ(r.latency.count(), 0);  // no response was produced
}

TEST(Server, BoundedAdmissionRejectsAtTheDoor) {
  tf::ServerOptions opts;
  opts.num_workers = 1;
  opts.executor.max_pending_topologies = 1;
  opts.admission = tf::AdmissionPolicy::reject;
  tf::Server server(opts);
  auto& client = server.connect();
  for (int i = 0; i < 16; ++i) {
    client.submit({static_cast<std::uint64_t>(i), 1, /*work=*/2ms});
  }
  client.drain();
  const auto snap = server.metrics();
  EXPECT_EQ(snap.submitted, 16u);
  EXPECT_EQ(snap.accounted(), 16u);
  EXPECT_GE(snap.outcome(tf::Outcome::rejected), 1u);
  EXPECT_GE(snap.outcome(tf::Outcome::ok), 1u);
  // Door rejections match the executor's overload-reject counter.
  EXPECT_EQ(snap.executor.rejected, snap.outcome(tf::Outcome::rejected));
}

// ---------------------------------------------------------------------------
// Observability surface.
// ---------------------------------------------------------------------------

TEST(Server, HealthzRendersTheSnapshot) {
  tf::Server server;
  auto& client = server.connect();
  (void)client.call({1});
  const std::string body = server.healthz();
  EXPECT_NE(body.find("status ok"), std::string::npos) << body;
  EXPECT_NE(body.find("submitted 1"), std::string::npos) << body;
  EXPECT_NE(body.find("accounted 1"), std::string::npos) << body;
  EXPECT_NE(body.find("p99_us "), std::string::npos) << body;
  std::ostringstream os;
  server.dump_state(os);
  EXPECT_NE(os.str().find("--- executor ---"), std::string::npos);
  server.shutdown();
  EXPECT_NE(server.healthz().find("status draining"), std::string::npos);
}

// Lines of `text` that start with `prefix`.
int lines_starting_with(const std::string& text, std::string_view prefix) {
  int n = 0;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, prefix.size(), prefix) == 0) ++n;
  }
  return n;
}

TEST(Server, HealthzAndStallReportPrintOneExecutorKeyList) {
  tf::ServerOptions opts;
  opts.executor.max_pending_topologies = 8;
  opts.executor.breaker_threshold = 2;
  tf::Server server(opts);
  (void)server.connect().call({1});

  std::vector<std::string> keys;
  server.executor().metrics().for_each(
      [&](std::string_view key, const auto&) { keys.emplace_back(key); });
  // The keys that /healthz scrapers read stay in the list under these names.
  for (const char* old_key :
       {"queue_depth", "scheduler_queue_depth", "workers", "adm_admitted",
        "adm_rejected", "adm_shed", "adm_pending", "adm_started", "breaker_trips",
        "breakers_open"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), old_key), keys.end()) << old_key;
  }
  const std::string body = server.healthz();
  const std::string report = server.executor().stall_report();
  for (const std::string& key : keys) {
    EXPECT_EQ(lines_starting_with(body, key + " "), 1) << key << "\n" << body;
    EXPECT_EQ(lines_starting_with(report, key + " "), 1) << key << "\n" << report;
  }
  EXPECT_NE(body.find("\nadm_admitted 1\n"), std::string::npos) << body;

  // Without admission control neither surface lists an admission key.
  tf::Server plain;
  (void)plain.connect().call({1});
  const std::string plain_body = plain.healthz();
  const std::string plain_report = plain.executor().stall_report();
  EXPECT_EQ(lines_starting_with(plain_body, "adm_"), 0) << plain_body;
  EXPECT_EQ(lines_starting_with(plain_report, "adm_"), 0) << plain_report;
  EXPECT_EQ(lines_starting_with(plain_body, "breaker"), 0) << plain_body;
  EXPECT_EQ(lines_starting_with(plain_body, "queue_depth "), 1) << plain_body;
}

TEST(Server, HealthzOverloadedWhileABreakerIsOpen) {
  tf::ServerOptions opts;
  opts.num_workers = 1;
  opts.executor.breaker_threshold = 1;
  opts.executor.breaker_cooldown = std::chrono::hours(1);
  // The fallback absorbs handler exceptions, so an expired deadline is how
  // a request run fails here.
  opts.deadline = 2ms;
  tf::Server server(opts);
  auto& client = server.connect();
  EXPECT_NE(server.healthz().find("status ok\n"), std::string::npos);
  EXPECT_EQ(client.call({1, 1, /*work=*/50ms}).outcome, tf::Outcome::timed_out);
  const std::string body = server.healthz();
  EXPECT_NE(body.find("status overloaded\n"), std::string::npos) << body;
  EXPECT_NE(body.find("\nbreakers_open 1\n"), std::string::npos) << body;
}

TEST(Server, HealthzOverloadedAtFullAdmissionThenDraining) {
  tf::ServerOptions opts;
  opts.num_workers = 1;
  opts.executor.max_pending_topologies = 1;
  tf::Server server(opts);
  auto& client = server.connect();
  client.submit({1, 1, /*work=*/60s});  // holds the one pending slot
  const std::string body = server.healthz();
  EXPECT_NE(body.find("status overloaded\n"), std::string::npos) << body;
  EXPECT_NE(body.find("\nadm_pending 1\nadm_pending_limit 1\n"), std::string::npos)
      << body;
  server.shutdown(tf::ShutdownMode::abort);  // cancels the long request
  EXPECT_NE(server.healthz().find("status draining\n"), std::string::npos);
  client.drain();
  EXPECT_EQ(client.count(tf::Outcome::cancelled), 1u);
}

TEST(LatencyHistogram, PercentileIsTheNearestRank) {
  // p99 of 150 samples is rank ceil(148.5) = 149: the first 1 ms sample.
  tf::LatencyHistogram tail;
  for (int i = 0; i < 148; ++i) tail.record(1us);
  for (int i = 0; i < 2; ++i) tail.record(1ms);
  EXPECT_GE(tail.percentile_us(99), 500.0);
  EXPECT_LT(tail.percentile_us(50), 2.0);

  // p99.9 of 1,000 samples is rank 999 exactly: still a 1 us sample.
  tf::LatencyHistogram exact;
  for (int i = 0; i < 999; ++i) exact.record(1us);
  exact.record(1ms);
  EXPECT_LT(exact.percentile_us(99.9), 2.0);
  EXPECT_GE(exact.percentile_us(100), 500.0);
  EXPECT_LT(exact.percentile_us(0), 2.0);  // rank clamps to the first sample
}

TEST(Server, ProbeServesHealthzOverASocket) {
  tf::Server server;
  auto& client = server.connect();
  (void)client.call({1});
  tf::HealthzProbe probe;
  if (!probe.start(server, 0)) {
    GTEST_SKIP() << "sockets unavailable in this environment";
  }
  ASSERT_GT(probe.port(), 0);
  const std::string reply = tf::probe_fetch(probe.port());
  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos) << reply;
  EXPECT_NE(reply.find("status ok"), std::string::npos) << reply;
  EXPECT_NE(reply.find("submitted 1"), std::string::npos) << reply;
  probe.stop();
  EXPECT_FALSE(probe.running());
}

// ---------------------------------------------------------------------------
// The soak contract: a chaos-mode multi-client storm loses nothing.
// ---------------------------------------------------------------------------

tf::ServerOptions storm_options() {
  tf::ServerOptions opts;
  opts.num_workers = 2;
  opts.executor.max_pending_topologies = 64;
  // Requests are sheddable only while queued in admission (each slot is a
  // distinct taskflow): cap concurrent starts so the watermark has a queue
  // to cut.
  opts.executor.max_concurrent_topologies = 8;
  opts.executor.shed_watermark = 48;
  opts.executor.breaker_threshold = 4;
  opts.admission = tf::AdmissionPolicy::block;
  opts.admission_timeout = 2ms;
  opts.deadline = 100ms;
  opts.max_attempts = 2;
  opts.retry_backoff = 10us;
  opts.client_window = 4;
  opts.chaos.enabled = true;
  opts.chaos.malformed_rate = 0.02;
  opts.chaos.exception_rate = 0.05;
  opts.chaos.stall_rate = 0.01;
  opts.chaos.stall = 200us;
  opts.chaos.seed = support::repro_fault_seed();
  return opts;
}

TEST(ServerSoak, StormWithChaosAccountsEveryRequest) {
  const auto iters = static_cast<std::uint64_t>(support::repro_soak_iters());
  constexpr std::uint64_t kClients = 24;
  tf::Server server(storm_options());

  // A /healthz prober renders the snapshot while the storm runs.
  std::atomic<bool> storming{true};
  std::atomic<int> bodies{0};
  std::thread prober([&] {
    do {
      const std::string body = server.healthz();
      if (body.rfind("status ", 0) == 0 && body.find("\nadm_pending ") != std::string::npos) {
        bodies++;
      }
      std::this_thread::sleep_for(100us);
    } while (storming.load(std::memory_order_relaxed));
  });

  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::uint64_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto& client = server.connect();
      for (std::uint64_t i = 0; i < iters; ++i) {
        tf::Request req;
        req.id = c * iters + i;
        req.priority = static_cast<int>(i % 3);
        req.work = 2us;
        client.submit(req);
        // Every 3rd client is a slow client: it stalls mid-stream while its
        // window stays in flight (chaos from the consumer side).
        if (c % 3 == 0 && i % 512 == 511) {
          std::this_thread::sleep_for(200us);
        }
      }
      client.drain();
    });
  }
  for (auto& t : threads) t.join();
  storming = false;
  prober.join();
  EXPECT_GT(bodies.load(), 0);

  const auto snap = server.metrics();
  const std::uint64_t total = kClients * iters;
  // Zero lost responses: every request accounted exactly once.
  EXPECT_EQ(snap.submitted, total);
  EXPECT_EQ(snap.accounted(), total);
  // No abort ran and every chaos exception was absorbed by the fallback.
  EXPECT_EQ(snap.outcome(tf::Outcome::cancelled), 0u);
  EXPECT_EQ(snap.outcome(tf::Outcome::failed), 0u);
  EXPECT_EQ(snap.outcome(tf::Outcome::shutdown_rejected), 0u);
  // Real responses flowed (the exact ok/shed/rejected split is load- and
  // machine-dependent; the identities above are the contract).
  EXPECT_GT(snap.completed(), 0u);
  // The executor's admission counters agree with the outcome split: door
  // rejections never reached it, everything else was admitted.
  EXPECT_EQ(snap.executor.admitted,
            total - snap.outcome(tf::Outcome::rejected));
  EXPECT_EQ(snap.executor.rejected, snap.outcome(tf::Outcome::rejected));
  EXPECT_EQ(snap.executor.shed, snap.outcome(tf::Outcome::shed));
  EXPECT_EQ(snap.executor.num_topologies, 0u);
  // Latency percentiles are populated and monotone.
  EXPECT_GT(snap.p50_us, 0.0);
  EXPECT_LE(snap.p50_us, snap.p99_us);
  EXPECT_LE(snap.p99_us, snap.p999_us);

  // Graceful drain under no load: shutdown after the storm is immediate and
  // the server refuses new work distinctly.
  server.shutdown(tf::ShutdownMode::drain);
  auto& late = server.connect();
  late.submit({99});
  EXPECT_EQ(late.count(tf::Outcome::shutdown_rejected), 1u);
}

TEST(ServerSoak, MidStormDrainShutdownLosesNothing) {
  tf::Server server(storm_options());
  constexpr std::uint64_t kClients = 8;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::uint64_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto& client = server.connect();
      std::uint64_t i = 0;
      // Keep storming until the shutdown is observed (plus a tail), so the
      // drain provably races live submissions from every client.
      while (client.count(tf::Outcome::shutdown_rejected) < 8 &&
             i < 2'000'000) {
        client.submit({c << 32 | i, static_cast<int>(i % 3), 2us});
        ++i;
      }
      client.drain();
    });
  }

  std::this_thread::sleep_for(20ms);  // let the storm build
  server.shutdown(tf::ShutdownMode::drain);  // under fire
  for (auto& t : threads) t.join();

  const auto snap = server.metrics();
  // Every handle was ready (drain() returned) and every submission landed in
  // exactly one outcome - nothing lost across the shutdown race.
  EXPECT_EQ(snap.accounted(), snap.submitted);
  EXPECT_GE(snap.outcome(tf::Outcome::shutdown_rejected), kClients);
  // drain (not abort): admitted work finished normally.
  EXPECT_EQ(snap.outcome(tf::Outcome::cancelled), 0u);
  EXPECT_EQ(snap.executor.num_topologies, 0u);
}

TEST(ServerSoak, AbortShutdownCancelsInFlightButAccountsThem) {
  tf::ServerOptions opts;
  opts.num_workers = 1;
  opts.client_window = 8;
  tf::Server server(opts);
  auto& client = server.connect();
  for (std::uint64_t i = 0; i < 8; ++i) {
    client.submit({i, 1, /*work=*/20ms});
  }
  server.shutdown(tf::ShutdownMode::abort);
  client.drain();
  const auto snap = server.metrics();
  EXPECT_EQ(snap.submitted, 8u);
  EXPECT_EQ(snap.accounted(), 8u);
  EXPECT_GE(snap.outcome(tf::Outcome::cancelled), 1u);
}

}  // namespace

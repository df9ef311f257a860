// workloads.cpp - the four workloads of bench_e2e and their output checks.
//
// Every workload uses only public API: Taskflow::emplace/precede,
// Executor::run + ExecutionHandle::get, the backend's stats(), the timers,
// ServerClient::submit + Response, Server::metrics(), and the observer hook.
// Reference results are computed after the timed section.
#include <omp.h>
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <sstream>
#include <thread>

#include "run.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"
#include "taskflow/taskflow.hpp"
#include "timer/modifier.hpp"
#include "timer/timers.hpp"

namespace e2e {

namespace {

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

std::string mismatch(const std::string& where, double expected, double actual) {
  std::ostringstream os;
  os.precision(17);
  os << where << ": expected " << expected << " actual " << actual;
  return os.str();
}

std::string op_label(std::size_t op) { return "op " + std::to_string(op); }

// ---------------------------------------------------------------------------
// wavefront
// ---------------------------------------------------------------------------

/// One block: the paper's wavefront node operation, a dependent chain of
/// `work` additions (~1 us for the 500-1500 iterations drawn per block).
double node_op(double in, int work) {
  double acc = in + 1.0;
  for (int k = 0; k < work; ++k) acc += 1e-9 * static_cast<double>(k);
  return acc;
}

/// An nb x nb block grid: block (i, j) reads its upper and left neighbours.
struct Grid {
  Grid(int blocks, std::uint64_t seed)
      : nb(blocks), work(static_cast<std::size_t>(blocks) * static_cast<std::size_t>(blocks)),
        value(work.size(), 0.0) {
    support::Xoshiro256 rng(seed);
    for (int& w : work) w = static_cast<int>(rng.range(500, 1500));
  }

  [[nodiscard]] int up(int k) const { return k >= nb ? k - nb : -1; }
  [[nodiscard]] int left(int k) const { return k % nb != 0 ? k - 1 : -1; }
  void compute(int k) {
    const double u = up(k) >= 0 ? value[static_cast<std::size_t>(up(k))] : 0.0;
    const double l = left(k) >= 0 ? value[static_cast<std::size_t>(left(k))] : 0.0;
    value[static_cast<std::size_t>(k)] = node_op(u + l, work[static_cast<std::size_t>(k)]);
  }

  double sequential() {
    for (int k = 0; k < static_cast<int>(work.size()); ++k) compute(k);
    return value.back();
  }

  /// OpenMP task-depend baseline; a missing neighbour depends on a token
  /// nobody writes.
  double openmp(int threads) {
    const int n = static_cast<int>(work.size());
    std::vector<char> token(work.size() + 1);
    [[maybe_unused]] char* tok = token.data();  // GCC does not count depend() as a use
#pragma omp parallel num_threads(threads)
#pragma omp single
    for (int k = 0; k < n; ++k) {
      const int u = up(k) >= 0 ? up(k) : n;
      const int l = left(k) >= 0 ? left(k) : n;
#pragma omp task firstprivate(k) depend(in : tok[u], tok[l]) depend(out : tok[k])
      compute(k);
    }
    return value.back();
  }

  int nb;
  std::vector<int> work;
  std::vector<double> value;
};

/// Time `reps` calls of `fn` as samples of `key`.
template <typename F>
void baseline(Run& run, const std::string& key, int reps, F&& fn) {
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn();
    run.sample(key, us(now_ns() - t0));
  }
}

}  // namespace

void wavefront(Run& run) {
  const Config& cfg = run.config();
  Grid grid(cfg.smoke ? 16 : 128, cfg.seed);
  const auto n = static_cast<int>(grid.work.size());
  std::vector<tf::Task> task(grid.work.size());
  std::vector<double> final_cell;
  Tracer* tracer = run.tracer();
  {
    tf::Executor executor(kGraphWorkers);
    // One op: build a fresh grid graph, run it, wait, destroy it.  Ops with
    // a negative id are warm-up and record nothing.
    auto op = [&](std::int64_t id) {
      const std::int64_t t0 = now_ns();
      auto flow = std::make_unique<tf::Taskflow>();
      Grid* g = &grid;
      std::size_t edges = 0;
      for (int k = 0; k < n; ++k) {
        task[static_cast<std::size_t>(k)] = flow->emplace([g, k] { g->compute(k); });
        if (grid.up(k) >= 0) {
          task[static_cast<std::size_t>(grid.up(k))].precede(task[static_cast<std::size_t>(k)]);
          ++edges;
        }
        if (grid.left(k) >= 0) {
          task[static_cast<std::size_t>(grid.left(k))].precede(task[static_cast<std::size_t>(k)]);
          ++edges;
        }
      }
      const auto nodes = static_cast<double>(flow->num_nodes());
      const std::int64_t t1 = now_ns();
      tf::ExecutionHandle handle = executor.run(*flow);
      const std::int64_t t2 = now_ns();
      std::string error;
      try {
        handle.get();
      } catch (const std::exception& e) {
        error = e.what();
      }
      const std::int64_t t3 = now_ns();
      flow.reset();
      const std::int64_t t4 = now_ns();
      if (id < 0) return;

      const auto op_index = static_cast<std::size_t>(id);
      run.attempt();
      if (!error.empty()) run.fail(op_label(op_index) + ": run threw: " + error);
      final_cell.push_back(grid.value.back());
      run.sample("op_us", us(t4 - t0));
      run.sample("graph.build_us", us(t1 - t0));
      run.sample("executor.submit_us", us(t2 - t1));
      run.sample("executor.wait_us", us(t3 - t2));
      run.sample("graph.teardown_us", us(t4 - t3));
      run.total("nodes", nodes);
      run.total("edges", static_cast<double>(edges));
      run.total("tasks", nodes);
      if (tracer != nullptr) {
        tracer->add_op({{"op", t0, t4, -1, 0, id},
                        {"graph.build", t0, t1, 0, 0, id},
                        {"executor.submit", t1, t2, 0, 0, id},
                        {"executor.wait", t2, t3, 0, 0, id},
                        {"graph.teardown", t3, t4, 0, 0, id}},
                       3);
      }
    };

    for (int i = 0; i < 5; ++i) op(-1);
    if (tracer != nullptr) executor.set_observer(tracer->observer());
    run.start_timed(*executor.backend());
    for (std::int64_t id = 0; id == 0 || run.time_left(); ++id) op(id);
    run.stop_timed();
  }

  const double expected = grid.sequential();
  for (std::size_t i = 0; i < final_cell.size(); ++i) {
    if (final_cell[i] != expected) run.fail(mismatch(op_label(i) + ": final cell", expected, final_cell[i]));
  }
  if (tracer != nullptr) {
    // Baselines for the README's comparison; not end-to-end metrics.
    baseline(run, "baseline.seq_op_us", 10, [&] { grid.sequential(); });
    baseline(run, "baseline.omp_op_us", 10, [&] {
      const double got = grid.openmp(static_cast<int>(kGraphWorkers));
      if (got != expected) run.fail(mismatch("OpenMP baseline: final cell", expected, got));
    });
  }
}

// ---------------------------------------------------------------------------
// timing_full / timing_incr
// ---------------------------------------------------------------------------

namespace {

/// The designs are the fixed presets of the paper's circuits; the seed picks
/// the timing constraints, which change every value but not the work.
ot::TimerOptions timer_options(std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  ot::TimerOptions opt;
  opt.num_threads = kGraphWorkers;
  opt.clock_period = rng.uniform(1.5, 2.5);
  opt.input_slew = rng.uniform(0.03, 0.08);
  opt.corners = 8;
  return opt;
}

/// Warm up, then time `update()` + worst_slack() per op until the section
/// ends.  Returns the worst slack after each timed op (NaN when the update
/// threw).
template <typename Update>
std::vector<double> timer_ops(Run& run, ot::TimerV2& timer, const tf::ExecutorInterface& ex,
                              int warmup, Update&& update) {
  for (int i = 0; i < warmup; ++i) {
    update();
    (void)timer.worst_slack();
  }
  Tracer* tracer = run.tracer();
  if (tracer != nullptr) timer.set_observer(tracer->observer());
  std::vector<double> slack;
  run.start_timed(ex);
  for (std::int64_t id = 0; id == 0 || run.time_left(); ++id) {
    const std::int64_t t0 = now_ns();
    std::string error;
    try {
      update();
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::int64_t t1 = now_ns();
    const double s = timer.worst_slack();
    const std::int64_t t2 = now_ns();

    run.attempt();
    if (!error.empty()) run.fail(op_label(slack.size()) + ": update threw: " + error);
    slack.push_back(error.empty() ? s : std::nan(""));
    run.sample("op_us", us(t2 - t0));
    run.sample("timer.update_us", us(t1 - t0));
    run.sample("timer.query_us", us(t2 - t1));
    run.total("tasks", static_cast<double>(timer.last_update_tasks()));
    if (tracer != nullptr) {
      tracer->add_op({{"op", t0, t2, -1, 0, id},
                      {"timer.update", t0, t1, 0, 0, id},
                      {"timer.query", t1, t2, 0, 0, id}},
                     1);
    }
  }
  run.stop_timed();
  return slack;
}

/// Equal up to the rounding of a different summation order.
bool same(double expected, double actual) {
  return expected == actual ||
         std::abs(expected - actual) <= 1e-9 * std::max(1.0, std::abs(expected));
}

}  // namespace

void timing_full(Run& run) {
  const Config& cfg = run.config();
  const auto lib = ot::CellLibrary::make_synthetic();
  ot::Netlist nl = ot::make_circuit(lib, ot::leon3mp_spec(cfg.smoke ? 0.0005 : 0.01));
  const ot::TimerOptions opt = timer_options(cfg.seed);

  std::vector<double> slack;
  {
    auto executor = tf::make_executor(kGraphWorkers);
    ot::TimerV2 timer(nl, opt, executor);
    slack = timer_ops(run, timer, *executor, 3, [&] { timer.full_update(); });
  }

  ot::SeqTimer ref(nl, opt);
  ref.full_update();
  const double expected = ref.worst_slack();
  for (std::size_t i = 0; i < slack.size(); ++i) {
    if (!same(expected, slack[i])) run.fail(mismatch(op_label(i) + ": worst slack", expected, slack[i]));
  }
  if (run.tracer() != nullptr) {
    baseline(run, "timer.seq_update_us", 10, [&] { ref.full_update(); });
    ot::TimerV1 v1(nl, opt);
    baseline(run, "timer.v1_update_us", 10, [&] { v1.full_update(); });
    if (!same(expected, v1.worst_slack())) {
      run.fail(mismatch("TimerV1 baseline: worst slack", expected, v1.worst_slack()));
    }
  }
}

void timing_incr(Run& run) {
  const Config& cfg = run.config();
  const auto lib = ot::CellLibrary::make_synthetic();
  const ot::CircuitSpec spec = ot::tv80_spec(cfg.smoke ? 0.05 : 1.0);
  ot::Netlist nl = ot::make_circuit(lib, spec);
  const ot::TimerOptions opt = timer_options(cfg.seed);
  constexpr int kWarmup = 20;

  std::size_t ops = 0;
  {
    auto executor = tf::make_executor(kGraphWorkers);
    ot::TimerV2 timer(nl, opt, executor);
    timer.full_update();
    ot::ModifierStream mods(nl, cfg.seed);
    ops = timer_ops(run, timer, *executor, kWarmup, [&] {
            const ot::Modification m = mods.next();
            timer.resize(m.gate, *m.new_cell);
          }).size();

    // Every pin of the final netlist against a fresh sequential full update.
    ot::SeqTimer ref(nl, opt);
    ref.full_update();
    const std::string after = "after " + op_label(ops - 1) + ": pin ";
    for (int pin = 0; pin < static_cast<int>(nl.num_pins()) && run.ok(); ++pin) {
      for (int split = 0; split < 2; ++split) {
        for (int tran = 0; tran < 2; ++tran) {
          if (!same(ref.arrival(pin, split, tran), timer.arrival(pin, split, tran))) {
            run.fail(mismatch(after + std::to_string(pin) + " arrival", ref.arrival(pin, split, tran),
                              timer.arrival(pin, split, tran)));
          }
        }
      }
      if (!same(ref.slack_late(pin), timer.slack_late(pin))) {
        run.fail(mismatch(after + std::to_string(pin) + " late slack", ref.slack_late(pin),
                          timer.slack_late(pin)));
      }
      if (!same(ref.slack_early(pin), timer.slack_early(pin))) {
        run.fail(mismatch(after + std::to_string(pin) + " early slack", ref.slack_early(pin),
                          timer.slack_early(pin)));
      }
    }
  }

  if (run.tracer() != nullptr) {
    // Replay the same modifier stream on fresh copies of the design.
    const int reps = static_cast<int>(std::min<std::size_t>(ops, 100));
    auto replay = [&](ot::TimerBase& timer, ot::Netlist& design, const std::string& key) {
      timer.full_update();
      ot::ModifierStream mods(design, cfg.seed);
      for (int i = 0; i < kWarmup; ++i) {
        const ot::Modification m = mods.next();
        timer.resize(m.gate, *m.new_cell);
      }
      baseline(run, key, reps, [&] {
        const ot::Modification m = mods.next();
        timer.resize(m.gate, *m.new_cell);
      });
    };
    ot::Netlist nl_seq = ot::make_circuit(lib, spec);
    ot::SeqTimer seq(nl_seq, opt);
    replay(seq, nl_seq, "timer.seq_update_us");
    ot::Netlist nl_v1 = ot::make_circuit(lib, spec);
    ot::TimerV1 v1(nl_v1, opt);
    replay(v1, nl_v1, "timer.v1_update_us");
  }
}

// ---------------------------------------------------------------------------
// service_poisson
// ---------------------------------------------------------------------------

void service_poisson(Run& run) {
  const Config& cfg = run.config();
  constexpr std::size_t kGenerators = 2;
  constexpr double kRatePerGenerator = 15000.0;  // requests per second
  constexpr std::chrono::microseconds kWork{20};
  const std::size_t warmup = cfg.smoke ? 64 : 2000;

  tf::ServerOptions opts;
  opts.num_workers = 2;
  opts.executor.max_pending_per_client = 64;
  opts.client_window = 64;
  tf::Server server(opts);

  struct Generator {
    tf::ServerClient* client{nullptr};
    std::vector<std::int64_t> due;    // arrival offset from the section start
    std::vector<std::int64_t> begin;  // submit() entry and exit
    std::vector<std::int64_t> end;
    std::vector<std::int64_t> server_ns;  // Response.latency
    std::vector<tf::Outcome> outcome;
  };
  std::array<Generator, kGenerators> gens;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    Generator& gen = gens[g];
    gen.client = &server.connect();
    support::Xoshiro256 rng(cfg.seed * kGenerators + g);
    const double horizon_ns = cfg.seconds * 1e9;
    for (double t = 0;;) {
      t += -std::log(1.0 - rng.uniform()) / kRatePerGenerator * 1e9;
      if (t >= horizon_ns) break;
      gen.due.push_back(static_cast<std::int64_t>(t));
    }
    const std::size_t n = gen.due.size();
    gen.begin.assign(n, 0);
    gen.end.assign(n, 0);
    gen.server_ns.assign(n, 0);
    gen.outcome.assign(n, tf::Outcome::failed);
  }

  // Warm up, counting the tasks one request runs.
  auto counter = std::make_shared<TaskObserver>();
  server.executor().set_observer(counter);
  for (Generator& gen : gens) {
    for (std::size_t i = 0; i < warmup; ++i) gen.client->submit(tf::Request{i, 1, kWork});
    gen.client->drain();
  }
  std::vector<Span> counted;
  counter->take(counted, -1, -1);
  const double tasks_per_request =
      static_cast<double>(counted.size()) / static_cast<double>(kGenerators * warmup);
  Tracer* tracer = run.tracer();
  server.executor().set_observer(tracer != nullptr ? tracer->observer() : nullptr);

  for (Generator& gen : gens) {
    gen.client->set_response_sink([&gen](const tf::Response& r) {
      gen.server_ns[r.id] = r.latency.count();
      gen.outcome[r.id] = r.outcome;
    });
  }
  const tf::MetricsSnapshot before = server.metrics();
  run.start_timed(*server.executor().backend());
  const std::int64_t start = now_ns() + 1000000;  // every generator's time zero
  {
    std::vector<std::thread> threads;
    for (Generator& gen : gens) {
      threads.emplace_back([&gen, start] {
        // Wake at the due time, not up to 50 us after it.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        for (std::size_t i = 0; i < gen.due.size(); ++i) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(start + gen.due[i])));
          gen.begin[i] = now_ns();
          gen.client->submit(tf::Request{i, 1, kWork});
          gen.end[i] = now_ns();
        }
        gen.client->drain();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::int64_t stop = now_ns();
  run.stop_timed();

  std::vector<Span> spans;
  std::size_t ok = 0;
  for (std::size_t g = 0; g < kGenerators; ++g) {
    const Generator& gen = gens[g];
    const auto tid = static_cast<std::int32_t>(100 + g);
    for (std::size_t i = 0; i < gen.due.size(); ++i) {
      const std::int64_t due = start + gen.due[i];
      const auto id = static_cast<std::int64_t>((g << 32) | i);
      run.attempt();
      if (gen.outcome[i] != tf::Outcome::ok) {
        run.fail("request " + std::to_string(g) + ":" + std::to_string(i) +
                 ": expected outcome ok actual " + tf::to_string(gen.outcome[i]));
        continue;
      }
      ++ok;
      // Due time to submit() exit, plus the server's own admission-to-
      // response time: an upper bound that counts the run() call twice.
      run.sample("op_us", us(gen.end[i] - due + gen.server_ns[i]));
      run.sample("service.submit_us", us(gen.end[i] - gen.begin[i]));
      run.sample("service.server_us", us(gen.server_ns[i]));
      run.sample("loadgen.late_us", us(gen.begin[i] - due));
      if (tracer != nullptr) {
        spans.push_back({"op", due, gen.end[i], -1, tid, id});
        spans.push_back({"service.submit", gen.begin[i], gen.end[i],
                         static_cast<std::int32_t>(spans.size() - 1), tid, id});
      }
    }
  }
  if (tracer != nullptr) tracer->add_run(std::move(spans), start, stop);

  const tf::MetricsSnapshot after = server.metrics();
  if (after.accounted() != after.submitted) {
    run.fail(mismatch("accounted responses", static_cast<double>(after.submitted),
                      static_cast<double>(after.accounted())));
  }
  run.total("tasks", tasks_per_request * static_cast<double>(ok));
  run.total("service.ok", static_cast<double>(ok));
  run.total("service.admitted",
            static_cast<double>(after.executor.admitted - before.executor.admitted));
  run.total("service.rejected",
            static_cast<double>(after.executor.rejected - before.executor.rejected));
  run.total("service.shed", static_cast<double>(after.executor.shed - before.executor.shed));
}

}  // namespace e2e

#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>

namespace e2e {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Thinned::add(double v) {
  if (_seen++ % _stride != 0) return;
  _kept.push_back(v);
  if (_kept.size() < kCap) return;
  std::size_t j = 0;
  for (std::size_t i = 0; i < _kept.size(); i += 2) _kept[j++] = _kept[i];
  _kept.resize(j);
  _stride *= 2;
}

double Thinned::median() const {
  if (_kept.empty()) return 0.0;
  std::vector<double> v = _kept;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

void TaskObserver::set_up(std::size_t num_workers) {
  _lanes = std::vector<Lane>(num_workers);
  for (Lane& lane : _lanes) lane.stamps.reserve(1u << 16);
}

void TaskObserver::on_entry(std::size_t worker_id, const tf::Node&) {
  if (worker_id < _lanes.size()) _lanes[worker_id].open = now_ns();
}

void TaskObserver::on_exit(std::size_t worker_id, const tf::Node&) {
  if (worker_id >= _lanes.size()) return;
  Lane& lane = _lanes[worker_id];
  lane.stamps.push_back(lane.open);
  lane.stamps.push_back(now_ns());
}

void TaskObserver::take(std::vector<Span>& out, std::int32_t parent, std::int64_t op) {
  for (std::size_t w = 0; w < _lanes.size(); ++w) {
    std::vector<std::int64_t>& s = _lanes[w].stamps;
    for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
      out.push_back(Span{"scheduler.task", s[i], s[i + 1], parent,
                         static_cast<std::int32_t>(w + 1), op});
    }
    s.clear();
  }
}

namespace {

/// Extent and worker spread of one op's tasks.  The observer hands tasks
/// over lane by lane, each lane in time order, so a run of equal tids is
/// one worker's whole share and consecutive spans in it bound a gap.
struct TaskSummary {
  std::int64_t first{std::numeric_limits<std::int64_t>::max()};
  std::int64_t last{std::numeric_limits<std::int64_t>::min()};
  std::size_t count{0};
  std::size_t max_per_worker{0};
};

}  // namespace

void Tracer::add_op(std::vector<Span> spans, std::int32_t task_parent) {
  const Span window = spans[static_cast<std::size_t>(task_parent)];
  const std::size_t from = spans.size();
  _observer->take(spans, task_parent, spans[0].op);

  TaskSummary t;
  std::size_t run = 0;
  for (std::size_t i = from; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto dur = static_cast<double>(s.end_ns - s.begin_ns);
    _busy_ns += dur;
    _body_ns.add(dur);
    t.first = std::min(t.first, s.begin_ns);
    t.last = std::max(t.last, s.end_ns);
    ++t.count;
    if (i > from && spans[i - 1].tid == s.tid) {
      _gap_ns.add(static_cast<double>(s.begin_ns - spans[i - 1].end_ns));
      ++run;
    } else {
      run = 1;
    }
    t.max_per_worker = std::max(t.max_per_worker, run);
  }
  _window_ns += static_cast<double>(_observer->num_workers()) *
                static_cast<double>(window.end_ns - window.begin_ns);
  _ops += 1;
  if (t.count > 0) {
    _first_task_us.add(static_cast<double>(t.first - window.begin_ns) / 1e3);
    _drain_us.add(static_cast<double>(window.end_ns - t.last) / 1e3);
    if (static_cast<double>(t.max_per_worker) > 0.9 * static_cast<double>(t.count)) {
      _serial_ops += 1;
    }
  }
  fold(spans);
}

void Tracer::add_run(std::vector<Span> spans, std::int64_t window_begin,
                     std::int64_t window_end) {
  const std::size_t from = spans.size();
  _observer->take(spans, -1, -1);
  for (std::size_t i = from; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto dur = static_cast<double>(s.end_ns - s.begin_ns);
    _busy_ns += dur;
    _body_ns.add(dur);
    if (i > from && spans[i - 1].tid == s.tid) {
      _gap_ns.add(static_cast<double>(s.begin_ns - spans[i - 1].end_ns));
    }
  }
  _window_ns += static_cast<double>(_observer->num_workers()) *
                static_cast<double>(window_end - window_begin);
  fold(spans);
}

void Tracer::fold(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.begin_ns, s.end_ns);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& c = kids[i];
    std::sort(c.begin(), c.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.begin_ns;
    for (auto [b, e] : c) {
      b = std::max(b, reach);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    SelfTime& st = _self[s.name];
    st.calls += 1;
    st.total_us += static_cast<double>(s.end_ns - s.begin_ns) / 1e3;
    st.self_us += static_cast<double>(s.end_ns - s.begin_ns - covered) / 1e3;

    const bool task = s.tid > 0 && s.tid < 100;
    if (task ? _kept_tasks < kKeptTaskSpans : _kept.size() - _kept_tasks < kKeptLayerSpans) {
      _kept.push_back(s);
      _kept_tasks += task ? 1 : 0;
    }
  }
}

std::map<std::string, double> Tracer::metrics() const {
  return {
      {"scheduler.busy_share", _window_ns > 0 ? _busy_ns / _window_ns : 0.0},
      {"scheduler.body_ns_p50", _body_ns.median()},
      {"scheduler.gap_ns_p50", _gap_ns.median()},
      {"scheduler.first_task_us", _first_task_us.median()},
      {"scheduler.drain_us", _drain_us.median()},
      {"scheduler.serial_ops_ratio", _ops > 0 ? _serial_ops / _ops : 0.0},
  };
}

void Tracer::write_chrome(std::ostream& os) const {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : _kept) origin = std::min(origin, s.begin_ns);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < _kept.size(); ++i) {
    const Span& s = _kept[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.begin_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                  static_cast<long long>(s.op));
    os << buf;
  }
  os << "\n]}\n";
}

}  // namespace e2e

#include "taskflow/timer_queue.hpp"

#include <algorithm>

namespace tf {
namespace detail {

TimerQueue::TimerId TimerQueue::schedule_after(std::chrono::nanoseconds delay,
                                               Callback fn) {
  const Clock::time_point due =
      Clock::now() + std::max(delay, std::chrono::nanoseconds{0});

  std::unique_lock lock(_mutex);
  if (_stop) return {};  // shutting down: drop (see stop() contract)
  // Start the thread before touching any queue state: a failed start throws
  // with nothing changed, and the next call tries again.
  if (!_thread.joinable()) _thread = std::thread([this] { service_loop(); });
  const TimerId id{due, _next_seq};
  const bool earliest = _entries.empty() || id < _entries.begin()->first;
  _entries.emplace(id, std::move(fn));
  ++_next_seq;
  lock.unlock();
  // Only a new earliest entry moves the thread's wakeup time.
  if (earliest) _cv.notify_one();
  return id;
}

bool TimerQueue::cancel(TimerId id) {
  if (!id) return false;
  Callback fn;  // destroyed outside the lock, before returning
  {
    std::scoped_lock lock(_mutex);
    auto it = _entries.find(id);
    if (it == _entries.end()) return false;
    fn = std::move(it->second);
    _entries.erase(it);
  }
  return true;
}

std::size_t TimerQueue::num_pending() const {
  std::scoped_lock lock(_mutex);
  return _entries.size();
}

void TimerQueue::stop() {
  std::map<TimerId, Callback> dropped;  // destroyed outside the lock
  {
    std::scoped_lock lock(_mutex);
    _stop = true;
    dropped.swap(_entries);
  }
  _cv.notify_all();
  // No schedule_after() can start the thread once _stop is set.
  if (_thread.joinable()) _thread.join();
}

void TimerQueue::service_loop() {
  std::unique_lock lock(_mutex);
  while (!_stop) {
    if (_entries.empty()) {
      _cv.wait(lock);
      continue;
    }
    const auto first = _entries.begin();
    // A copy: cancel() may erase the entry while the thread waits.
    const Clock::time_point due = first->first.due;
    if (Clock::now() < due) {
      // Sleep until the earliest entry is due; a new earliest entry or
      // stop() wakes the thread sooner.  Either way the loop re-checks.
      _cv.wait_until(lock, due);
      continue;
    }
    {
      Callback fn = std::move(first->second);
      _entries.erase(first);
      lock.unlock();
      fn();  // may re-enter schedule_after/cancel
    }  // captured state released before the lock is re-taken
    lock.lock();
  }
}

}  // namespace detail
}  // namespace tf

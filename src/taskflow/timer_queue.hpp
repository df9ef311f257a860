// timer_queue.hpp - detail::TimerQueue, the monotonic delayed-callback engine
// behind the resilience layer (retry backoff, run deadlines, cancel_after).
//
// One ordered map keyed by (due time, sequence number) and one background
// thread that sleeps until the earliest entry is due: an idle or far-off
// queue costs no wakeups.  The thread is created lazily by the first
// schedule_after() call, so executors that never use a resilience feature
// never pay a thread.  No worker ever blocks on a delay: a retrying task
// parks its node *here* and the worker moves on to other work.
//
// Entries are cancelable (deadline timers of runs that finish in time are
// withdrawn so they don't pin the run's error state until expiry), and all
// callbacks run on the timer thread outside the queue lock - a callback may
// re-enter schedule_after()/cancel().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

namespace tf {
namespace detail {

class TimerQueue {
 public:
  using Callback = std::function<void()>;
  using Clock = std::chrono::steady_clock;

  /// An entry's map key: its due time plus a tie-breaking sequence number
  /// (0 = no entry), so cancel() is a single erase.
  struct TimerId {
    Clock::time_point due{};
    std::uint64_t seq{0};
    explicit operator bool() const noexcept { return seq != 0; }
    friend auto operator<=>(const TimerId&, const TimerId&) = default;
  };

  TimerQueue() = default;
  ~TimerQueue() { stop(); }

  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  /// Arrange for `fn` to run on the timer thread no earlier than `delay`
  /// from now.  Returns an id usable with cancel() (an empty id once
  /// stopped).  Starts the timer thread on first use.
  TimerId schedule_after(std::chrono::nanoseconds delay, Callback fn);

  /// Withdraw a pending entry.  Returns true when the entry had not fired
  /// yet: its callback will never run, and it (with its captured state) has
  /// been destroyed by the time cancel() returns.  False when it already
  /// fired, was already cancelled, or the id is empty.
  bool cancel(TimerId id);

  /// Entries scheduled and not yet fired/cancelled (diagnostic snapshot).
  [[nodiscard]] std::size_t num_pending() const;

  /// Drop every pending entry without firing it and join the timer thread:
  /// the owning executor only stops the queue after it has drained all work
  /// that could still be waiting on a timer.  Idempotent.
  void stop();

 private:
  void service_loop();

  mutable std::mutex _mutex;
  std::condition_variable _cv;
  std::map<TimerId, Callback> _entries;
  std::uint64_t _next_seq{1};
  bool _stop{false};
  std::thread _thread;  // joinable once started
};

}  // namespace detail
}  // namespace tf

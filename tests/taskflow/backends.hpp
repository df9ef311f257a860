// Scheduler backends of the taskflow tests.
//
//  * make_backend(kind, n): the two scheduling disciplines every
//    parameterized suite runs under.  "work_stealing" is the default
//    WorkStealingExecutor.  "nocache_steal0" turns off the worker cache and
//    the steal rounds, so every released successor goes through a deque and
//    external submissions drain through the central queue and the park
//    claim.
//  * CustomBackend: a minimal backend outside the library, one worker thread
//    draining a mutex-guarded FIFO.  It implements only the two pure
//    virtuals of the plug-in contract (paper §III-E), schedule_batch and
//    num_workers, so the tests that run on it check that a backend needs
//    nothing else: task invocation, error capture, subflows, retry timers
//    and the default stats() all come from ExecutorInterface.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

#include "taskflow/executor.hpp"

namespace tf_test {

inline std::shared_ptr<tf::ExecutorInterface> make_backend(std::string_view kind,
                                                           std::size_t n) {
  if (kind == "nocache_steal0") {
    return tf::make_executor(n, {.enable_worker_cache = false, .steal_rounds = 0});
  }
  return tf::make_executor(n);
}

class CustomBackend final : public tf::ExecutorInterface {
 public:
  CustomBackend() : _thread([this] { loop(); }) {}

  ~CustomBackend() override {
    timers().stop();  // timer callbacks call schedule_batch
    {
      std::scoped_lock lock(_mutex);
      _stop = true;
    }
    _cv.notify_one();
    _thread.join();
  }

  CustomBackend(const CustomBackend&) = delete;
  CustomBackend& operator=(const CustomBackend&) = delete;

  void schedule_batch(tf::Node* const* nodes, std::size_t n) override {
    {
      std::scoped_lock lock(_mutex);
      _queue.insert(_queue.end(), nodes, nodes + n);
    }
    _cv.notify_one();
  }

  [[nodiscard]] std::size_t num_workers() const noexcept override { return 1; }

 private:
  void loop() {
    std::unique_lock lock(_mutex);
    for (;;) {
      _cv.wait(lock, [this] { return _stop || !_queue.empty(); });
      if (_queue.empty()) return;  // stopped and drained
      tf::Node* node = _queue.front();
      _queue.pop_front();
      lock.unlock();
      run_task(0, node);
      lock.lock();
    }
  }

  std::mutex _mutex;
  std::condition_variable _cv;
  std::deque<tf::Node*> _queue;
  bool _stop{false};
  std::thread _thread;  // declared last: starts after the state above exists
};

}  // namespace tf_test

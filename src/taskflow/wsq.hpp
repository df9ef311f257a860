// wsq.hpp - Chase-Lev work-stealing deque.
//
// Each worker of tf::WorkStealingExecutor owns one of these queues: the
// owner pushes and pops at the bottom, thieves steal from the top.  The
// implementation follows the C11-memory-model formulation of Le, Pop,
// Cohen and Zappa Nardelli, "Correct and Efficient Work-Stealing for Weak
// Memory Models" (PPoPP'13), with a growable circular array.
//
// The element type must be trivially copyable (we store raw Node*).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

// ThreadSanitizer does not model standalone std::atomic_thread_fence, so the
// fence-based formulation is reported as racy even though it is correct.
// Under TSan we substitute per-operation seq_cst orderings (strictly
// stronger, so still correct - just slower), keeping the suite race-checkable.
#if defined(__SANITIZE_THREAD__)
#define TF_WSQ_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TF_WSQ_TSAN 1
#endif
#endif
#ifndef TF_WSQ_TSAN
#define TF_WSQ_TSAN 0
#endif

namespace tf {

template <typename T>
class WorkStealingQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "WorkStealingQueue requires a trivially copyable element");

  struct Array {
    std::int64_t cap;
    std::int64_t mask;
    std::atomic<T>* slots;

    explicit Array(std::int64_t c)
        : cap{c}, mask{c - 1}, slots{new std::atomic<T>[static_cast<std::size_t>(c)]} {}

    ~Array() { delete[] slots; }

    Array(const Array&) = delete;
    Array& operator=(const Array&) = delete;

    void put(std::int64_t i, T item) noexcept {
      slots[i & mask].store(item, std::memory_order_relaxed);
    }

    T get(std::int64_t i) const noexcept {
      return slots[i & mask].load(std::memory_order_relaxed);
    }

    Array* grow(std::int64_t bottom, std::int64_t top) {
      auto* bigger = new Array{2 * cap};
      for (std::int64_t i = top; i != bottom; ++i) bigger->put(i, get(i));
      return bigger;
    }
  };

 public:
  /// `capacity` must be a power of two.
  explicit WorkStealingQueue(std::int64_t capacity = 1024) {
    assert(capacity > 0 && (capacity & (capacity - 1)) == 0);
    _array.store(new Array{capacity}, std::memory_order_relaxed);
    _garbage.reserve(32);
  }

  ~WorkStealingQueue() {
    for (auto* a : _garbage) delete a;
    delete _array.load(std::memory_order_relaxed);
  }

  WorkStealingQueue(const WorkStealingQueue&) = delete;
  WorkStealingQueue& operator=(const WorkStealingQueue&) = delete;

  /// True when no items are visible.  Callable from any thread.
  [[nodiscard]] bool empty() const noexcept {
    const std::int64_t b = _bottom.load(std::memory_order_relaxed);
    const std::int64_t t = _top.load(std::memory_order_relaxed);
    return b <= t;
  }

  /// Approximate size.  Callable from any thread.
  [[nodiscard]] std::size_t size() const noexcept {
    const std::int64_t b = _bottom.load(std::memory_order_relaxed);
    const std::int64_t t = _top.load(std::memory_order_relaxed);
    return static_cast<std::size_t>(b >= t ? b - t : 0);
  }

  [[nodiscard]] std::int64_t capacity() const noexcept {
    return _array.load(std::memory_order_relaxed)->cap;
  }

  /// Owner-only: push one item at the bottom.
  void push(T item) {
    const std::int64_t b = _bottom.load(std::memory_order_relaxed);
    const std::int64_t t = _top.load(std::memory_order_acquire);
    Array* a = _array.load(std::memory_order_relaxed);

    if (a->cap - 1 < (b - t)) {
      Array* bigger = a->grow(b, t);
      _garbage.push_back(a);
      _array.store(bigger, std::memory_order_release);
      a = bigger;
    }

    a->put(b, item);
    // Release store on bottom publishes the slot (and everything the owner
    // saw before pushing) to thieves' acquire loads - equivalent to the
    // paper's release fence + relaxed store, and visible to TSan.
    _bottom.store(b + 1, std::memory_order_release);
  }

  /// Owner-only: pop the most recently pushed item (LIFO).
  std::optional<T> pop() {
    const std::int64_t b = _bottom.load(std::memory_order_relaxed) - 1;
    Array* a = _array.load(std::memory_order_relaxed);
#if TF_WSQ_TSAN
    _bottom.store(b, std::memory_order_seq_cst);
    std::int64_t t = _top.load(std::memory_order_seq_cst);
#else
    _bottom.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = _top.load(std::memory_order_relaxed);
#endif

    std::optional<T> item;
    if (t <= b) {
      item = a->get(b);
      if (t == b) {
        // Single item left: race against thieves for it.
        if (!_top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          item = std::nullopt;
        }
        _bottom.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      _bottom.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Thief: steal the oldest item (FIFO end).  Callable from any thread.
  std::optional<T> steal() {
#if TF_WSQ_TSAN
    std::int64_t t = _top.load(std::memory_order_seq_cst);
    const std::int64_t b = _bottom.load(std::memory_order_seq_cst);
#else
    std::int64_t t = _top.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = _bottom.load(std::memory_order_acquire);
#endif

    if (t < b) {
      Array* a = _array.load(std::memory_order_acquire);
      T item = a->get(t);
      if (!_top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return std::nullopt;
      }
      return item;
    }
    return std::nullopt;
  }

 private:
  alignas(64) std::atomic<std::int64_t> _top{0};
  alignas(64) std::atomic<std::int64_t> _bottom{0};
  alignas(64) std::atomic<Array*> _array{nullptr};
  std::vector<Array*> _garbage;  // owner-only; retired arrays freed at destruction
};

}  // namespace tf

// Chase–Lev work-stealing deque.
//
// The per-worker ready queue of the scheduler (src/sched). The owner pushes
// at the bottom and takes from either end: pop_bottom (LIFO, depth-first
// execution order for locality, as in Cilk) or take_top (oldest first, but
// only above a floor index — a joining task's own children, in spawn order).
// Thieves steal from the top (FIFO, oldest task first — for pipelines this
// hands the earliest spawned stage instance to an idle worker). Memory
// ordering follows Lê, Pop, Cohen & Zappa Nardelli, "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP'13).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "conc/cache.hpp"
#include "conc/tsan.hpp"

namespace hq {

/// Unbounded SPMC work-stealing deque of pointers.
/// Owner thread: push_bottom / pop_bottom / take_top / bottom_index.
/// Any thread: steal.
template <typename T>
class chase_lev_deque {
 public:
  explicit chase_lev_deque(std::int64_t initial_capacity = 64)
      : array_(new ring(initial_capacity)) {}

  chase_lev_deque(const chase_lev_deque&) = delete;
  chase_lev_deque& operator=(const chase_lev_deque&) = delete;

  ~chase_lev_deque() {
    delete array_.load(std::memory_order_relaxed);
    for (ring* r : retired_) delete r;
  }

  /// Owner only: make a task available; grows the array when full.
  void push_bottom(T* item) {
    const std::int64_t b = bottom_.value.load(std::memory_order_relaxed);
    const std::int64_t t = top_.value.load(std::memory_order_acquire);
    ring* a = array_.load(std::memory_order_relaxed);
    if (b - t > a->capacity - 1) {
      a = grow(a, b, t);
    }
    a->put(b, item);
#if HQ_TSAN
    bottom_.value.store(b + 1, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.value.store(b + 1, std::memory_order_relaxed);
#endif
  }

  /// Owner only: LIFO pop; nullptr when the deque is empty or the last
  /// element was lost to a concurrent thief.
  T* pop_bottom() {
    const std::int64_t b = bottom_.value.load(std::memory_order_relaxed) - 1;
    ring* a = array_.load(std::memory_order_relaxed);
#if HQ_TSAN
    bottom_.value.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.value.load(std::memory_order_seq_cst);
#else
    bottom_.value.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.value.load(std::memory_order_relaxed);
#endif
    T* item = nullptr;
    if (t <= b) {
      item = a->get(b);
      if (t == b) {
        // Single element left: race against thieves for it.
        if (!top_.value.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                                std::memory_order_relaxed)) {
          item = nullptr;  // lost
        }
        bottom_.value.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.value.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Owner only: index the next push_bottom will use. Every item pushed
  /// from now on sits at this index or above until it is taken.
  [[nodiscard]] std::int64_t bottom_index() const noexcept {
    return bottom_.value.load(std::memory_order_relaxed);
  }

  /// Owner only: take the oldest item, provided its index is at least
  /// `floor`; nullptr when the deque is empty or its top lies below the
  /// floor. Claims the item with the same CAS on top as steal(), so it
  /// races thieves exactly like another thief would; a lost race retries on
  /// the next item. The owner is the only writer of bottom, so no fence is
  /// needed between the two index loads.
  T* take_top(std::int64_t floor) {
    const std::int64_t b = bottom_.value.load(std::memory_order_relaxed);
#if HQ_TSAN
    std::int64_t t = top_.value.load(std::memory_order_seq_cst);
#else
    std::int64_t t = top_.value.load(std::memory_order_acquire);
#endif
    while (t >= floor && t < b) {
      T* item = array_.load(std::memory_order_relaxed)->get(t);
      if (top_.value.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                             std::memory_order_relaxed)) {
        return item;
      }
      // Lost to a thief: t now holds the current top.
    }
    return nullptr;
  }

  /// Any thread: FIFO steal; nullptr when empty or on a lost race (callers
  /// treat both as "retry elsewhere").
  T* steal() {
#if HQ_TSAN
    std::int64_t t = top_.value.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.value.load(std::memory_order_seq_cst);
#else
    std::int64_t t = top_.value.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.value.load(std::memory_order_acquire);
#endif
    T* item = nullptr;
    if (t < b) {
      ring* a = array_.load(std::memory_order_acquire);
      item = a->get(t);
      if (!top_.value.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                              std::memory_order_relaxed)) {
        return nullptr;  // lost race
      }
    }
    return item;
  }

  /// Racy size estimate, useful for stats only.
  [[nodiscard]] std::int64_t size_estimate() const noexcept {
    return bottom_.value.load(std::memory_order_relaxed) -
           top_.value.load(std::memory_order_relaxed);
  }

 private:
  struct ring {
    explicit ring(std::int64_t cap) : capacity(cap), slots(cap) {}
    const std::int64_t capacity;
    std::vector<std::atomic<T*>> slots;

    T* get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i & (capacity - 1))].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, T* v) {
      slots[static_cast<std::size_t>(i & (capacity - 1))].store(
          v, std::memory_order_relaxed);
    }
  };

  ring* grow(ring* a, std::int64_t b, std::int64_t t) {
    auto* bigger = new ring(a->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, a->get(i));
    array_.store(bigger, std::memory_order_release);
    // Thieves may still hold a pointer to the old ring; retire it until the
    // deque itself dies (growth is rare and bounded, so this is cheap).
    retired_.push_back(a);
    return bigger;
  }

  padded<std::atomic<std::int64_t>> top_{0};
  padded<std::atomic<std::int64_t>> bottom_{0};
  std::atomic<ring*> array_;
  std::vector<ring*> retired_;  // owner-only
};

}  // namespace hq

// hyperqueue<T> — the paper's programming abstraction (Section 2).
//
// A hyperqueue is a deterministic single-producer single-consumer queue
// whose *implementation* lets many tasks push concurrently (private
// producer shards, merged in the spawn-order scan list — core/shard.hpp)
// and one task pop concurrently with the pushes, while the consumer
// observes exactly the serial-elision value order. Producers never take a
// lock: push, write_slice, push-privileged spawn and completion are all
// lock-free at any producer count.
//
// Usage mirrors Figure 2 of the paper:
//
//   void producer(hq::pushdep<data> q, int lo, int hi);
//   void consumer(hq::popdep<data> q) {
//     while (!q.empty()) { data d = q.pop(); ... }
//   }
//   ...
//   hq::hyperqueue<data> queue;
//   hq::spawn(producer, (hq::pushdep<data>)queue, 0, total);
//   hq::spawn(consumer, (hq::popdep<data>)queue);
//   hq::sync();
//
// Values leave one at a time (empty/pop, Section 4) or as contiguous read
// slices consumed in place (get_read_slice, Section 5.2); they enter by push
// or through write slices.
//
// Access modes: pushdep (push only), popdep (empty/pop only), pushpopdep
// (both); pushdep_any hands push privilege on to children without naming
// the element type. Tasks may pass a subset of their own privileges to
// children.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "core/queue_cb.hpp"
#include "sched/task.hpp"

namespace hq {

template <typename T>
class pushdep;
template <typename T>
class popdep;
template <typename T>
class pushpopdep;

/// A queue's counters (see detail::seg_pool_stats), re-exported for tests
/// and benches.
using seg_pool_stats = detail::seg_pool_stats;

namespace detail {

/// T qualifies for the batched memcpy transfer path: relocation (move +
/// destroy source) is equivalent to a byte copy.
template <typename T>
inline constexpr bool is_trivially_relocatable_v =
    std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>;

template <typename T>
element_ops make_element_ops() {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "hyperqueue elements must be nothrow move constructible");
  element_ops ops;
  ops.size = sizeof(T);
  ops.align = alignof(T);
  ops.trivial_copy = is_trivially_relocatable_v<T>;
  ops.trivial_destroy = std::is_trivially_destructible_v<T>;
  ops.move_construct = [](void* dst, void* src) noexcept {
    ::new (dst) T(std::move(*static_cast<T*>(src)));
  };
  ops.destroy = [](void* p) noexcept { static_cast<T*>(p)->~T(); };
  ops.destroy_n = [](void* p, std::size_t n) noexcept {
    T* e = static_cast<T*>(p);
    for (std::size_t i = 0; i < n; ++i) e[i].~T();
  };
  return ops;
}

/// Shared implementation of the typed element operations over the raw
/// control-block interface.
template <typename T>
struct typed_ops {
  static void push(queue_cb* cb, T value) {
    cb->push(&value);  // moved out; `value` is destroyed as a moved-from shell
  }
  static T pop(queue_cb* cb) {
    alignas(T) std::byte buf[sizeof(T)];
    cb->pop(buf);
    T* p = std::launder(reinterpret_cast<T*>(buf));
    T out = std::move(*p);
    p->~T();
    return out;
  }
};

}  // namespace detail

/// Contiguous write window into a hyperqueue segment (Section 5.2): as fast
/// as array stores. Fill slots [0, size()) in order, then commit(n).
template <typename T>
class write_slice {
 public:
  using value_type = T;

  write_slice(detail::queue_cb* cb, T* data, std::size_t n)
      : cb_(cb), data_(data), size_(n) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Construct the i-th element of the slice.
  template <typename... Args>
  void emplace(std::size_t i, Args&&... args) {
    assert(i < size_ && i == filled_ && "fill write slices in order");
    ::new (static_cast<void*>(data_ + i)) T(std::forward<Args>(args)...);
    ++filled_;
  }

  /// Batched append for trivially-relocatable element types: one memcpy for
  /// `n` elements after the already-filled prefix (Section 5.2 bulk path).
  void fill(const T* src, std::size_t n) {
    static_assert(detail::is_trivially_relocatable_v<T>,
                  "fill() is the trivial-type bulk path; use emplace()");
    assert(filled_ + n <= size_);
    std::memcpy(static_cast<void*>(data_ + filled_), src, n * sizeof(T));
    filled_ += n;
  }

  [[nodiscard]] std::size_t filled() const noexcept { return filled_; }

  /// Publish the first `n` elements (defaults to all filled). A prefix
  /// commit (n < filled()) destroys the constructed-but-uncommitted tail
  /// elements; the consumer only ever observes the first n. Either way the
  /// slice is spent afterwards: obtain a new one to keep producing.
  void commit() { commit(filled_); }
  void commit(std::size_t n) {
    assert(n <= filled_);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (std::size_t i = n; i < filled_; ++i) data_[i].~T();
    }
    cb_->commit_write(n);
    size_ = 0;
    filled_ = 0;
  }

 private:
  detail::queue_cb* cb_;
  T* data_;
  std::size_t size_;
  std::size_t filled_ = 0;
};

/// Contiguous read window (Section 5.2): all elements are ready. Consume
/// [0, size()), then release().
template <typename T>
class read_slice {
 public:
  read_slice(detail::queue_cb* cb, T* data, std::size_t n)
      : cb_(cb), data_(data), size_(n) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  /// Mutable access: the consumer owns the elements until release(); a stage
  /// may transform them in place or move them out (release() destroys the
  /// moved-from shells).
  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }

  /// Retire all remaining elements from the queue.
  void release() { release(size_); }

  /// Retire only the first `n` elements; the slice shrinks to the remaining
  /// suffix, which stays valid (and un-consumed) so a stage can stop
  /// mid-slice at a work boundary and pick up where it left off.
  void release(std::size_t n) {
    assert(n <= size_);
    if (n == 0) return;
    cb_->commit_read(n);
    data_ += n;
    size_ -= n;
  }

 private:
  detail::queue_cb* cb_;
  T* data_;
  std::size_t size_;
};

/// Bulk producer idiom (Section 5.2): move [first, last) into `q` through
/// write slices, requesting at most `batch` slots per slice and looping on
/// the (possibly short) grants. Works with any push-capable handle
/// (pushdep, pushpopdep, hyperqueue).
template <typename Q, typename It>
void push_slices(Q& q, It first, It last, std::size_t batch) {
  using V = typename std::iterator_traits<It>::value_type;
  while (first != last) {
    const auto remain = static_cast<std::size_t>(last - first);
    auto ws = q.get_write_slice(batch < remain ? batch : remain);
    const std::size_t n = ws.size();
    if constexpr (std::contiguous_iterator<It> &&
                  std::is_same_v<V, typename decltype(ws)::value_type> &&
                  detail::is_trivially_relocatable_v<V>) {
      // Trivial-type batching: one memcpy per granted slice.
      ws.fill(std::to_address(first), n);
      first += static_cast<std::ptrdiff_t>(n);
    } else {
      for (std::size_t i = 0; i < n; ++i, ++first) {
        ws.emplace(i, std::move(*first));
      }
    }
    ws.commit();
  }
}

namespace detail {

/// Common base of the access-mode wrappers: shares the control block.
class dep_base {
 public:
  dep_base() = default;
  explicit dep_base(queue_cb* cb) : cb_(cb) {
    if (cb_ != nullptr) cb_->add_ref();
  }
  dep_base(const dep_base& o) : cb_(o.cb_) {
    if (cb_ != nullptr) cb_->add_ref();
  }
  dep_base(dep_base&& o) noexcept : cb_(o.cb_) { o.cb_ = nullptr; }
  dep_base& operator=(const dep_base& o) {
    if (this != &o) {
      if (o.cb_ != nullptr) o.cb_->add_ref();
      if (cb_ != nullptr) cb_->release();
      cb_ = o.cb_;
    }
    return *this;
  }
  dep_base& operator=(dep_base&& o) noexcept {
    if (this != &o) {
      if (cb_ != nullptr) cb_->release();
      cb_ = o.cb_;
      o.cb_ = nullptr;
    }
    return *this;
  }
  ~dep_base() {
    if (cb_ != nullptr) cb_->release();
  }

 protected:
  queue_cb* cb_ = nullptr;
};

}  // namespace detail

/// Push-only access mode: the spawned task may append values.
template <typename T>
class pushdep : public detail::dep_base {
 public:
  pushdep() = default;
  explicit pushdep(detail::queue_cb* cb) : dep_base(cb) {}

  /// Append a value; exposed to any consumer in serial program order.
  void push(T value) { detail::typed_ops<T>::push(cb_, std::move(value)); }

  /// Reserve up to `want` contiguous slots (Section 5.2).
  write_slice<T> get_write_slice(std::size_t want) {
    std::uint64_t n = 0;
    void* p = cb_->write_slice(want, &n);
    return write_slice<T>(cb_, static_cast<T*>(p), static_cast<std::size_t>(n));
  }

  /// This task's producer shard: whether the consumer's scan has reached
  /// it, and how many of its values were taken (the bounds of drained
  /// queues, sched/drain.hpp).
  const detail::pshard& shard() { return cb_->my_shard(); }

  /// Spawn-argument resolution: attach the child task with push privileges.
  pushdep hq_dep_resolve(detail::task_frame* fr) const {
    cb_->attach_spawn(fr, detail::kPrivPush);
    return *this;
  }
};

/// Pop-only access mode: the spawned task may test emptiness and pop.
template <typename T>
class popdep : public detail::dep_base {
 public:
  popdep() = default;
  explicit popdep(detail::queue_cb* cb) : dep_base(cb) {}

  /// False when a value is available; true only when no older producer can
  /// still push (mimics sequential execution; blocks until certain).
  bool empty() { return cb_->empty(); }

  /// Remove the next value. Popping an empty queue is a program error.
  T pop() { return detail::typed_ops<T>::pop(cb_); }

  /// Up to `want` ready elements, contiguous (Section 5.2); empty slice at
  /// definitive end-of-queue.
  read_slice<T> get_read_slice(std::size_t want) {
    std::uint64_t n = 0;
    void* p = cb_->read_slice(want, &n);
    return read_slice<T>(cb_, static_cast<T*>(p), static_cast<std::size_t>(n));
  }

  /// As get_read_slice, but never waits: an empty slice when nothing is
  /// readable now, with *ended telling whether that is definitive. The read
  /// side of a drain (sched/drain.hpp).
  read_slice<T> poll_read_slice(std::size_t want, bool* ended) {
    std::uint64_t n = 0;
    void* p = cb_->poll_slice(want, &n, ended);
    return read_slice<T>(cb_, static_cast<T*>(p), static_cast<std::size_t>(n));
  }

  popdep hq_dep_resolve(detail::task_frame* fr) const {
    cb_->attach_spawn(fr, detail::kPrivPop);
    return *this;
  }
};

/// Combined push/pop access mode.
template <typename T>
class pushpopdep : public detail::dep_base {
 public:
  pushpopdep() = default;
  explicit pushpopdep(detail::queue_cb* cb) : dep_base(cb) {}

  void push(T value) { detail::typed_ops<T>::push(cb_, std::move(value)); }
  bool empty() { return cb_->empty(); }
  T pop() { return detail::typed_ops<T>::pop(cb_); }
  write_slice<T> get_write_slice(std::size_t want) {
    std::uint64_t n = 0;
    void* p = cb_->write_slice(want, &n);
    return write_slice<T>(cb_, static_cast<T*>(p), static_cast<std::size_t>(n));
  }
  read_slice<T> get_read_slice(std::size_t want) {
    std::uint64_t n = 0;
    void* p = cb_->read_slice(want, &n);
    return read_slice<T>(cb_, static_cast<T*>(p), static_cast<std::size_t>(n));
  }

  pushpopdep hq_dep_resolve(detail::task_frame* fr) const {
    cb_->attach_spawn(fr, detail::kPrivPush | detail::kPrivPop);
    return *this;
  }
};

/// Push privilege on a queue whose element type the holder does not name.
/// A task that never pushes itself but spawns children that do (the
/// pipeline runner's producers in front of a parallel run) takes this
/// instead of pushdep<T>; its children take pushdep<T> from the queue as
/// usual and still merge in spawn order.
class pushdep_any : public detail::dep_base {
 public:
  pushdep_any() = default;
  explicit pushdep_any(detail::queue_cb* cb) : dep_base(cb) {}

  pushdep_any hq_dep_resolve(detail::task_frame* fr) const {
    cb_->attach_spawn(fr, detail::kPrivPush);
    return *this;
  }
};

/// The hyperqueue variable. Must be constructed inside a task (typically the
/// pipeline driver); the constructing task is the owner and holds both push
/// and pop privileges, so it may use the queue directly (Figure 6).
template <typename T>
class hyperqueue {
 public:
  /// @param segment_length elements per queue segment (Section 5.1 tuning
  /// knob); rounded up to a power of two.
  explicit hyperqueue(std::size_t segment_length = kDefaultSegmentLength)
      : cb_(new detail::queue_cb(detail::make_element_ops<T>(), segment_length)) {
    attach_or_release();
  }

  hyperqueue(const hyperqueue&) = delete;
  hyperqueue& operator=(const hyperqueue&) = delete;

  /// Destruction waits for all tasks using the queue (helping the scheduler)
  /// and then discards any values still inside, as the paper allows.
  ~hyperqueue() {
    cb_->detach_owner();
    cb_->release();
  }

  static constexpr std::size_t kDefaultSegmentLength = 512;

  // Owner-task direct access (Figure 6 / Section 5.5 idioms).
  void push(T value) { detail::typed_ops<T>::push(cb_, std::move(value)); }
  bool empty() { return cb_->empty(); }
  T pop() { return detail::typed_ops<T>::pop(cb_); }
  write_slice<T> get_write_slice(std::size_t want) {
    std::uint64_t n = 0;
    void* p = cb_->write_slice(want, &n);
    return write_slice<T>(cb_, static_cast<T*>(p), static_cast<std::size_t>(n));
  }
  read_slice<T> get_read_slice(std::size_t want) {
    std::uint64_t n = 0;
    void* p = cb_->read_slice(want, &n);
    return read_slice<T>(cb_, static_cast<T*>(p), static_cast<std::size_t>(n));
  }

  // Access-mode casts used at spawn sites, as in the paper.
  operator pushdep<T>() const { return pushdep<T>(cb_); }          // NOLINT
  operator popdep<T>() const { return popdep<T>(cb_); }            // NOLINT
  operator pushpopdep<T>() const { return pushpopdep<T>(cb_); }    // NOLINT
  operator pushdep_any() const { return pushdep_any(cb_); }        // NOLINT

  /// Name the drain that consumes this queue (sched/drain.hpp): producer
  /// shard closes kick it, and pool_stats() reports its backlog holds.
  /// Call before any producer runs.
  void set_drain(detail::drain* d) noexcept { cb_->consumer_drain = d; }

  /// The queue's one snapshot. Segment pool (Section 5.1/5.2): fresh
  /// allocations, pool reuses, and the in-use high-water mark; in steady
  /// state `allocated` stops growing and equals `high_water`. Byte
  /// footprint, and the producers held at the queue's drain (0 without
  /// one). Data-path slow events: remote index reloads (bounded by one per
  /// segment-capacity of elements in steady state) and mutex acquisitions
  /// (zero on the fast path; mu_attach stays 0 on the producer side — the
  /// zero-mutex-on-push contract).
  [[nodiscard]] seg_pool_stats pool_stats() const { return cb_->pool_stats(); }

  /// Bytes one segment occupies; the live footprint in bytes is
  /// pool_stats().in_use_bytes (= segments in use x this).
  [[nodiscard]] std::uint64_t segment_bytes() const {
    return cb_->segment_bytes();
  }

  // Selective sync (Section 5.5): suspend the calling task until its
  // children with the given access mode on this queue have completed.
  // sync_pop() is the paper's "sync (popdep<T>)queue;" — placed before
  // empty()/pop() it turns blocking into suspension. sync_queue() is Swan's
  // "sync queue;" (all children on this queue, any mode).
  void sync_pop() { cb_->sync_children(detail::kPrivPop); }
  void sync_push() { cb_->sync_children(detail::kPrivPush); }
  void sync_queue() { cb_->sync_children(0); }

 private:
  /// Ctor tail: registering the owner attachment allocates the queue's
  /// invariant-1 initial segment, which can fail (std::bad_alloc, or the
  /// injected alloc@segment.alloc fault). A throwing ctor body skips the
  /// dtor, so drop the control-block reference manually before rethrowing.
  void attach_or_release() {
    try {
      cb_->attach_owner(detail::current_frame());
    } catch (...) {
      cb_->release();
      throw;
    }
  }

  detail::queue_cb* cb_;
};

}  // namespace hq

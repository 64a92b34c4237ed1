// Queue segments: fixed-size single-producer single-consumer circular
// buffers, chained into linked lists (paper Section 3.2).
//
// A segment is the unit of storage of a hyperqueue. Monotonic head/tail
// indices (masked into the power-of-two buffer) let one producer and one
// consumer share a segment race-free with only acquire/release ordering —
// invariants 4–6 of the paper guarantee at most one of each per segment.
// A producer/consumer pair that stays within one segment recycles it
// indefinitely: zero allocation in steady state.
//
// Memory layout (Section 5.1 "as fast as array accesses"): the consumer's
// `head` and the producer's `tail` live on separate cache lines, and each
// endpoint keeps a line-local cache of the *other* endpoint's index
// (Lamport '83 with the FastForward/rigtorp cached-index refinement, see
// conc/spsc_ring.hpp). The cached copy is a stale lower bound on the true
// index, so "cache says space/data available" is always safe; the remote
// line is re-read only when the segment *looks* full (producer) or empty
// (consumer). Steady-state push/pop therefore touches the caller's own
// line plus the data slots — zero remote-cache-line loads. The consumer
// takes elements one at a time (try_pop_into / pop_into) or as contiguous
// read windows it consumes in place (acquire_read / retire_read).
//
// The endpoint *roles* may migrate between tasks (and threads) over the
// queue's lifetime; every hand-off point (spawn view transfer, completion
// cascade, queue-view claim) carries a happens-before edge (queue_cb::mu or
// a release/acquire counter), so the plain index-cache fields never race.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>

#include "conc/cache.hpp"

namespace hq::detail {

/// How to move and destroy elements of the queue's value type; lets the
/// entire view/segment machinery be non-templated. The trivial_* flags and
/// the batched destroy hook (filled in by make_element_ops<T>) let the hot
/// path replace per-element indirect calls with inline memcpy / no-ops;
/// hand-rolled instances that leave them defaulted keep the per-element
/// behavior.
struct element_ops {
  std::size_t size = 0;
  std::size_t align = 0;
  /// Transfer is memcpy (T is trivially copyable AND trivially destructible:
  /// relocation = byte copy, no source destroy).
  bool trivial_copy = false;
  /// Destruction is a no-op (T is trivially destructible).
  bool trivial_destroy = false;
  /// Move-construct *dst from *src. Does NOT destroy src.
  void (*move_construct)(void* dst, void* src) noexcept = nullptr;
  void (*destroy)(void* p) noexcept = nullptr;
  /// Batched destroy over `n` contiguous elements (optional; null falls
  /// back to a per-element loop).
  void (*destroy_n)(void* p, std::size_t n) noexcept = nullptr;

  /// memcpy with the common small element sizes peeled so the compiler emits
  /// a single load/store pair instead of a libc dispatch. The empty asm is a
  /// diagnostic workaround and emits no instruction: it hides where the
  /// pointers came from, so gcc, having inlined this next to a caller's
  /// 4-byte element, no longer pairs that element with the 8- and 16-byte
  /// arms (-Warray-bounds), though the arm taken always matches n.
  static void copy_sized(void* dst, const void* src, std::size_t n) noexcept {
    asm("" : "+r"(dst), "+r"(src));
    switch (n) {
      case 4: std::memcpy(dst, src, 4); break;
      case 8: std::memcpy(dst, src, 8); break;
      case 16: std::memcpy(dst, src, 16); break;
      default: std::memcpy(dst, src, n); break;
    }
  }
  void copy_bytes(void* dst, const void* src) const noexcept {
    copy_sized(dst, src, size);
  }

  /// Relocate one element: move *src into *dst and end src's lifetime
  /// (the pop direction — the source slot is retired).
  void relocate_one(void* dst, void* src) const noexcept {
    if (trivial_copy) {
      copy_bytes(dst, src);
    } else {
      move_construct(dst, src);
      if (!trivial_destroy) destroy(src);
    }
  }

  /// End the lifetime of `n` contiguous elements.
  void destroy_range(void* p, std::size_t n) const noexcept {
    if (trivial_destroy) return;
    if (destroy_n != nullptr) {
      destroy_n(p, n);
      return;
    }
    auto* b = static_cast<std::byte*>(p);
    for (std::size_t i = 0; i < n; ++i) destroy(b + i * size);
  }
};

/// Slow-event counters for the element data path (see queue_cb), declared
/// once: queue_cb::pool_stats() copies them into seg_pool_stats, which
/// extends this type. The fast path increments nothing; each field counts
/// one kind of slow event, so tests can assert the fast path stayed
/// lock-free and line-local. Writers bump the plain fields through
/// std::atomic_ref, and readers walk kDataPathFields.
struct data_path_counts {
  std::uint64_t head_reloads = 0;   ///< producer re-read the consumer's head
  std::uint64_t tail_reloads = 0;   ///< consumer re-read the producer's tail
  std::uint64_t mu_data = 0;        ///< consumer took mu (scan-position claim)
  std::uint64_t seg_cache_hits = 0; ///< segment allocs served lock-free
  /// attach_spawn took mu: pop-FIFO registration only, so it stays 0 across
  /// producer-only bursts (push, write_slice, push spawns and completions
  /// never take a mutex).
  std::uint64_t mu_attach = 0;
  std::uint64_t mu_complete = 0;    ///< completion took mu (pop hand-back only)
};

inline constexpr std::uint64_t data_path_counts::*kDataPathFields[] = {
    &data_path_counts::head_reloads, &data_path_counts::tail_reloads,
    &data_path_counts::mu_data,      &data_path_counts::seg_cache_hits,
    &data_path_counts::mu_attach,    &data_path_counts::mu_complete,
};
static_assert(sizeof(data_path_counts) ==
                  std::size(kDataPathFields) * sizeof(std::uint64_t),
              "every data_path_counts field needs a row in kDataPathFields");

class segment {
 public:
  /// Allocate a segment with `capacity` element slots (must be a power of
  /// two) in a single allocation. `counters`, when non-null, receives the
  /// remote-index-reload counts (slow path only).
  static segment* create(std::uint64_t capacity, const element_ops* ops,
                         data_path_counts* counters = nullptr);

  /// Free the segment's memory. Remaining elements must have been destroyed.
  static void destroy(segment* s);

  /// Bytes one segment of `capacity` slots occupies (header + alignment
  /// padding + slot array) — the unit of a queue's byte footprint
  /// (queue_cb). Matches what create() actually allocates.
  static std::size_t footprint_bytes(std::uint64_t capacity,
                                     const element_ops* ops) noexcept;

  segment(const segment&) = delete;
  segment& operator=(const segment&) = delete;

  [[nodiscard]] std::uint64_t capacity() const noexcept { return mask + 1; }

  /// Producer: relocate the element at `src` into the segment. Returns false
  /// when full (caller allocates and links a fresh segment).
  bool try_push(void* src) noexcept {
    const std::uint64_t t = tail.load(std::memory_order_relaxed);
    if (t - head_cache > mask && !reload_head(t)) [[unlikely]] return false;
    // esize_/trivial_ are header-cached copies of the ops fields: one load
    // off the slot-address dependency chain per element.
    void* dst = slot(t);
    if (trivial_) [[likely]] {
      element_ops::copy_sized(dst, src, esize_);
    } else {
      ops->move_construct(dst, src);
    }
    tail.store(t + 1, std::memory_order_release);
    return true;
  }

  /// Producer: reserve a contiguous run of up to `want` free slots at the
  /// tail (Section 5.2 write slice). Returns the first slot and sets
  /// *granted (0 with nullptr when full). Elements must be constructed in
  /// order, then published with publish_write.
  void* acquire_write(std::uint64_t want, std::uint64_t* granted) noexcept {
    const std::uint64_t t = tail.load(std::memory_order_relaxed);
    // The run up to the wrap point is only ever zero when no slot is free at
    // all, so the remote head is consulted only on apparent-full.
    if (t - head_cache > mask && !reload_head(t)) {
      *granted = 0;
      return nullptr;
    }
    const std::uint64_t free_total = capacity() - (t - head_cache);
    const std::uint64_t contig = capacity() - (t & mask);
    const std::uint64_t run = contig < free_total ? contig : free_total;
    *granted = want < run ? want : run;
    return slot(t);
  }

  /// Producer: publish `produced` elements constructed in the last
  /// acquire_write window.
  void publish_write(std::uint64_t produced) noexcept {
    const std::uint64_t t = tail.load(std::memory_order_relaxed);
    // head_cache is a lower bound on head and granted the window, so this
    // bound is valid without re-reading the remote index.
    assert(t + produced - head_cache <= capacity());
    tail.store(t + produced, std::memory_order_release);
  }

  /// Consumer: is an element available right now? Refreshes the cached tail
  /// only when the segment looks empty.
  [[nodiscard]] bool readable() noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    return h != tail_cache || reload_tail(h);
  }

  /// Consumer: pop the head element into `dst` if one is ready. Returns
  /// false when the segment is empty (after refreshing the cached tail).
  /// Fuses readable() + pop_into() into a single head load.
  bool try_pop_into(void* dst) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    if (h == tail_cache && !reload_tail(h)) [[unlikely]] return false;
    void* s = slot(h);
    if (trivial_) [[likely]] {
      element_ops::copy_sized(dst, s, esize_);
    } else {
      ops->relocate_one(dst, s);
    }
    head.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Consumer: move the head element into `dst` and retire the slot.
  /// Precondition: readable().
  void pop_into(void* dst) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    // After readable() the cached tail already proves the precondition; the
    // acquire reload is assert-only fallback for direct (test/bench) use.
    assert(h < tail_cache || h < tail.load(std::memory_order_acquire));
    void* s = slot(h);
    if (trivial_) [[likely]] {
      element_ops::copy_sized(dst, s, esize_);
    } else {
      ops->relocate_one(dst, s);
    }
    head.store(h + 1, std::memory_order_release);
  }

  /// Consumer: contiguous run of up to `want` ready elements at the head
  /// (Section 5.2 read slice). Returns the first slot and sets *granted
  /// (0 with nullptr when empty).
  void* acquire_read(std::uint64_t want, std::uint64_t* granted) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    if (h == tail_cache && !reload_tail(h)) {
      *granted = 0;
      return nullptr;
    }
    const std::uint64_t avail = tail_cache - h;
    const std::uint64_t contig = capacity() - (h & mask);
    const std::uint64_t run = contig < avail ? contig : avail;
    *granted = want < run ? want : run;
    return slot(h);
  }

  /// Consumer: destroy and retire the first `consumed` ready elements.
  void retire_read(std::uint64_t consumed) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    assert(consumed <= tail.load(std::memory_order_acquire) - h);
    if (!ops->trivial_destroy) {
      std::uint64_t done = 0;
      while (done < consumed) {  // wrap-aware: at most two runs
        const std::uint64_t contig = capacity() - ((h + done) & mask);
        const std::uint64_t run = contig < consumed - done ? contig : consumed - done;
        ops->destroy_range(slot(h + done), run);
        done += run;
      }
    }
    head.store(h + consumed, std::memory_order_release);
  }

  /// Destroy all elements still stored (queue teardown; single-threaded).
  void destroy_remaining() noexcept {
    std::uint64_t h = head.load(std::memory_order_relaxed);
    const std::uint64_t t = tail.load(std::memory_order_relaxed);
    while (h < t) {
      const std::uint64_t contig = capacity() - (h & mask);
      const std::uint64_t run = contig < t - h ? contig : t - h;
      ops->destroy_range(slot(h), run);
      h += run;
    }
    head.store(t, std::memory_order_relaxed);
  }

  /// Reset to pristine state for reuse from the segment free list.
  void reset() noexcept {
    assert(head.load(std::memory_order_relaxed) == tail.load(std::memory_order_relaxed));
    next.store(nullptr, std::memory_order_relaxed);
    head.store(0, std::memory_order_relaxed);
    tail.store(0, std::memory_order_relaxed);
    tail_cache = 0;
    head_cache = 0;
  }

  void* slot(std::uint64_t index) noexcept {
    return storage_ + (index & mask) * esize_;
  }

  // Line 0 (shared, cold): the chain link is written once per segment
  // lifetime; the rest is immutable. esize_/trivial_ mirror ops->size /
  // ops->trivial_copy so the per-element path loads them without the extra
  // ops-> indirection.
  std::atomic<segment*> next{nullptr};
  const std::uint64_t mask;
  const element_ops* const ops;

  // Line 1 (consumer-owned): head plus the consumer's cache of tail. The
  // producer reads `head` only on its apparent-full slow path.
  alignas(kCacheLine) std::atomic<std::uint64_t> head{0};
  std::uint64_t tail_cache = 0;

  // Line 2 (producer-owned): tail plus the producer's cache of head. The
  // consumer reads `tail` only on its apparent-empty slow path.
  alignas(kCacheLine) std::atomic<std::uint64_t> tail{0};
  std::uint64_t head_cache = 0;

 private:
  segment(std::uint64_t capacity, const element_ops* o, std::byte* storage,
          data_path_counts* counters)
      : mask(capacity - 1),
        ops(o),
        esize_(o->size),
        trivial_(o->trivial_copy),
        storage_(storage),
        counters_(counters) {}
  ~segment() = default;

  /// Monitoring-grade counter bump: a plain load+store pair instead of a
  /// locked RMW. Each counter is written by one endpoint role at a time
  /// (both accesses are atomic, so concurrent writers from different
  /// segments lose updates but never race); a depth-1 consumer reloads on
  /// every poll, and a lock prefix there would cost more than the reload.
  static void bump(std::uint64_t& counter) noexcept {
    std::atomic_ref<std::uint64_t> c(counter);
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  /// Producer slow path: re-read the remote head. True when space exists.
  bool reload_head(std::uint64_t t) noexcept {
    head_cache = head.load(std::memory_order_acquire);
    if (counters_ != nullptr) bump(counters_->head_reloads);
    return t - head_cache <= mask;
  }

  /// Consumer slow path: re-read the remote tail. True when data exists.
  bool reload_tail(std::uint64_t h) noexcept {
    tail_cache = tail.load(std::memory_order_acquire);
    if (counters_ != nullptr) bump(counters_->tail_reloads);
    return h != tail_cache;
  }

  const std::uint64_t esize_;
  const bool trivial_;
  std::byte* const storage_;
  data_path_counts* const counters_;
};

}  // namespace hq::detail

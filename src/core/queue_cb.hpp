// Hyperqueue control block: the non-templated runtime state of one
// hyperqueue (paper Sections 3 and 4).
//
// Responsibilities:
//  * per-task, per-queue attachments carrying the producer's private shard
//    (`pshard`, core/shard.hpp) and the consumer's scan position;
//  * shard splicing at spawn — the lock-free realization of the paper's
//    view transfer (Section 4.2): the merge order is fixed at the spawn
//    point, so determinism is independent of execution interleaving;
//  * the push / pop / empty operations with the paper's deterministic
//    visibility contract: a consumer observes exactly the serial-elision
//    value sequence, and empty() returns true only when no task earlier in
//    program order can still produce (structural now: the scan stops at the
//    attachment's end-of-visible-range shard, and a shard can only be
//    passed once its producer closed it);
//  * scheduling rules 1–4 (Section 2.3): pop-privileged tasks are serialized
//    FIFO per parent via task dependences; push tasks are never delayed.
//
// Locking: the producer path takes NO lock, ever — pushes run on private
// shards, and spawn-time splices only touch the spawning task's own current
// shard (see pshard). `mu` survives only on the pop side, where it guards
// the pop-FIFO registration (attach, counted by mu_attach), the scan-
// position hand-back at completion (counted by mu_complete), and the lazy
// ancestor claim of the scan position (counted by mu_data). Element
// transfers on segments are lock-free SPSC fast paths.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <mutex>

#include "conc/spinlock.hpp"
#include "core/segment.hpp"
#include "core/shard.hpp"
#include "sched/drain.hpp"
#include "sched/obj_pool.hpp"
#include "sched/task.hpp"

namespace hq::detail {

inline constexpr std::uint8_t kPrivPush = 1;
inline constexpr std::uint8_t kPrivPop = 2;

struct queue_cb;

/// The one snapshot of a queue (tests / benches): segment-pool counters,
/// byte footprint, the backlog holds at the queue's drain and the data-path
/// slow events (data_path_counts). With a well-behaved pipeline the pool
/// reaches steady state — `allocated` plateaus at `high_water` and every
/// further segment demand is served by `recycled`.
struct seg_pool_stats : pool_counts, data_path_counts {
  // Byte-denominated footprint: in_use_bytes is segments in use x bytes per
  // segment *now*, peak_bytes the same at the high-water mark.
  std::uint64_t in_use_bytes = 0;
  std::uint64_t peak_bytes = 0;

  // Backlog holds at the queue's drain (sched/drain.hpp; 0 on a queue with
  // no drain): throttle_waits counts producers that had to hold at the
  // bound, throttle_ns the time they spent held, and budget_overruns the
  // held producers that gave way and went on over the bound (the events
  // scheduler::stats_t::give_ways counts per worker).
  std::uint64_t throttle_waits = 0;
  std::uint64_t throttle_ns = 0;
  std::uint64_t budget_overruns = 0;
};

/// Every seg_pool_stats field, for the sum below.
inline constexpr std::uint64_t seg_pool_stats::*kSegPoolFields[] = {
    &seg_pool_stats::allocated,       &seg_pool_stats::recycled,
    &seg_pool_stats::high_water,      &seg_pool_stats::live,
    &seg_pool_stats::in_use_bytes,    &seg_pool_stats::peak_bytes,
    &seg_pool_stats::throttle_waits,  &seg_pool_stats::throttle_ns,
    &seg_pool_stats::budget_overruns, &seg_pool_stats::head_reloads,
    &seg_pool_stats::tail_reloads,    &seg_pool_stats::mu_data,
    &seg_pool_stats::seg_cache_hits,  &seg_pool_stats::mu_attach,
    &seg_pool_stats::mu_complete,
};
static_assert(sizeof(seg_pool_stats) ==
                  std::size(kSegPoolFields) * sizeof(std::uint64_t),
              "every seg_pool_stats field needs a row in kSegPoolFields");

/// Aggregate over a pipeline's queues (field-wise sum; high_water /
/// peak_bytes become the sum of per-queue peaks, an upper bound on the
/// combined peak).
inline seg_pool_stats operator+(seg_pool_stats a, const seg_pool_stats& b) {
  for (const auto f : kSegPoolFields) a.*f += b.*f;
  return a;
}

/// Per-(task, queue) bookkeeping. Owned by the queue control block; lives
/// from the task's spawn until its completion (the owner attachment lives
/// until queue destruction).
struct qattach {
  queue_cb* q = nullptr;
  task_frame* frame = nullptr;  // null once completed
  qattach* parent = nullptr;    // attachment of the spawning task
  std::uint8_t priv = 0;

  /// Recycling bookkeeping: attachments come from the scheduler's per-worker
  /// attach pool (sched/obj_pool.hpp). Null pool_sched means plain heap
  /// (allocation happened outside any worker — not expected, but safe).
  scheduler* pool_sched = nullptr;
  unsigned pool_owner = ~0u;

  // ---- producer side (owning task only, no lock) -------------------------

  /// The task's current open shard (push-privileged tasks only). Spawns
  /// close it and continue on a fresh one; completion closes the last.
  pshard* my_shard = nullptr;

  // ---- consumer side -----------------------------------------------------

  /// Pop-only tasks: last shard of the visible range (inclusive) — the
  /// spawning parent's shard, closed at this task's spawn. Push-capable
  /// consumers use their own my_shard as the (dynamic) end instead: they may
  /// consume everything up to and including their own pushes. Immutable
  /// after spawn; the shard record outlives this attachment (nothing may
  /// scan past it before this task completes — pop FIFO).
  pshard* end_shard = nullptr;

  /// Pop-privileged FIFO per parent (scheduling rule 3): the most recent
  /// live pop-privileged child. Guarded by queue_cb::mu.
  qattach* last_pop_child = nullptr;

  /// Live child attachments (selective sync, Section 5.5; lock-free).
  std::atomic<long> live_children{0};

  /// Live pop-privileged children. Read lock-free by the owning task on the
  /// consumer fast path: the release decrement in on_task_complete pairs
  /// with an acquire load, so observing zero implies the completed child's
  /// scan-position hand-back is visible.
  std::atomic<long> live_pop_children{0};

  /// Live push-privileged children (O(1) sync_children(kPrivPush)).
  std::atomic<long> live_push_children{0};

  // ---- scan position (held by at most one attachment per queue) ----------

  /// True while this attachment holds the queue's single scan position —
  /// the successor of the paper's queue view. Transfers at pop spawn and
  /// completion run under queue_cb::mu; the owning task reads it lock-free
  /// once an acquire load of live_pop_children returned zero.
  bool has_pos = false;
  pshard* pos_shard = nullptr;  ///< shard the consumer is draining
  segment* pos_seg = nullptr;   ///< segment within it (null: head not read)

  /// Ready-segment hint from the last successful wait_data. Lets the
  /// Figure-2 `while (!q.empty()) q.pop();` idiom run wait_data once per
  /// element: pop()/read_slice() reuse the segment found by empty() when it
  /// is still the scan-position segment with readable data.
  segment* ready_seg = nullptr;
};

/// Control block shared by a hyperqueue<T> and all wrappers referencing it.
struct queue_cb {
  queue_cb(element_ops o, std::uint64_t segment_capacity);
  ~queue_cb();

  queue_cb(const queue_cb&) = delete;
  queue_cb& operator=(const queue_cb&) = delete;

  // ---- lifetime ----------------------------------------------------------
  void add_ref() noexcept { refs.fetch_add(1, std::memory_order_relaxed); }
  // Out of line: an inlined `delete this` trips GCC's -Wuse-after-free
  // interprocedural analysis at wrapper destruction sites.
  void release() noexcept;

  /// Create the owner attachment on the constructing task's frame: the
  /// owner's shard with the initial segment, holding the scan position.
  void attach_owner(task_frame* owner_frame);

  /// Tear down from the owner task: waits (helping) until all spawned tasks
  /// on this queue completed, then destroys remaining elements, segments and
  /// shards.
  void detach_owner();

  // ---- spawn / completion protocol ---------------------------------------

  /// Called during spawn-argument resolution on the spawning task's thread:
  /// creates the child attachment, splices the child's shard (and the
  /// parent's continuation shard) into the scan list, and — for pop
  /// privileges only — registers the FIFO dependence under mu.
  qattach* attach_spawn(task_frame* child, std::uint8_t priv);

  /// Completion-time protocol (runs as a frame completion hook). Push side:
  /// close the shard, lock-free. Pop side: hand the scan position back to
  /// the parent under mu.
  void on_task_complete(qattach* a);

  // ---- producer / consumer operations (element_ops-typed payloads) -------

  /// Append one element (move-constructs from src; src is left moved-from).
  void push(void* src);

  /// Paper semantics: false when a value is available to this task; true
  /// only when no older-in-program-order producer can still push. Blocks
  /// (helping the scheduler) until one of the two is certain.
  bool empty();

  /// Move the next value into dst. Aborts if the queue is definitively
  /// empty — popping from an empty hyperqueue is a program error.
  void pop(void* dst);

  /// Contiguous write window (Section 5.2). Returns the slot pointer and
  /// sets *count to the granted length (>=1; may be less than wanted).
  /// Elements must be move-constructed into the slots, then committed.
  void* write_slice(std::uint64_t want, std::uint64_t* count);
  void commit_write(std::uint64_t produced);

  /// Contiguous read window of up to `want` ready elements. Sets *count to
  /// the granted length; returns null with *count==0 when the queue is
  /// definitively empty. Blocks until data or definitive emptiness.
  void* read_slice(std::uint64_t want, std::uint64_t* count);
  /// As read_slice, but never waits: null with *count == 0 when nothing is
  /// readable now, and then *ended tells whether that is definitive. The
  /// read side of a drain (sched/drain.hpp).
  void* poll_slice(std::uint64_t want, std::uint64_t* count, bool* ended);
  void commit_read(std::uint64_t consumed);
  /// The calling producer's current shard (its scanned / taken state).
  const pshard& my_shard();

  // ---- selective sync (Section 5.5) --------------------------------------
  void sync_children(std::uint8_t priv_filter);

  // ---- introspection (tests / benches) ------------------------------------
  [[nodiscard]] seg_pool_stats pool_stats() const {
    seg_pool_stats st;
    st.allocated = seg_fresh.load(std::memory_order_relaxed);
    st.recycled = seg_recycled.load(std::memory_order_relaxed);
    st.high_water = seg_high_water.load(std::memory_order_relaxed);
    st.live = seg_live.load(std::memory_order_relaxed);
    st.in_use_bytes = seg_in_use.load(std::memory_order_relaxed) * seg_bytes_;
    st.peak_bytes = st.high_water * seg_bytes_;
    if (consumer_drain != nullptr) consumer_drain->hold_stats(st);
    for (const auto f : kDataPathFields)
      st.*f = std::atomic_ref<std::uint64_t>(dp_.*f).load(
          std::memory_order_relaxed);
    return st;
  }
  [[nodiscard]] qattach* owner_attachment() { return owner; }

  /// The drain that consumes this queue (declared pipelines; null for
  /// hand-written programs, whose consumers pop). Set before any producer
  /// runs; a closing producer shard kicks it.
  drain* consumer_drain = nullptr;
  /// Attachment of the calling task (current frame), requiring `need` privs.
  qattach* my_attachment(std::uint8_t need);

  /// Bytes one segment occupies (header + slots).
  [[nodiscard]] std::uint64_t segment_bytes() const noexcept {
    return seg_bytes_;
  }

  element_ops ops;
  const std::uint64_t seg_capacity;

 private:
  friend struct qattach;

  segment* alloc_segment();
  void recycle_segment(segment* s);
  pshard* alloc_shard();
  void free_shard(pshard* sh);

  /// Splice `count` (1 or 2) pre-linked shards after the spawner's current
  /// shard `sp` and close it. first..last must already be chained via their
  /// next pointers; the caller is the task owning sp.
  static void splice_after(pshard* sp, pshard* first, pshard* last);

  /// The last shard of `a`'s visible range (inclusive): a push-capable
  /// task's own current shard, a pop-only task's spawn-frozen end.
  static pshard* scan_end(const qattach* a) {
    return (a->priv & kPrivPush) != 0 ? a->my_shard : a->end_shard;
  }

  /// Make sure `a` holds the scan position, claiming it from ancestors (it
  /// is in flight back to an ancestor after an older consumer completed).
  /// try_pos makes one attempt; ensure_pos waits (helping) until it holds.
  bool try_pos(qattach* a);
  void ensure_pos(qattach* a);

  /// Advance `a`'s scan as far as it can go now: the first readable segment,
  /// or null — with *ended set when emptiness is definitive, clear when an
  /// older producer's open shard holds the scan. Caches a->ready_seg.
  segment* scan(qattach* a, bool* ended);

  /// Block (helping) until data is readable (returns segment) or emptiness
  /// is definitive (returns null).
  segment* wait_data(qattach* a);

  /// Consumer entry point shared by empty/pop/read_slice: the lock-free
  /// ready-segment fast path, falling back to wait_data. Force-inlined into
  /// the per-element entry points — a call here costs as much as the hint
  /// saves.
  [[gnu::always_inline]] inline segment* consumer_ready(qattach* a) {
    segment* s = a->ready_seg;
    // The hint is only a short-circuit: it must still be the scan-position
    // segment (acquire on live_pop_children pairs with the completion
    // hand-back) and still hold readable data. Anything else re-runs the
    // full path.
    if (s != nullptr && a->live_pop_children.load(std::memory_order_acquire) == 0 &&
        a->has_pos && s == a->pos_seg && s->readable()) [[likely]] {
      return s;
    }
    return wait_data(a);
  }

  std::atomic<long> refs{1};
  /// Pop-side structure lock: pop-FIFO registration, scan-position
  /// transfers, and nothing else. The producer path never takes it.
  std::mutex mu;
  qattach* owner = nullptr;

  spinlock free_mu;
  segment* free_list = nullptr;  // chained through segment::next
  /// One-slot lock-free front of the segment pool: the steady-state ring
  /// recycle (consumer drains -> recycles, producer allocates next wrap)
  /// exchanges through this cell and never touches free_mu.
  std::atomic<segment*> seg_cache_{nullptr};
  std::atomic<std::uint64_t> seg_live{0};

  // Pool statistics (relaxed: monitoring only, never load-bearing).
  std::atomic<std::uint64_t> seg_fresh{0};
  std::atomic<std::uint64_t> seg_recycled{0};
  std::atomic<std::uint64_t> seg_in_use{0};
  std::atomic<std::uint64_t> seg_high_water{0};

  /// Bytes per segment, fixed at construction (footprint_bytes).
  const std::uint64_t seg_bytes_;

  /// Slow-event counters (see seg_pool_stats); segments hold a pointer.
  mutable data_path_counts dp_;
};

}  // namespace hq::detail

// Hyperqueue control block: the non-templated runtime state of one
// hyperqueue (paper Sections 3 and 4).
//
// Responsibilities:
//  * per-task, per-queue attachments carrying the producer's private shard
//    (`pshard`, core/view.hpp) and the consumer's scan position;
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
#include <mutex>

#include "conc/spinlock.hpp"
#include "core/segment.hpp"
#include "core/view.hpp"
#include "sched/task.hpp"

namespace hq::detail {

inline constexpr std::uint8_t kPrivPush = 1;
inline constexpr std::uint8_t kPrivPop = 2;

struct queue_cb;

/// Segment-pool counters (tests / benches): with a well-behaved pipeline the
/// pool reaches steady state — `allocated` plateaus at `high_water` and every
/// further segment demand is served by `recycled`.
struct seg_pool_stats {
  std::uint64_t allocated = 0;   ///< fresh heap allocations, ever
  std::uint64_t recycled = 0;    ///< allocation requests served by the pool
  std::uint64_t high_water = 0;  ///< peak segments simultaneously in use
  std::uint64_t live = 0;        ///< currently allocated (in use + pooled)

  // Byte-denominated footprint (the budget's own unit, so budgets can be
  // audited without knowing segment geometry): in_use_bytes is segments in
  // use x bytes per segment *now*, peak_bytes the same at the high-water
  // mark, budget_bytes the configured cap (0 = unlimited).
  std::uint64_t in_use_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t budget_bytes = 0;

  // Backpressure events: producer waits entered because the queue was at
  // its memory budget, and the total wall time spent in them.
  // budget_overruns counts waits that escaped over budget because no
  // consumer could make recycle progress (see queue_cb::budget_wait) — 0
  // whenever the consumer stays runnable, i.e. the cap held hard.
  std::uint64_t throttle_waits = 0;
  std::uint64_t throttle_ns = 0;
  std::uint64_t budget_overruns = 0;

  // Structural-exemption audit: shards_peak is the high-water count of
  // simultaneously live producer shards, and exempt_peak_bytes =
  // shards_peak x kShardMinSegs x segment bytes — the most the per-shard
  // allocation floor can ever hold above budget_bytes. On any run with
  // budget_overruns == 0, peak_bytes <= budget_bytes + exempt_peak_bytes
  // is the hard invariant (tests assert exactly this; the shard peak makes
  // the slack schedule-independent instead of a guessed constant).
  std::uint64_t shards_peak = 0;
  std::uint64_t exempt_peak_bytes = 0;

  /// Aggregate over a pipeline's queues (field-wise sum; high_water /
  /// peak_bytes become the sum of per-queue peaks, an upper bound on the
  /// combined peak; budget_bytes the combined cap).
  friend seg_pool_stats operator+(const seg_pool_stats& a,
                                  const seg_pool_stats& b) {
    seg_pool_stats r;
    r.allocated = a.allocated + b.allocated;
    r.recycled = a.recycled + b.recycled;
    r.high_water = a.high_water + b.high_water;
    r.live = a.live + b.live;
    r.in_use_bytes = a.in_use_bytes + b.in_use_bytes;
    r.peak_bytes = a.peak_bytes + b.peak_bytes;
    r.budget_bytes = a.budget_bytes + b.budget_bytes;
    r.throttle_waits = a.throttle_waits + b.throttle_waits;
    r.throttle_ns = a.throttle_ns + b.throttle_ns;
    r.budget_overruns = a.budget_overruns + b.budget_overruns;
    r.shards_peak = a.shards_peak + b.shards_peak;
    r.exempt_peak_bytes = a.exempt_peak_bytes + b.exempt_peak_bytes;
    return r;
  }
};

/// Data-path slow-event snapshot (tests / benches): the element fast path
/// increments none of these. The mu_* fields pin the locking contract:
/// mu_attach stays 0 across producer-only bursts because the producer side —
/// push, write_slice, push-privileged spawn and completion — never takes a
/// mutex; mu_attach/mu_complete count the pop-side registrations that still
/// do.
struct data_path_stats {
  std::uint64_t head_reloads = 0;   ///< producer re-read the consumer's head
  std::uint64_t tail_reloads = 0;   ///< consumer re-read the producer's tail
  std::uint64_t mu_data = 0;        ///< consumer took mu (scan-position claim)
  std::uint64_t seg_cache_hits = 0; ///< segment allocs served lock-free
  std::uint64_t mu_attach = 0;      ///< attach_spawn took mu (pop FIFO only)
  std::uint64_t mu_complete = 0;    ///< completion took mu (pop hand-back only)
  std::uint64_t live_bytes = 0;     ///< segments in use x bytes per segment
};

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
  /// `budget_bytes` caps the queue's live segment footprint (backpressure,
  /// see budget_wait). 0 means "use the HQ_QUEUE_BUDGET environment default"
  /// (itself unlimited when unset); call set_memory_budget(0) afterwards to
  /// force unlimited regardless of the environment.
  queue_cb(element_ops o, std::uint64_t segment_capacity,
           std::uint64_t budget_bytes = 0);
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

  /// Batched pop: relocate up to `max` elements into the contiguous
  /// uninitialized array at `dst`. Returns the number transferred; 0 only
  /// when the queue is definitively empty. Blocks like pop.
  std::uint64_t pop_n(void* dst, std::uint64_t max);

  /// Contiguous write window (Section 5.2). Returns the slot pointer and
  /// sets *count to the granted length (>=1; may be less than wanted).
  /// Elements must be move-constructed into the slots, then committed.
  void* write_slice(std::uint64_t want, std::uint64_t* count);
  void commit_write(std::uint64_t produced);

  /// Contiguous read window of up to `want` ready elements. Sets *count to
  /// the granted length; returns null with *count==0 when the queue is
  /// definitively empty. Blocks until data or definitive emptiness.
  void* read_slice(std::uint64_t want, std::uint64_t* count);
  void commit_read(std::uint64_t consumed);

  // ---- selective sync (Section 5.5) --------------------------------------
  void sync_children(std::uint8_t priv_filter);

  // ---- introspection (tests / benches) ------------------------------------
  [[nodiscard]] std::uint64_t segments_allocated() const {
    return seg_live.load(std::memory_order_relaxed);
  }
  [[nodiscard]] seg_pool_stats pool_stats() const {
    seg_pool_stats st;
    st.allocated = seg_fresh.load(std::memory_order_relaxed);
    st.recycled = seg_recycled.load(std::memory_order_relaxed);
    st.high_water = seg_high_water.load(std::memory_order_relaxed);
    st.live = seg_live.load(std::memory_order_relaxed);
    st.in_use_bytes = seg_in_use.load(std::memory_order_relaxed) * seg_bytes_;
    st.peak_bytes = st.high_water * seg_bytes_;
    st.budget_bytes = budget_bytes_.load(std::memory_order_relaxed);
    st.throttle_waits = throttle_waits_.load(std::memory_order_relaxed);
    st.throttle_ns = throttle_ns_.load(std::memory_order_relaxed);
    st.budget_overruns = budget_overruns_.load(std::memory_order_relaxed);
    st.shards_peak = shards_peak_.load(std::memory_order_relaxed);
    st.exempt_peak_bytes = st.shards_peak * kShardMinSegs * seg_bytes_;
    return st;
  }
  [[nodiscard]] data_path_stats data_stats() const {
    data_path_stats st;
    st.head_reloads = dp_.head_reloads.load(std::memory_order_relaxed);
    st.tail_reloads = dp_.tail_reloads.load(std::memory_order_relaxed);
    st.mu_data = dp_.mu_data.load(std::memory_order_relaxed);
    st.seg_cache_hits = dp_.seg_cache_hits.load(std::memory_order_relaxed);
    st.mu_attach = dp_.mu_attach.load(std::memory_order_relaxed);
    st.mu_complete = dp_.mu_complete.load(std::memory_order_relaxed);
    st.live_bytes = seg_in_use.load(std::memory_order_relaxed) * seg_bytes_;
    return st;
  }
  [[nodiscard]] qattach* owner_attachment() { return owner; }
  /// Attachment of the calling task (current frame), requiring `need` privs.
  qattach* my_attachment(std::uint8_t need);

  // ---- memory budget (backpressure) ---------------------------------------
  /// Cap the queue's live segment footprint at roughly `bytes` (0 =
  /// unlimited). Producers that would grow the queue past the cap enter a
  /// cooperative, cancellable throttle wait instead (budget_wait). Budgets
  /// below the structural minimum — kShardMinSegs segments per live producer
  /// shard, which deadlock-freedom requires — are enforced at that minimum,
  /// so any positive budget is safe and deterministic.
  void set_memory_budget(std::uint64_t bytes) noexcept;
  [[nodiscard]] std::uint64_t memory_budget() const noexcept {
    return budget_bytes_.load(std::memory_order_relaxed);
  }
  /// Bytes one segment occupies (header + slots) — the budget's unit.
  [[nodiscard]] std::uint64_t segment_bytes() const noexcept {
    return seg_bytes_;
  }

  /// Per-shard allocation floor the budget never blocks: the consumer can
  /// always drain any shard ahead of it down to its open tail segment, so a
  /// producer holding fewer than this many live segments must be allowed to
  /// link another one or backpressure could deadlock behind an unreachable
  /// shard (see budget_wait in queue_cb.cpp for the full argument).
  static constexpr std::uint32_t kShardMinSegs = 2;

  element_ops ops;
  const std::uint64_t seg_capacity;

 private:
  friend struct qattach;

  segment* alloc_segment();
  void recycle_segment(segment* s);
  pshard* alloc_shard();
  void free_shard(pshard* sh);

  /// Memory-budget throttle, called by producer paths before growing shard
  /// `sh`'s chain. Blocks (pause-only, cancellable) while the queue is at
  /// its budget — unless a structural exemption applies: the shard holds
  /// fewer than kShardMinSegs segments, or the task also has pop privilege
  /// (its own pops are what would free segments). Escapes over budget
  /// (counted) when no consumer makes recycle progress, rather than
  /// wedging a schedule that cannot interleave the consumer.
  void budget_wait(qattach* a, pshard* sh);

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
  void ensure_pos(qattach* a);

  /// Block (helping) until data is readable (returns segment) or emptiness
  /// is definitive (returns null). Caches the result in a->ready_seg.
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

  // Memory budget (see set_memory_budget / budget_wait). seg_bytes_ is the
  // per-segment footprint fixed at construction; budget_segs_ the cap
  // translated into segments (0 = unlimited), what the throttle actually
  // compares against seg_in_use.
  const std::uint64_t seg_bytes_;
  std::atomic<std::uint64_t> budget_bytes_{0};
  std::atomic<std::uint64_t> budget_segs_{0};
  std::atomic<std::uint64_t> throttle_waits_{0};
  std::atomic<std::uint64_t> throttle_ns_{0};
  std::atomic<std::uint64_t> budget_overruns_{0};
  // Live / high-water producer-shard population: each live shard may hold
  // up to kShardMinSegs budget-exempt segments, so the peak bounds how far
  // above the budget an overrun-free run can legitimately sit.
  std::atomic<std::uint64_t> shards_live_{0};
  std::atomic<std::uint64_t> shards_peak_{0};
  /// Yield-phase iterations without any recycle progress before a budget
  /// wait escapes over budget instead of risking a wedged schedule (only
  /// reached when no worker can run the consumer; see budget_wait).
  static constexpr std::uint32_t kBudgetPatience = 1024;

  /// Slow-event counters (see data_path_stats); segments hold a pointer.
  mutable data_path_counters dp_;
};

}  // namespace hq::detail

// Producer shards and the view split/reduce algebra (paper Section 3.3).
//
// The runtime's data path orders producers with the explicit shard list
// (`pshard`, below): the spawn-time splice fixes the merge order exactly
// where the paper's split() would create the non-local pairing, so the
// consumer's scan realizes the same serial-elision order the view algebra
// proves deterministic. The view type and split/reduce remain as the
// paper-faithful reference semantics (exercised directly by test_views).
//
// A view is a (head, tail) pair over a linked chain of queue segments. Each
// side is either *local* (a real segment pointer) or *non-local* (the
// segment is shared with the logically adjacent view; represented by a null
// pointer carrying a match id used to check the pairing invariant).
// The empty view ε is distinct from a view whose two sides are both
// non-local.
//
//   split((s,s))              = ((s, nlX), (nlX, s))         (new id X)
//   reduce((h1,t1),(h2,t2))   = ((h1,t2), ε)
//     - t1, h2 local:         link t1->next = h2
//     - t1, h2 non-local:     ids must match (already linked by the split)
//   reduce(v, ε) = (v, ε);  reduce(ε, v) = (v, ε)
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "core/segment.hpp"

namespace hq {
class scheduler;
}

namespace hq::detail {

/// Producer shard: one contiguous program-order span of pushes, owning a
/// private segment chain. Shards form a queue-wide singly-linked list in
/// serial-elision order; the single consumer scans it front to back.
///
/// The list is built lock-free at spawn points: new shards are only ever
/// spliced in *after the spawning task's own current shard*, so every
/// insertion point has exactly one possible writer and publication needs no
/// CAS — the owner pre-links the new records, redirects `next`, and then
/// closes the shard with one release store. The consumer reads `next` only
/// after observing `closed` with acquire, which also makes every segment
/// pushed before the close visible. A closed shard is immutable; since the
/// global list tail is always the queue owner's current (open) shard, a
/// closed shard always has a non-null successor.
///
/// `head` is the owner's one-time publication of the chain (release store on
/// the first push); `tail` is owner-local and never read by the consumer.
struct pshard {
  std::atomic<segment*> head{nullptr};  ///< first segment; set once, release
  segment* tail = nullptr;              ///< chain tail (producer-local)
  std::atomic<pshard*> next{nullptr};   ///< scan-order successor (see above)
  std::atomic<bool> closed{false};      ///< no pushes or splices can follow

  /// Segments currently live in this shard's chain. Incremented by the
  /// owning producer when it links a fresh segment, decremented by the
  /// consumer as it recycles drained ones. The memory-budget throttle
  /// (queue_cb::budget_wait) reads the producer's own count to apply the
  /// structural exemption: a producer below the per-shard minimum may
  /// always allocate, which is what keeps budget waits deadlock-free (the
  /// consumer can reach and drain every shard ahead of it in scan order).
  /// Relaxed is enough: only the owner increments, so a producer's read of
  /// its own shard is never below the true count — staleness errs toward
  /// throttling, and the wait loop re-reads.
  std::atomic<std::uint32_t> live_segs{0};

  /// Set once the consumer's scan has reached this shard: every value
  /// pushed here is visible from now on, none waits behind an older
  /// producer. The bounds of drained queues (sched/drain.hpp) treat such a
  /// producer apart.
  std::atomic<bool> scanned{false};
  /// Values the consumer has taken from this shard (written by the
  /// consumer only): a scanned producer's own backlog is what it pushed
  /// minus this.
  std::atomic<std::uint64_t> taken{0};

  /// Recycling bookkeeping, mirroring qattach: shards come from the
  /// scheduler's per-worker attach pool and are freed by whichever worker
  /// retires them (the consumer, usually).
  scheduler* pool_sched = nullptr;
  unsigned pool_owner = ~0u;
};

struct view {
  segment* head = nullptr;   // local head pointer, when head_nl == 0
  segment* tail = nullptr;   // local tail pointer, when tail_nl == 0
  std::uint64_t head_nl = 0;  // nonzero: head side is non-local with this id
  std::uint64_t tail_nl = 0;  // nonzero: tail side is non-local with this id
  bool present = false;       // false: this is the empty view ε

  [[nodiscard]] bool empty() const noexcept { return !present; }
  [[nodiscard]] bool head_local() const noexcept { return present && head_nl == 0; }
  [[nodiscard]] bool tail_local() const noexcept { return present && tail_nl == 0; }

  /// The local view (s, s) on a single segment.
  static view local(segment* s) noexcept {
    view v;
    v.head = s;
    v.tail = s;
    v.present = true;
    return v;
  }

  /// Detach and return this view's contents, leaving ε behind.
  view take() noexcept {
    view v = *this;
    *this = view{};
    return v;
  }
};

/// Split a local view (s, s) into a head-only and a tail-only view joined by
/// the fresh non-local id `nl_id`. Returns {head_view, tail_view}.
std::pair<view, view> split(view v, std::uint64_t nl_id) noexcept;

/// Reduce `right` into `left` in program order; `right` becomes ε.
/// Aborts (assert) on pairings that the paper proves cannot occur.
void reduce_into(view& left, view&& right) noexcept;

}  // namespace hq::detail

// Producer shards (paper Section 3.3, realized without views).
//
// The paper orders a hyperqueue's producers with views: split() at each
// spawn, reduce() at each sync. The runtime orders them with an explicit
// shard list instead: the spawn-time splice fixes the merge order exactly
// where split() would create a non-local pairing, so the consumer's scan
// realizes the same serial-elision order the view algebra proves
// deterministic.
#pragma once

#include <atomic>
#include <cstdint>

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

  /// Set once the consumer's scan has reached this shard: every value
  /// pushed here is visible from now on, none waits behind an older
  /// producer. The backlog bound of a drained queue (sched/drain.hpp)
  /// treats such a producer apart.
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

}  // namespace hq::detail

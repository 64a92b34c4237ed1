// Drains: producer-driven consumer stages.
//
// A declared pipeline lowers each serial stage and its sink onto a drain
// instead of a task that blocks on its input (pipeline/builder.hpp). The
// drain owns the stage's frame: a task frame that is created like a spawn,
// so its queue attachments take their place in scan order, but is never
// scheduled (task_frame::detached). Each *activation* runs the frame's
// closure once with the frame current, on whichever worker started it: the
// closure pops only what its input hyperqueue shows right now (read slices
// that never wait), runs the stage body on it and returns. Children it
// spawns are the frame's children. The frame completes when the closure
// reports the end of its stream and its last child has completed.
//
// Who starts an activation (kick): a producer that pushed into the drain's
// queue, at its batch end, inline; a producer shard closing at a task's
// completion, deferred to the end of that task's execute() on the same
// worker (scheduler::defer_drain); a producer over the backlog bound. At
// most one activation runs at a time: `state_` moves idle -> running under
// a CAS, a kick that finds it running marks it dirty, and the running
// activation repeats until it can return to idle with no kick missed.
//
// Backlog bound. The producers of a drain's queue may leave at most
// `limit_` = 2·P·B tokens untaken (B: the edge's slice batch), counted per
// queue and split in two: the producer the scan has reached
// (pshard::scanned) may keep limit_/2 of its own tokens untaken, every
// other one pushes only while the whole backlog stays within limit_/2. So
// the tokens behind the scanned producer never hold it back. A producer
// over its share is held, between tokens and cancellably: it runs the
// drain when it is idle and pauses while an activation runs elsewhere.
// Held producers not yet scanned are the preferred runners (the scanned
// one, with work of its own, leaves the drain to them and kicks them);
// after an activation that found nothing they wait for the next kick.
//
// Liveness of a hold. A pause need not end by itself: an activation can
// claim a run task of a later stage and nest it, held at the next drain,
// and a producer not yet scanned waits for an older one that may sit
// unstarted on a deque. So each pause is counted in the scheduler's pause
// census (scheduler::pause_in_hold), the scanned producer's too; a worker
// running an activation or a task is not counted. Once every worker is
// paused in a hold, nothing runs anywhere, and a producer not yet scanned
// gives way: it goes on over the bound. If a kick came in during its
// pause, it runs the drain first instead. The scanned producer never
// gives way: its tokens are visible, so the next activation takes them.
//
// Counting. Each drain counts the reserves that had to hold, the time they
// spent held and the give-ways among them; its queue reports these per
// edge (hold_stats, queue_cb::pool_stats). Only a hold reads the clock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "conc/backoff.hpp"

namespace hq {
class scheduler;
}

namespace hq::detail {

struct task_frame;
struct pshard;
struct seg_pool_stats;

class drain {
 public:
  drain() = default;
  drain(const drain&) = delete;
  drain& operator=(const drain&) = delete;

  /// Take ownership of the stage frame (spawn.hpp, make_drain_frame) and
  /// set the backlog bound in tokens. Before this, kicks are ignored: the
  /// runner binds every drain before it launches the source.
  void bind(task_frame* f, scheduler* s, std::uint64_t backlog_limit) noexcept {
    frame_ = f;
    sched_ = s;
    limit_ = backlog_limit;
  }

  // ---- producer side ------------------------------------------------------

  /// Data became visible: run an activation inline if the drain is idle,
  /// else make the running one look again.
  void kick();
  /// As kick(), from a completion hook: the activation runs once the
  /// completing task's execute() has returned to its caller's frame.
  void kick_deferred();
  /// Backlog bound: called before pushing `n` tokens, by a producer that
  /// pushed `pushed` so far into its shard `mine` (see the file comment).
  void reserve(std::size_t n, std::uint64_t pushed, const pshard& mine);

  // ---- activation side ----------------------------------------------------

  /// `n` tokens left the queue.
  void retired(std::size_t n) noexcept {
    retired_.store(retired_.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
    consumed_ = true;
  }
  /// The closure saw the definitive end of its input: the drain finishes
  /// after this activation.
  void end() noexcept { ended_ = true; }

  /// Run activations until idle; true when any took a value. The caller
  /// holds the running state (it won the idle -> running CAS); the
  /// scheduler's deferred kicks call this.
  bool run_owned();

  /// If the drain is idle, run it inline and return true; *progressed
  /// (optional) tells whether it took any value.
  bool try_run(bool* progressed = nullptr);

  /// Fill `st`'s hold counters: reserves that held (throttle_waits), the
  /// time they spent held (throttle_ns) and the give-ways among them
  /// (budget_overruns).
  void hold_stats(seg_pool_stats& st) const noexcept;

  /// Intrusive link of the scheduler's per-worker deferred-kick list.
  drain* next_pending = nullptr;

 private:
  enum : int { kIdle, kRunning, kDirty, kDone };
  void finalize();

  /// One step of a producer held at the backlog bound: run the drain if it
  /// is idle, else pause. `scanned`: the consumer's scan has reached the
  /// producer's shard. False when the hold must give way: the run is
  /// cancelling, the drain is done, or — for a producer not yet scanned —
  /// every worker is paused in a hold. Such a producer brackets its hold
  /// with hold_begin / hold_end: it is one of the drain's runners.
  struct hold_state {
    backoff bo;
    std::uint64_t seen = ~std::uint64_t{0};  ///< kicks_ at the last empty run
  };
  bool hold(scheduler& s, hold_state& h, bool scanned);
  void hold_begin() noexcept {
    runners_.fetch_add(1, std::memory_order_relaxed);
  }
  void hold_end() noexcept { runners_.fetch_sub(1, std::memory_order_relaxed); }

  std::atomic<int> state_{kIdle};
  /// The backlog is reserved_ - retired_: tokens producers reserved (and
  /// pushed), and tokens activations took (written by the running one).
  std::atomic<std::uint64_t> reserved_{0};
  std::atomic<std::uint64_t> retired_{0};
  /// Held producers not yet scanned: they run the drain, the scanned
  /// producer keeps producing.
  std::atomic<int> runners_{0};
  /// Kicks that found the drain idle and left it to a held producer.
  std::atomic<std::uint64_t> kicks_{0};
  /// Hold counters (hold_stats), bumped on the hold path only.
  std::atomic<std::uint64_t> holds_{0};
  std::atomic<std::uint64_t> held_ns_{0};
  std::atomic<std::uint64_t> give_ways_{0};
  std::uint64_t limit_ = 0;
  task_frame* frame_ = nullptr;  ///< freed once the drain is done
  scheduler* sched_ = nullptr;
  bool ended_ = false;     ///< running activation only
  bool consumed_ = false;  ///< running activation only: took a value
};

}  // namespace hq::detail

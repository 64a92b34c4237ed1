// Task frames: the per-spawn bookkeeping record of the runtime.
//
// A frame exists from spawn until completion. It carries the closure, the
// join counter for the implicit sync at task return, the dataflow dependency
// state (pending-dependency counter plus the list of dependents to notify),
// completion hooks (used by versioned-object trackers and hyperqueue view
// reduction), and the per-queue attachments.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>

#include "conc/inline_vec.hpp"
#include "conc/spinlock.hpp"
#include "sched/task_fn.hpp"

namespace hq {

class scheduler;

namespace detail {

struct qattach;  // defined in core/queue_cb.hpp

/// Thrown by cancellable blocking waits (hq::sync, queue wait_data, fault
/// stalls) once the scheduler's cancellation epoch flips after a failure.
/// Deliberately NOT derived from std::exception: stage bodies that catch
/// std::exception must not swallow the unwind. The execute() guard absorbs
/// it; it never escapes scheduler::run().
struct cancel_unwind {};

struct task_frame {
  task_frame(scheduler* s, task_frame* p)
      : sched(s), parent(p), depth(p ? p->depth + 1 : 0) {}

  task_frame(const task_frame&) = delete;
  task_frame& operator=(const task_frame&) = delete;

  scheduler* const sched;
  task_frame* const parent;
  const unsigned depth;

  /// Magazine that owns this frame's memory (kPoolExternal for frames
  /// heap-allocated outside any worker, e.g. roots launched from external
  /// threads). Set by scheduler::alloc_frame right after construction.
  unsigned pool_owner = ~0u;

  /// Position among its parent's children in spawn order (immutable once
  /// spawned), and the number of children this frame has spawned so far
  /// (written only by the worker executing it). Together with `parent` they
  /// order any two frames in serial-elision order (scheduler.cpp).
  std::uint64_t spawn_index = 0;
  std::uint64_t spawned = 0;

  /// Frame this one is nested on via help-while-blocked execution (the
  /// worker's execution stack, not the spawn tree). Set by execute(); only
  /// meaningful while the frame runs, and only read by its own worker.
  task_frame* exec_parent = nullptr;

  task_fn fn;

  /// Children spawned and not yet completed; sync() waits for zero.
  std::atomic<std::uint32_t> live_children{0};

  /// Unsatisfied scheduling dependences plus one "spawn guard" that is
  /// released once argument registration finishes; the frame becomes ready
  /// when this reaches zero.
  std::atomic<std::int32_t> pending_deps{1};

  /// Frames whose pending_deps must be decremented when this one completes.
  /// Guarded by dep_mu together with `completed`.
  spinlock dep_mu;
  bool completed = false;
  inline_vec<task_frame*, 4> dependents;

  /// Actions run at completion (after the implicit sync, before dependents
  /// are notified): tracker deregistration, hyperqueue view reduction.
  /// hook_fn keeps these allocation-free (every runtime hook fits inline).
  inline_vec<hook_fn, 4> completion_hooks;

  /// Hyperqueue attachments of this task (owned by the queue control block).
  inline_vec<qattach*, 2> attachments;

  /// Register `d` as waiting on this frame. Returns false when this frame
  /// already completed (no dependence needed). The caller must have bumped
  /// d->pending_deps beforehand and must undo it on false.
  bool add_dependent(task_frame* d) {
    std::lock_guard<spinlock> lk(dep_mu);
    if (completed) return false;
    dependents.push_back(d);
    return true;
  }

  /// Add a dependence of `succ` on `pred` (no-op when pred already done).
  static void depend(task_frame* succ, task_frame* pred) {
    assert(succ != pred);
    succ->pending_deps.fetch_add(1, std::memory_order_relaxed);
    if (!pred->add_dependent(succ)) {
      succ->pending_deps.fetch_sub(1, std::memory_order_relaxed);
    }
  }
};

/// Per-thread worker context; null on threads that are not scheduler workers.
struct worker_ctx;
extern thread_local worker_ctx* t_worker;

/// The frame of the task currently executing on this thread (null outside
/// task context).
task_frame* current_frame() noexcept;

}  // namespace detail
}  // namespace hq

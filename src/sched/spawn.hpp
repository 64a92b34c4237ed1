// spawn / sync / call — the task-parallel surface of the runtime.
//
// Mirrors the paper's programming model (Figures 1 and 2):
//
//   hq::scheduler_lease sched(P);  // resident workers (scheduler_lease.hpp)
//   sched->run([&] {
//     hq::hyperqueue<data> queue;
//     hq::spawn(producer, (hq::pushdep<data>)queue, 0, total);
//     hq::spawn(consumer, (hq::popdep<data>)queue);
//     hq::sync();
//   });
//
// Arguments are captured by value. Dependency wrappers (pushdep/popdep/
// pushpopdep, indep/outdep/inoutdep) expose hq_dep_resolve(frame*), which
// spawn() calls at spawn time to register scheduling dependences and splice
// the child's producer shard into the queue's scan order (core/queue_cb.*).
// Push-privileged spawns resolve entirely lock-free on the spawning
// worker; only pop privileges take the queue's pop-FIFO lock.
#pragma once

#include <cassert>
#include <tuple>
#include <type_traits>
#include <utility>

#include "sched/scheduler.hpp"
#include "sched/task.hpp"

namespace hq {

namespace detail {

/// Resolve one spawn argument: dependency wrappers register themselves on
/// the child frame; plain values pass through unchanged.
template <typename A>
auto resolve_spawn_arg(task_frame* fr, A&& a) {
  if constexpr (requires { std::forward<A>(a).hq_dep_resolve(fr); }) {
    return std::forward<A>(a).hq_dep_resolve(fr);
  } else {
    return std::decay_t<A>(std::forward<A>(a));
  }
}

inline void launch(task_frame* fr);

/// Create a child frame with the closure bound and dependences registered,
/// but the spawn guard still held. Callers must launch() it.
template <typename F, typename... Args>
task_frame* make_task(F&& f, Args&&... args) {
  worker_ctx* w = t_worker;
  assert(w != nullptr && w->current != nullptr &&
         "spawn() is only valid inside a task (use scheduler::run for the root)");
  task_frame* parent = w->current;
  task_frame* fr = w->sched->alloc_frame(parent);  // per-worker magazine pool
  fr->spawn_index = parent->spawned++;
  parent->live_children.fetch_add(1, std::memory_order_relaxed);
  try {
    // Build the argument tuple; wrapper resolution registers dependences and
    // performs hyperqueue view transfers for this spawn.
    auto bound = std::tuple(resolve_spawn_arg(fr, std::forward<Args>(args))...);
    fr->fn = task_fn(
        [func = std::decay_t<F>(std::forward<F>(f)), tup = std::move(bound)]() mutable {
          std::apply(func, std::move(tup));
        });
  } catch (...) {
    // Argument resolution threw (e.g. an injected allocation failure in the
    // attach pool) with shards/hooks possibly already half-registered on fr
    // and the parent's join counter bumped. Run the frame as a no-op: the
    // completion protocol unwinds whatever was registered and balances the
    // counter, keeping queue state and pools consistent during the rethrow.
    fr->fn = task_fn([] {});
    launch(fr);
    throw;
  }
  w->counters.spawns.fetch_add(1, std::memory_order_relaxed);
  return fr;
}

/// Release the spawn guard: the frame becomes ready once all registered
/// dependences are satisfied.
inline void launch(task_frame* fr) {
  if (fr->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    fr->sched->enqueue(fr);
  }
}

}  // namespace detail

/// Spawn `f(args...)` as a child task that may run in parallel with the
/// continuation of the calling task.
template <typename F, typename... Args>
void spawn(F&& f, Args&&... args) {
  detail::launch(detail::make_task(std::forward<F>(f), std::forward<Args>(args)...));
}

/// Wait until all children spawned by the calling task have completed.
/// The worker helps execute ready tasks while waiting. Cancellable: once a
/// failure cancels the run this unwinds with detail::cancel_unwind (the
/// implicit sync at task return still joins the children).
inline void sync() {
  detail::worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->current != nullptr && "sync() outside a task");
  detail::task_frame* f = w->current;
  w->sched->wait_until_cancellable(
      [f] { return f->live_children.load(std::memory_order_acquire) == 0; });
}

/// Call `f(args...)` through the task machinery and wait for it (paper
/// Section 4.2 treats calls like spawns for hyperqueue purposes). The callee
/// still respects its scheduling dependences.
template <typename F, typename... Args>
void call(F&& f, Args&&... args) {
  detail::worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->current != nullptr && "call() outside a task");
  detail::task_frame* fr =
      detail::make_task(std::forward<F>(f), std::forward<Args>(args)...);
  // The calling task's stack outlives the wait below (and the hook runs
  // before the callee's frame notifies our join counter), so a stack-local
  // flag suffices — no shared_ptr allocation on the call path.
  std::atomic<bool> done{false};
  fr->completion_hooks.push_back(
      hook_fn([&done] { done.store(true, std::memory_order_release); }));
  detail::launch(fr);
  // Deliberately NOT cancellable: the completion hook writes into this
  // stack frame, so the wait must outlive the callee. Under cancellation
  // the callee's body is skipped and completes promptly anyway.
  w->sched->wait_until([&] { return done.load(std::memory_order_acquire); });
}

/// Number of workers of the scheduler executing the calling task (1 when
/// called outside any scheduler).
inline unsigned workers() {
  scheduler* s = scheduler::current();
  return s ? s->num_workers() : 1u;
}

}  // namespace hq

// Resident schedulers: the runtime's only way to obtain worker threads.
//
// Building a scheduler carves the per-worker slab pools and starts one
// thread per worker; destroying it joins them. Paying that on every
// pipeline run would make a run's fixed cost depend on how the work is
// split into runs, so the runtime instead leases an idle *resident*
// scheduler (TBB's implicit-arena model):
//
//   {
//     hq::scheduler_lease sched(workers);   // hit: no new threads
//     sched->run([&] { ... });
//   }                                        // back to the idle set
//
// Leases are keyed on the resolved worker count, so a hit is
// indistinguishable from a freshly built scheduler with the same count. A
// miss constructs one. At scope exit the scheduler returns to the idle set,
// which keeps at most one per key: concurrent callers on one key each get
// their own scheduler and the extras are destroyed on return. Idle workers
// park on the scheduler's condition variable (10 ms safety-net poll); the
// retained schedulers are destroyed, and their workers joined, at process
// exit. (HQ_FRAME_POOL_CAP is read only when a scheduler is built.)
//
// A scheduler is reusable after a failed or cancelled run (scheduler.hpp),
// so a lease returns it either way.
#pragma once

#include <memory>

#include "sched/scheduler.hpp"

namespace hq {

class scheduler_lease {
 public:
  /// Lease a scheduler equivalent to scheduler(num_workers). 0 workers =
  /// hardware concurrency.
  explicit scheduler_lease(unsigned num_workers);
  ~scheduler_lease();

  scheduler_lease(const scheduler_lease&) = delete;
  scheduler_lease& operator=(const scheduler_lease&) = delete;

  scheduler& operator*() const noexcept { return *sched_; }
  scheduler* operator->() const noexcept { return sched_.get(); }

 private:
  unsigned workers_ = 0;
  std::unique_ptr<scheduler> sched_;
};

}  // namespace hq

// Resident schedulers: the runtime's only way to obtain worker threads.
//
// Building a scheduler reads the topology (sysfs unless HQ_TOPOLOGY names a
// synthetic model), carves the per-worker slab pools and starts one thread
// per worker; destroying it joins them. Paying that on every pipeline run
// would make a run's fixed cost depend on how the work is split into runs,
// so the runtime instead leases an idle *resident* scheduler (TBB's
// implicit-arena model):
//
//   {
//     hq::scheduler_lease sched(workers);   // hit: no sysfs, no new threads
//     sched->run([&] { ... });
//   }                                        // back to the idle set
//
// Leases are keyed on the resolved worker count and the placement — the
// policy, the topology source (the HQ_TOPOLOGY spec, or an explicit model's
// CPUs) and the explicit worker->CPU list — so a hit is indistinguishable
// from a freshly built scheduler with the same arguments. A miss constructs
// one. At scope exit the scheduler returns to the idle set, which keeps at
// most one per key: concurrent callers on one key each get their own
// scheduler and the extras are destroyed on return. Idle workers park on
// the scheduler's condition variable (10 ms safety-net poll); the retained
// schedulers are destroyed, and their workers joined, at process exit.
//
// A scheduler is reusable after a failed or cancelled run (scheduler.hpp),
// so a lease returns it either way.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "sched/scheduler.hpp"

namespace hq {

namespace detail {

/// Identity of a resident scheduler: everything its placement depends on.
/// (HQ_FRAME_POOL_CAP is read only when a scheduler is built.)
struct lease_key {
  unsigned workers = 0;
  placement_policy policy = placement_policy::none;
  /// Topology source: an explicit model's CPUs, or with none given the
  /// HQ_TOPOLOGY spec (both empty: the machine's own sysfs model).
  std::vector<cpu_desc> topo_cpus;
  bool topo_synthetic = false;
  std::optional<std::string> env_spec;
  std::vector<unsigned> explicit_cpus;

  bool operator==(const lease_key&) const = default;
};

}  // namespace detail

class scheduler_lease {
 public:
  /// Lease a scheduler equivalent to scheduler(num_workers, *cfg), or with
  /// `cfg` null to scheduler(num_workers): placement from the environment
  /// (HQ_PLACEMENT / HQ_TOPOLOGY). 0 workers = hardware concurrency.
  explicit scheduler_lease(unsigned num_workers,
                           const scheduler::placement_config* cfg = nullptr);
  ~scheduler_lease();

  scheduler_lease(const scheduler_lease&) = delete;
  scheduler_lease& operator=(const scheduler_lease&) = delete;

  scheduler& operator*() const noexcept { return *sched_; }
  scheduler* operator->() const noexcept { return sched_.get(); }

 private:
  detail::lease_key key_;
  std::unique_ptr<scheduler> sched_;
};

}  // namespace hq

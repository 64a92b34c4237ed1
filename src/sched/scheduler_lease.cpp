#include "sched/scheduler_lease.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

namespace hq {

namespace {

/// The idle resident schedulers, at most one per key. A process runs few
/// distinct (workers, placement) shapes, so a linear scan beats a map.
/// Destroyed at exit like any static: each retained scheduler joins its
/// parked workers.
struct idle_set {
  std::mutex mu;
  std::vector<std::pair<detail::lease_key, std::unique_ptr<scheduler>>> idle;
};

idle_set& idle_schedulers() {
  static idle_set s;
  return s;
}

detail::lease_key make_key(unsigned workers,
                           const scheduler::placement_config& cfg) {
  detail::lease_key k;
  k.workers = workers;
  k.policy = cfg.policy;
  if (cfg.topo != nullptr) {
    k.topo_cpus = cfg.topo->cpus();
    k.topo_synthetic = cfg.topo->is_synthetic();
  } else if (const char* spec = std::getenv("HQ_TOPOLOGY")) {
    k.env_spec = spec;
  }
  k.explicit_cpus = cfg.explicit_cpus;
  return k;
}

}  // namespace

scheduler_lease::scheduler_lease(unsigned num_workers,
                                 const scheduler::placement_config* cfg) {
  const scheduler::placement_config placement =
      cfg != nullptr ? *cfg
                     : scheduler::placement_config{placement_policy_from_env(),
                                                   nullptr, {}};
  if (num_workers == 0)
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  key_ = make_key(num_workers, placement);
  {
    idle_set& s = idle_schedulers();
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = std::find_if(s.idle.begin(), s.idle.end(),
                           [&](const auto& e) { return e.first == key_; });
    if (it != s.idle.end()) {
      sched_ = std::move(it->second);
      s.idle.erase(it);
      return;
    }
  }
  // Miss: build outside the lock (sysfs parse, slab carve, thread start).
  sched_ = std::make_unique<scheduler>(num_workers, placement);
}

scheduler_lease::~scheduler_lease() {
  {
    idle_set& s = idle_schedulers();
    std::lock_guard<std::mutex> lk(s.mu);
    const bool slot_taken =
        std::any_of(s.idle.begin(), s.idle.end(),
                    [&](const auto& e) { return e.first == key_; });
    if (!slot_taken) {
      s.idle.emplace_back(std::move(key_), std::move(sched_));
      return;
    }
  }
  sched_.reset();  // a concurrent caller's scheduler already holds the slot
}

}  // namespace hq

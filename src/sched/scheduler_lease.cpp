#include "sched/scheduler_lease.hpp"

#include <algorithm>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hq {

namespace {

/// The idle resident schedulers, at most one per worker count. A process
/// runs few distinct counts, so a linear scan beats a map. Destroyed at exit
/// like any static: each retained scheduler joins its parked workers.
struct idle_set {
  std::mutex mu;
  std::vector<std::pair<unsigned, std::unique_ptr<scheduler>>> idle;
};

idle_set& idle_schedulers() {
  static idle_set s;
  return s;
}

}  // namespace

scheduler_lease::scheduler_lease(unsigned num_workers) {
  if (num_workers == 0)
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  workers_ = num_workers;
  {
    idle_set& s = idle_schedulers();
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = std::find_if(s.idle.begin(), s.idle.end(),
                           [&](const auto& e) { return e.first == workers_; });
    if (it != s.idle.end()) {
      sched_ = std::move(it->second);
      s.idle.erase(it);
      return;
    }
  }
  // Miss: build outside the lock (slab carve, thread start).
  sched_ = std::make_unique<scheduler>(num_workers);
}

scheduler_lease::~scheduler_lease() {
  {
    idle_set& s = idle_schedulers();
    std::lock_guard<std::mutex> lk(s.mu);
    const bool slot_taken =
        std::any_of(s.idle.begin(), s.idle.end(),
                    [&](const auto& e) { return e.first == workers_; });
    if (!slot_taken) {
      s.idle.emplace_back(workers_, std::move(sched_));
      return;
    }
  }
  sched_.reset();  // a concurrent caller's scheduler already holds the slot
}

}  // namespace hq

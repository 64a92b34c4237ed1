// Stall watchdog: turns a hung run into a diagnostic, not a CI timeout.
//
// A monitor thread snapshots the scheduler's per-worker stats counters once
// per interval. Progress = tasks spawned + executed + drain activations
// that took a value, across all workers; an interval where that sum does
// not move means every worker is either parked or spinning in a wait that
// will never be satisfied. On the first such interval the watchdog records
// a hq::stall_error (carrying the per-worker dump: counter deltas, deque
// depths, parked pool threads) into the scheduler's failure slot — flipping
// the cancellation epoch, which unwinds every cancellable wait and lets run()
// rethrow the diagnostic on the calling thread. If cancellation itself makes
// no progress for `grace_intervals` further intervals (a wait that does not
// poll, i.e. a real runtime bug), the dump goes to stderr and the process
// aborts: a report either way, never a hang.
//
// The scheduler arms this per run when HQ_WATCHDOG_MS (or set_watchdog) is
// nonzero; the monitor thread lives only for the duration of that run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace hq {

class scheduler;

/// The failure a stalled run surfaces from scheduler::run(). what() is the
/// full per-worker diagnostic dump.
class stall_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class watchdog {
 public:
  struct options {
    std::chrono::milliseconds interval{1000};
    /// No-progress intervals tolerated *after* cancellation before the
    /// watchdog gives up on cooperative unwind and aborts.
    unsigned grace_intervals = 8;
    /// Disabled only in the watchdog's own tests (an abort is not
    /// observable from gtest).
    bool hard_abort = true;
  };

  watchdog(scheduler& s, options o);
  ~watchdog();

  watchdog(const watchdog&) = delete;
  watchdog& operator=(const watchdog&) = delete;

  /// True once a stall was detected (and the run cancelled).
  [[nodiscard]] bool fired() const noexcept {
    return fired_.load(std::memory_order_acquire);
  }

 private:
  void monitor();
  [[nodiscard]] std::uint64_t progress() const;
  [[nodiscard]] std::string report(std::uint64_t last_progress) const;

  scheduler& sched_;
  options opt_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<bool> fired_{false};
  std::thread thread_;
};

}  // namespace hq

#include "sched/watchdog.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <vector>

#include "sched/scheduler.hpp"

namespace hq {

watchdog::watchdog(scheduler& s, options o) : sched_(s), opt_(o) {
  thread_ = std::thread([this] { monitor(); });
}

watchdog::~watchdog() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::uint64_t watchdog::progress() const {
  // Throttle-wait iterations count as progress: a producer parked on a
  // queue's memory budget is backpressure working as designed, not a stall.
  // (Its wait loop ticks continuously, so a run where only throttled
  // producers remain keeps the watchdog quiet; if the budget wait itself
  // deadlocked — a runtime bug — the tick would stop and the watchdog still
  // fires.)
  const auto st = sched_.stats();
  return st.spawns + st.executed + st.throttle_waits;
}

std::string watchdog::report(std::uint64_t last_progress) const {
  const auto st = sched_.stats();
  std::ostringstream os;
  os << "watchdog: no scheduler progress for "
     << opt_.interval.count() << " ms (spawns+executed+throttle stuck at "
     << last_progress << ")\n";
  os << "  injector depth " << sched_.injector_depth() << ", parked workers "
     << sched_.idle_workers() << "/" << sched_.num_workers()
     << ", cancelling=" << (sched_.cancelled() ? "yes" : "no")
     << ", throttle waits " << st.throttle_waits << " ("
     << st.throttle_ns / 1000000 << " ms total)\n";
  for (const auto& w : sched_.per_worker_stats()) {
    os << "  worker " << w.worker << ": deque depth " << w.deque_depth
       << ", spawns " << w.spawns << ", executed " << w.executed << ", steals "
       << w.steals << "/" << w.steal_attempts << " attempts, helps "
       << w.helps << ", inline runs " << w.inline_runs;
    if (w.blocked_on_budget != nullptr)
      os << ", blocked_on: budget(queue@" << w.blocked_on_budget << ")";
    os << "\n";
  }
  return os.str();
}

void watchdog::monitor() {
  std::unique_lock<std::mutex> lk(mu_);
  std::uint64_t last = progress();
  unsigned stalled_intervals = 0;
  while (!stop_) {
    if (cv_.wait_for(lk, opt_.interval, [&] { return stop_; })) break;
    const std::uint64_t now = progress();
    if (now != last) {
      last = now;
      stalled_intervals = 0;
      continue;
    }
    ++stalled_intervals;
    if (!fired_.load(std::memory_order_relaxed)) {
      // First detection: cancel the run cooperatively. Every cancellable
      // wait unwinds and run() rethrows the diagnostic on the caller.
      fired_.store(true, std::memory_order_release);
      sched_.record_failure(
          std::make_exception_ptr(stall_error(report(last))));
    } else if (stalled_intervals > opt_.grace_intervals) {
      // Cancellation did not unblock the run: some wait is not polling the
      // epoch — a runtime bug. Dump and abort rather than hang forever.
      if (opt_.hard_abort) {
        std::string rep = report(last);
        std::fprintf(stderr,
                     "watchdog: run still stalled %u intervals after "
                     "cancellation, aborting\n%s",
                     stalled_intervals, rep.c_str());
        std::fflush(stderr);
        std::abort();
      }
    }
  }
}

}  // namespace hq

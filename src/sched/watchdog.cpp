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
  // A drain activation that took a value is progress too: a pipeline whose
  // only consumer is a serial sink spawns nothing while its drain takes
  // every token. One that took nothing is not, so a producer held behind a
  // producer that stopped still reads as a stall.
  const auto st = sched_.stats();
  return st.spawns + st.executed + st.drain_takes;
}

std::string watchdog::report(std::uint64_t last_progress) const {
  std::ostringstream os;
  os << "watchdog: no scheduler progress for "
     << opt_.interval.count() << " ms (spawns+executed+drain_takes stuck at "
     << last_progress << ")\n";
  os << "  worker 0 is the calling thread, parked workers "
     << sched_.idle_workers() << "/" << sched_.num_workers() - 1
     << ", cancelling=" << (sched_.cancelled() ? "yes" : "no") << "\n";
  for (const auto& w : sched_.per_worker_stats()) {
    os << "  worker " << w.worker << ": deque depth " << w.deque_depth;
    for (const auto& c : kSchedCounters) os << ", " << c.name << " " << w.*c.field;
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

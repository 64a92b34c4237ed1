#include "sched/drain.hpp"

#include <cassert>
#include <chrono>

#include "conc/backoff.hpp"
#include "core/queue_cb.hpp"
#include "core/shard.hpp"
#include "sched/scheduler.hpp"

namespace hq::detail {

void drain::kick() {
  if (frame_ == nullptr) return;
  int st = state_.load(std::memory_order_acquire);
  for (;;) {
    if (st == kIdle) {
      // A producer held at the bound runs it: its own values wait behind
      // this producer's, which goes on producing instead.
      if (runners_.load(std::memory_order_relaxed) != 0) {
        kicks_.fetch_add(1, std::memory_order_release);
        return;
      }
      if (state_.compare_exchange_weak(st, kRunning, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        run_owned();
        sched_->run_pending_drains();
        return;
      }
    } else if (st == kRunning) {
      if (state_.compare_exchange_weak(st, kDirty, std::memory_order_acq_rel,
                                       std::memory_order_acquire))
        return;
    } else {
      return;  // dirty already, or finished
    }
  }
}

void drain::kick_deferred() {
  if (frame_ == nullptr) return;
  int st = state_.load(std::memory_order_acquire);
  for (;;) {
    if (st == kIdle) {
      if (state_.compare_exchange_weak(st, kRunning, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        sched_->defer_drain(this);
        return;
      }
    } else if (st == kRunning) {
      if (state_.compare_exchange_weak(st, kDirty, std::memory_order_acq_rel,
                                       std::memory_order_acquire))
        return;
    } else {
      return;
    }
  }
}

bool drain::try_run(bool* progressed) {
  if (frame_ == nullptr) return false;
  int st = kIdle;
  if (!state_.compare_exchange_strong(st, kRunning, std::memory_order_acq_rel,
                                      std::memory_order_acquire))
    return false;
  const bool took = run_owned();
  if (progressed != nullptr) *progressed = took;
  sched_->run_pending_drains();
  return true;
}

bool drain::run_owned() {
  bool took = false;
  for (;;) {
    consumed_ = false;
    sched_->run_activation(frame_);
    if (consumed_) sched_->count_drain_take();
    took = took || consumed_;
    if (ended_ || sched_->cancelled()) {
      finalize();  // may free the frame and release the runner: touch nothing after
      return took;
    }
    int st = kRunning;
    if (state_.compare_exchange_strong(st, kIdle, std::memory_order_acq_rel,
                                       std::memory_order_acquire))
      return took;
    // A kick arrived while running (kDirty): look again.
    state_.store(kRunning, std::memory_order_relaxed);
  }
}

void drain::finalize() {
  state_.store(kDone, std::memory_order_release);
  // The closure (stage state, emitter, queue privileges) dies with the
  // frame current: an emitter still holding tokens flushes them into the
  // frame's own shard.
  sched_->end_activations(frame_);
}

bool drain::hold(scheduler& s, hold_state& h, bool scanned) {
  // A scanned producer leaves the drain to the held producers behind it
  // when there are any: they have nothing else to do, it has. Each of them
  // runs the drain again only after a kick once an activation of its own
  // found nothing; the kick after each push keeps the scanned producer's
  // values from waiting on that.
  if (!scanned || runners_.load(std::memory_order_relaxed) == 0) {
    const std::uint64_t k = kicks_.load(std::memory_order_acquire);
    if (k != h.seen) {
      bool progressed = false;
      if (try_run(&progressed)) {
        if (progressed) {
          h.bo.reset();
          return true;
        }
        h.seen = k;
      }
    }
  }
  if (state_.load(std::memory_order_acquire) == kDone || s.cancelled())
    return false;
  // Run work that cannot wait for this producer (see the file comment). A
  // runner is none meanwhile, so a kick the helped frame makes runs the
  // drain on the kicker.
  if (!scanned) hold_end();
  const bool helped = s.help_in_hold(this);
  if (!scanned) hold_begin();
  if (helped) {
    h.bo.reset();
    return true;
  }
  const auto t0 = std::chrono::steady_clock::now();
  h.bo.pause();
  h.paused += std::chrono::steady_clock::now() - t0;
  return true;
}

void drain::reserve(std::size_t n, std::uint64_t pushed, const pshard& mine) {
  // Two halves of the bound: the producer the scan has reached may leave
  // limit/2 of its own values untaken; every other one pushes only while
  // the whole backlog stays within limit/2. So the values behind the
  // scanned producer never hold it back, and the queue stays within limit.
  const std::uint64_t half = limit_ / 2 > 0 ? limit_ / 2 : 1;
  auto fits = [&](bool scanned) {
    if (scanned) {
      if (pushed - mine.taken.load(std::memory_order_relaxed) + n > half)
        return false;
      reserved_.fetch_add(n, std::memory_order_relaxed);
      return true;
    }
    // retired_ is read first: it never passes reserved_, so the difference
    // cannot wrap.
    const std::uint64_t done = retired_.load(std::memory_order_relaxed);
    std::uint64_t cur = reserved_.load(std::memory_order_relaxed);
    while (cur - done + n <= half) {
      if (reserved_.compare_exchange_weak(cur, cur + n,
                                          std::memory_order_relaxed))
        return true;
    }
    return false;
  };
  if (frame_ == nullptr || state_.load(std::memory_order_acquire) == kDone) {
    reserved_.fetch_add(n, std::memory_order_relaxed);
    return;
  }
  if (fits(mine.scanned.load(std::memory_order_relaxed))) return;
  holds_.fetch_add(1, std::memory_order_relaxed);
  bool runner = false;
  bool reserved = false;
  hold_state h;
  for (;;) {
    const bool scanned = mine.scanned.load(std::memory_order_relaxed);
    if (!scanned && !runner) hold_begin();
    if (scanned && runner) hold_end();
    runner = !scanned;
    if (!hold(*sched_, h, scanned)) break;
    if (fits(scanned)) {
      reserved = true;
      break;
    }
  }
  if (runner) hold_end();
  // The drain is done or the run cancels: nothing takes these values.
  if (!reserved) reserved_.fetch_add(n, std::memory_order_relaxed);
  paused_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(h.paused)
              .count()),
      std::memory_order_relaxed);
}

void drain::hold_stats(seg_pool_stats& st) const noexcept {
  st.throttle_waits = holds_.load(std::memory_order_relaxed);
  st.throttle_ns = paused_ns_.load(std::memory_order_relaxed);
}

}  // namespace hq::detail

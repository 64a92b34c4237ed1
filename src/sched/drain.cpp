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
  // when there are any: they have nothing else to do, it has. It is held
  // because its own values wait in the queue: it kicks them for those
  // holders, each of which runs the drain again only after a kick once an
  // activation of its own found nothing.
  if (scanned && runners_.load(std::memory_order_relaxed) != 0)
    kicks_.fetch_add(1, std::memory_order_release);
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
  // Nothing to take now: an activation runs elsewhere, or the producer the
  // scan waits on has not pushed yet. Pause, counted in the census; once
  // every worker is paused so, a producer not yet scanned gives way (see
  // the file comment), unless a kick came in meanwhile.
  const std::uint64_t k = kicks_.load(std::memory_order_acquire);
  if (!s.pause_in_hold(h.bo) || scanned ||
      kicks_.load(std::memory_order_acquire) != k)
    return true;
  s.count_give_way();
  give_ways_.fetch_add(1, std::memory_order_relaxed);
  return false;
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
  const auto t0 = std::chrono::steady_clock::now();
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
  // Given way (or cancelled): go on over the bound.
  if (!reserved) reserved_.fetch_add(n, std::memory_order_relaxed);
  held_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
}

void drain::hold_stats(seg_pool_stats& st) const noexcept {
  st.throttle_waits = holds_.load(std::memory_order_relaxed);
  st.throttle_ns = held_ns_.load(std::memory_order_relaxed);
  st.budget_overruns = give_ways_.load(std::memory_order_relaxed);
}

}  // namespace hq::detail

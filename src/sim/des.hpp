// Discrete-event simulation engine with a fixed number of cores.
//
// The SLO service model (sim/service.hpp) shares this engine's dispatch
// discipline, and tests/test_service.cpp replays the model's admitted
// trace through it to check the two agree.
//
// Model: work units occupy one core for a service time; cores dispatch from
// a FIFO run queue (non-preemptive at work-unit granularity).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

namespace hq::sim {

class engine {
 public:
  struct options {
    unsigned cores = 1;
  };

  explicit engine(const options& opt) : opt_(opt) {}

  using callback = std::function<void()>;

  /// Submit a work unit: occupies one core for `service` (virtual seconds)
  /// once a core is free; `done` runs at completion (and may submit more).
  void submit(double service, callback done) {
    run_queue_.push_back(pending{service, std::move(done)});
  }

  /// Schedule a pure event at now()+delay without occupying a core.
  void submit_after(double delay, callback fire) {
    events_.push(event{now_ + delay, next_tie_++, std::move(fire), false});
  }

  /// Process events until quiescent; returns the final virtual time.
  double run();

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] unsigned busy() const noexcept { return busy_; }

 private:
  struct pending {
    double service;
    callback done;
  };
  struct event {
    double time;
    std::uint64_t tie;
    callback fire;
    bool frees_core;
    bool operator>(const event& o) const {
      return time != o.time ? time > o.time : tie > o.tie;
    }
  };

  void dispatch();

  options opt_;
  std::priority_queue<event, std::vector<event>, std::greater<>> events_;
  std::deque<pending> run_queue_;
  unsigned busy_ = 0;
  double now_ = 0;
  std::uint64_t next_tie_ = 0;
};

}  // namespace hq::sim

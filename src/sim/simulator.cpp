#include "sim/des.hpp"

#include <cassert>

namespace hq::sim {

void engine::dispatch() {
  while (busy_ < opt_.cores && !run_queue_.empty()) {
    pending p = std::move(run_queue_.front());
    run_queue_.pop_front();
    ++busy_;
    events_.push(event{now_ + p.service, next_tie_++, std::move(p.done), true});
  }
}

double engine::run() {
  dispatch();
  while (!events_.empty()) {
    event e = std::move(const_cast<event&>(events_.top()));
    events_.pop();
    assert(e.time >= now_);
    now_ = e.time;
    if (e.frees_core) --busy_;
    if (e.fire) e.fire();
    dispatch();
  }
  return now_;
}

}  // namespace hq::sim

// Run a call that may hang under a time limit, so that a test reports the
// hang as a failure instead of never returning.
#pragma once

#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>

namespace hq::testutil {

/// Run `f` on a thread of its own and wait at most `limit` for it; an
/// exception `f` throws is rethrown here. False when `f` did not return in
/// time: its thread is then left running, detached, so `f` must own (by
/// its captures) everything it touches.
inline bool returns_within(std::chrono::milliseconds limit,
                           std::function<void()> f) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> returned = done->get_future();
  std::thread([f = std::move(f), done] {
    try {
      f();
      done->set_value();
    } catch (...) {
      done->set_exception(std::current_exception());
    }
  }).detach();
  if (returned.wait_for(limit) != std::future_status::ready) return false;
  returned.get();
  return true;
}

}  // namespace hq::testutil

#include "probe.hpp"

namespace hq::e2e {

namespace {

/// Epochs are unique across tracers, so a thread's cached claim can never
/// match a tracer it did not claim from.
std::atomic<std::uint64_t> g_epoch{0};

struct claim {
  std::uint64_t epoch = 0;
  int slot = -1;
};
thread_local claim t_claim;

}  // namespace

tracer::tracer(unsigned max_threads, std::size_t spans_per_thread)
    : bufs_(max_threads) {
  for (auto& b : bufs_) b.v.resize(spans_per_thread);
  reset();
}

void tracer::reset() {
  for (auto& b : bufs_) b.n = 0;
  claimed_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = g_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

void tracer::record(std::uint32_t stage, std::int64_t t0,
                    std::int64_t t1) noexcept {
  claim& c = t_claim;
  if (c.epoch != epoch_) {
    const unsigned s = claimed_.fetch_add(1, std::memory_order_relaxed);
    c.epoch = epoch_;
    c.slot = s < bufs_.size() ? static_cast<int>(s) : -1;
  }
  if (c.slot < 0) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer& b = bufs_[static_cast<std::size_t>(c.slot)];
  if (b.n == b.v.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.v[b.n++] = span{t0, t1, stage, static_cast<std::uint32_t>(c.slot)};
}

std::vector<span> tracer::spans() const {
  std::vector<span> all;
  for (const auto& b : bufs_)
    all.insert(all.end(), b.v.begin(),
               b.v.begin() + static_cast<std::ptrdiff_t>(b.n));
  return all;
}

}  // namespace hq::e2e

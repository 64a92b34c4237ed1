// Measurement hooks the benchmark's own graphs call from their stage bodies.
//
// The runtime has no tracing of its own yet, so every layer number is taken
// from outside: the benchmark rebuilds each app's pipeline from the app's
// public kernels (the "twin", workloads.cpp) and wraps each stage body in a
// span. Spans land in per-thread buffers that are preallocated before the
// run, so recording is two clock reads and a store; nothing allocates or
// locks while the pipeline runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace hq::e2e {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One stage-body activation: [t0, t1] on buffer `thread`.
struct span {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint32_t stage = 0;
  std::uint32_t thread = 0;
};

/// Per-thread span buffers. A thread claims a buffer on its first record()
/// of a run; reset() starts a new run, after which every thread claims
/// afresh (worker threads are new per run, the calling thread is not).
class tracer {
 public:
  tracer(unsigned max_threads, std::size_t spans_per_thread);
  tracer(const tracer&) = delete;
  tracer& operator=(const tracer&) = delete;

  /// Forget the previous run's spans. Call between runs only.
  void reset();
  void record(std::uint32_t stage, std::int64_t t0, std::int64_t t1) noexcept;

  /// Every span of the run, buffer by buffer. Call after the run.
  [[nodiscard]] std::vector<span> spans() const;
  /// Spans lost to a full buffer or to more threads than buffers.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct buffer {
    std::vector<span> v;
    std::size_t n = 0;
  };
  std::vector<buffer> bufs_;
  std::atomic<unsigned> claimed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t epoch_ = 0;
};

/// What one run of a benchmark-built graph records. Sources and sinks are
/// serial stages on every backend, so the emission and retirement counters
/// are plain fields.
struct probe {
  tracer* tr = nullptr;  ///< spans on when set
  bool stamps = false;   ///< emission / retirement times on
  std::vector<std::int64_t> emit_ns;    ///< by emission ordinal
  std::vector<std::int64_t> retire_ns;  ///< by retirement ordinal
  std::size_t emitted = 0;
  std::size_t retired = 0;

  /// Size the stamp buffers and clear the counters for a new run.
  void arm(std::size_t sources, std::size_t sinks) {
    emit_ns.assign(stamps ? sources : 0, 0);
    retire_ns.assign(stamps ? sinks : 0, 0);
    emitted = retired = 0;
  }

  [[nodiscard]] std::int64_t begin() const noexcept {
    return tr != nullptr ? now_ns() : 0;
  }
  void end(std::uint32_t stage, std::int64_t t0) const noexcept {
    if (tr != nullptr) tr->record(stage, t0, now_ns());
  }
  /// Close a source span and stamp the emission that follows it.
  void emit(std::uint32_t stage, std::int64_t t0) noexcept {
    mark(stage, t0, emit_ns, emitted);
  }
  /// Close a sink span and stamp the retirement it completes.
  void retire(std::uint32_t stage, std::int64_t t0) noexcept {
    mark(stage, t0, retire_ns, retired);
  }

 private:
  void mark(std::uint32_t stage, std::int64_t t0, std::vector<std::int64_t>& at,
            std::size_t& count) noexcept {
    if (tr != nullptr || stamps) {
      const std::int64_t t = now_ns();
      if (tr != nullptr) tr->record(stage, t0, t);
      if (count < at.size()) at[count] = t;
    }
    ++count;
  }
};

}  // namespace hq::e2e

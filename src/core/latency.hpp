// Streaming latency-percentile statistics (p50 / p99 / p99.9) over
// fixed-bucket logarithmic histograms.
//
// Latency SLOs need tail percentiles, not means: a mean hides exactly the
// overload behavior admission policies exist to control
// (bench_service records wall-clock request latency here). This module
// keeps them cheap and deterministic:
//
//  * record() is O(1): the bucket index is (octave, sub-bucket) derived from
//    the value's bit width — no floating point, no allocation, no locks;
//  * buckets are value-determined, so two histograms fed the same multiset
//    of samples are bit-identical regardless of arrival order or thread
//    interleaving;
//  * merge() is element-wise addition, so per-worker histograms combine into
//    a run-wide one without synchronizing the record path.
//
// Resolution: kSubBits sub-buckets per power of two bounds the relative
// quantization error of any reported percentile by 2^-kSubBits (6.25% at the
// default 16 sub-buckets) — ample for SLO curves, where the signal is
// "p99 grew 10x under overload", not the fourth significant digit.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace hq::stats {

class latency_histogram {
 public:
  /// log2 of the sub-buckets per octave: relative error bound 2^-kSubBits.
  static constexpr unsigned kSubBits = 4;
  static constexpr unsigned kSub = 1u << kSubBits;
  /// Octaves 0..63 cover the full uint64 range (values in any unit; the
  /// histogram is unit-agnostic — callers pick ns or us).
  static constexpr unsigned kBuckets = 64 * kSub;

  /// Record one sample. O(1), allocation-free, not thread-safe — keep one
  /// histogram per worker and merge().
  void record(std::uint64_t value) noexcept {
    ++counts_[bucket_of(value)];
    ++total_;
    if (value > max_seen_) max_seen_ = value;
  }

  /// Element-wise accumulate `other` into this histogram.
  void merge(const latency_histogram& other) noexcept {
    for (unsigned i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
    if (other.max_seen_ > max_seen_) max_seen_ = other.max_seen_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_seen_; }

  /// Value at quantile `q` in [0, 1]: the upper bound of the bucket holding
  /// the ceil(q * count)-th smallest sample (so the true sample is <= the
  /// reported value, within one sub-bucket). 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept {
    if (total_ == 0) return 0;
    if (q < 0) q = 0;
    if (q > 1) q = 1;
    // ceil without FP edge cases: rank in [1, total].
    std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    if (rank * 1.0 < q * static_cast<double>(total_)) ++rank;
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        const std::uint64_t ub = bucket_upper(i);
        // Never report past the observed maximum (the last bucket's upper
        // bound can be far above it).
        return ub < max_seen_ ? ub : max_seen_;
      }
    }
    return max_seen_;
  }

  [[nodiscard]] std::uint64_t p50() const noexcept { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return percentile(0.99); }
  [[nodiscard]] std::uint64_t p999() const noexcept { return percentile(0.999); }

  /// Exact equality (used by determinism gates: same seed -> same histogram).
  [[nodiscard]] bool operator==(const latency_histogram& o) const noexcept {
    return total_ == o.total_ && max_seen_ == o.max_seen_ && counts_ == o.counts_;
  }

 private:
  /// Bucket index of `v`: values below kSub map linearly (exact); above, the
  /// top kSubBits+1 significant bits pick (octave, sub-bucket).
  static unsigned bucket_of(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<unsigned>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned sub =
        static_cast<unsigned>((v >> (msb - kSubBits)) & (kSub - 1));
    return msb * kSub + sub;
  }

  /// Largest value mapping into bucket `i` (inverse of bucket_of).
  static std::uint64_t bucket_upper(unsigned i) noexcept {
    if (i < kSub) return i;
    const unsigned msb = i / kSub;
    const unsigned sub = i % kSub;
    const std::uint64_t base = std::uint64_t{1} << msb;
    const std::uint64_t step = base >> kSubBits;
    return base + static_cast<std::uint64_t>(sub + 1) * step - 1;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  std::uint64_t max_seen_ = 0;
};

}  // namespace hq::stats

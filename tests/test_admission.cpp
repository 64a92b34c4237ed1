// Admission control at the pipeline boundary, a queue's byte footprint
// through its pool stats, and the latency-percentile histogram the SLO
// reporting is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bounded_run.hpp"
#include "core/latency.hpp"
#include "hq.hpp"
#include "pipeline/runner.hpp"

namespace {

// ------------------------------------------------------ latency histogram

TEST(LatencyHistogram, EmptyReportsZero) {
  hq::stats::latency_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p999(), 0u);
}

TEST(LatencyHistogram, SingleValueClampsToMax) {
  hq::stats::latency_histogram h;
  h.record(12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.p50(), 12345u);
  EXPECT_EQ(h.p99(), 12345u);
  EXPECT_EQ(h.p999(), 12345u);
}

TEST(LatencyHistogram, QuantizationBound) {
  // Reported percentile is an upper bound within one sub-bucket (2^-4).
  hq::stats::latency_histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_GE(h.p50(), 5000u);
  EXPECT_LE(h.p50(), static_cast<std::uint64_t>(5000 * 1.0701));
  EXPECT_GE(h.p99(), 9900u);
  EXPECT_LE(h.p99(), static_cast<std::uint64_t>(9900 * 1.0701));
}

TEST(LatencyHistogram, MergeMatchesUnion) {
  hq::stats::latency_histogram a, b, all;
  for (std::uint64_t v = 0; v < 500; ++v) {
    a.record(v * 3);
    all.record(v * 3);
  }
  for (std::uint64_t v = 0; v < 500; ++v) {
    b.record(v * 7 + 1000000);
    all.record(v * 7 + 1000000);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_TRUE(a == all);
  EXPECT_EQ(a.p999(), all.p999());
}

// ---------------------------------------------------------- queue footprint

TEST(Budget, LiveBytesTrackSegments) {
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<int> q(16);
    for (int i = 0; i < 200; ++i) q.push(i);  // ~13 segments in flight
    auto ps = q.pool_stats();
    EXPECT_GT(ps.in_use_bytes, 0u);
    EXPECT_GE(ps.peak_bytes, ps.in_use_bytes);
    EXPECT_EQ(ps.in_use_bytes % q.segment_bytes(), 0u);
    for (int i = 0; i < 200; ++i) EXPECT_EQ(q.pop(), i);
  });
}

// --------------------------------------------------- admission at the edge

struct admit_fixture {
  std::atomic<int> delivered{0};
  hq::pipe::graph g;

  explicit admit_fixture(int items, unsigned sink_spin) {
    auto src = g.source<int>("src", [items](hq::pipe::emit<int> out) {
      for (int i = 0; i < items; ++i) out(int{i});
    });
    auto snk = g.sink<int>(
        "snk", hq::pipe::stage_kind::serial_in_order,
        [this, sink_spin](int&&) {
          volatile unsigned i = 0;
          while (i < sink_spin) i = i + 1;
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
    g.connect(src, snk);
  }
};

TEST(Admission, ShedConservesAndBoundsDelivery) {
  for (hq::pipe::backend b :
       {hq::pipe::backend::hyperqueue, hq::pipe::backend::pthreads,
        hq::pipe::backend::tbb}) {
    admit_fixture fx(1000, /*sink_spin=*/2000);
    hq::pipe::exec_options opt;
    opt.workers = 2;
    opt.admission.policy = hq::pipe::admission_policy::shed;
    opt.admission.window = 8;
    auto res = hq::pipe::execute(fx.g, b, opt);
    EXPECT_EQ(res.admitted + res.shed, 1000u) << hq::pipe::to_string(b);
    EXPECT_EQ(static_cast<std::uint64_t>(fx.delivered.load()), res.admitted)
        << hq::pipe::to_string(b);
    EXPECT_GE(res.admitted, opt.admission.window) << hq::pipe::to_string(b);
  }
}

TEST(Admission, BlockDeliversEverything) {
  for (hq::pipe::backend b :
       {hq::pipe::backend::hyperqueue, hq::pipe::backend::pthreads,
        hq::pipe::backend::tbb}) {
    admit_fixture fx(600, /*sink_spin=*/500);
    hq::pipe::exec_options opt;
    opt.workers = 2;
    opt.admission.policy = hq::pipe::admission_policy::block;
    opt.admission.window = 4;
    auto res = hq::pipe::execute(fx.g, b, opt);
    EXPECT_EQ(res.admitted, 600u) << hq::pipe::to_string(b);
    EXPECT_EQ(res.shed, 0u) << hq::pipe::to_string(b);
    EXPECT_EQ(fx.delivered.load(), 600) << hq::pipe::to_string(b);
  }
}

TEST(Admission, BoundedWaitShedsUnderPressure) {
  admit_fixture fx(800, /*sink_spin=*/20000);
  hq::pipe::exec_options opt;
  opt.workers = 2;
  opt.admission.policy = hq::pipe::admission_policy::bounded_wait;
  opt.admission.window = 2;
  opt.admission.max_wait_ns = 1000;  // 1us against a ~10us+ sink
  auto res = hq::pipe::execute(fx.g, hq::pipe::backend::hyperqueue, opt);
  EXPECT_EQ(res.admitted + res.shed, 800u);
  EXPECT_GT(res.shed, 0u);
  EXPECT_GT(res.admission_wait_ns, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(fx.delivered.load()), res.admitted);
}

TEST(Admission, SerialElisionNeverSheds) {
  // Tokens flow source->sink inside one emit call, so in-flight never
  // exceeds 1: the elision stays the lossless reference under any window.
  admit_fixture fx(300, /*sink_spin=*/0);
  hq::pipe::exec_options opt;
  opt.admission.policy = hq::pipe::admission_policy::shed;
  opt.admission.window = 1;
  auto res = hq::pipe::execute(fx.g, hq::pipe::backend::serial, opt);
  EXPECT_EQ(res.admitted, 300u);
  EXPECT_EQ(res.shed, 0u);
  EXPECT_EQ(fx.delivered.load(), 300);
}

TEST(Admission, DroppedSubtreesRetireOnEveryLowering) {
  // An expand stage that emits nothing for a token leaves the sink nothing
  // to retire for it: the token retires where it drops, on every lowering,
  // or a block window fills with dropped tokens and never opens again.
  // src -> expand dropping every 4th token -> sink, under a window of 4.
  constexpr std::uint64_t kN = 200;
  using hq::pipe::backend;
  using hq::pipe::stage_kind;
  struct run_state {
    hq::pipe::graph g;
    std::vector<std::uint64_t> got;
    hq::pipe::exec_result res;
  };
  auto describe = [](stage_kind kind, run_state& r) {
    auto src = r.g.source<std::uint64_t>(
        "src", [](hq::pipe::emit<std::uint64_t> out) {
          for (std::uint64_t i = 0; i < kN; ++i) out(std::uint64_t{i});
        });
    auto drop = r.g.expand<std::uint64_t, std::uint64_t>(
        "drop", kind,
        [](std::uint64_t&& v, hq::pipe::emit<std::uint64_t> out) {
          if (v % 4 != 3) out(v * 7 + 1);
        });
    auto snk = r.g.sink<std::uint64_t>(
        "snk", stage_kind::serial_in_order,
        [&r](std::uint64_t&& v) { r.got.push_back(v); });
    r.g.connect(src, drop);
    r.g.connect(drop, snk);
  };
  struct arm {
    backend b;
    unsigned workers;
  };
  for (const stage_kind kind :
       {stage_kind::serial_in_order, stage_kind::parallel}) {
    run_state ref;
    describe(kind, ref);
    (void)hq::pipe::execute(ref.g, backend::serial);
    ASSERT_EQ(ref.got.size(), kN - kN / 4);
    for (const arm a : {arm{backend::serial, 1}, arm{backend::hyperqueue, 1},
                        arm{backend::hyperqueue, 2}, arm{backend::pthreads, 2},
                        arm{backend::tbb, 2}}) {
      const std::string what = std::string(hq::pipe::to_string(a.b)) + "@" +
                               std::to_string(a.workers) + ", " +
                               hq::pipe::to_string(kind) + " expand";
      auto r = std::make_shared<run_state>();
      describe(kind, *r);
      hq::pipe::exec_options opt;
      opt.workers = a.workers;
      opt.admission.policy = hq::pipe::admission_policy::block;
      opt.admission.window = 4;
      if (a.b == backend::hyperqueue)
        hq::scheduler_lease(a.workers)->set_watchdog(/*ms=*/5000);
      const bool returned =
          hq::testutil::returns_within(std::chrono::seconds(20), [r, a, opt] {
            r->res = hq::pipe::execute(r->g, a.b, opt);
          });
      ASSERT_TRUE(returned) << what << ": no return within 20 s";
      if (a.b == backend::hyperqueue)
        hq::scheduler_lease(a.workers)->set_watchdog(0);
      EXPECT_EQ(r->got, ref.got) << what;
      EXPECT_EQ(r->res.admitted, kN) << what;
      EXPECT_EQ(r->res.shed, 0u) << what;
    }
  }
}

}  // namespace

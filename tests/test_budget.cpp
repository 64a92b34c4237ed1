// Bounded-memory operation: per-queue byte budgets (core/queue_cb.cpp
// budget_wait), the HQ_QUEUE_BUDGET environment default, footprint
// reporting through pool/data stats, throttle accounting in the scheduler
// (and its watchdog interplay: throttled is progress, not a stall),
// admission control at the pipeline boundary, and the latency-percentile
// histogram the SLO reporting is built on.
//
// The determinism matrix is the core contract: under ANY budget at or above
// the structural minimum, with delay faults widening interleavings, the
// consumer observes byte-identically the serial-elision sequence — budgets
// change WHEN producers run, never WHAT the consumer sees. The memory cap
// is asserted in its honest form: hard (peak <= budget + the documented
// per-shard slack) whenever the run needed no counted escape
// (pool.budget_overruns == 0), with single-worker schedules — where the
// consumer may be unschedulable behind a parked producer — allowed to
// escape rather than deadlock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/latency.hpp"
#include "hq.hpp"
#include "pipeline/runner.hpp"

namespace {

// Latched by the first queue construction in this process, so it must be
// installed before main() runs: every queue built without an explicit
// budget in this binary gets a roomy 1 MiB default, and EnvDefault below
// asserts the parse.
const bool g_env_budget = [] {
  ::setenv("HQ_QUEUE_BUDGET", "1M", 1);
  return true;
}();

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

// ------------------------------------------------------------ budget knobs

TEST(Budget, KnobTranslation) {
  hq::scheduler sched(1);
  sched.run([] {
    hq::hyperqueue<int> q(64, 1u << 20);
    EXPECT_EQ(q.memory_budget(), 1u << 20);
    EXPECT_GT(q.segment_bytes(), 64 * sizeof(int) - 1);
    EXPECT_EQ(q.pool_stats().budget_bytes, 1u << 20);
    q.set_memory_budget(0);  // explicit zero = unlimited, not "use env"
    EXPECT_EQ(q.memory_budget(), 0u);
  });
}

TEST(Budget, EnvDefaultApplies) {
  ASSERT_TRUE(g_env_budget);
  hq::scheduler sched(1);
  sched.run([] {
    hq::hyperqueue<int> q;  // no explicit budget: HQ_QUEUE_BUDGET=1M
    EXPECT_EQ(q.memory_budget(), 1u << 20);
  });
}

TEST(Budget, LiveBytesTrackSegments) {
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<int> q(16, 1u << 20);
    for (int i = 0; i < 200; ++i) q.push(i);  // ~13 segments in flight
    auto ps = q.pool_stats();
    auto ds = q.data_stats();
    EXPECT_GT(ds.live_bytes, 0u);
    EXPECT_EQ(ds.live_bytes, ps.in_use_bytes);
    EXPECT_GE(ps.peak_bytes, ps.in_use_bytes);
    EXPECT_EQ(ps.in_use_bytes % q.segment_bytes(), 0u);
    for (int i = 0; i < 200; ++i) EXPECT_EQ(q.pop(), i);
  });
}

// ------------------------------------------------- determinism under budget

// Leaves push ~500 values = dozens of segments at seglen 16, far past the
// per-shard structural exemption (kShardMinSegs), so tight budgets actually
// throttle. (A tree of tiny leaves would be budget-exempt by design: every
// shard may hold its first kShardMinSegs segments unconditionally.)
void range_producer(hq::pushdep<int> q, int start, int end) {
  if (end - start <= 500) {
    for (int n = start; n < end; ++n) q.push(n);
  } else {
    hq::spawn(range_producer, q, start, (start + end) / 2);
    hq::spawn(range_producer, q, (start + end) / 2, end);
    hq::sync();
  }
}

void slow_consumer(hq::popdep<int> q, std::vector<int>* out, unsigned spin) {
  while (!q.empty()) {
    out->push_back(q.pop());
    for (volatile unsigned i = 0; i < spin; ++i) {
    }
  }
}

struct budget_run {
  std::vector<int> got;
  hq::seg_pool_stats pool;
  std::uint64_t sched_throttle_waits = 0;
};

budget_run run_budgeted(unsigned workers, std::uint64_t budget_segs,
                        int items, unsigned consumer_spin) {
  budget_run r;
  hq::scheduler sched(workers);
  sched.run([&] {
    hq::hyperqueue<int> q(16, 1);  // floor: budget raised below
    q.set_memory_budget(budget_segs * q.segment_bytes());
    hq::spawn(range_producer, (hq::pushdep<int>)q, 0, items);
    hq::spawn(slow_consumer, (hq::popdep<int>)q, &r.got, consumer_spin);
    hq::sync();
    r.pool = q.pool_stats();
  });
  r.sched_throttle_waits = sched.stats().throttle_waits;
  return r;
}

class BudgetMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(BudgetMatrix, TightBudgetsStayDeterministic) {
  const unsigned workers = GetParam();
  const int items = 4000;
  std::vector<int> expected(items);
  std::iota(expected.begin(), expected.end(), 0);

  // Delay faults on the pop path widen consumer/producer interleavings.
  hq::fault::plan pl;
  pl.seed = 7;
  hq::fault::rule r;
  r.site = "queue.pop";
  r.act = hq::fault::action::delay;
  r.every = 64;
  r.iters = 500;
  pl.rules.push_back(r);
  hq::fault::install(std::move(pl));

  for (std::uint64_t budget_segs : {2ull, 3ull, 8ull}) {
    budget_run br = run_budgeted(workers, budget_segs, items,
                                 /*consumer_spin=*/0);
    EXPECT_EQ(br.got, expected)
        << "workers=" << workers << " budget_segs=" << budget_segs;
    // Tight budgets on this volume must have hit the wait path at least
    // once — as a cooperative throttle or, on schedules that could not
    // interleave the consumer, a counted escape.
    if (budget_segs <= 3) {
      EXPECT_GT(br.pool.throttle_waits + br.pool.budget_overruns, 0u)
          << "workers=" << workers << " budget_segs=" << budget_segs;
    }
    // The cap is hard whenever no escape fired: the pool reports the exact
    // structural slack (kShardMinSegs exempt segments per shard at the
    // observed shard high-water mark), so the bound needs no guessed
    // shard-count constant and survives any scheduler interleaving.
    if (br.pool.budget_overruns == 0) {
      EXPECT_LE(br.pool.peak_bytes,
                br.pool.budget_bytes + br.pool.exempt_peak_bytes)
          << "workers=" << workers << " budget_segs=" << budget_segs;
    }
  }
  hq::fault::clear();
}

INSTANTIATE_TEST_SUITE_P(Workers, BudgetMatrix,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Budget, AdversarialSlowConsumerRespectsCap) {
  // The ISSUE's gated scenario: a consumer ~two orders of magnitude slower
  // than the producer, fixed small budget, multiple workers so the
  // consumer is always schedulable. Output must be byte-identical to the
  // elision and the footprint capped (escape-free run expected; if CI
  // preempts the consumer long enough to fire the escape, the counter
  // turns the hard assertion into the documented soft one).
  const int items = 2000;
  std::vector<int> expected(items);
  std::iota(expected.begin(), expected.end(), 0);
  budget_run br = run_budgeted(/*workers=*/4, /*budget_segs=*/3, items,
                               /*consumer_spin=*/400);
  EXPECT_EQ(br.got, expected);
  EXPECT_GT(br.pool.throttle_waits, 0u);
  EXPECT_GT(br.sched_throttle_waits, 0u);
  if (br.pool.budget_overruns == 0) {
    EXPECT_LE(br.pool.peak_bytes,
              br.pool.budget_bytes + br.pool.exempt_peak_bytes);
  }
}

TEST(Budget, WatchdogTreatsThrottleAsProgress) {
  // A run that spends most of its time throttled must NOT trip the stall
  // watchdog: throttle ticks count as progress (sched/watchdog.cpp).
  const int items = 1500;
  std::vector<int> expected(items);
  std::iota(expected.begin(), expected.end(), 0);
  std::vector<int> got;
  hq::scheduler sched(2);
  sched.set_watchdog(/*interval_ms=*/25, /*grace_intervals=*/8);
  sched.run([&] {
    hq::hyperqueue<int> q(16, 1);
    q.set_memory_budget(2 * q.segment_bytes());
    hq::spawn(range_producer, (hq::pushdep<int>)q, 0, items);
    hq::spawn(slow_consumer, (hq::popdep<int>)q, &got, 3000u);
    hq::sync();
  });
  EXPECT_EQ(got, expected);  // run completed; the watchdog never cancelled
  EXPECT_GT(sched.stats().throttle_waits, 0u);
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
          for (volatile unsigned i = 0; i < sink_spin; ++i) {
          }
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

}  // namespace

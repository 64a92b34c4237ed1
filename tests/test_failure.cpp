// Failure-aware execution: exception propagation, cooperative cancellation,
// deterministic fault injection (core/fault.hpp) and the stall watchdog
// (sched/watchdog.hpp).
//
// The failure conformance matrix mirrors the digest matrix in
// test_runner_conformance.cpp: for every app x parallel backend x worker
// count, a mid-stream stage exception must surface as the same exception on
// the calling thread (reported through exec_result::outcome), the process
// must stay alive with all worker threads joined and all in-flight tokens
// reclaimed (the ASan/LSan CI job runs this file), and the immediately
// following clean run on the same plan must be digest-identical to the
// serial elision. Test names carry the backend label so the sanitizer CI
// can select rows with --gtest_filter='*Hyperqueue*'.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <algorithm>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/fault.hpp"
#include "pipeline/runner.hpp"
#include "sched/scheduler_lease.hpp"
#include "sched/spawn.hpp"
#include "sched/watchdog.hpp"

namespace {

using hq::pipe::app_params;
using hq::pipe::backend;
using hq::pipe::run_outcome;

std::string backend_label(backend b) {
  switch (b) {
    case backend::hyperqueue: return "Hyperqueue";
    case backend::pthreads: return "Pthreads";
    case backend::tbb: return "Tbb";
    case backend::serial: break;
  }
  return "Serial";
}

std::string app_label(const std::string& name) {
  std::string s = name;
  if (!s.empty()) s[0] = static_cast<char>(std::toupper(s[0]));
  for (std::size_t i = 1; i < s.size(); ++i)
    if (s[i - 1] == '_') s[i] = static_cast<char>(std::toupper(s[i]));
  s.erase(std::remove(s.begin(), s.end(), '_'), s.end());
  return s;
}

/// The parallel middle stage of each built-in app — the injection target.
std::string mid_stage(const std::string& app) {
  if (app == "bzip2") return "compress";
  if (app == "dedup") return "dedup_compress";
  if (app == "ferret") return "middle";
  ADD_FAILURE() << "unknown app " << app;
  return "?";
}

/// Memoize the serial-elision reference digest for (app, seed, quick)
/// BEFORE a fault plan is installed — otherwise the reference run itself
/// would hit the injected site.
void prewarm_reference(const std::string& app, const app_params& p) {
  const auto ref = hq::pipe::run_app(app, backend::serial, p);
  ASSERT_EQ(ref.exec.outcome, run_outcome::ok);
  ASSERT_TRUE(ref.ok);
}

/// Install a plan that throws at the Nth activation of `site`. `nth` rules
/// fire exactly once (count == nth), so the run after the failed one
/// proceeds clean without clearing the plan — exactly the "retry after a
/// fault" shape the matrix asserts digest-identity on.
void install_throw(const std::string& site, std::uint64_t nth,
                   std::uint64_t seed = 42) {
  hq::fault::plan pl;
  pl.seed = seed;
  hq::fault::rule r;
  r.site = site;
  r.act = hq::fault::action::throw_exc;
  r.nth = nth;
  pl.rules.push_back(std::move(r));
  hq::fault::install(std::move(pl));
}

/// Clear the plan even when an assertion bails out of a test early.
struct plan_guard {
  ~plan_guard() { hq::fault::clear(); }
};

using matrix_param = std::tuple<std::string, backend, unsigned>;

class FailureMatrix : public ::testing::TestWithParam<matrix_param> {};

TEST_P(FailureMatrix, StageThrowSurfacesThenCleanRunMatches) {
  const auto& [app, b, workers] = GetParam();
  app_params p;
  p.workers = workers;
  prewarm_reference(app, p);

  const std::string site = "stage." + mid_stage(app);
  plan_guard guard;
  install_throw(site, /*nth=*/3);

  const auto failed = hq::pipe::run_app(app, b, p);
  EXPECT_EQ(failed.exec.outcome, run_outcome::failed)
      << app << " on " << hq::pipe::to_string(b) << " at " << workers;
  EXPECT_NE(failed.exec.error.find(site), std::string::npos)
      << "error '" << failed.exec.error << "' does not name the site";
  EXPECT_FALSE(failed.ok);
  EXPECT_TRUE(failed.digest.empty());

  // The nth firing is consumed; the very next run on the same (installed)
  // plan must complete and match the serial elision byte for byte.
  const auto clean = hq::pipe::run_app(app, b, p);
  EXPECT_EQ(clean.exec.outcome, run_outcome::ok) << clean.exec.error;
  EXPECT_EQ(clean.digest, clean.reference);
  EXPECT_TRUE(clean.ok);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, FailureMatrix,
    ::testing::Combine(
        ::testing::Values(std::string("bzip2"), std::string("dedup"),
                          std::string("ferret")),
        ::testing::Values(backend::hyperqueue, backend::pthreads,
                          backend::tbb),
        ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto& info) {
      return app_label(std::get<0>(info.param)) +
             backend_label(std::get<1>(info.param)) + "W" +
             std::to_string(std::get<2>(info.param));
    });

// ---- exception identity & scheduler reuse ---------------------------------

struct boom : std::runtime_error {
  boom() : std::runtime_error("boom") {}
};

TEST(FailurePropagation, SchedulerRethrowsTaskExceptionOnCaller) {
  hq::scheduler sched(4);
  EXPECT_THROW(
      sched.run([] {
        hq::spawn([] {});
        hq::spawn([] { throw boom(); });
        hq::sync();
      }),
      boom);
  // The scheduler (and its pools) stay usable after a failed run.
  int ran = 0;
  sched.run([&] {
    hq::spawn([&] { ran = 1; });
    hq::sync();
  });
  EXPECT_EQ(ran, 1);
  EXPECT_FALSE(sched.cancelled());
}

TEST(FailurePropagation, FirstFailureWinsAndFramesDrain) {
  hq::scheduler sched(4);
  for (int round = 0; round < 5; ++round) {
    try {
      sched.run([] {
        for (int i = 0; i < 64; ++i)
          hq::spawn([] { throw boom(); });
        hq::sync();
      });
      FAIL() << "run() must rethrow";
    } catch (const boom&) {
      // Exactly the spawned tasks' exception type, no wrapping.
    }
    // Every frame completed (bodies skipped once cancelling) and was
    // recycled: nothing live between runs.
    EXPECT_EQ(sched.frame_pool_stats().live, 0u);
  }
}

TEST(FailurePropagation, InjectedFaultTypeSurvivesExecuteOnEveryBackend) {
  // execute() (unlike run_app) rethrows, so the exception *type* and its
  // site/count payload are observable: the same injected_fault must arrive
  // on the calling thread from every parallel backend.
  for (backend b : hq::pipe::parallel_backends()) {
    plan_guard guard;
    install_throw("stage.fmid", /*nth=*/2);
    hq::pipe::graph g;
    auto src = g.source<int>("fsrc", [](hq::pipe::emit<int> out) {
      for (int i = 0; i < 16; ++i) out(int(i));
    });
    auto mid = g.stage<int, int>(
        "fmid", hq::pipe::stage_kind::parallel,
        [](int&& v, hq::pipe::emit<int> out) { out(std::move(v)); });
    auto snk = g.sink<int>("fsnk", hq::pipe::stage_kind::serial_in_order,
                           [](int&&) {});
    g.connect(src, mid);
    g.connect(mid, snk);
    hq::pipe::exec_options opt;
    opt.workers = 4;
    try {
      (void)hq::pipe::execute(g, b, opt);
      FAIL() << "no injected_fault on " << hq::pipe::to_string(b);
    } catch (const hq::fault::injected_fault& e) {
      EXPECT_EQ(e.site(), "stage.fmid") << hq::pipe::to_string(b);
      EXPECT_EQ(e.count(), 2u) << hq::pipe::to_string(b);
    }
    hq::fault::clear();
  }
}

TEST(FailurePropagation, CancellationUnblocksHyperqueueWaits) {
  // A consumer blocked in wait_data (producer never produces enough) must
  // unwind when a sibling fails — the regression shape for a cancellation
  // poll missing from a blocking queue wait.
  hq::scheduler sched(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        sched.run([] {
          hq::hyperqueue<int> q;
          hq::spawn(
              [](hq::pushdep<int> out) {
                for (int i = 0; i < 4; ++i) out.push(i);
                throw boom();  // queue closes with the stream unfinished
              },
              (hq::pushdep<int>)q);
          hq::spawn(
              [](hq::popdep<int> in) {
                long sum = 0;
                while (!in.empty()) sum += in.pop();
                (void)sum;
              },
              (hq::popdep<int>)q);
          hq::sync();
        }),
        boom);
  }
  EXPECT_EQ(sched.frame_pool_stats().live, 0u);
}

// ---- allocation faults -----------------------------------------------------

/// Push 0..n-1 through one hyperqueue from a spawned producer to a spawned
/// consumer on `sched`, and return the consumer's sum.
long long queue_sum(hq::scheduler& sched, int n) {
  long long sum = 0;
  sched.run([&] {
    hq::hyperqueue<int> q;
    hq::spawn(
        [n](hq::pushdep<int> out) {
          for (int i = 0; i < n; ++i) out.push(i);
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [&sum](hq::popdep<int> in) {
          while (!in.empty()) sum += in.pop();
        },
        (hq::popdep<int>)q);
    hq::sync();
  });
  return sum;
}

class AllocFault : public ::testing::TestWithParam<const char*> {};

TEST_P(AllocFault, SurfacesAsBadAllocAndRunStaysReusable) {
  // A scheduler of the test's own: pool.slab fires only while the frame and
  // attachment pools carve memory, which a warmed resident scheduler (the
  // ones pipe::execute leases) no longer does.
  hq::scheduler sched(4);
  constexpr int kN = 10000;

  hq::fault::plan pl;
  pl.seed = 7;
  hq::fault::rule r;
  r.site = GetParam();
  r.act = hq::fault::action::alloc_fail;
  r.nth = 1;
  pl.rules.push_back(std::move(r));
  plan_guard guard;
  hq::fault::install(std::move(pl));

  EXPECT_THROW((void)queue_sum(sched, kN), std::bad_alloc) << GetParam();
  // The same scheduler serves the clean run after the failure.
  EXPECT_EQ(queue_sum(sched, kN), 1LL * kN * (kN - 1) / 2) << GetParam();
  EXPECT_EQ(sched.frame_pool_stats().live, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sites, AllocFault,
                         ::testing::Values("pool.slab", "segment.alloc"),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s)
                             if (c == '.') c = '_';
                           return s;
                         });

TEST(AllocFault, SegmentFailureFailsPipelineRunThenDigestMatches) {
  // Through the pipeline runner: segments are allocated per run, so the
  // site fires on a leased (warm) scheduler too. The runner reports the
  // bad_alloc as a failed outcome, and the next run matches the elision.
  app_params p;
  p.workers = 4;
  prewarm_reference("bzip2", p);

  hq::fault::plan pl;
  pl.seed = 7;
  hq::fault::rule r;
  r.site = "segment.alloc";
  r.act = hq::fault::action::alloc_fail;
  r.nth = 1;
  pl.rules.push_back(std::move(r));
  plan_guard guard;
  hq::fault::install(std::move(pl));

  const auto failed = hq::pipe::run_app("bzip2", backend::hyperqueue, p);
  EXPECT_EQ(failed.exec.outcome, run_outcome::failed);
  EXPECT_NE(failed.exec.error.find("bad_alloc"), std::string::npos)
      << "error was: " << failed.exec.error;

  const auto clean = hq::pipe::run_app("bzip2", backend::hyperqueue, p);
  EXPECT_EQ(clean.exec.outcome, run_outcome::ok) << clean.exec.error;
  EXPECT_TRUE(clean.ok);
}

// ---- deterministic replay --------------------------------------------------

TEST(FaultReplay, FiringPointsAreIdenticalAcrossRuns) {
  app_params p;
  p.workers = 4;
  prewarm_reference("bzip2", p);

  auto one_run = [&] {
    hq::fault::plan pl;
    pl.seed = 1234;
    hq::fault::rule del;
    del.site = "queue.*";
    del.act = hq::fault::action::delay;
    del.every = 16;
    del.iters = 64;
    pl.rules.push_back(std::move(del));
    hq::fault::rule thr;
    thr.site = "stage.compress";
    thr.act = hq::fault::action::throw_exc;
    thr.nth = 5;
    pl.rules.push_back(std::move(thr));
    hq::fault::install(std::move(pl));
    const auto run = hq::pipe::run_app("bzip2", backend::hyperqueue, p);
    EXPECT_EQ(run.exec.outcome, run_outcome::failed);
    auto fired = hq::fault::firings();
    hq::fault::clear();
    // (site, count, act) triples are the replay identity; the log order can
    // vary with thread interleaving across distinct sites, so compare as a
    // sorted multiset.
    std::vector<std::tuple<std::string, std::uint64_t, int>> key;
    key.reserve(fired.size());
    for (const auto& f : fired)
      key.emplace_back(f.site, f.count, static_cast<int>(f.act));
    std::sort(key.begin(), key.end());
    return key;
  };

  const auto first = one_run();
  const auto second = one_run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second)
      << "fault firing points must be a pure function of (seed, site, count)";
}

// ---- HQ_FAULTS parsing -----------------------------------------------------

TEST(FaultParse, RoundTripsTheDocumentedGrammar) {
  hq::fault::plan p;
  std::string err;
  ASSERT_TRUE(hq::fault::parse(
      "seed=7; throw@stage.compress:nth=3 ;alloc@pool.slab:nth=2;"
      "delay@queue.push:every=64,iters=200;stall@stage.middle:nth=1",
      &p, &err))
      << err;
  EXPECT_EQ(p.seed, 7u);
  ASSERT_EQ(p.rules.size(), 4u);
  EXPECT_EQ(p.rules[0].site, "stage.compress");
  EXPECT_EQ(p.rules[0].act, hq::fault::action::throw_exc);
  EXPECT_EQ(p.rules[0].nth, 3u);
  EXPECT_EQ(p.rules[1].act, hq::fault::action::alloc_fail);
  EXPECT_EQ(p.rules[2].act, hq::fault::action::delay);
  EXPECT_EQ(p.rules[2].every, 64u);
  EXPECT_EQ(p.rules[2].iters, 200u);
  EXPECT_EQ(p.rules[3].act, hq::fault::action::stall);
}

TEST(FaultParse, BareDelayDelaysEveryHit) {
  hq::fault::plan p;
  std::string err;
  ASSERT_TRUE(hq::fault::parse("delay@queue.pop", &p, &err)) << err;
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.rules[0].every, 1u);
}

TEST(FaultParse, RejectsMalformedSpecs) {
  hq::fault::plan p;
  std::string err;
  EXPECT_FALSE(hq::fault::parse("explode@stage.x:nth=1", &p, &err));
  EXPECT_NE(err.find("unknown action"), std::string::npos);
  EXPECT_FALSE(hq::fault::parse("throw@:nth=1", &p, &err));
  EXPECT_FALSE(hq::fault::parse("throwstage.x", &p, &err));
  EXPECT_FALSE(hq::fault::parse("throw@stage.x:nth", &p, &err));
  EXPECT_FALSE(hq::fault::parse("throw@stage.x:bogus=1", &p, &err));
  EXPECT_FALSE(hq::fault::parse("throw@stage.x", &p, &err))
      << "a throw rule with no firing condition must be rejected";
}

// ---- stall watchdog --------------------------------------------------------

TEST(Watchdog, CancelsAStalledRunWithADiagnostic) {
  // An injected stall parks one task body in a non-progressing spin (it
  // polls only the cancellation epoch). The watchdog must detect the flat
  // progress counters, cancel the run, and surface a stall_error whose
  // what() carries the per-worker dump — instead of the run hanging.
  hq::fault::plan pl;
  hq::fault::rule r;
  r.site = "test.stall";
  r.act = hq::fault::action::stall;
  r.nth = 1;
  pl.rules.push_back(std::move(r));
  plan_guard guard;
  hq::fault::install(std::move(pl));

  hq::scheduler sched(2);
  sched.set_watchdog(/*ms=*/50, /*grace_intervals=*/1000);
  try {
    sched.run([] {
      hq::spawn([] { hq::fault::crashpoint("test.stall"); });
      hq::sync();
    });
    FAIL() << "a stalled run must not complete";
  } catch (const hq::stall_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no scheduler progress"), std::string::npos) << what;
    EXPECT_NE(what.find("worker"), std::string::npos) << what;
  }
  // The scheduler survives the cancelled run.
  int ran = 0;
  sched.run([&] { ran = 1; });
  EXPECT_EQ(ran, 1);
}

TEST(Watchdog, EnvKnobArmsThePipelineSchedulers) {
  // HQ_WATCHDOG_MS is read at the start of every run, so the hyperqueue
  // backend's resident scheduler picks it up even though it was built
  // before the knob was set; a stalled stage then reports
  // run_outcome::stalled through run_app.
  app_params p;
  p.workers = 2;
  prewarm_reference("ferret", p);
  // One clean execute first, so the 2-worker resident scheduler exists
  // before setenv.
  const auto warm = hq::pipe::run_app("ferret", backend::hyperqueue, p);
  ASSERT_EQ(warm.exec.outcome, run_outcome::ok) << warm.exec.error;
  ASSERT_TRUE(warm.ok);

  hq::fault::plan pl;
  hq::fault::rule r;
  r.site = "stage.middle";
  r.act = hq::fault::action::stall;
  r.nth = 2;
  pl.rules.push_back(std::move(r));
  plan_guard guard;
  hq::fault::install(std::move(pl));

  // If the knob is not picked up, the stall spins until the plan is
  // cleared: release it after 10 s so that fails the test instead of
  // hanging it.
  ASSERT_EQ(setenv("HQ_WATCHDOG_MS", "50", 1), 0);
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread releaser([&] {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(10), [&] { return finished; }))
      hq::fault::clear();
  });
  const auto run = hq::pipe::run_app("ferret", backend::hyperqueue, p);
  {
    std::lock_guard<std::mutex> lk(mu);
    finished = true;
  }
  cv.notify_one();
  releaser.join();
  ASSERT_EQ(unsetenv("HQ_WATCHDOG_MS"), 0);

  EXPECT_EQ(run.exec.outcome, run_outcome::stalled) << run.exec.error;
  EXPECT_NE(run.exec.error.find("no scheduler progress"), std::string::npos)
      << run.exec.error;
  EXPECT_FALSE(run.ok);

  // And with the plan consumed (nth passed), the same app runs clean.
  const auto clean = hq::pipe::run_app("ferret", backend::hyperqueue, p);
  EXPECT_EQ(clean.exec.outcome, run_outcome::ok) << clean.exec.error;
  EXPECT_TRUE(clean.ok);
}

TEST(Watchdog, SerialSinkDrainingIsProgress) {
  // src -> serial sink has no parallel stage: the run spawns nothing, and
  // its progress is the sink's drain taking tokens. 3000 tokens of 100 us
  // source work each outlive a 50 ms watchdog many times over; the run
  // must complete with the elision's digest, not stall.
  constexpr std::uint64_t kN = 3000;
  struct probe {
    std::uint64_t digest = 0;
    hq::pipe::graph g;
    probe() {
      auto src = g.source<std::uint64_t>(
          "src", [](hq::pipe::emit<std::uint64_t> out) {
            for (std::uint64_t i = 0; i < kN; ++i) {
              const auto until = std::chrono::steady_clock::now() +
                                 std::chrono::microseconds(100);
              while (std::chrono::steady_clock::now() < until) {
              }
              out(std::uint64_t{i * 2654435761u});
            }
          });
      auto snk = g.sink<std::uint64_t>(
          "snk", hq::pipe::stage_kind::serial_in_order,
          [this](std::uint64_t&& v) { digest = digest * 31 + v; });
      g.connect(src, snk);
    }
  };
  probe ref;
  (void)hq::pipe::execute(ref.g, backend::serial);
  for (const unsigned workers : {1u, 2u}) {
    probe run;
    hq::pipe::exec_options opt;
    opt.workers = workers;
    hq::scheduler_lease(workers)->set_watchdog(/*ms=*/50);
    std::string error;
    try {
      (void)hq::pipe::execute(run.g, backend::hyperqueue, opt);
    } catch (const std::exception& e) {
      error = e.what();
    }
    hq::scheduler_lease(workers)->set_watchdog(0);
    EXPECT_EQ(error, "") << "P = " << workers;
    EXPECT_EQ(run.digest, ref.digest) << "P = " << workers;
  }
}

// ---- cancellation stress (the TSan CI row) ---------------------------------

TEST(CancelStressHyperqueue, RepeatedMidStreamFailuresStayClean) {
  // Hammer the failure path: repeated runs on one scheduler, each cancelled
  // mid-stream from a random-ish point (different nth each round), all
  // worker counts of the matrix. TSan checks the failure-slot / epoch /
  // body-skip handshakes; ASan checks the queue drain.
  app_params p;
  p.workers = 8;
  prewarm_reference("dedup", p);
  for (std::uint64_t round = 1; round <= 6; ++round) {
    plan_guard guard;
    install_throw("stage.dedup_compress", /*nth=*/round, /*seed=*/round);
    const auto failed = hq::pipe::run_app("dedup", backend::hyperqueue, p);
    EXPECT_EQ(failed.exec.outcome, run_outcome::failed) << "round " << round;
    hq::fault::clear();
    const auto clean = hq::pipe::run_app("dedup", backend::hyperqueue, p);
    EXPECT_EQ(clean.exec.outcome, run_outcome::ok) << clean.exec.error;
    EXPECT_TRUE(clean.ok);
  }
}

TEST(CancelStressHyperqueue, SchedulerLevelChurn) {
  hq::scheduler sched(8);
  for (int round = 0; round < 20; ++round) {
    try {
      sched.run([&] {
        for (int i = 0; i < 256; ++i) {
          hq::spawn([i] {
            if (i == 137) throw boom();
          });
        }
        hq::sync();
      });
      FAIL() << "round " << round << " must rethrow";
    } catch (const boom&) {
    }
    EXPECT_EQ(sched.frame_pool_stats().live, 0u) << "round " << round;
  }
}

// ---- outcome plumbing ------------------------------------------------------

TEST(RunOutcome, ToStringCoversAllValues) {
  EXPECT_STREQ(hq::pipe::to_string(run_outcome::ok), "ok");
  EXPECT_STREQ(hq::pipe::to_string(run_outcome::failed), "failed");
  EXPECT_STREQ(hq::pipe::to_string(run_outcome::stalled), "stalled");
}

}  // namespace

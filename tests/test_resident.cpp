// Resident runtime (sched/scheduler_lease.hpp): every hyperqueue execute
// leases an idle scheduler keyed on its worker count instead of building
// and joining one per call.
//
// Reuse: consecutive executes run their stage bodies on the same worker
// threads of the same scheduler, and the scheduler's frame / attachment
// pools stop growing once the first run has warmed them, so a process that
// runs a pipeline many times has a bounded runtime footprint. Sharing: a
// failed run hands a clean scheduler to the next run, and concurrent
// callers on one key each get their own scheduler, all digest-identical to
// the serial elision. The shared-scheduler tests run in the TSan CI row.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "pipeline/runner.hpp"
#include "sched/scheduler_lease.hpp"

namespace {

using hq::pipe::app_params;
using hq::pipe::backend;
using hq::pipe::emit;
using hq::pipe::graph;
using hq::pipe::run_outcome;
using hq::pipe::stage_kind;

/// Process-unique id of the calling thread. Unlike std::thread::id or a
/// TLS address, a thread started after another one was joined never gets
/// that thread's value.
std::uint64_t thread_serial() {
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t id = next.fetch_add(1) + 1;
  return id;
}

/// Where one execute ran its stage bodies.
struct body_trace {
  std::mutex mu;
  std::set<std::uint64_t> threads;
  std::set<hq::scheduler*> scheds;
};

/// source -> parallel middle -> ordered sink. The first middle bodies hold
/// (bounded) until a second thread has entered the stage, so a 2-worker run
/// provably executes bodies on both workers.
void run_traced(body_trace& t) {
  graph g;
  auto src = g.source<int>("src", [](emit<int> out) {
    for (int i = 0; i < 64; ++i) out(int{i});
  });
  auto mid = g.stage<int, int>(
      "mid", stage_kind::parallel, [&t](int&& v, emit<int> out) {
        {
          std::lock_guard<std::mutex> lk(t.mu);
          t.threads.insert(thread_serial());
          t.scheds.insert(hq::scheduler::current());
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        for (;;) {
          {
            std::lock_guard<std::mutex> lk(t.mu);
            if (t.threads.size() >= 2) break;
          }
          if (std::chrono::steady_clock::now() > deadline) break;
          std::this_thread::yield();
        }
        out(v * 3);
      });
  long sum = 0;
  auto snk = g.sink<int>("snk", stage_kind::serial_in_order,
                         [&sum](int&& v) { sum += v; });
  g.connect(src, mid);
  g.connect(mid, snk);
  hq::pipe::exec_options opt;
  opt.workers = 2;
  (void)hq::pipe::execute(g, backend::hyperqueue, opt);
  EXPECT_EQ(sum, 3 * (63 * 64 / 2));
}

/// Memoize the elision reference before any fault plan is installed.
void prewarm_reference(const std::string& app, const app_params& p) {
  const auto ref = hq::pipe::run_app(app, backend::serial, p);
  ASSERT_TRUE(ref.ok);
}

TEST(ResidentRuntime, ConsecutiveExecutesShareWorkersAndScheduler) {
  body_trace first, second;
  run_traced(first);
  run_traced(second);
  ASSERT_EQ(first.threads.size(), 2u)
      << "the first run did not put bodies on both workers";
  EXPECT_EQ(second.threads, first.threads)
      << "the second execute ran on threads the first never saw";
  ASSERT_EQ(first.scheds.size(), 1u);
  EXPECT_NE(*first.scheds.begin(), nullptr);
  EXPECT_EQ(second.scheds, first.scheds);
}

TEST(ResidentRuntime, LeaseKeepsOneIdleSchedulerPerKey) {
  // Schedulers are told apart by their history, not their address: a new
  // scheduler can be built at a destroyed one's address, but only the
  // retained one has executed tasks.
  {
    hq::scheduler_lease a(3);
    hq::scheduler_lease b(3);  // same key while `a` is out: its own scheduler
    EXPECT_NE(&*b, &*a);
    EXPECT_EQ(b->num_workers(), 3u);
    b->run([] {});
    EXPECT_EQ(a->stats().executed, 0u);
  }
  // `b` returned first and took the key's slot; `a` was destroyed.
  hq::scheduler_lease c(3);
  hq::scheduler_lease d(3);
  EXPECT_EQ(c->stats().executed, 1u);
  EXPECT_EQ(d->stats().executed, 0u);
  // A different worker count is a different key.
  hq::scheduler_lease e(1);
  EXPECT_EQ(e->num_workers(), 1u);
}

TEST(ResidentRuntime, PoolFootprintStopsGrowingAfterWarmUp) {
  // Bounded footprint across runs: 50 quick dedup executes on the resident
  // 2-worker scheduler, with its frame and attachment pool counters read
  // between runs. A worker's magazine owns the blocks it carves (frees from
  // other workers return to it), so a run carves fresh blocks only while
  // some worker has not yet been the busy spawner once. Measured on dedup
  // quick at 2 workers: 28 -> 55 frames and 90 -> 180 attachments when the
  // roles first swap (usually run 2), then flat, with at most one more
  // block under background load. The gates therefore allow one warm-up per
  // worker plus a quarter of a run's demand for variation in peak live
  // blocks; a leak of one block per run fails both.
  constexpr unsigned kWorkers = 2;
  constexpr int kRuns = 50;
  app_params p;
  p.workers = kWorkers;
  hq::scheduler* sched = nullptr;
  std::vector<std::uint64_t> frames, attach;
  std::uint64_t executed = 0;
  for (int run = 0; run < kRuns; ++run) {
    const auto r = hq::pipe::run_app("dedup", backend::hyperqueue, p);
    ASSERT_TRUE(r.ok) << "run " << run << ": " << r.exec.error;
    hq::scheduler_lease lease(kWorkers);
    if (run == 0) sched = &*lease;
    ASSERT_EQ(&*lease, sched) << "run " << run << " got another scheduler";
    const auto ex = lease->stats().executed;
    EXPECT_GT(ex, executed) << "run " << run << " did not use it";
    executed = ex;
    const auto fp = lease->frame_pool_stats();
    const auto ap = lease->attach_pool_stats();
    EXPECT_EQ(fp.live, 0u);
    EXPECT_EQ(ap.live, 0u);
    frames.push_back(fp.allocated);
    attach.push_back(ap.allocated);
  }
  auto check = [&](const char* pool, const std::vector<std::uint64_t>& a) {
    ASSERT_GT(a.front(), 0u) << pool;
    const std::uint64_t slack = a.front() / 4;
    EXPECT_LE(a.back(), kWorkers * a.front() + slack)
        << pool << " pool kept carving: " << a.front() << " -> " << a.back();
    EXPECT_LE(a.back() - a[kRuns / 2], slack)
        << pool << " pool still growing in the second half: "
        << a[kRuns / 2] << " -> " << a.back();
  };
  check("frame", frames);
  check("attach", attach);
}

TEST(ResidentRuntimeShared, InjectedFaultThenCleanRunOnTheSameScheduler) {
  app_params p;
  p.workers = 2;
  for (backend b : {backend::hyperqueue, backend::hyperqueue_element}) {
    prewarm_reference("dedup", p);
    ASSERT_TRUE(hq::pipe::run_app("dedup", b, p).ok);  // make it resident
    hq::scheduler* before = nullptr;
    std::uint64_t executed = 0;
    {
      hq::scheduler_lease lease(2);
      before = &*lease;
      executed = lease->stats().executed;
    }

    hq::fault::plan pl;
    hq::fault::rule r;
    r.site = "stage.dedup_compress";
    r.act = hq::fault::action::throw_exc;
    r.nth = 3;
    pl.rules.push_back(std::move(r));
    hq::fault::install(std::move(pl));
    const auto failed = hq::pipe::run_app("dedup", b, p);
    hq::fault::clear();
    EXPECT_EQ(failed.exec.outcome, run_outcome::failed)
        << hq::pipe::to_string(b);
    EXPECT_FALSE(failed.ok);

    {
      hq::scheduler_lease lease(2);
      EXPECT_EQ(&*lease, before);
      EXPECT_GT(lease->stats().executed, executed)
          << "the failed run did not run on, or return, the resident scheduler";
      EXPECT_FALSE(lease->cancelled());
      EXPECT_EQ(lease->frame_pool_stats().live, 0u);
    }
    const auto clean = hq::pipe::run_app("dedup", b, p);
    EXPECT_EQ(clean.exec.outcome, run_outcome::ok) << clean.exec.error;
    EXPECT_EQ(clean.digest, clean.reference) << hq::pipe::to_string(b);
    EXPECT_TRUE(clean.ok);
  }
}

TEST(ResidentRuntimeShared, NoConsumerNestsAboveAnUpstreamStage) {
  // A stage blocked in a data wait (or its final sync) helps with ready
  // tasks. Nesting a *later* consumer there deadlocks: the sink waits for
  // the middle stage, which waits for the end of the stream that the
  // suspended upstream stage closes only when it completes. Oversubscribed
  // resident workers wake lazily enough that a thief often finds the sink
  // while blocked upstream: without the rule, 8 workers on a 2-vCPU host
  // hit the cycle within 26-117 runs. The watchdog turns a deadlock into a
  // stall_error instead of a hang.
  ASSERT_EQ(setenv("HQ_WATCHDOG_MS", "2000", 1), 0);
  hq::pipe::exec_options opt;
  opt.workers = 8;
  for (int run = 0; run < 1000; ++run) {
    graph g;
    auto src = g.source<int>("src", [](emit<int> out) {
      for (int i = 0; i < 48; ++i) out(int{i});
    });
    auto fan = g.expand<int, int>(
        "fan", stage_kind::parallel, [](int&& v, emit<int> out) {
          for (int k = 0; k < 4; ++k) out(v * 4 + k);
        });
    auto mid = g.stage<int, int>("mid", stage_kind::parallel,
                                 [](int&& v, emit<int> out) { out(v + 1); });
    long sum = 0;
    auto snk = g.sink<int>("snk", stage_kind::serial_in_order,
                           [&sum](int&& v) { sum += v; });
    hq::pipe::edge_opts e;
    e.slice_batch = 4;
    g.connect(src, fan, e);
    g.connect(fan, mid, e);
    g.connect(mid, snk, e);
    try {
      (void)hq::pipe::execute(g, backend::hyperqueue, opt);
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "run " << run << ": " << ex.what();
      break;
    }
    if (sum != 192 * 193 / 2) {
      ADD_FAILURE() << "run " << run << ": sum " << sum;
      break;
    }
  }
  ASSERT_EQ(unsetenv("HQ_WATCHDOG_MS"), 0);
}

TEST(ResidentRuntimeShared, ConcurrentCallersAllMatchTheElision) {
  // 4 caller threads x 20 executes at 2 workers, alternating the slice and
  // element backends: leases on one key race to hit, miss and return.
  const std::vector<std::string> apps = {"dedup", "ferret", "bzip2"};
  app_params p;
  p.workers = 2;
  for (const auto& app : apps) prewarm_reference(app, p);

  constexpr int kCallers = 4;
  constexpr int kRuns = 20;
  std::atomic<int> mismatches{0};
  std::mutex err_mu;
  std::string first_error;
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int i = 0; i < kRuns; ++i) {
        const std::string& app = apps[(c + i) % apps.size()];
        const backend b =
            (c + i) % 2 == 0 ? backend::hyperqueue : backend::hyperqueue_element;
        const auto r = hq::pipe::run_app(app, b, p);
        if (!r.ok) {
          mismatches.fetch_add(1);
          std::lock_guard<std::mutex> lk(err_mu);
          if (first_error.empty())
            first_error = app + " on " + hq::pipe::to_string(b) + ": " +
                          hq::pipe::to_string(r.exec.outcome) + " " +
                          r.exec.error;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0) << first_error;
}

}  // namespace

// Tests for the work-stealing scheduler: spawn/sync semantics, nesting,
// helping, recursion, and stress.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "sched/spawn.hpp"

namespace {

long serial_fib(long n) { return n < 2 ? n : serial_fib(n - 1) + serial_fib(n - 2); }

void fib_task(long n, long* out) {
  if (n < 2) {
    *out = n;
    return;
  }
  long a = 0, b = 0;
  hq::spawn(fib_task, n - 1, &a);
  hq::spawn(fib_task, n - 2, &b);
  hq::sync();
  *out = a + b;
}

class SchedulerParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(SchedulerParam, FibMatchesSerial) {
  hq::scheduler sched(GetParam());
  long out = 0;
  sched.run([&] { fib_task(20, &out); });
  EXPECT_EQ(out, serial_fib(20));
}

TEST_P(SchedulerParam, ManyFlatChildren) {
  hq::scheduler sched(GetParam());
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  sched.run([&] {
    for (int i = 0; i < kN; ++i) {
      hq::spawn([&hits, i] { hits[static_cast<std::size_t>(i)].fetch_add(1); });
    }
    hq::sync();
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
    }
  });
}

TEST_P(SchedulerParam, ImplicitSyncAtTaskReturn) {
  // A task's children must complete before its completion is observable,
  // even without an explicit sync in the body.
  hq::scheduler sched(GetParam());
  std::atomic<int> order{0};
  std::atomic<int> child_done_at{-1};
  std::atomic<int> after_sync_at{-1};
  sched.run([&] {
    hq::spawn([&] {
      hq::spawn([&] { child_done_at.store(order.fetch_add(1)); });
      // no explicit sync: implicit sync must wait for the grandchild
    });
    hq::sync();
    after_sync_at.store(order.fetch_add(1));
  });
  EXPECT_LT(child_done_at.load(), after_sync_at.load());
  EXPECT_GE(child_done_at.load(), 0);
}

TEST_P(SchedulerParam, SyncSeesChildWrites) {
  hq::scheduler sched(GetParam());
  constexpr int kRounds = 200;
  sched.run([&] {
    for (int r = 0; r < kRounds; ++r) {
      std::vector<int> vals(64, 0);
      for (int i = 0; i < 64; ++i) {
        hq::spawn([&vals, i] { vals[static_cast<std::size_t>(i)] = i + 1; });
      }
      hq::sync();
      long sum = std::accumulate(vals.begin(), vals.end(), 0L);
      ASSERT_EQ(sum, 64L * 65 / 2);
    }
  });
}

TEST_P(SchedulerParam, CallRunsInline) {
  hq::scheduler sched(GetParam());
  int x = 0;
  sched.run([&] {
    hq::call([&x] { x = 42; });
    // call() waits: the effect must be visible immediately.
    EXPECT_EQ(x, 42);
  });
}

TEST_P(SchedulerParam, DeepRecursionTree) {
  hq::scheduler sched(GetParam());
  long out = 0;
  sched.run([&] { fib_task(24, &out); });
  EXPECT_EQ(out, serial_fib(24));
}

TEST_P(SchedulerParam, RunIsReusable) {
  hq::scheduler sched(GetParam());
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> n{0};
    sched.run([&] {
      for (int i = 0; i < 100; ++i) hq::spawn([&n] { n.fetch_add(1); });
      hq::sync();
    });
    EXPECT_EQ(n.load(), 100);
  }
}

TEST_P(SchedulerParam, WorkersReported) {
  hq::scheduler sched(GetParam());
  sched.run([&] { EXPECT_EQ(hq::workers(), GetParam()); });
}

INSTANTIATE_TEST_SUITE_P(Workers, SchedulerParam, ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST(Scheduler, StatsCountSpawns) {
  hq::scheduler sched(2);
  sched.reset_stats();
  sched.run([&] {
    for (int i = 0; i < 50; ++i) hq::spawn([] {});
    hq::sync();
  });
  auto s = sched.stats();
  EXPECT_EQ(s.spawns, 50u);
  EXPECT_EQ(s.executed, 51u);  // 50 children + root
}

TEST(SchedulerStats, TotalsAreTheSumOverWorkersAndResetToZero) {
  // stats() and per_worker_stats() read the same per-worker counters: with
  // the run over, every counter in the name table totals to the sum of its
  // per-worker values, and reset_stats() zeroes each of them.
  hq::scheduler sched(2);
  long out = 0;
  sched.run([&] { fib_task(22, &out); });
  ASSERT_EQ(out, serial_fib(22));
  const auto total = sched.stats();
  const auto per_worker = sched.per_worker_stats();
  ASSERT_EQ(per_worker.size(), 2u);
  EXPECT_GT(total.spawns, 10000u);
  for (const auto& c : hq::kSchedCounters) {
    std::uint64_t sum = 0;
    for (const auto& w : per_worker) sum += w.*c.field;
    EXPECT_EQ(total.*c.field, sum) << c.name;
  }
  sched.reset_stats();
  const auto zero = sched.stats();
  for (const auto& c : hq::kSchedCounters) EXPECT_EQ(zero.*c.field, 0u) << c.name;
  for (const auto& w : sched.per_worker_stats())
    for (const auto& c : hq::kSchedCounters) EXPECT_EQ(w.*c.field, 0u) << c.name;
}

TEST(Scheduler, SpawnArgumentsCapturedByValue) {
  hq::scheduler sched(2);
  std::atomic<long> sum{0};
  sched.run([&] {
    for (int i = 0; i < 100; ++i) {
      hq::spawn([&sum](int v) { sum.fetch_add(v); }, i);
    }
    hq::sync();
  });
  EXPECT_EQ(sum.load(), 100L * 99 / 2);
}

TEST(Scheduler, LargeClosureSpillsToHeap) {
  hq::scheduler sched(2);
  std::array<long, 64> big{};  // 512 bytes: beyond the inline buffer
  big.fill(7);
  std::atomic<long> out{0};
  sched.run([&] {
    hq::spawn([big, &out] {
      long s = 0;
      for (long v : big) s += v;
      out.store(s);
    });
    hq::sync();
  });
  EXPECT_EQ(out.load(), 7L * 64);
}

TEST(Scheduler, NestedSpawnDepth) {
  // A chain of single-child tasks, each waiting on its child: exercises
  // help-while-blocked re-entrancy.
  hq::scheduler sched(2);
  constexpr int kDepth = 200;
  std::atomic<int> max_seen{0};
  struct Chain {
    static void step(int depth, int limit, std::atomic<int>* max_seen) {
      if (depth > max_seen->load()) max_seen->store(depth);
      if (depth < limit) {
        hq::spawn(step, depth + 1, limit, max_seen);
        hq::sync();
      }
    }
  };
  sched.run([&] { Chain::step(0, kDepth, &max_seen); });
  EXPECT_EQ(max_seen.load(), kDepth);
}

// ------------------------------------------------------------- join order
// A join helps its own ready children oldest first (spawn order), and the
// deque floor keeps that take within the joiner's own children.

TEST(JoinOrder, SyncRunsOwnChildrenInSpawnOrder) {
  hq::scheduler sched(1);
  constexpr int kN = 64;
  std::vector<int> ran;
  sched.run([&] {
    for (int i = 0; i < kN; ++i) hq::spawn([&ran, i] { ran.push_back(i); });
    hq::sync();
  });
  std::vector<int> want(kN);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(ran, want);
}

TEST(JoinOrder, ImplicitSyncRunsOwnChildrenInSpawnOrder) {
  hq::scheduler sched(1);
  constexpr int kN = 64;
  std::vector<int> ran;
  sched.run([&] {
    hq::spawn([&ran] {
      for (int i = 0; i < kN; ++i) hq::spawn([&ran, i] { ran.push_back(i); });
      // no sync: the children run in the implicit sync at task return
    });
  });
  std::vector<int> want(kN);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(ran, want);
}

/// Bodies currently executing on this thread, nested or not.
thread_local int t_body_depth = 0;

struct depth_probe {
  std::atomic<int> max_depth{0};

  void enter() {
    const int d = ++t_body_depth;
    int seen = max_depth.load(std::memory_order_relaxed);
    while (d > seen && !max_depth.compare_exchange_weak(seen, d)) {
    }
  }
  static void leave() { --t_body_depth; }
};

class JoinDepth : public ::testing::TestWithParam<unsigned> {};

TEST_P(JoinDepth, OldestFirstJoinStaysWithinTheSpawnTree) {
  // Root -> 10 000 children -> 2 grandchildren each. A join that took its
  // worker's oldest task regardless of who spawned it would nest each
  // child's pending siblings on top of one another; the floor keeps every
  // worker's nesting at root, child, grandchild.
  hq::scheduler sched(GetParam());
  constexpr int kChildren = 10000;
  depth_probe probe;
  std::atomic<int> leaves{0};
  sched.run([&] {
    probe.enter();
    for (int i = 0; i < kChildren; ++i) {
      hq::spawn([&probe, &leaves] {
        probe.enter();
        for (int k = 0; k < 2; ++k) {
          hq::spawn([&probe, &leaves] {
            probe.enter();
            leaves.fetch_add(1, std::memory_order_relaxed);
            depth_probe::leave();
          });
        }
        hq::sync();
        depth_probe::leave();
      });
    }
    hq::sync();
    depth_probe::leave();
  });
  EXPECT_EQ(leaves.load(), 2 * kChildren);
  EXPECT_LE(probe.max_depth.load(), 3);
}

INSTANTIATE_TEST_SUITE_P(Workers, JoinDepth, ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

}  // namespace

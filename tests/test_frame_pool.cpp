// Tests for the per-worker frame/attachment recycling pools
// (sched/obj_pool.hpp): steady-state pipelines must stop allocating task
// frames and qattaches after warm-up, recycling must survive cross-worker
// frees (frames are freed by whichever worker runs finish()), and the
// hq::call fast path must not depend on heap-allocated completion state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "hq.hpp"

namespace {

/// One steady-state round set: repeated bounded spawn bursts with a sync in
/// between, the regime the pool is sized for (in-flight frames << cap).
void spawn_rounds(hq::scheduler& sched, int rounds, int width) {
  sched.run([&] {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < width; ++i) hq::spawn([] {});
      hq::sync();
    }
  });
}

TEST(FramePool, SingleWorkerPlateausExactly) {
  // One worker makes recycling deterministic: after the warm-up rounds
  // every frame demand is served by the magazine — zero fresh allocations.
  // Both snapshots are taken inside one run() so no frame free is in
  // flight at observation time.
  hq::scheduler sched(1);
  hq::detail::pool_counts warm, after;
  sched.run([&] {
    for (int r = 0; r < 20; ++r) {
      for (int i = 0; i < 64; ++i) hq::spawn([] {});
      hq::sync();
    }
    warm = sched.frame_pool_stats();
    for (int r = 0; r < 20; ++r) {
      for (int i = 0; i < 64; ++i) hq::spawn([] {});
      hq::sync();
    }
    after = sched.frame_pool_stats();
  });
  EXPECT_GT(warm.allocated, 0u);
  EXPECT_EQ(after.allocated, warm.allocated);
  EXPECT_GT(after.recycled, warm.recycled);
  EXPECT_EQ(after.high_water, warm.high_water);
}

TEST(FramePool, MultiWorkerSteadyState) {
  // With stealing, frames are freed on other workers and flow back through
  // the bounded return stacks. Timing jitter may let a later run transiently
  // exceed the warm-up peak, but the allocation count must plateau rather
  // than grow with work done: allow one burst of slack while recycling must
  // scale with the number of spawns.
  hq::scheduler sched(4);
  for (int i = 0; i < 4; ++i) spawn_rounds(sched, 30, 64);  // warm-up
  const auto warm = sched.frame_pool_stats();
  for (int i = 0; i < 10; ++i) spawn_rounds(sched, 30, 64);
  const auto after = sched.frame_pool_stats();
  // Fresh allocations may still trickle in while magazines rebalance across
  // workers (one burst per worker of slack), but must stay far below the
  // 10 × 30 × 64 = 19200 spawns executed — the pool, not malloc, carries
  // the volume.
  EXPECT_LE(after.allocated, warm.allocated + 4u * 64u);
  EXPECT_GE(after.recycled + after.allocated - warm.allocated,
            warm.recycled + 10u * 30u * 64u);
}

TEST(FramePool, QattachRecyclesInPipelines) {
  // Every hyperqueue spawn argument allocates one qattach, freed at task
  // completion by the completing worker. A repeated producer/consumer
  // pipeline must reach attach-pool steady state the same way frames do.
  hq::scheduler sched(1);
  auto pipeline = [] {
    hq::hyperqueue<int> q(64);
    for (int stage = 0; stage < 8; ++stage) {
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < 32; ++i) qq.push(i);
          },
          (hq::pushdep<int>)q);
    }
    long sum = 0;
    hq::spawn(
        [&sum](hq::popdep<int> qq) {
          while (!qq.empty()) sum += qq.pop();
        },
        (hq::popdep<int>)q);
    hq::sync();
    EXPECT_EQ(sum, 8L * 32 * 31 / 2);
  };
  hq::detail::pool_counts warm, after;
  sched.run([&] {
    for (int i = 0; i < 3; ++i) pipeline();
    warm = sched.attach_pool_stats();
    for (int i = 0; i < 5; ++i) pipeline();
    after = sched.attach_pool_stats();
  });
  EXPECT_GT(warm.allocated, 0u);
  EXPECT_EQ(after.allocated, warm.allocated);
  EXPECT_GT(after.recycled, warm.recycled);
}

TEST(FramePool, CrossWorkerRecyclingTorture) {
  // Producer/consumer pipeline at 4 workers: frames and qattaches are
  // allocated on the spawning worker and freed wherever finish() runs.
  // Exercises the magazine return stacks under contention (sanitizer
  // coverage for the recycling hand-off) and checks the books balance.
  hq::scheduler sched(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    sched.run([&] {
      hq::hyperqueue<int> q(128);
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < 2000; ++i) qq.push(i);
          },
          (hq::pushdep<int>)q);
      hq::spawn(
          [&sum](hq::popdep<int> qq) {
            long s = 0;
            while (!qq.empty()) s += qq.pop();
            sum.fetch_add(s);
          },
          (hq::popdep<int>)q);
      hq::sync();
    });
    ASSERT_EQ(sum.load(), 2000L * 1999 / 2);
  }
  const auto fp = sched.frame_pool_stats();
  EXPECT_GT(fp.recycled, 0u);
  EXPECT_LE(fp.live, fp.allocated);
  EXPECT_GE(fp.high_water, 1u);
}

TEST(FramePool, StatsAccountingConsistent) {
  hq::scheduler sched(2);
  spawn_rounds(sched, 10, 32);
  const auto fp = sched.frame_pool_stats();
  const auto ap = sched.attach_pool_stats();
  // Frames: allocations ever = fresh + recycled; everything spawned in a
  // completed run() has been freed except nothing (all tasks completed), so
  // at most the root-frame teardown is in flight.
  EXPECT_LE(fp.live, 1u);
  EXPECT_LE(fp.high_water, fp.allocated);
  EXPECT_LE(ap.live, 1u);
}

TEST(FramePool, CallUsesCallerStackFlag) {
  // hq::call waits on a stack-local completion flag (no shared_ptr per
  // call). Nested and repeated calls must complete and order correctly.
  hq::scheduler sched(2);
  sched.run([&] {
    long acc = 0;
    for (int i = 0; i < 100; ++i) {
      hq::call([&acc, i] { acc += i; });
    }
    EXPECT_EQ(acc, 99L * 100 / 2);
    int stage = 0;
    hq::call([&] {
      EXPECT_EQ(stage, 0);
      hq::call([&] { stage = 1; });
      EXPECT_EQ(stage, 1);
      stage = 2;
    });
    EXPECT_EQ(stage, 2);
  });
}

TEST(FramePool, ReturnCapOverflowRecyclesOnFreeingMagazine) {
  // Single-threaded obj_pool, two magazines, return-stack cap 4. Magazine 0
  // carves ten blocks; magazine 1 frees them all. The first four park on
  // magazine 0's return stack; the six beyond the cap land on magazine 1's
  // own freelist, so its next six allocations are recycled, not carved.
  using pool_t = hq::detail::obj_pool;
  constexpr unsigned kOwner = 0, kFreeing = 1;
  constexpr std::size_t kCap = 4, kBlocks = 10;
  pool_t pool;
  pool.init(2, 64, kCap);
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < kBlocks; ++i) blocks.push_back(pool.alloc(kOwner));
  ASSERT_EQ(pool.stats().allocated, kBlocks);
  for (void* b : blocks) pool.free(b, kOwner, kFreeing);
  const std::set<void*> parked(blocks.begin(), blocks.begin() + kCap);
  const std::set<void*> migrated(blocks.begin() + kCap, blocks.end());

  std::vector<std::pair<void*, unsigned>> held;
  for (std::size_t i = kCap; i < kBlocks; ++i) {
    void* b = pool.alloc(kFreeing);
    EXPECT_EQ(migrated.count(b), 1u) << "block " << i << " not recycled";
    held.emplace_back(b, kFreeing);
  }
  auto st = pool.stats();
  EXPECT_EQ(st.allocated, kBlocks) << "the freeing magazine carved";
  EXPECT_EQ(st.recycled, kBlocks - kCap);
  // The freeing magazine is dry now; the owner adopts its four returns.
  held.emplace_back(pool.alloc(kFreeing), kFreeing);
  EXPECT_EQ(pool.stats().allocated, kBlocks + 1);
  for (std::size_t i = 0; i < kCap; ++i) {
    void* b = pool.alloc(kOwner);
    EXPECT_EQ(parked.count(b), 1u) << "return " << i << " not adopted";
    held.emplace_back(b, kOwner);
  }
  st = pool.stats();
  EXPECT_EQ(st.allocated, kBlocks + 1);
  EXPECT_EQ(st.recycled, kBlocks);
  for (const auto& [b, owner] : held) pool.free(b, owner, owner);
  EXPECT_EQ(pool.stats().live, 0u);
}

}  // namespace

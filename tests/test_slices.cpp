// Slice fast-path tests (paper Section 5.2): wrap-around write slices,
// partial commits, prefix releases, slices interleaved with element ops,
// cross-segment reads, segment-pool statistics, and a two-thread torture
// loop. These are the paths the apps' batched pipelines lean on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "hq.hpp"

namespace {

// ------------------------------------------------------------ wrap-around

TEST(Slices, WriteSliceWrapAroundReusesSegment) {
  // A producer/consumer pair that stays in step must ring-recycle ONE
  // segment: when the contiguous run to the wrap point is shorter than the
  // request, the slice comes back short instead of abandoning the segment's
  // wrapped free space.
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<int> q(8);  // exact power of two: wrap at index 8
    ASSERT_EQ(q.pool_stats().allocated, 1u);  // the initial segment
    int v = 0;
    // Park head/tail at 6: 2 contiguous slots remain before the wrap.
    for (; v < 6; ++v) q.push(v);
    for (int i = 0; i < 6; ++i) ASSERT_EQ(q.pop(), i);
    {
      auto ws = q.get_write_slice(8);
      ASSERT_EQ(ws.size(), 2u) << "grant must stop at the wrap point";
      ws.emplace(0, v);
      ws.emplace(1, v + 1);
      ws.commit();
      v += 2;
    }
    {
      // Tail wrapped to a multiple of the capacity: the whole (empty except
      // for the 2 pending values) ring minus the pending values is free, and
      // 6 of those slots are contiguous from index 0.
      auto ws = q.get_write_slice(8);
      ASSERT_EQ(ws.size(), 6u);
      for (std::size_t i = 0; i < 6; ++i) ws.emplace(i, v++);
      ws.commit();
    }
    for (int i = 6; i < 14; ++i) ASSERT_EQ(q.pop(), i);
    EXPECT_TRUE(q.empty());
    const auto st = q.pool_stats();
    EXPECT_EQ(st.allocated, 1u)
        << "an in-step slice pair must never allocate past the first segment";
    EXPECT_EQ(st.high_water, 1u);
  });
}

TEST(Slices, LongStreamThroughOneSegmentAllocatesNothing) {
  // Stream 10k values through an 8-slot queue with in-step slice producer
  // and consumer turns: steady state is literally zero allocation.
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<int> q(8);
    int pushed = 0, popped = 0;
    const int total = 10000;
    while (popped < total) {
      if (pushed < total) {
        auto ws = q.get_write_slice(
            std::min<std::size_t>(5, static_cast<std::size_t>(total - pushed)));
        const std::size_t n = ws.size();
        for (std::size_t i = 0; i < n; ++i) {
          ws.emplace(i, pushed++);
        }
        ws.commit();
      }
      auto rs = q.get_read_slice(7);
      for (const int& x : rs) ASSERT_EQ(x, popped++);
      rs.release();
    }
    const auto st = q.pool_stats();
    EXPECT_EQ(st.allocated, 1u);
    EXPECT_EQ(st.high_water, 1u);
  });
}

TEST(Slices, CacheHitRecyclesKeepPoolStatsExact) {
  // An in-step producer/consumer whose burst spans two segments recycles
  // through the one-slot lock-free seg cache: each round chains exactly one
  // extra segment and drains it again, so the cache slot is always empty
  // when the recycle arrives and every wrap's alloc is served from it. The
  // cache fast path must not bypass the pool bookkeeping: high_water still
  // reflects the true peak (2, not 1), fresh allocations stop once the ring
  // is primed, and every recycle is visible as a cache hit.
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<int> q(8);
    int v = 0;
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < 16; ++i) q.push(v + i);
      for (int i = 0; i < 16; ++i) ASSERT_EQ(q.pop(), v + i);
      v += 16;
    }
    const auto ps = q.pool_stats();
    EXPECT_GT(ps.recycled, 100u) << "the ring must actually wrap";
    EXPECT_EQ(ps.seg_cache_hits, ps.recycled)
        << "every in-step recycle flows through the lock-free cache slot";
    EXPECT_EQ(ps.allocated, 2u)
        << "one initial segment plus one priming alloc at the first wrap";
    EXPECT_EQ(ps.allocated, ps.high_water)
        << "cache-served allocs must still raise/track the high-water mark";
  });
}

// ---------------------------------------------------------- partial commit

struct counted {
  int v = 0;
  static std::atomic<int> live;
  counted() noexcept { live.fetch_add(1, std::memory_order_relaxed); }
  explicit counted(int x) noexcept : v(x) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  counted(counted&& o) noexcept : v(o.v) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  counted& operator=(counted&& o) noexcept {
    v = o.v;
    return *this;
  }
  ~counted() { live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> counted::live{0};

TEST(Slices, PartialCommitPublishesPrefixAndDestroysTail) {
  counted::live.store(0);
  hq::scheduler sched(2);
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<counted> q(32);
    hq::spawn(
        [](hq::pushdep<counted> p) {
          auto ws = p.get_write_slice(10);
          ASSERT_EQ(ws.size(), 10u);
          for (std::size_t i = 0; i < 10; ++i) {
            ws.emplace(i, static_cast<int>(i));
          }
          ASSERT_EQ(ws.filled(), 10u);
          const int before = counted::live.load();
          ws.commit(6);  // publish 0..5, destroy 6..9
          EXPECT_EQ(counted::live.load(), before - 4)
              << "partial commit must destroy the uncommitted tail";
          // The slice is spent; keep producing through a fresh one.
          auto ws2 = p.get_write_slice(3);
          const std::size_t n = ws2.size();
          for (std::size_t i = 0; i < n; ++i) {
            ws2.emplace(i, 100 + static_cast<int>(i));
          }
          ws2.commit();  // full commit unchanged
        },
        (hq::pushdep<counted>)q);
    hq::spawn(
        [&got](hq::popdep<counted> p) {
          while (!p.empty()) got.push_back(p.pop().v);
        },
        (hq::popdep<counted>)q);
    hq::sync();
  });
  std::vector<int> expect = {0, 1, 2, 3, 4, 5};
  for (int i = 0; i < 3; ++i) expect.push_back(100 + i);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(counted::live.load(), 0) << "every element must be destroyed";
}

TEST(Slices, CommitZeroPublishesNothing) {
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<counted> q(16);
    {
      auto ws = q.get_write_slice(4);
      ws.emplace(0, 7);
      ws.emplace(1, 8);
      ws.commit(0);  // abandon everything constructed
    }
    q.push(counted(42));
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.pop().v, 42);
    EXPECT_TRUE(q.empty());
  });
  EXPECT_EQ(counted::live.load(), 0);
}

// ---------------------------------------------------------- prefix release

TEST(Slices, PrefixReleaseKeepsSuffixValid) {
  hq::scheduler sched(2);
  sched.run([&] {
    hq::hyperqueue<int> q(64);
    hq::spawn(
        [](hq::pushdep<int> p) {
          for (int i = 0; i < 40; ++i) p.push(i);
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [](hq::popdep<int> p) {
          int expect = 0;
          while (expect < 40) {
            auto rs = p.get_read_slice(16);
            ASSERT_FALSE(rs.empty());
            // Consume in two gulps: a prefix, then the shrunken remainder.
            const std::size_t first = rs.size() / 2;
            for (std::size_t i = 0; i < first; ++i) ASSERT_EQ(rs[i], expect++);
            rs.release(first);
            for (const int& v : rs) ASSERT_EQ(v, expect++);
            rs.release();
          }
          EXPECT_TRUE(p.empty());
        },
        (hq::popdep<int>)q);
    hq::sync();
  });
}

TEST(Slices, ReleaseZeroIsANoOp) {
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<int> q(16);
    q.push(1);
    auto rs = q.get_read_slice(4);
    ASSERT_EQ(rs.size(), 1u);
    rs.release(0);
    ASSERT_EQ(rs.size(), 1u);
    EXPECT_EQ(rs[0], 1);
    rs.release();
    EXPECT_TRUE(q.empty());
  });
}

// --------------------------------------- slices interleaved with elements

TEST(Slices, SlicesInterleaveWithElementPushPop) {
  hq::scheduler sched(4);
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> q(16);
    hq::spawn(
        [](hq::pushdep<int> p) {
          int v = 0;
          while (v < 300) {
            if ((v / 7) % 2 == 0) {
              p.push(v++);
            } else {
              auto ws = p.get_write_slice(
                  std::min<std::size_t>(9, static_cast<std::size_t>(300 - v)));
              const std::size_t n = ws.size();
              for (std::size_t i = 0; i < n; ++i) ws.emplace(i, v++);
              ws.commit();
            }
          }
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [&got](hq::popdep<int> p) {
          bool use_slice = false;
          for (;;) {
            if (use_slice) {
              auto rs = p.get_read_slice(5);
              if (rs.empty()) break;
              for (const int& v : rs) got.push_back(v);
              rs.release();
            } else {
              if (p.empty()) break;
              got.push_back(p.pop());
            }
            use_slice = !use_slice;
          }
        },
        (hq::popdep<int>)q);
    hq::sync();
  });
  ASSERT_EQ(got.size(), 300u);
  for (int i = 0; i < 300; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

// -------------------------------------------------------- cross-segment

TEST(Slices, ReadSlicesWalkTheSegmentChain) {
  // Producer bulk-pushes far more than one tiny segment holds; consecutive
  // read slices must walk the chain (each slice stays within one segment)
  // and the drained interior segments must return to the pool.
  hq::scheduler sched(2);
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> q(8);
    hq::spawn(
        [](hq::pushdep<int> p) {
          std::vector<int> vals(200);
          for (int i = 0; i < 200; ++i) vals[static_cast<std::size_t>(i)] = i;
          hq::push_slices(p, vals.begin(), vals.end(), 32);
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [&got](hq::popdep<int> p) {
          for (;;) {
            auto rs = p.get_read_slice(32);
            if (rs.empty()) break;
            EXPECT_LE(rs.size(), 8u) << "a slice never spans segments";
            for (const int& v : rs) got.push_back(v);
            rs.release();
          }
        },
        (hq::popdep<int>)q);
    hq::sync();
    const auto st = q.pool_stats();
    EXPECT_GT(st.recycled + st.allocated, 0u);
    EXPECT_EQ(st.allocated, st.high_water)
        << "fresh allocation only ever happens at a new high-water mark";
  });
  ASSERT_EQ(got.size(), 200u);
  for (int i = 0; i < 200; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

// ------------------------------------------------- pop-FIFO view handoff

TEST(Slices, PopSpawnLeavesParkedViewForOlderSibling) {
  // Deterministic regression test for a queue-view handoff deadlock: after
  // a pop child completes, the queue view is parked at the parent until the
  // FIFO-next pop child claims it lazily. A NEWLY spawned (younger) pop
  // child must not grab the parked view — it cannot run before the older
  // sibling, which would then wait on it forever. The gate pins the older
  // sibling in the started-but-not-yet-claimed state while the owner
  // spawns the younger one.
  hq::scheduler sched(4);
  std::atomic<bool> c1_done{false};
  std::atomic<bool> gate{false};
  std::atomic<long> got{0};
  sched.run([&] {
    hq::hyperqueue<int> q(8);
    q.push(1);
    hq::spawn(
        [&](hq::popdep<int> p) {  // c1: takes the queue view at spawn
          while (!p.empty()) {
            (void)p.pop();
            got.fetch_add(1, std::memory_order_relaxed);
          }
          c1_done.store(true, std::memory_order_release);
        },
        (hq::popdep<int>)q);
    hq::spawn(
        [&](hq::popdep<int> p) {  // c2: runs after c1, held before claiming
          while (!gate.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          while (!p.empty()) {
            (void)p.pop();
            got.fetch_add(1, std::memory_order_relaxed);
          }
        },
        (hq::popdep<int>)q);
    // Wait until c1's completion hooks have parked the view at the owner
    // (c2 is gated, so it cannot have claimed it).
    while (!c1_done.load(std::memory_order_acquire)) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.push(2);
    hq::spawn(
        [&](hq::popdep<int> p) {  // c3: must NOT steal the parked view
          while (!p.empty()) {
            (void)p.pop();
            got.fetch_add(1, std::memory_order_relaxed);
          }
        },
        (hq::popdep<int>)q);
    gate.store(true, std::memory_order_release);
    hq::sync();
  });
  EXPECT_EQ(got.load(), 2);
}

constexpr int kSplitRounds = 2000;
constexpr int kSplitBatch = 8;


TEST(Slices, RapidPopChildRespawnDoesNotStrandQueueView) {
  // Regression test for a queue-view handoff deadlock: when a completed pop
  // child hands the queue view back to the parent while the FIFO-next pop
  // sibling has not yet claimed it, a NEWLY spawned (younger) pop child
  // must not grab the parked view at spawn — it cannot run before the older
  // sibling, which would then wait on it forever. The trigger is an owner
  // that keeps pushing and spawning short-lived consumers back to back at
  // multiple workers (the bzip2 split pipeline's writer structure).
  // Miniature of the bzip2 split pipeline (Sections 5.4 + 5.5): the owner
  // pushes a batch, spawns a middle stage that re-spawns per-value pushers
  // onto a second queue, spawns a writer draining that queue, and issues a
  // selective sync every few rounds. The writers are long-lived pop
  // children respawned back to back — exactly the pattern that arms the
  // stranding window.
  hq::scheduler sched(4);
  std::atomic<long> written{0};
  sched.run([&] {
    hq::hyperqueue<int> q_in(32);
    hq::hyperqueue<int> q_out(32);
    int window = 0;
    for (int r = 0; r < kSplitRounds; ++r) {
      for (int i = 0; i < kSplitBatch; ++i) q_in.push(r * kSplitBatch + i);
      hq::spawn(
          [](hq::popdep<int> in, hq::pushdep<int> out) {
            for (int i = 0; i < kSplitBatch; ++i) {
              int v = in.pop();
              // The busy loop stands in for the apps' per-batch kernel work:
              // it congests the deques so freshly runnable writers linger
              // unstarted, which is what holds the stranding window open.
              hq::spawn(
                  [v](hq::pushdep<int> o) {
                    volatile long acc = 0;
                    for (int k = 0; k < 5000; ++k) acc = acc + k * k;
                    o.push(v + static_cast<int>(acc * 0));
                  },
                  out);
            }
            hq::sync();
          },
          (hq::popdep<int>)q_in, (hq::pushdep<int>)q_out);
      hq::spawn(
          [&written](hq::popdep<int> p) {
            while (!p.empty()) {
              (void)p.pop();
              written.fetch_add(1, std::memory_order_relaxed);
            }
          },
          (hq::popdep<int>)q_out);
      // Owner-side work comparable to one stage subtree's latency: the
      // steal window only opens while the owner is mid-burst with earlier
      // stages completing and later ones not yet started. The right ratio
      // depends on the machine, so sweep the delay cyclically — some band
      // of rounds always lands in the window.
      volatile long own = 0;
      for (int k = 0; k < (r % 64) * 500; ++k) own = own + k;
      (void)own;
      if (++window >= 4) {
        q_out.sync_pop();
        window = 0;
      }
    }
    hq::sync();
  });
  EXPECT_EQ(written.load(), static_cast<long>(kSplitRounds) * kSplitBatch);
}

// ------------------------------------------------------------- torture

TEST(Slices, TwoThreadSliceTortureLoop) {
  // One producer task and one consumer task on 2 workers, streaming 500k
  // values through an intentionally tiny queue with pseudo-randomly sized
  // write slices, read slices, prefix releases and element ops mixed in.
  // FIFO order and the exact count must survive.
  constexpr int kTotal = 500000;
  hq::scheduler sched(2);
  std::atomic<bool> ok{true};
  std::atomic<int> consumed{0};
  sched.run([&] {
    hq::hyperqueue<int> q(16);
    hq::spawn(
        [](hq::pushdep<int> p) {
          std::uint64_t rng = 0x9e3779b97f4a7c15ull;
          int v = 0;
          while (v < kTotal) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            if ((rng & 15u) == 0) {
              p.push(v++);
              continue;
            }
            const std::size_t want = 1 + static_cast<std::size_t>(
                                             (rng >> 33) % 13);
            auto ws = p.get_write_slice(std::min<std::size_t>(
                want, static_cast<std::size_t>(kTotal - v)));
            const std::size_t n = ws.size();
            for (std::size_t i = 0; i < n; ++i) ws.emplace(i, v++);
            ws.commit();
          }
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [&ok, &consumed](hq::popdep<int> p) {
          std::uint64_t rng = 0x853c49e6748fea9bull;
          int expect = 0;
          for (;;) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            if ((rng & 15u) == 0) {
              if (p.empty()) break;
              if (p.pop() != expect++) {
                ok.store(false);
                break;
              }
              continue;
            }
            auto rs = p.get_read_slice(1 + static_cast<std::size_t>(
                                               (rng >> 33) % 17));
            if (rs.empty()) break;
            std::size_t take = rs.size();
            if ((rng & 0x30u) == 0 && take > 1) take /= 2;  // prefix release
            for (std::size_t i = 0; i < take; ++i) {
              if (rs[i] != expect++) {
                ok.store(false);
                return;
              }
            }
            rs.release(take);
          }
          consumed.store(expect);
        },
        (hq::popdep<int>)q);
    hq::sync();
  });
  EXPECT_TRUE(ok.load()) << "value order diverged from the serial elision";
  EXPECT_EQ(consumed.load(), kTotal);
}

}  // namespace

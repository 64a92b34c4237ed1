// The element hot path after the padded-segment / cached-index /
// trivial-batching rework: trivial vs. non-trivial element types through
// push/pop/slices, segment wrap and cross-segment reads with index
// caching active, the lock-free definitive-empty gate (including its
// liveness on adversarial spawn orders), and the data-path slow-event
// counters that pin the "zero mu, zero remote loads on the fast path"
// contract. Runs under the TSan CI preset.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "hq.hpp"

namespace {

// ------------------------------------------------------------ element types

/// Non-trivial, move-only, destructor-counting element. ASan flags leaks,
/// the counter flags double-destroys and misses.
struct counted_box {
  static std::atomic<long> live;

  explicit counted_box(std::uint64_t v) : value(new std::uint64_t(v)) {
    live.fetch_add(1, std::memory_order_relaxed);
  }
  counted_box(counted_box&& o) noexcept : value(o.value) {
    o.value = nullptr;
    live.fetch_add(1, std::memory_order_relaxed);
  }
  counted_box& operator=(counted_box&& o) noexcept {
    delete value;
    value = o.value;
    o.value = nullptr;
    return *this;
  }
  counted_box(const counted_box&) = delete;
  counted_box& operator=(const counted_box&) = delete;
  ~counted_box() {
    delete value;
    live.fetch_sub(1, std::memory_order_relaxed);
  }

  std::uint64_t get() const { return value != nullptr ? *value : ~0ull; }
  std::uint64_t* value;
};
std::atomic<long> counted_box::live{0};

static_assert(hq::detail::is_trivially_relocatable_v<int>);
static_assert(!hq::detail::is_trivially_relocatable_v<counted_box>);

// ------------------------------------------------- trivial vs. non-trivial

TEST(ElementPath, TrivialElementsThroughAllApis) {
  hq::scheduler sched(2);
  constexpr int kTotal = 20000;
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> q(64);  // small segments: many wraps and chains
    hq::spawn(
        [](hq::pushdep<int> qq) {
          std::vector<int> batch(257);
          int v = 0;
          while (v < kTotal) {
            const int n = std::min<int>(257, kTotal - v);
            std::iota(batch.begin(), batch.begin() + n, v);
            hq::push_slices(qq, batch.begin(), batch.begin() + n, 64);
            v += n;
          }
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [&got](hq::popdep<int> qq) {
          // Alternate both consumption modes to cross-check them.
          bool slice = false;
          for (;;) {
            if (!slice) {
              if (qq.empty()) break;
              got.push_back(qq.pop());
            } else {
              auto rs = qq.get_read_slice(100);
              if (rs.empty()) break;
              for (int x : rs) got.push_back(x);
              rs.release();
            }
            slice = !slice;
          }
        },
        (hq::popdep<int>)q);
    hq::sync();
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) ASSERT_EQ(got[i], i) << "FIFO order broken at " << i;
}

TEST(ElementPath, MoveOnlyDestructorCountingElements) {
  counted_box::live.store(0);
  hq::scheduler sched(2);
  constexpr std::uint64_t kTotal = 5000;
  std::uint64_t sum = 0;
  sched.run([&] {
    hq::hyperqueue<counted_box> q(32);
    hq::spawn(
        [](hq::pushdep<counted_box> qq) {
          std::uint64_t v = 0;
          while (v < kTotal) {
            // Mix element pushes and write slices.
            if ((v & 1) == 0) {
              qq.push(counted_box(v));
              ++v;
            } else {
              auto ws = qq.get_write_slice(8);
              std::size_t i = 0;
              for (; i < ws.size() && v < kTotal; ++i, ++v) ws.emplace(i, v);
              ws.commit(i);
            }
          }
        },
        (hq::pushdep<counted_box>)q);
    hq::spawn(
        [&sum](hq::popdep<counted_box> qq) {
          bool use_slice = false;
          for (;;) {
            if (use_slice) {
              auto rs = qq.get_read_slice(16);
              if (rs.empty()) break;
              for (auto& b : rs) sum += b.get();
              rs.release();
            } else {
              if (qq.empty()) break;
              sum += qq.pop().get();
            }
            use_slice = !use_slice;
          }
        },
        (hq::popdep<counted_box>)q);
    hq::sync();
  });
  EXPECT_EQ(sum, kTotal * (kTotal - 1) / 2);
  EXPECT_EQ(counted_box::live.load(), 0) << "leak or double-destroy";
}

TEST(ElementPath, NonTrivialTeardownWithValuesInside) {
  // Values left inside at queue destruction are destroyed by the batched
  // teardown (destroy_range over wrapped runs).
  counted_box::live.store(0);
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<counted_box> q(8);
    // Wrap the ring first so the remaining values straddle the boundary.
    for (std::uint64_t v = 0; v < 6; ++v) q.push(counted_box(v));
    for (int i = 0; i < 6; ++i) {
      ASSERT_FALSE(q.empty());
      (void)q.pop();
    }
    for (std::uint64_t v = 0; v < 7; ++v) q.push(counted_box(100 + v));
    // 7 live values positioned across the wrap; destructor cleans up.
  });
  EXPECT_EQ(counted_box::live.load(), 0);
}

// --------------------------------------------- wrap + cross-segment slices

TEST(ElementPath, ReadSliceAcrossWrapAndSegments) {
  hq::scheduler sched(1);
  sched.run([&] {
    hq::hyperqueue<int> q(16);
    // Phase 1: shift the indices so later slices hit the wrap point.
    for (int i = 0; i < 10; ++i) q.push(i);
    for (int i = 0; i < 10; ++i) {
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.pop(), i);
    }
    // Phase 2: fill across the wrap and into a second segment.
    for (int i = 0; i < 40; ++i) q.push(100 + i);
    std::vector<int> got;
    while (static_cast<int>(got.size()) < 40) {
      auto rs = q.get_read_slice(64);
      ASSERT_FALSE(rs.empty());
      // Slices are contiguous: never longer than the run to the wrap.
      for (int x : rs) got.push_back(x);
      rs.release();
    }
    for (int i = 0; i < 40; ++i) ASSERT_EQ(got[i], 100 + i);
  });
}

// ----------------------------------------------------- fast-path contract

TEST(ElementPath, SteadyStateFastPathTakesNoLockAndNoRemoteLoads) {
  // Acceptance criterion: a steady-state single-segment producer/consumer
  // pair acquires queue_cb::mu zero times and reloads the remote index at
  // most once per segment-capacity of elements. Single task, deterministic.
  constexpr std::uint64_t kCap = 256;
  constexpr std::uint64_t kRounds = 200;
  hq::scheduler sched(1);
  hq::seg_pool_stats st{};
  sched.run([&] {
    hq::hyperqueue<std::uint64_t> q(kCap);
    std::uint64_t expect = 0;
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      for (std::uint64_t i = 0; i < kCap; ++i) q.push(r * kCap + i);
      for (std::uint64_t i = 0; i < kCap; ++i) {
        ASSERT_FALSE(q.empty());
        ASSERT_EQ(q.pop(), expect++);
      }
    }
    st = q.pool_stats();
  });
  // Zero mutex acquisitions on the element path: the owner holds its views
  // from attach_owner, and the empty() gate resolves through ready data.
  EXPECT_EQ(st.mu_data, 0u);
  // Remote-index reloads happen only at the full/empty boundary: at most
  // one head reload per capacity of pushes and one tail reload per
  // refill, not one per element.
  EXPECT_LE(st.head_reloads, kRounds + 2);
  EXPECT_LE(st.tail_reloads, 2 * kRounds + 2);
  // And the whole run rides a single segment.
  EXPECT_EQ(st.allocated, 1u);
}

TEST(ElementPath, TwoTaskStreamWalksMuAtMostOncePerAttachment) {
  // A consumer outrunning a live producer settles into lock-free polling:
  // the exact older-pushers walk under mu runs at most once per consumer
  // attachment until a pusher completes, and never after the live-pusher
  // count reaches zero.
  hq::scheduler sched(2);
  constexpr int kTotal = 200000;
  long sum = 0;
  hq::seg_pool_stats st{};
  sched.run([&] {
    hq::hyperqueue<int> q(256);
    hq::spawn(
        [](hq::pushdep<int> qq) {
          for (int i = 0; i < kTotal; ++i) qq.push(i);
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [&sum](hq::popdep<int> qq) {
          while (!qq.empty()) sum += qq.pop();
        },
        (hq::popdep<int>)q);
    hq::sync();
    st = q.pool_stats();
  });
  EXPECT_EQ(sum, static_cast<long>(kTotal) * (kTotal - 1) / 2);
  // One walk for the consumer while the producer lives (epoch memo) plus at
  // most one ensure_queue_view claim; generous bound, but far below the
  // per-poll-round acquisitions of the old design (~thousands).
  EXPECT_LE(st.mu_data, 4u);
}

TEST(ElementPath, RingRecycleServedBySegmentCache) {
  // Steady-state drain -> recycle -> alloc-next-wrap cycles go through the
  // lock-free one-slot cache, not the free-list spinlock.
  hq::scheduler sched(1);
  hq::seg_pool_stats st{};
  sched.run([&] {
    hq::hyperqueue<int> q(16);
    // Fill two segments, then drain both, 50 times: every wrap recycles the
    // drained segment and allocates it back.
    for (int r = 0; r < 50; ++r) {
      for (int i = 0; i < 32; ++i) q.push(i);
      for (int i = 0; i < 32; ++i) {
        ASSERT_FALSE(q.empty());
        ASSERT_EQ(q.pop(), i);
      }
    }
    st = q.pool_stats();
  });
  EXPECT_GT(st.seg_cache_hits, 0u);
  EXPECT_EQ(st.seg_cache_hits, st.recycled)
      << "every pool reuse should have been served lock-free";
}

// ------------------------------------------- definitive-empty gate liveness

TEST(ElementPath, ConsumerSpawnedBeforeProducerSeesEmpty) {
  // The consumer is OLDER than the producer: its empty() must come back
  // true (no older pusher) even while the younger producer is live — the
  // exact walk under mu must still run while the lock-free upper bound is
  // nonzero. The younger producer's values then flow to the owner.
  for (unsigned workers : {1u, 2u, 4u}) {
    hq::scheduler sched(workers);
    int consumer_got = 0;
    std::vector<int> owner_got;
    sched.run([&] {
      hq::hyperqueue<int> q(64);
      hq::spawn(
          [&consumer_got](hq::popdep<int> qq) {
            while (!qq.empty()) {
              qq.pop();
              ++consumer_got;
            }
          },
          (hq::popdep<int>)q);
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < 100; ++i) qq.push(i);
          },
          (hq::pushdep<int>)q);
      hq::sync();
      while (!q.empty()) owner_got.push_back(q.pop());
    });
    EXPECT_EQ(consumer_got, 0) << "consumer must not see younger values";
    ASSERT_EQ(owner_got.size(), 100u);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(owner_got[i], i);
  }
}

TEST(ElementPath, CrossQueueOlderConsumerYoungerProducerNoLivelock) {
  // C (older) pops q1 and pushes to q2; P (younger) pops q2 and pushes to
  // q1. Serial elision: C sees q1 empty, sends a marker through q2, P
  // receives it. A gate that waited for q1's live-pusher count to reach
  // zero before answering C would livelock here.
  hq::scheduler sched(2);
  std::vector<int> p_got;
  sched.run([&] {
    hq::hyperqueue<int> q1(64);
    hq::hyperqueue<int> q2(64);
    hq::spawn(
        [](hq::popdep<int> in, hq::pushdep<int> out) {
          int n = 0;
          while (!in.empty()) {
            in.pop();
            ++n;
          }
          out.push(1000 + n);  // n == 0: no older producer on q1
        },
        (hq::popdep<int>)q1, (hq::pushdep<int>)q2);
    hq::spawn(
        [&p_got](hq::popdep<int> in, hq::pushdep<int> out) {
          while (!in.empty()) p_got.push_back(in.pop());
          out.push(7);  // discarded at q1 teardown
        },
        (hq::popdep<int>)q2, (hq::pushdep<int>)q1);
    hq::sync();
  });
  ASSERT_EQ(p_got.size(), 1u);
  EXPECT_EQ(p_got[0], 1000);
}

TEST(ElementPath, SpawnAfterDrainInvalidatesDefinitiveEmptyMemo) {
  // Figure-6 owner loop: drain to definitive empty, then spawn a NEW
  // producer and drain again. The consumer-local no-older-pushers memo must
  // be invalidated by the spawn, or the second drain would miss every value.
  hq::scheduler sched(2);
  for (unsigned workers : {1u, 2u}) {
    hq::scheduler s2(workers);
    s2.run([&] {
      hq::hyperqueue<int> q(64);
      for (int round = 0; round < 3; ++round) {
        hq::spawn(
            [round](hq::pushdep<int> qq) {
              for (int i = 0; i < 100; ++i) qq.push(round * 100 + i);
            },
            (hq::pushdep<int>)q);
        int n = 0;
        while (!q.empty()) {
          ASSERT_EQ(q.pop(), round * 100 + n);
          ++n;
        }
        ASSERT_EQ(n, 100) << "definitive-empty memo went stale in round " << round;
      }
    });
  }
}

TEST(ElementPath, EmptyPopIdiomReusesReadySegment) {
  // Figure-2 `while (!q.empty()) q.pop();` with interleaved production:
  // correctness of the ready-segment hint across starvation, wrap, and
  // segment-chain advances.
  hq::scheduler sched(2);
  constexpr int kTotal = 50000;
  std::vector<int> got;
  got.reserve(kTotal);
  sched.run([&] {
    hq::hyperqueue<int> q(32);
    hq::spawn(
        [](hq::pushdep<int> qq) {
          for (int i = 0; i < kTotal; ++i) qq.push(i);
        },
        (hq::pushdep<int>)q);
    hq::spawn(
        [&got](hq::popdep<int> qq) {
          while (!qq.empty()) got.push_back(qq.pop());
        },
        (hq::popdep<int>)q);
    hq::sync();
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) ASSERT_EQ(got[i], i);
}

TEST(ElementPath, ReadySegmentHintSurvivesPopChildHandoff) {
  // Parent caches a ready segment via empty(), then spawns a pop child that
  // consumes ahead; the parent's subsequent pops must re-validate the hint
  // (live_pop_children / queue-view gates) instead of trusting it.
  hq::scheduler sched(2);
  std::vector<int> child_got, parent_got;
  sched.run([&] {
    hq::hyperqueue<int> q(16);
    for (int i = 0; i < 10; ++i) q.push(i);
    ASSERT_FALSE(q.empty());  // caches the ready segment on the owner
    hq::spawn(
        [&child_got](hq::popdep<int> qq) {
          for (int i = 0; i < 6; ++i) {
            if (qq.empty()) break;
            child_got.push_back(qq.pop());
          }
        },
        (hq::popdep<int>)q);
    hq::sync();
    while (!q.empty()) parent_got.push_back(q.pop());
  });
  ASSERT_EQ(child_got.size(), 6u);
  ASSERT_EQ(parent_got.size(), 4u);
  for (int i = 0; i < 6; ++i) ASSERT_EQ(child_got[i], i);
  for (int i = 0; i < 4; ++i) ASSERT_EQ(parent_got[i], 6 + i);
}

// ---------------------------------------------------------- selective sync

TEST(ElementPath, SyncPushCounterMatchesChildLifetimes) {
  // sync_push now reads the O(1) live_push_children counter; after it
  // returns, every push child's data must be poppable without blocking.
  hq::scheduler sched(4);
  sched.run([&] {
    hq::hyperqueue<int> q(64);
    constexpr int kChildren = 16;
    for (int c = 0; c < kChildren; ++c) {
      hq::spawn(
          [c](hq::pushdep<int> qq) {
            for (int i = 0; i < 100; ++i) qq.push(c * 100 + i);
          },
          (hq::pushdep<int>)q);
    }
    q.sync_push();
    int n = 0;
    while (!q.empty()) {
      q.pop();
      ++n;
    }
    EXPECT_EQ(n, kChildren * 100);
  });
}

// ------------------------------------------------- 2-thread segment torture

/// Raw padded-segment torture with the cached-index slice path: producer
/// uses acquire_write/publish_write, consumer acquire_read/retire_read.
/// (The element-wise 2-thread torture lives in test_spsc_torture.cpp.)
TEST(ElementPath, PaddedSegmentSliceTortureTwoThreads) {
  const hq::detail::element_ops ops = hq::detail::make_element_ops<std::uint64_t>();
  hq::detail::data_path_counts counters;
  auto* seg = hq::detail::segment::create(512, &ops, &counters);
  constexpr std::uint64_t kItems = 1'000'000;

  std::thread producer([&] {
    std::uint64_t v = 0;
    while (v < kItems) {
      std::uint64_t n = 0;
      void* p = seg->acquire_write(kItems - v, &n);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      auto* slots = static_cast<std::uint64_t*>(p);
      for (std::uint64_t i = 0; i < n; ++i) slots[i] = v++;
      seg->publish_write(n);
    }
  });

  std::uint64_t expect = 0;
  std::uint64_t first_bad = kItems;
  while (expect < kItems) {
    std::uint64_t n = 0;
    void* p = seg->acquire_read(kItems - expect, &n);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    const auto* slots = static_cast<const std::uint64_t*>(p);
    for (std::uint64_t i = 0; i < n; ++i, ++expect) {
      if (first_bad == kItems && slots[i] != expect) first_bad = expect;
    }
    seg->retire_read(n);
  }
  producer.join();
  ASSERT_EQ(first_bad, kItems) << "FIFO violation at item " << first_bad;
  // (Reload counts here depend on thread scheduling; the deterministic
  // bounds are asserted in SteadyStateFastPathTakesNoLockAndNoRemoteLoads.)

  seg->destroy_remaining();
  hq::detail::segment::destroy(seg);
}

}  // namespace

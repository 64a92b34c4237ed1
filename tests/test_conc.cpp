// Unit and stress tests for the low-level concurrency substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "conc/bounded_queue.hpp"
#include "conc/chase_lev_deque.hpp"
#include "conc/inline_vec.hpp"
#include "conc/spinlock.hpp"
#include "conc/spsc_ring.hpp"

namespace {

// ---------------------------------------------------------------- spsc_ring

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  hq::spsc_ring<int> q(100);
  EXPECT_EQ(q.capacity(), 128u);
  hq::spsc_ring<int> q2(128);
  EXPECT_EQ(q2.capacity(), 128u);
  hq::spsc_ring<int> tiny(0);
  EXPECT_GE(tiny.capacity(), 2u);
}

TEST(SpscRing, FifoOrderSingleThread) {
  hq::spsc_ring<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99)) << "ring must report full";
  for (int i = 0; i < 8; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(SpscRing, WrapsAroundManyTimes) {
  hq::spsc_ring<int> q(4);
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(q.try_push(round));
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, round);
  }
}

TEST(SpscRing, TwoThreadStress) {
  constexpr int kN = 20000;
  hq::spsc_ring<int> q(64);
  std::atomic<long long> sum{0};
  std::thread consumer([&] {
    int got = 0;
    long long s = 0;
    while (got < kN) {
      if (auto v = q.try_pop()) {
        s += *v;
        ++got;
      } else {
        std::this_thread::yield();  // single-core host: let the producer run
      }
    }
    sum.store(s);
  });
  for (int i = 0; i < kN;) {
    if (q.try_push(i)) ++i;
    else std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(sum.load(), static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(SpscRing, PreservesOrderUnderConcurrency) {
  constexpr int kN = 20000;
  hq::spsc_ring<int> q(16);
  bool ok = true;
  std::thread consumer([&] {
    int expect = 0;
    while (expect < kN) {
      if (auto v = q.try_pop()) {
        if (*v != expect) {
          ok = false;
          break;
        }
        ++expect;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kN;) {
    if (q.try_push(i)) ++i;
    else std::this_thread::yield();
  }
  consumer.join();
  EXPECT_TRUE(ok);
}

// ------------------------------------------------------------------ ff_ring

TEST(FfRing, FifoWithSentinel) {
  hq::ff_ring<int> q(8, /*nil=*/-1);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(42));
  for (int i = 0; i < 8; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(FfRing, PointerStress) {
  constexpr int kN = 20000;
  static int slots[kN];
  hq::ff_ring<int*> q(32, nullptr);
  std::thread consumer([&] {
    int got = 0;
    while (got < kN) {
      if (auto v = q.try_pop()) {
        ASSERT_EQ(*v, &slots[got]);
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 0; i < kN;) {
    if (q.try_push(&slots[i])) ++i;
    else std::this_thread::yield();
  }
  consumer.join();
}

// --------------------------------------------------------- chase_lev_deque

TEST(ChaseLev, OwnerLifoOrder) {
  hq::chase_lev_deque<int> d;
  int a = 1, b = 2, c = 3;
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.pop_bottom(), &c);
  EXPECT_EQ(d.pop_bottom(), &b);
  EXPECT_EQ(d.pop_bottom(), &a);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(ChaseLev, ThiefFifoOrder) {
  hq::chase_lev_deque<int> d;
  int a = 1, b = 2;
  d.push_bottom(&a);
  d.push_bottom(&b);
  EXPECT_EQ(d.steal(), &a) << "thieves must take the oldest task";
  EXPECT_EQ(d.pop_bottom(), &b);
}

TEST(ChaseLev, GrowsPastInitialCapacity) {
  hq::chase_lev_deque<int> d(4);
  std::vector<int> vals(1000);
  for (auto& v : vals) d.push_bottom(&v);
  for (int i = 999; i >= 0; --i) EXPECT_EQ(d.pop_bottom(), &vals[i]);
}

TEST(ChaseLev, StealStressNoLossNoDup) {
  constexpr int kItems = 100000;
  constexpr int kThieves = 3;
  hq::chase_lev_deque<int> d;
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> seen(kItems);
  for (auto& s : seen) s.store(0);
  std::atomic<bool> done{false};
  std::atomic<int> taken{0};

  auto account = [&](int* p) {
    seen[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
    taken.fetch_add(1);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire) || taken.load() < kItems) {
        if (int* p = d.steal()) account(p);
        if (taken.load() >= kItems) break;
      }
    });
  }
  // Owner interleaves pushes and pops.
  for (int i = 0; i < kItems; ++i) {
    d.push_bottom(&vals[i]);
    if ((i & 7) == 0) {
      if (int* p = d.pop_bottom()) account(p);
    }
  }
  while (taken.load() < kItems) {
    if (int* p = d.pop_bottom()) account(p);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(taken.load(), kItems);
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "item " << i << " lost or duplicated";
  }
}

// ------------------------------------------------------------ bounded_queue

TEST(BoundedQueue, BlockingPushPopRoundtrip) {
  hq::bounded_queue<int> q(4);
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) ASSERT_TRUE(q.push(i));
    q.close();
  });
  int expect = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expect);
    ++expect;
  }
  EXPECT_EQ(expect, 1000);
  producer.join();
}

TEST(BoundedQueue, CloseUnblocksProducers) {
  hq::bounded_queue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] {
    // Queue full: this blocks until close().
    EXPECT_FALSE(q.push(2));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
}

TEST(BoundedQueue, MpmcStressConservesItems) {
  constexpr int kPerProducer = 20000;
  constexpr int kProducers = 3, kConsumers = 3;
  hq::bounded_queue<int> q(64);
  std::atomic<long long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) sum.fetch_add(*v);
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  const long long n = static_cast<long long>(kPerProducer) * kProducers;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// -------------------------------------------------------------- inline_vec

TEST(InlineVec, StaysInlineThenSpills) {
  hq::inline_vec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  v.push_back(4);  // spill to heap
  v.push_back(5);
  ASSERT_EQ(v.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(InlineVec, EraseValueAndUnordered) {
  hq::inline_vec<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_TRUE(v.erase_value(2));
  EXPECT_FALSE(v.erase_value(42));
  EXPECT_EQ(v.size(), 2u);
  // Remaining elements are 1 and 3 in some order.
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 4);
}

TEST(InlineVec, MoveOnlyPayload) {
  hq::inline_vec<std::unique_ptr<int>, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(std::make_unique<int>(i));
  hq::inline_vec<std::unique_ptr<int>, 2> w(std::move(v));
  ASSERT_EQ(w.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*w[static_cast<std::size_t>(i)], i);
}

TEST(InlineVec, MoveFromInlineStorage) {
  hq::inline_vec<std::unique_ptr<int>, 8> v;
  v.push_back(std::make_unique<int>(7));
  hq::inline_vec<std::unique_ptr<int>, 8> w(std::move(v));
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(*w[0], 7);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move): documented state
}

// ---------------------------------------------------------------- spinlock

TEST(Spinlock, MutualExclusionCounter) {
  hq::spinlock mu;
  long counter = 0;
  constexpr int kThreads = 4, kIters = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<hq::spinlock> lk(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

}  // namespace

// Core hyperqueue semantics: the Figure 2 program, FIFO order under
// parallelism, recursive producers, scheduling rules, concurrent push/pop,
// owner-task usage, value visibility (rule 4), segment recycling.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "hq.hpp"

namespace {

class HyperqueueParam : public ::testing::TestWithParam<unsigned> {};

// --------------------------------------------------------- Figure 2 shapes

void leaf_producer(hq::pushdep<int> q, int start, int end) {
  for (int n = start; n < end; ++n) q.push(n);
}

void recursive_producer(hq::pushdep<int> q, int start, int end) {
  if (end - start <= 10) {
    for (int n = start; n < end; ++n) q.push(n);
  } else {
    hq::spawn(recursive_producer, q, start, (start + end) / 2);
    hq::spawn(recursive_producer, q, (start + end) / 2, end);
    hq::sync();
  }
}

// Figure 3: shallow spawn tree with better locality.
void blocked_producer(hq::pushdep<int> q, int start, int end) {
  if (end - start <= 10) {
    for (int n = start; n < end; ++n) q.push(n);
  } else {
    for (int n = start; n < end; n += 10) {
      hq::spawn(leaf_producer, q, n, std::min(n + 10, end));
    }
    hq::sync();
  }
}

void collecting_consumer(hq::popdep<int> q, std::vector<int>* out) {
  while (!q.empty()) out->push_back(q.pop());
}

TEST_P(HyperqueueParam, Figure2TwoStagePipeline) {
  hq::scheduler sched(GetParam());
  constexpr int kTotal = 500;
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> queue;
    hq::spawn(recursive_producer, (hq::pushdep<int>)queue, 0, kTotal);
    hq::spawn(collecting_consumer, (hq::popdep<int>)queue, &got);
    hq::sync();
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i)
        << "consumer must observe serial program order";
  }
}

TEST_P(HyperqueueParam, Figure3BlockedProducerKeepsOrder) {
  hq::scheduler sched(GetParam());
  constexpr int kTotal = 333;
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> queue(16);  // small segments: forces chaining
    hq::spawn(blocked_producer, (hq::pushdep<int>)queue, 0, kTotal);
    hq::spawn(collecting_consumer, (hq::popdep<int>)queue, &got);
    hq::sync();
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_P(HyperqueueParam, MultipleProducersInProgramOrder) {
  // Several sibling producers; values must appear in sibling spawn order.
  hq::scheduler sched(GetParam());
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> queue(8);
    for (int blk = 0; blk < 20; ++blk) {
      hq::spawn(leaf_producer, (hq::pushdep<int>)queue, blk * 10, blk * 10 + 10);
    }
    hq::spawn(collecting_consumer, (hq::popdep<int>)queue, &got);
    hq::sync();
  });
  ASSERT_EQ(got.size(), 200u);
  for (int i = 0; i < 200; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_P(HyperqueueParam, OwnerPushesDirectly) {
  // The owner task holds both privileges and may use the queue without
  // spawning (Figure 6 idiom).
  hq::scheduler sched(GetParam());
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> queue;
    for (int i = 0; i < 50; ++i) queue.push(i);
    hq::spawn(collecting_consumer, (hq::popdep<int>)queue, &got);
    hq::sync();
  });
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_P(HyperqueueParam, OwnerPopsDirectly) {
  hq::scheduler sched(GetParam());
  sched.run([&] {
    hq::hyperqueue<int> queue;
    hq::spawn(leaf_producer, (hq::pushdep<int>)queue, 0, 30);
    int expect = 0;
    while (!queue.empty()) {
      ASSERT_EQ(queue.pop(), expect);
      ++expect;
    }
    EXPECT_EQ(expect, 30);
    hq::sync();
  });
}

TEST_P(HyperqueueParam, PushesAfterConsumerSpawnAreInvisible) {
  // Scheduling rule 4: a consumer must not see values pushed by tasks that
  // are younger in program order, even though they run concurrently.
  hq::scheduler sched(GetParam());
  std::vector<int> got_first, got_second;
  sched.run([&] {
    hq::hyperqueue<int> queue;
    hq::spawn(leaf_producer, (hq::pushdep<int>)queue, 0, 10);
    hq::spawn(collecting_consumer, (hq::popdep<int>)queue, &got_first);
    hq::spawn(leaf_producer, (hq::pushdep<int>)queue, 100, 110);  // younger
    hq::spawn(collecting_consumer, (hq::popdep<int>)queue, &got_second);
    hq::sync();
  });
  ASSERT_EQ(got_first.size(), 10u) << "first consumer sees exactly the older pushes";
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got_first[static_cast<std::size_t>(i)], i);
  ASSERT_EQ(got_second.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got_second[static_cast<std::size_t>(i)], 100 + i)
        << "second consumer sees exactly the younger pushes";
  }
}

TEST_P(HyperqueueParam, Section23SchedulingRules) {
  // The six-task example of Section 2.3: A,B push; C pops; D pushpop;
  // E push; F pops. Constraints: D after C; F after D; E not visible to C/D.
  hq::scheduler sched(GetParam());
  std::atomic<int> c_done{0}, d_started{0}, d_done{0}, f_started{0};
  std::vector<int> c_got, d_got, f_got;
  sched.run([&] {
    hq::hyperqueue<int> queue;
    hq::spawn(leaf_producer, (hq::pushdep<int>)queue, 0, 5);     // A
    hq::spawn(leaf_producer, (hq::pushdep<int>)queue, 5, 10);    // B
    hq::spawn(
        [&](hq::popdep<int> q) {  // C: pop 6 of the 10
          for (int i = 0; i < 6; ++i) {
            ASSERT_FALSE(q.empty());
            c_got.push_back(q.pop());
          }
          c_done.store(1);
        },
        (hq::popdep<int>)queue);
    hq::spawn(
        [&](hq::pushpopdep<int> q) {  // D
          d_started.store(1);
          EXPECT_EQ(c_done.load(), 1) << "rule 3: D must wait for C";
          while (!q.empty()) d_got.push_back(q.pop());
          q.push(777);
          d_done.store(1);
        },
        (hq::pushpopdep<int>)queue);
    hq::spawn(leaf_producer, (hq::pushdep<int>)queue, 100, 103);  // E
    hq::spawn(
        [&](hq::popdep<int> q) {  // F
          f_started.store(1);
          EXPECT_EQ(d_done.load(), 1) << "rule 3: F must wait for D";
          while (!q.empty()) f_got.push_back(q.pop());
        },
        (hq::popdep<int>)queue);
    hq::sync();
  });
  // C saw 0..5, D saw the remaining 6..9 (E's values are younger than D).
  ASSERT_EQ(c_got.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(c_got[static_cast<std::size_t>(i)], i);
  ASSERT_EQ(d_got.size(), 4u) << "D sees only values older than itself";
  for (int i = 0; i < 4; ++i) EXPECT_EQ(d_got[static_cast<std::size_t>(i)], 6 + i);
  // F sees D's push (777) then E's values, in program order.
  ASSERT_EQ(f_got.size(), 4u);
  EXPECT_EQ(f_got[0], 777);
  EXPECT_EQ(f_got[1], 100);
  EXPECT_EQ(f_got[2], 101);
  EXPECT_EQ(f_got[3], 102);
}

TEST_P(HyperqueueParam, ConcurrentPushAndPop) {
  // Rule 2: the consumer runs concurrently with producers; with a slow
  // producer the consumer's empty() must block, not return true early.
  hq::scheduler sched(GetParam());
  constexpr int kTotal = 2000;
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> queue(32);
    hq::spawn(
        [](hq::pushdep<int> q, int total) {
          for (int i = 0; i < total; ++i) q.push(i);
        },
        (hq::pushdep<int>)queue, kTotal);
    hq::spawn(collecting_consumer, (hq::popdep<int>)queue, &got);
    hq::sync();
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kTotal));
  for (int i = 0; i < kTotal; ++i) ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_P(HyperqueueParam, EmptyQueueIsEmptyImmediately) {
  hq::scheduler sched(GetParam());
  sched.run([&] {
    hq::hyperqueue<int> queue;
    EXPECT_TRUE(queue.empty());
    hq::spawn([](hq::popdep<int> q) { EXPECT_TRUE(q.empty()); },
              (hq::popdep<int>)queue);
    hq::sync();
  });
}

TEST_P(HyperqueueParam, DestructionWithValuesInside) {
  // The paper allows destroying a hyperqueue with values still stored.
  hq::scheduler sched(GetParam());
  static std::atomic<int> live_objects{0};
  struct tracked {
    tracked() noexcept { live_objects.fetch_add(1); }
    tracked(const tracked&) noexcept { live_objects.fetch_add(1); }
    tracked(tracked&&) noexcept { live_objects.fetch_add(1); }
    ~tracked() { live_objects.fetch_sub(1); }
  };
  live_objects.store(0);
  sched.run([&] {
    hq::hyperqueue<tracked> queue(8);
    hq::spawn(
        [](hq::pushdep<tracked> q) {
          for (int i = 0; i < 100; ++i) q.push(tracked{});
        },
        (hq::pushdep<tracked>)queue);
    hq::sync();
  });
  EXPECT_EQ(live_objects.load(), 0) << "leftover values must be destroyed";
}

TEST_P(HyperqueueParam, MoveOnlyElementType) {
  hq::scheduler sched(GetParam());
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<std::unique_ptr<int>> queue;
    hq::spawn(
        [](hq::pushdep<std::unique_ptr<int>> q) {
          for (int i = 0; i < 64; ++i) q.push(std::make_unique<int>(i));
        },
        (hq::pushdep<std::unique_ptr<int>>)queue);
    hq::spawn(
        [&got](hq::popdep<std::unique_ptr<int>> q) {
          while (!q.empty()) got.push_back(*q.pop());
        },
        (hq::popdep<std::unique_ptr<int>>)queue);
    hq::sync();
  });
  ASSERT_EQ(got.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

TEST_P(HyperqueueParam, SteadyStatePairReusesOneSegment) {
  // Section 3.2: a producer/consumer pair that stays in step recycles its
  // segment circularly — zero allocation in steady state. A pushpop task
  // alternating push and pop is the deterministic way to exercise this.
  hq::scheduler sched(GetParam());
  std::size_t segments_after = 0;
  sched.run([&] {
    hq::hyperqueue<int> queue(16);
    hq::spawn(
        [](hq::pushpopdep<int> q) {
          for (int i = 0; i < 10000; ++i) {
            q.push(i);
            ASSERT_FALSE(q.empty());
            ASSERT_EQ(q.pop(), i);
          }
        },
        (hq::pushpopdep<int>)queue);
    hq::sync();
    segments_after = queue.pool_stats().live;
  });
  EXPECT_LE(segments_after, 2u) << "in-step pair must ring-recycle one segment";
}

TEST_P(HyperqueueParam, SerialExecutionGrowsQueue) {
  // Section 2.1: under depth-first (serial) execution the queue stores all
  // produced data before any is consumed — the motivation for the loop-split
  // idiom of Section 5.4. Verify the queue indeed grows to hold everything
  // when the producer completes before the consumer starts.
  hq::scheduler sched(GetParam());
  std::size_t peak_segments = 0;
  sched.run([&] {
    hq::hyperqueue<int> queue(16);
    hq::spawn(
        [](hq::pushdep<int> q) {
          for (int i = 0; i < 1600; ++i) q.push(i);
        },
        (hq::pushdep<int>)queue);
    hq::sync();  // force full production before consumption
    peak_segments = queue.pool_stats().live;
    hq::spawn(
        [](hq::popdep<int> q) {
          long sum = 0;
          while (!q.empty()) sum += q.pop();
          EXPECT_EQ(sum, 1600L * 1599 / 2);
        },
        (hq::popdep<int>)queue);
    hq::sync();
  });
  EXPECT_GE(peak_segments, 1600u / 16u) << "serial elision stores all data";
}

TEST_P(HyperqueueParam, NestedPipelinesOnSharedWriteQueue) {
  // The dedup pattern (Figure 10): inner pipelines all push to one shared
  // write queue; program order across the nested pipelines must hold.
  hq::scheduler sched(GetParam());
  constexpr int kChunks = 12, kPerChunk = 25;
  std::vector<int> got;
  sched.run([&] {
    hq::hyperqueue<int> write_queue(16);
    hq::spawn(
        [&](hq::pushdep<int> wq) {  // Fragment
          for (int c = 0; c < kChunks; ++c) {
            hq::hyperqueue<int>* local = new hq::hyperqueue<int>(8);
            hq::spawn(
                [c](hq::pushdep<int> lq) {  // FragmentRefine
                  for (int i = 0; i < kPerChunk; ++i) lq.push(c * kPerChunk + i);
                },
                (hq::pushdep<int>)*local);
            hq::spawn(
                [](hq::popdep<int> lq, hq::pushdep<int> out) {  // Dedup+Compress
                  while (!lq.empty()) out.push(lq.pop());
                },
                (hq::popdep<int>)*local, wq);
            // The local queue must outlive its tasks; sync before delete.
            hq::sync();
            delete local;
          }
        },
        (hq::pushdep<int>)write_queue);
    hq::spawn(collecting_consumer, (hq::popdep<int>)write_queue, &got);  // Output
    hq::sync();
  });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kChunks * kPerChunk));
  for (int i = 0; i < kChunks * kPerChunk; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, HyperqueueParam, ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

}  // namespace

namespace {

// The Figure 4 walkthrough of the paper (Section 4.3): Task 0 spawns a
// producer subtree (Task 1 -> Tasks 2,3), then a consumer subtree (Task 4 ->
// Task 5), then another producer (Task 6). Determinism requires the
// consumer to see exactly 0..7 (Tasks 2,3) and never Task 6's value 8,
// which only a later consumer may observe.
class Figure4 : public ::testing::TestWithParam<unsigned> {};

TEST_P(Figure4, ScenarioReproducesPaperOrder) {
  hq::scheduler sched(GetParam());
  std::vector<int> task5_got, drain_got;
  sched.run([&] {
    hq::hyperqueue<int> queue(4);  // small segments: forces splits/merges
    hq::spawn(
        [](hq::pushdep<int> q) {  // Task 1
          hq::spawn(leaf_producer, q, 0, 4);  // Task 2: values 0-3
          hq::spawn(leaf_producer, q, 4, 8);  // Task 3: values 4-7
          hq::sync();
        },
        (hq::pushdep<int>)queue);
    hq::spawn(
        [&task5_got](hq::popdep<int> q) {  // Task 4
          hq::spawn(
              [&task5_got](hq::popdep<int> qq) {  // Task 5: pops everything
                while (!qq.empty()) task5_got.push_back(qq.pop());
              },
              q);
          hq::sync();
        },
        (hq::popdep<int>)queue);
    hq::spawn(leaf_producer, (hq::pushdep<int>)queue, 8, 9);  // Task 6
    hq::spawn(collecting_consumer, (hq::popdep<int>)queue, &drain_got);
    hq::sync();
  });
  ASSERT_EQ(task5_got.size(), 8u) << "Task 5 must see Tasks 2+3, never Task 6";
  for (int i = 0; i < 8; ++i) EXPECT_EQ(task5_got[static_cast<std::size_t>(i)], i);
  ASSERT_EQ(drain_got.size(), 1u);
  EXPECT_EQ(drain_got[0], 8) << "Task 6's value reaches only the later consumer";
}

INSTANTIATE_TEST_SUITE_P(Workers, Figure4, ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

}  // namespace

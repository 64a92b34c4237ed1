// Unit tests for queue segment mechanics, in isolation from the scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/segment.hpp"

namespace {

using hq::detail::element_ops;

element_ops int_ops() {
  element_ops ops;
  ops.size = sizeof(int);
  ops.align = alignof(int);
  ops.move_construct = [](void* dst, void* src) noexcept {
    *static_cast<int*>(dst) = *static_cast<int*>(src);
  };
  ops.destroy = [](void*) noexcept {};
  return ops;
}

struct SegmentFixture : ::testing::Test {
  element_ops ops = int_ops();
  std::vector<hq::detail::segment*> segs;

  hq::detail::segment* make(std::uint64_t cap = 8) {
    auto* s = hq::detail::segment::create(cap, &ops);
    segs.push_back(s);
    return s;
  }

  void TearDown() override {
    for (auto* s : segs) {
      s->destroy_remaining();
      s->next.store(nullptr, std::memory_order_relaxed);
      hq::detail::segment::destroy(s);
    }
  }

  static void push(hq::detail::segment* s, int v) { ASSERT_TRUE(s->try_push(&v)); }
};

// ----------------------------------------------------------------- segment

TEST_F(SegmentFixture, PushPopRoundtrip) {
  auto* s = make(4);
  for (int i = 0; i < 4; ++i) push(s, i);
  int dummy = 99;
  EXPECT_FALSE(s->try_push(&dummy)) << "segment must report full";
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(s->readable());
    int out = -1;
    s->pop_into(&out);
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(s->readable());
}

TEST_F(SegmentFixture, CircularReuseZeroAllocation) {
  // Steady-state producer/consumer pair recycles one segment (Section 3.2).
  auto* s = make(4);
  for (int round = 0; round < 100; ++round) {
    push(s, round);
    int out = -1;
    s->pop_into(&out);
    ASSERT_EQ(out, round);
  }
  EXPECT_EQ(s->head.load(), 100u);
  EXPECT_EQ(s->tail.load(), 100u);
}

TEST_F(SegmentFixture, DestroyRemainingCountsElements) {
  struct counter {
    static int& live() {
      static int n = 0;
      return n;
    }
  };
  element_ops cops;
  cops.size = sizeof(int);
  cops.align = alignof(int);
  cops.move_construct = [](void* dst, void* src) noexcept {
    *static_cast<int*>(dst) = *static_cast<int*>(src);
    ++counter::live();
  };
  cops.destroy = [](void*) noexcept { --counter::live(); };
  auto* s = hq::detail::segment::create(8, &cops);
  int v = 1;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(s->try_push(&v));
  EXPECT_EQ(counter::live(), 5);
  s->destroy_remaining();
  EXPECT_EQ(counter::live(), 0);
  hq::detail::segment::destroy(s);
}

}  // namespace

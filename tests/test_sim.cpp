// Tests for the discrete-event engine that the SLO service model is checked
// against (tests/test_service.cpp): FIFO dispatch onto a fixed core count,
// completions that submit more work, and pure timer events.
#include <gtest/gtest.h>

#include "sim/des.hpp"

namespace {

using hq::sim::engine;

TEST(DesEngine, SingleCoreSerializes) {
  engine eng({.cores = 1});
  int done = 0;
  eng.submit(1.0, [&] { ++done; });
  eng.submit(2.0, [&] { ++done; });
  EXPECT_DOUBLE_EQ(eng.run(), 3.0);
  EXPECT_EQ(done, 2);
}

TEST(DesEngine, TwoCoresOverlap) {
  engine eng({.cores = 2});
  eng.submit(1.0, [] {});
  eng.submit(2.0, [] {});
  EXPECT_DOUBLE_EQ(eng.run(), 2.0);
}

TEST(DesEngine, CompletionCanSubmitMore) {
  engine eng({.cores = 1});
  double second_done = 0;
  eng.submit(1.0, [&] {
    eng.submit(0.5, [&] { second_done = eng.now(); });
  });
  EXPECT_DOUBLE_EQ(eng.run(), 1.5);
  EXPECT_DOUBLE_EQ(second_done, 1.5);
}

TEST(DesEngine, TimerEventsFire) {
  engine eng({.cores = 1});
  double fired = -1;
  eng.submit_after(2.5, [&] { fired = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(fired, 2.5);
}

}  // namespace

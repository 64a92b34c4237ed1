// Tests for the TBB-like token pipeline engine behind the runner's tbb
// backend. (The runner's pthreads backend is covered through pipe::graph in
// test_pipeline_builder.cpp and test_runner_conformance.cpp.)
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/tbb_pipeline.hpp"

namespace {

TEST(TbbPipeline, SerialParallelSerialKeepsOrder) {
  constexpr long kN = 3000;
  long next = 0;
  std::vector<long> out;
  hq::tbbpipe::pipeline p;
  // Source (serial): numbers 0..kN-1.
  p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void*) -> void* {
    if (next >= kN) return nullptr;
    return new long(next++);
  });
  // Parallel transform.
  p.add_filter(hq::tbbpipe::filter_mode::parallel, [](void* v) -> void* {
    auto* x = static_cast<long*>(v);
    *x = *x * 3 + 1;
    return x;
  });
  // Serial in-order sink.
  p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void* v) -> void* {
    std::unique_ptr<long> x(static_cast<long*>(v));
    out.push_back(*x);
    return nullptr;
  });
  p.run(/*max_tokens=*/8, /*num_threads=*/4);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kN));
  for (long i = 0; i < kN; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i * 3 + 1)
        << "serial_in_order sink must preserve token order";
  }
}

TEST(TbbPipeline, TokenBoundLimitsInFlight) {
  constexpr long kN = 200;
  constexpr std::size_t kTokens = 4;
  long next = 0;
  std::atomic<long> in_flight{0};
  std::atomic<long> max_seen{0};
  hq::tbbpipe::pipeline p;
  p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void*) -> void* {
    if (next >= kN) return nullptr;
    long cur = in_flight.fetch_add(1) + 1;
    long seen = max_seen.load();
    while (cur > seen && !max_seen.compare_exchange_weak(seen, cur)) {
    }
    return new long(next++);
  });
  p.add_filter(hq::tbbpipe::filter_mode::parallel, [&](void* v) -> void* {
    return v;
  });
  p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void* v) -> void* {
    delete static_cast<long*>(v);
    in_flight.fetch_sub(1);
    return nullptr;
  });
  p.run(kTokens, 4);
  EXPECT_LE(max_seen.load(), static_cast<long>(kTokens))
      << "no more than max_tokens items may be in flight";
  EXPECT_EQ(in_flight.load(), 0);
}

TEST(TbbPipeline, SingleThreadStillCompletes) {
  constexpr long kN = 500;
  long next = 0;
  long sum = 0;
  hq::tbbpipe::pipeline p;
  p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void*) -> void* {
    return next < kN ? new long(next++) : nullptr;
  });
  p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void* v) -> void* {
    std::unique_ptr<long> x(static_cast<long*>(v));
    sum += *x;
    return nullptr;
  });
  p.run(4, 1);
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

TEST(TbbPipeline, RunIsReusable) {
  for (int round = 0; round < 3; ++round) {
    long next = 0;
    std::atomic<long> count{0};
    hq::tbbpipe::pipeline p;
    p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void*) -> void* {
      return next < 100 ? new long(next++) : nullptr;
    });
    p.add_filter(hq::tbbpipe::filter_mode::parallel, [&](void* v) -> void* {
      delete static_cast<long*>(v);
      count.fetch_add(1);
      return nullptr;
    });
    p.run(6, 3);
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(TbbPipeline, TypedFilterShim) {
  constexpr long kN = 100;
  long next = 0;
  std::vector<std::string> out;
  hq::tbbpipe::pipeline p;
  p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void*) -> void* {
    return next < kN ? new long(next++) : nullptr;
  });
  p.add_filter(hq::tbbpipe::filter_mode::parallel,
               hq::tbbpipe::make_filter<long, std::string>(
                   [](std::unique_ptr<long> v) {
                     return std::make_unique<std::string>(std::to_string(*v));
                   }));
  p.add_filter(hq::tbbpipe::filter_mode::serial_in_order, [&](void* v) -> void* {
    std::unique_ptr<std::string> s(static_cast<std::string*>(v));
    out.push_back(*s);
    return nullptr;
  });
  p.run(8, 4);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kN));
  for (long i = 0; i < kN; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

}  // namespace

// Stage-graph builder and runner tests: declaration-time misuse diagnostics,
// knob propagation into the execution plan, and serial-elision-order
// recovery on every backend (including the multi-level reorder behind
// expand stages with irregular and zero fan-out).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/runner.hpp"

namespace {

using hq::pipe::backend;
using hq::pipe::edge_opts;
using hq::pipe::emit;
using hq::pipe::graph;
using hq::pipe::graph_error;
using hq::pipe::stage_kind;

// Mix a token's identity into a jittered delay so parallel activations
// finish out of order and the reorder machinery actually has work to do.
void jitter(std::uint64_t v) {
  std::this_thread::sleep_for(std::chrono::microseconds((v * 7) % 40));
}

// --------------------------------------------------------- misuse diagnostics

TEST(PipelineBuilder, ConnectRejectsTypeMismatch) {
  graph g;
  auto src = g.source<int>("src", [](emit<int> out) { out(1); });
  auto snk = g.sink<long>("snk", stage_kind::serial_in_order, [](long&&) {});
  EXPECT_THROW(g.connect(src, snk), graph_error);
}

TEST(PipelineBuilder, ConnectRejectsDoubleUse) {
  graph g;
  auto src = g.source<int>("src", [](emit<int> out) { out(1); });
  auto mid = g.stage<int, int>("mid", stage_kind::serial_in_order,
                               [](int&& v, emit<int> out) { out(std::move(v)); });
  auto snk = g.sink<int>("snk", stage_kind::serial_in_order, [](int&&) {});
  g.connect(src, mid);
  g.connect(mid, snk);
  EXPECT_THROW(g.connect(src, snk), graph_error);  // src output taken
  EXPECT_THROW(g.connect(mid, snk), graph_error);  // snk input taken
}

TEST(PipelineBuilder, ConnectRejectsEndpointMisuse) {
  graph g;
  auto src = g.source<int>("src", [](emit<int> out) { out(1); });
  auto snk = g.sink<int>("snk", stage_kind::serial_in_order, [](int&&) {});
  EXPECT_THROW(g.connect(snk, src), graph_error);  // from a sink, into a source
  EXPECT_THROW(g.connect(src, static_cast<hq::pipe::stage_id>(7)), graph_error);
}

TEST(PipelineBuilder, CompileRejectsIncompleteGraphs) {
  {
    graph g;
    EXPECT_THROW((void)g.compile(), graph_error);  // empty
  }
  {
    graph g;
    g.source<int>("src", [](emit<int> out) { out(1); });
    g.sink<int>("snk", stage_kind::serial_in_order, [](int&&) {});
    EXPECT_THROW((void)g.compile(), graph_error);  // declared but never wired
  }
  {
    graph g;  // a stage dangling off the chain
    auto src = g.source<int>("src", [](emit<int> out) { out(1); });
    auto snk = g.sink<int>("snk", stage_kind::serial_in_order, [](int&&) {});
    g.stage<int, int>("orphan", stage_kind::parallel,
                      [](int&& v, emit<int> out) { out(std::move(v)); });
    g.connect(src, snk);
    EXPECT_THROW((void)g.compile(), graph_error);
  }
  {
    graph g;  // two sinks
    auto src = g.source<int>("src", [](emit<int> out) { out(1); });
    g.sink<int>("a", stage_kind::serial_in_order, [](int&&) {});
    auto b = g.sink<int>("b", stage_kind::serial_in_order, [](int&&) {});
    g.connect(src, b);
    EXPECT_THROW((void)g.compile(), graph_error);
  }
}

TEST(PipelineBuilder, CompileRejectsParallelSink) {
  graph g;
  auto src = g.source<int>("src", [](emit<int> out) { out(1); });
  auto snk = g.sink<int>("snk", stage_kind::parallel, [](int&&) {});
  g.connect(src, snk);
  EXPECT_THROW((void)g.compile(), graph_error);
}

// ------------------------------------------------- knob and plan propagation

TEST(PipelineBuilder, KnobsTravelOnEdges) {
  graph g;
  auto src = g.source<int>("src", [](emit<int> out) { out(1); });
  auto mid = g.expand<int, int>("mid", stage_kind::serial_in_order,
                                [](int&& v, emit<int> out) { out(std::move(v)); });
  auto snk = g.sink<int>("snk", stage_kind::serial_in_order, [](int&&) {});
  edge_opts a;
  a.capacity = 5;
  a.slice_batch = 3;
  a.segment_length = 32;
  edge_opts b;
  b.capacity = 9;
  g.connect(src, mid, a);
  g.connect(mid, snk, b);

  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge_at(0).opts.capacity, 5u);
  EXPECT_EQ(g.edge_at(0).opts.slice_batch, 3u);
  EXPECT_EQ(g.edge_at(0).opts.segment_length, 32u);
  EXPECT_EQ(g.edge_at(1).opts.capacity, 9u);

  const auto plan = g.compile();
  ASSERT_EQ(plan.order.size(), 3u);
  EXPECT_EQ(plan.order[0], src);
  EXPECT_EQ(plan.order[1], mid);
  EXPECT_EQ(plan.order[2], snk);
  ASSERT_EQ(plan.edge_depth.size(), 2u);
  EXPECT_EQ(plan.edge_depth[0], 1u);  // source seq only
  EXPECT_EQ(plan.edge_depth[1], 2u);  // + expand sub-seq
}

// ------------------------------------------------ in-order delivery recovery

// 1:1 parallel stage with jittered completion: the serial_in_order sink must
// still observe source order on every backend.
void check_linear_order(backend b, unsigned workers) {
  constexpr std::uint64_t kN = 200;
  std::vector<std::uint64_t> got;
  graph g;
  auto src = g.source<std::uint64_t>("src", [](emit<std::uint64_t> out) {
    for (std::uint64_t i = 0; i < kN; ++i) out(std::uint64_t{i});
  });
  auto mid = g.stage<std::uint64_t, std::uint64_t>(
      "square", stage_kind::parallel,
      [](std::uint64_t&& v, emit<std::uint64_t> out) {
        jitter(v);
        out(v * v);
      });
  auto snk = g.sink<std::uint64_t>(
      "collect", stage_kind::serial_in_order,
      [&got](std::uint64_t&& v) { got.push_back(v); });
  edge_opts opts;
  opts.capacity = 8;
  opts.slice_batch = 4;
  g.connect(src, mid, opts);
  g.connect(mid, snk, opts);

  (void)hq::pipe::execute(g, b, {.workers = workers, .admission = {}});
  ASSERT_EQ(got.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) EXPECT_EQ(got[i], i * i) << "at " << i;
}

// Expand stage with irregular fan-out (including zero): output order must be
// the nested serial-elision order (i ascending, j ascending within i).
void check_expand_order(backend b, unsigned workers) {
  constexpr std::uint64_t kN = 64;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> want;
  for (std::uint64_t i = 0; i < kN; ++i)
    for (std::uint64_t j = 0; j < i % 5; ++j) want.emplace_back(i, j);

  graph g;
  auto src = g.source<std::uint64_t>("src", [](emit<std::uint64_t> out) {
    for (std::uint64_t i = 0; i < kN; ++i) out(std::uint64_t{i});
  });
  auto exp = g.expand<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>(
      "fan", stage_kind::parallel,
      [](std::uint64_t&& v, emit<std::pair<std::uint64_t, std::uint64_t>> out) {
        jitter(v);
        for (std::uint64_t j = 0; j < v % 5; ++j) out({v, j});  // 0..4 per input
      });
  auto snk = g.sink<std::pair<std::uint64_t, std::uint64_t>>(
      "collect", stage_kind::serial_in_order,
      [&got](std::pair<std::uint64_t, std::uint64_t>&& v) {
        got.push_back(v);
      });
  edge_opts opts;
  opts.capacity = 8;
  opts.slice_batch = 4;
  g.connect(src, exp, opts);
  g.connect(exp, snk, opts);

  (void)hq::pipe::execute(g, b, {.workers = workers, .admission = {}});
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

class PipelineOrder : public ::testing::TestWithParam<backend> {};

TEST_P(PipelineOrder, LinearInOrderAcrossWorkers) {
  for (unsigned w : {1u, 4u}) check_linear_order(GetParam(), w);
}

TEST_P(PipelineOrder, ExpandInOrderAcrossWorkers) {
  for (unsigned w : {1u, 4u}) check_expand_order(GetParam(), w);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PipelineOrder,
    ::testing::Values(backend::serial, backend::hyperqueue, backend::pthreads,
                      backend::tbb),
    [](const auto& info) { return hq::pipe::to_string(info.param); });

}  // namespace

// Differential graph fuzzer: seeded random linear pipelines, each run on
// the hyperqueue backend at 1, 2 and 4 workers (4 oversubscribes a small
// host, where held producers must keep to the backlog bound without giving
// way) and on the pthreads and TBB baselines at 2, all compared with the
// serial elision's output. The
// elision also runs under the drawn admission, which must not change it.
//
// A graph is drawn from one seed (util/rng.hpp, xoshiro256):
//  * a source of 0..300 tokens, then one to four middle stages, each serial
//    or parallel, each a 1:1 stage or an expand stage emitting 0..2 tokens
//    per input (expand only while the reorder depth stays within
//    graph::kMaxDepth), then the in-order sink;
//  * per edge: slice_batch in {1, 2, 4, 16} and segment_length in {0, 2,
//    8, 64};
//  * admission none, or block with a window of 1..16 tokens.
// Every body mixes its token's value with a per-stage salt and spins a
// value-dependent moment, so parallel activations finish out of order. A
// stalled run fails through the stall watchdog, and an elision that does
// not return through a timeout, instead of hanging.
//
// The seed list is fixed: each seed is its own test case. Seeds 1-40 and
// twelve that once stalled the hyperqueue backend run in ctest; the soak,
// seeds 41-800, is disabled there and runs with the gtest flags
//   --gtest_also_run_disabled_tests --gtest_filter='DISABLED_Soak/*'
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bounded_run.hpp"
#include "pipeline/runner.hpp"
#include "sched/scheduler_lease.hpp"
#include "util/rng.hpp"

namespace {

using hq::pipe::admission_policy;
using hq::pipe::backend;
using hq::pipe::edge_opts;
using hq::pipe::emit;
using hq::pipe::exec_options;
using hq::pipe::graph;
using hq::pipe::stage_kind;

struct tok {
  std::uint64_t seq = 0;
  std::uint64_t val = 0;
};

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 31;
  x *= 0x9e3779b97f4a7c15ull;
  return x ^ (x >> 29);
}

tok step(tok t, std::uint64_t salt) {
  volatile std::uint64_t spin = 0;
  while (spin < (t.val % 5) * 100) spin = spin + 1;
  t.val = mix(t.val ^ salt);
  return t;
}

struct stage_spec {
  stage_kind kind = stage_kind::parallel;
  bool expand = false;
};

/// One drawn pipeline: stages, edges (edges[i] feeds stage i of the
/// middle, the last one the sink) and admission.
struct spec {
  std::uint64_t tokens = 0;
  std::vector<stage_spec> stages;
  std::vector<edge_opts> edges;
  hq::pipe::admission_opts admission;
  std::string text;
};

spec draw(std::uint64_t seed) {
  hq::util::xoshiro256 rng(seed);
  spec s;
  s.tokens = rng.below(301);
  const std::size_t middles = 1 + rng.below(4);
  unsigned depth = 1;  // reorder depth of the source's tokens
  for (std::size_t i = 0; i < middles; ++i) {
    stage_spec st;
    st.kind = rng.below(3) == 0 ? stage_kind::serial_in_order
                                : stage_kind::parallel;
    unsigned out = st.kind == stage_kind::serial_in_order ? 1 : depth;
    if (out < graph::kMaxDepth && rng.below(3) == 0) {
      st.expand = true;
      ++out;
    }
    depth = out;
    s.stages.push_back(st);
  }
  constexpr std::size_t kBatches[] = {1, 2, 4, 16};
  constexpr std::size_t kSegLens[] = {0, 2, 8, 64};
  for (std::size_t i = 0; i <= middles; ++i) {
    edge_opts e;
    e.slice_batch = kBatches[rng.below(4)];
    e.segment_length = kSegLens[rng.below(4)];
    const bool into_queue =
        i == middles || s.stages[i].kind == stage_kind::serial_in_order;
    // Two draws whose values go unused: they keep every seed, the stalled
    // ones included, on the graph it has always drawn.
    if (into_queue && rng.below(3) == 0) (void)rng.below(5);
    s.edges.push_back(e);
  }
  if (rng.below(2) == 0) {
    s.admission.policy = admission_policy::block;
    s.admission.window = 1 + rng.below(16);
  }
  s.text = std::to_string(s.tokens) + " tokens: src";
  for (std::size_t i = 0; i <= middles; ++i) {
    const edge_opts& e = s.edges[i];
    s.text += " -[b" + std::to_string(e.slice_batch) + " s" +
              std::to_string(e.segment_length) + "]-> ";
    if (i == middles) {
      s.text += "sink";
    } else {
      s.text += s.stages[i].kind == stage_kind::serial_in_order ? "ser" : "par";
      if (s.stages[i].expand) s.text += "*";
    }
  }
  if (s.admission.policy == admission_policy::block)
    s.text += ", block window " + std::to_string(s.admission.window);
  return s;
}

/// Build `s` into `g`; the sink appends to `out`.
void build(const spec& s, graph& g, std::vector<tok>* out) {
  const std::uint64_t n = s.tokens;
  std::vector<hq::pipe::stage_id> ids;
  ids.push_back(g.source<tok>("src", [n](emit<tok> e) {
    for (std::uint64_t i = 0; i < n; ++i) e(tok{i, mix(i + 1)});
  }));
  for (std::size_t i = 0; i < s.stages.size(); ++i) {
    const std::uint64_t salt = 0x100 * (i + 1);
    const std::string name = "m" + std::to_string(i);
    if (s.stages[i].expand) {
      ids.push_back(g.expand<tok, tok>(
          name, s.stages[i].kind, [salt](tok&& t, emit<tok> e) {
            for (std::uint64_t k = 0; k < t.val % 3; ++k) e(step(t, salt + k));
          }));
    } else {
      ids.push_back(g.stage<tok, tok>(
          name, s.stages[i].kind,
          [salt](tok&& t, emit<tok> e) { e(step(t, salt)); }));
    }
  }
  ids.push_back(g.sink<tok>("snk", stage_kind::serial_in_order,
                            [out](tok&& t) { out->push_back(t); }));
  for (std::size_t i = 0; i + 1 < ids.size(); ++i)
    g.connect(ids[i], ids[i + 1], s.edges[i]);
}

class FuzzGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzGraphs, EveryBackendMatchesTheElision) {
  const spec s = draw(GetParam());
  std::vector<tok> want;
  {
    graph g;
    build(s, g, &want);
    (void)hq::pipe::execute(g, backend::serial);
  }
  if (s.admission.policy != admission_policy::none) {
    // The elision runs on the calling thread, out of the watchdog's sight.
    struct elided {
      graph g;
      std::vector<tok> got;
      hq::pipe::exec_result res;
    };
    auto e = std::make_shared<elided>();
    build(s, e->g, &e->got);
    exec_options opt;
    opt.admission = s.admission;
    const std::string what = "the elision on seed " +
                             std::to_string(GetParam()) + " (" + s.text + ")";
    const bool returned =
        hq::testutil::returns_within(std::chrono::seconds(10), [e, opt] {
          e->res = hq::pipe::execute(e->g, backend::serial, opt);
        });
    ASSERT_TRUE(returned) << what << " did not return within 10 s";
    EXPECT_EQ(e->res.shed, 0u) << what;
    ASSERT_EQ(e->got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(e->got[i].seq, want[i].seq) << what << " at " << i;
      ASSERT_EQ(e->got[i].val, want[i].val) << what << " at " << i;
    }
  }
  struct target {
    backend b;
    unsigned workers;
  };
  for (const target t : {target{backend::hyperqueue, 1},
                         target{backend::hyperqueue, 2},
                         target{backend::hyperqueue, 4},
                         target{backend::pthreads, 2}, target{backend::tbb, 2}}) {
    const std::string what = std::string(hq::pipe::to_string(t.b)) + "@" +
                             std::to_string(t.workers) + " on seed " +
                             std::to_string(GetParam()) + " (" + s.text + ")";
    hq::scheduler_lease(t.workers)->set_watchdog(/*ms=*/5000);
    graph g;
    std::vector<tok> got;
    build(s, g, &got);
    exec_options opt;
    opt.workers = t.workers;
    opt.admission = s.admission;
    try {
      const auto res = hq::pipe::execute(g, t.b, opt);
      EXPECT_EQ(res.shed, 0u) << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": " << e.what();
    }
    hq::scheduler_lease(t.workers)->set_watchdog(0);
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].seq, want[i].seq) << what << " at " << i;
      ASSERT_EQ(got[i].val, want[i].val) << what << " at " << i;
    }
  }
}

std::string seed_name(const ::testing::TestParamInfo<std::uint64_t>& info) {
  return "Seed" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzGraphs, ::testing::Range<std::uint64_t>(1, 41),
                         seed_name);

// Seeds that stalled hyperqueue@2 in sweeps over 1-800, each with a serial
// middle stage feeding a parallel run: the holds of sched/drain.hpp.
INSTANTIATE_TEST_SUITE_P(Stalled, FuzzGraphs,
                         ::testing::Values<std::uint64_t>(91, 115, 189, 329, 489,
                                                          491, 587, 671, 691,
                                                          713, 716, 784),
                         seed_name);

INSTANTIATE_TEST_SUITE_P(DISABLED_Soak, FuzzGraphs,
                         ::testing::Range<std::uint64_t>(41, 801), seed_name);

}  // namespace

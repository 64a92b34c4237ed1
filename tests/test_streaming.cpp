// Streaming retirement on the hyperqueue lowering.
//
// A run of parallel stages has no queue in front of it: the stage feeding
// the run spawns one task per batch, and the root joins its stage tasks
// oldest first, so the source runs at top level while the sink retires.
// These tests pin that down:
//  * with two workers the sink retires a token while the source is still
//    inside its body (bounded wait plus the stall watchdog, so a lowering
//    that buries the sink fails instead of hanging);
//  * a shape matrix — parallel runs behind the source, behind an expand
//    stage, and between serial stages — matches the serial elision at 1, 2
//    and 4 workers on both hyperqueue backends, under admission control and
//    with an injected stage fault;
//  * budgets and placement see only the real queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/fault.hpp"
#include "pipeline/runner.hpp"
#include "sched/scheduler_lease.hpp"
#include "sched/spawn.hpp"

namespace {

using hq::pipe::admission_policy;
using hq::pipe::backend;
using hq::pipe::edge_opts;
using hq::pipe::emit;
using hq::pipe::exec_options;
using hq::pipe::graph;
using hq::pipe::graph_error;
using hq::pipe::stage_kind;

/// Arms the stall watchdog of the resident scheduler that pipe::execute
/// leases for `workers`, for the scope: a run that stops making progress
/// fails with hq::stall_error instead of hanging the test.
class watchdog_scope {
 public:
  explicit watchdog_scope(unsigned workers) : workers_(workers) {
    hq::scheduler_lease lease(workers_);
    lease->set_watchdog(/*ms=*/5000);
  }
  ~watchdog_scope() {
    hq::scheduler_lease lease(workers_);
    lease->set_watchdog(0);
  }
  watchdog_scope(const watchdog_scope&) = delete;
  watchdog_scope& operator=(const watchdog_scope&) = delete;

 private:
  unsigned workers_;
};

/// Clear the fault plan even when an assertion bails out early.
struct plan_guard {
  ~plan_guard() { hq::fault::clear(); }
};

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 31;
  x *= 0x9e3779b97f4a7c15ull;
  return x ^ (x >> 29);
}

// ------------------------------------------------ retirement while emitting

/// src -> parallel -> in-order sink. Before its last emission the source
/// waits, for at most 10 s, until the sink has retired a token. That can
/// only happen when the sink runs while the source is still inside its
/// body; with one worker (or on the elision) the source does not wait.
struct retire_probe {
  static constexpr std::uint64_t kN = 64;

  std::atomic<std::uint64_t> retired{0};
  bool saw_retire = false;
  std::uint64_t digest = 0;
  graph g;

  retire_probe() {
    auto src = g.source<std::uint64_t>("src", [this](emit<std::uint64_t> out) {
      for (std::uint64_t i = 0; i + 1 < kN; ++i) out(std::uint64_t{i});
      if (hq::workers() > 1) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (retired.load(std::memory_order_acquire) == 0 &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      saw_retire = retired.load(std::memory_order_acquire) > 0;
      out(std::uint64_t{kN - 1});
    });
    auto mid = g.stage<std::uint64_t, std::uint64_t>(
        "mix", stage_kind::parallel,
        [](std::uint64_t&& v, emit<std::uint64_t> out) { out(mix(v)); });
    auto snk = g.sink<std::uint64_t>(
        "snk", stage_kind::serial_in_order, [this](std::uint64_t&& v) {
          digest = digest * 31 + v;
          retired.fetch_add(1, std::memory_order_release);
        });
    g.connect(src, mid);
    g.connect(mid, snk);
  }
};

class StreamingRetire : public ::testing::TestWithParam<backend> {};

TEST_P(StreamingRetire, SinkRetiresBeforeSourcesLastEmission) {
  retire_probe ref;
  (void)hq::pipe::execute(ref.g, backend::serial);

  retire_probe two;
  {
    watchdog_scope dog(2);
    exec_options opt;
    opt.workers = 2;
    (void)hq::pipe::execute(two.g, GetParam(), opt);
  }
  EXPECT_TRUE(two.saw_retire)
      << "the sink retired nothing while the source was emitting";
  EXPECT_EQ(two.retired.load(), retire_probe::kN);
  EXPECT_EQ(two.digest, ref.digest);

  retire_probe one;
  exec_options opt;
  opt.workers = 1;
  (void)hq::pipe::execute(one.g, GetParam(), opt);
  EXPECT_EQ(one.digest, ref.digest);
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamingRetire,
                         ::testing::Values(backend::hyperqueue,
                                           backend::hyperqueue_element),
                         [](const auto& info) {
                           return info.param == backend::hyperqueue
                                      ? std::string("Hyperqueue")
                                      : std::string("HyperqueueElement");
                         });

// --------------------------------------------------- admission window flush

/// src -> sink, or src -> parallel -> sink, under a block window of 4 with
/// slice_batch 16 on the source edge. Admitted tokens the source's emitter
/// still buffers cannot reach the sink, so unless the emitter hands its
/// partial batch on before waiting for the window, the window opens only
/// when the wait's wedge escape admits over it. The source samples, after
/// each emission, how many of its tokens the sink has not retired yet.
struct window_probe {
  static constexpr std::uint64_t kN = 256;
  static constexpr std::size_t kWindow = 4;

  std::atomic<std::uint64_t> retired{0};
  std::uint64_t max_in_flight = 0;
  std::uint64_t digest = 0;
  graph g;

  explicit window_probe(bool through_run) {
    auto src = g.source<std::uint64_t>("src", [this](emit<std::uint64_t> out) {
      for (std::uint64_t i = 0; i < kN; ++i) {
        out(std::uint64_t{i});
        const std::uint64_t pending =
            i + 1 - retired.load(std::memory_order_acquire);
        max_in_flight = std::max(max_in_flight, pending);
      }
    });
    auto snk = g.sink<std::uint64_t>(
        "snk", stage_kind::serial_in_order, [this](std::uint64_t&& v) {
          digest = digest * 31 + v;
          retired.fetch_add(1, std::memory_order_release);
        });
    edge_opts wide;
    wide.slice_batch = 16;
    if (through_run) {
      auto mid = g.stage<std::uint64_t, std::uint64_t>(
          "mix", stage_kind::parallel,
          [](std::uint64_t&& v, emit<std::uint64_t> out) { out(mix(v)); });
      g.connect(src, mid, wide);
      g.connect(mid, snk);
    } else {
      g.connect(src, snk, wide);
    }
  }
};

using window_param = std::tuple<bool, backend>;

class StreamingWindow : public ::testing::TestWithParam<window_param> {};

TEST_P(StreamingWindow, BlockWindowBelowSliceBatchHolds) {
  const auto [through_run, b] = GetParam();
  window_probe ref(through_run);
  (void)hq::pipe::execute(ref.g, backend::serial);

  window_probe two(through_run);
  exec_options opt;
  opt.workers = 2;
  opt.admission.policy = admission_policy::block;
  opt.admission.window = window_probe::kWindow;
  {
    watchdog_scope dog(2);
    const auto res = hq::pipe::execute(two.g, b, opt);
    EXPECT_EQ(res.shed, 0u);
  }
  EXPECT_LE(two.max_in_flight, window_probe::kWindow)
      << "admitted tokens outran the window";
  EXPECT_EQ(two.retired.load(), window_probe::kN);
  EXPECT_EQ(two.digest, ref.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Window, StreamingWindow,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(backend::hyperqueue,
                                         backend::hyperqueue_element)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "SrcParSink" : "SrcSink") +
             (std::get<1>(info.param) == backend::hyperqueue
                  ? "_Hyperqueue"
                  : "_HyperqueueElement");
    });

// ------------------------------------------------------------- shape matrix

/// A token remembers the source emission it descends from, so a run that
/// sheds can be checked against the elision restricted to what it admitted.
struct tok {
  std::uint64_t seq = 0;
  std::uint64_t val = 0;
};

enum class shape { par, par_expand, serial_sandwich };
enum class mode { plain, block, shed, fault };

/// Varies per-token cost so parallel activations finish out of order.
void jitter(std::uint64_t v) {
  for (volatile std::uint64_t i = 0; i < (v % 7) * 300; i = i + 1) {
  }
}

tok step(tok t, std::uint64_t salt) {
  jitter(t.val);
  t.val = mix(t.val ^ salt);
  return t;
}

/// Build `s` into `g`; the in-order sink appends to `out`. Every shape's
/// first parallel stage is "par_a", the fault-injection target.
void describe(shape s, graph& g, std::vector<tok>* out) {
  constexpr std::uint64_t kN = 300;
  auto src = g.source<tok>("src", [](emit<tok> e) {
    for (std::uint64_t i = 0; i < kN; ++i) e(tok{i, i});
  });
  auto snk = g.sink<tok>("snk", stage_kind::serial_in_order,
                         [out](tok&& t) { out->push_back(t); });
  auto par = [&g](const char* name, std::uint64_t salt) {
    return g.stage<tok, tok>(name, stage_kind::parallel,
                             [salt](tok&& t, emit<tok> e) { e(step(t, salt)); });
  };
  edge_opts small;
  small.slice_batch = 4;
  switch (s) {
    case shape::par: {
      auto a = par("par_a", 1);
      g.connect(src, a, small);
      g.connect(a, snk);
      break;
    }
    case shape::par_expand: {
      auto a = par("par_a", 1);
      // 1..3 outputs per input: every admitted token reaches the sink.
      auto x = g.expand<tok, tok>(
          "fan", stage_kind::parallel, [](tok&& t, emit<tok> e) {
            for (std::uint64_t k = 0; k <= t.val % 3; ++k)
              e(step(t, 100 + k));
          });
      g.connect(src, a, small);
      g.connect(a, x);
      g.connect(x, snk, small);
      break;
    }
    case shape::serial_sandwich: {
      auto s1 = g.stage<tok, tok>(
          "ser", stage_kind::serial,
          [](tok&& t, emit<tok> e) { e(step(t, 7)); });
      auto a = par("par_a", 1);
      auto s2 = g.stage<tok, tok>(
          "ordered", stage_kind::serial_in_order,
          [](tok&& t, emit<tok> e) { e(step(t, 9)); });
      auto b = par("par_b", 2);
      g.connect(src, s1);
      g.connect(s1, a, small);
      g.connect(a, s2);
      g.connect(s2, b);
      g.connect(b, snk, small);
      break;
    }
  }
}

std::vector<tok> reference(shape s) {
  graph g;
  std::vector<tok> out;
  describe(s, g, &out);
  (void)hq::pipe::execute(g, backend::serial);
  return out;
}

void expect_same(const std::vector<tok>& got, const std::vector<tok>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].seq, want[i].seq) << what << " at " << i;
    ASSERT_EQ(got[i].val, want[i].val) << what << " at " << i;
  }
}

using matrix_param = std::tuple<shape, backend, unsigned, mode>;

class StreamingShapes : public ::testing::TestWithParam<matrix_param> {};

TEST_P(StreamingShapes, MatchesElision) {
  const auto [s, b, workers, m] = GetParam();
  const std::vector<tok> want = reference(s);
  const std::string what = std::string(hq::pipe::to_string(b)) + " @" +
                           std::to_string(workers);

  exec_options opt;
  opt.workers = workers;
  if (m == mode::block || m == mode::shed) {
    opt.admission.policy =
        m == mode::block ? admission_policy::block : admission_policy::shed;
    opt.admission.window = 8;
  }

  watchdog_scope dog(workers);
  if (m == mode::fault) {
    graph g;
    std::vector<tok> got;
    describe(s, g, &got);
    const std::string site = "stage.par_a";
    plan_guard guard;
    hq::fault::plan pl;
    std::string err;
    ASSERT_TRUE(hq::fault::parse("seed=5;throw@" + site + ":nth=20", &pl, &err))
        << err;
    hq::fault::install(std::move(pl));
    try {
      (void)hq::pipe::execute(g, b, opt);
      ADD_FAILURE() << what << ": the injected fault did not surface";
    } catch (const hq::fault::injected_fault& e) {
      EXPECT_NE(std::string(e.what()).find(site), std::string::npos)
          << e.what();
    }
    // The nth firing is consumed: the next run on the same runtime is clean.
  }

  graph g;
  std::vector<tok> got;
  describe(s, g, &got);
  const auto res = hq::pipe::execute(g, b, opt);
  if (m != mode::shed) {
    EXPECT_EQ(res.shed, 0u) << what;
    expect_same(got, want, what);
    return;
  }
  // Shedding drops whole source emissions: the output must be the
  // elision's, restricted to the admitted ones, in the same order.
  EXPECT_EQ(res.admitted + res.shed, 300u) << what;
  std::set<std::uint64_t> kept;
  for (const tok& t : got) kept.insert(t.seq);
  EXPECT_EQ(kept.size(), res.admitted) << what;
  std::vector<tok> filtered;
  for (const tok& t : want)
    if (kept.count(t.seq) != 0) filtered.push_back(t);
  expect_same(got, filtered, what);
}

std::string shape_label(shape s) {
  switch (s) {
    case shape::par: return "SrcParSink";
    case shape::par_expand: return "SrcParExpandSink";
    case shape::serial_sandwich: return "SrcSerParInorderParSink";
  }
  return "?";
}

std::string mode_label(mode m) {
  switch (m) {
    case mode::plain: return "Plain";
    case mode::block: return "Block";
    case mode::shed: return "Shed";
    case mode::fault: return "Fault";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, StreamingShapes,
    ::testing::Combine(::testing::Values(shape::par, shape::par_expand,
                                         shape::serial_sandwich),
                       ::testing::Values(backend::hyperqueue,
                                         backend::hyperqueue_element),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(mode::plain, mode::block, mode::shed,
                                         mode::fault)),
    [](const auto& info) {
      const auto& p = info.param;
      return shape_label(std::get<0>(p)) +
             (std::get<1>(p) == backend::hyperqueue ? "_Hyperqueue"
                                                    : "_HyperqueueElement") +
             "_P" + std::to_string(std::get<2>(p)) + "_" +
             mode_label(std::get<3>(p));
    });

// ------------------------------------------------------ budgets and queues

TEST(StreamingQueues, BudgetIntoParallelStageIsRejected) {
  graph g;
  auto src = g.source<int>("src", [](emit<int> out) { out(1); });
  auto mid = g.stage<int, int>("mid", stage_kind::parallel,
                               [](int&& v, emit<int> out) { out(std::move(v)); });
  auto snk = g.sink<int>("snk", stage_kind::serial_in_order, [](int&&) {});
  edge_opts budgeted;
  budgeted.memory_budget = 64 * 1024;
  EXPECT_THROW(g.connect(src, mid, budgeted), graph_error);
  // The queue in front of the sink is real: its budget is accepted.
  g.connect(src, mid);
  g.connect(mid, snk, budgeted);
  exec_options opt;
  opt.workers = 2;
  const auto res = hq::pipe::execute(g, backend::hyperqueue, opt);
  EXPECT_EQ(res.pool.budget_bytes, budgeted.memory_budget);
}

TEST(StreamingQueues, QueueGraphListsOnlyRealQueues) {
  // src -> par -> expand(par) -> serial -> sink: queues sit in front of the
  // serial stage and the sink; the first is pushed by the source and the
  // run's two stages.
  graph g;
  auto src = g.source<int>("src", [](emit<int> out) {
    for (int i = 0; i < 32; ++i) out(int{i});
  });
  auto a = g.stage<int, int>("a", stage_kind::parallel,
                             [](int&& v, emit<int> out) { out(v + 1); });
  auto x = g.expand<int, int>("x", stage_kind::parallel,
                              [](int&& v, emit<int> out) {
                                out(int{v});
                                out(v * 2);
                              });
  auto s = g.stage<int, int>("s", stage_kind::serial,
                             [](int&& v, emit<int> out) { out(std::move(v)); });
  std::vector<int> got;
  auto snk = g.sink<int>("snk", stage_kind::serial_in_order,
                         [&got](int&& v) { got.push_back(v); });
  edge_opts into_s;
  into_s.traffic = 3.0;
  g.connect(src, a);
  g.connect(a, x);
  g.connect(x, s, into_s);
  g.connect(s, snk);

  const hq::queue_graph qg = g.build_queue_graph();
  EXPECT_EQ(qg.num_stages, 5u);
  ASSERT_EQ(qg.queues.size(), 2u);
  EXPECT_EQ(qg.queues[0].producers, (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(qg.queues[0].consumer, 3u);
  EXPECT_DOUBLE_EQ(qg.queues[0].traffic, 3.0);
  EXPECT_EQ(qg.queues[1].producers, (std::vector<unsigned>{3}));
  EXPECT_EQ(qg.queues[1].consumer, 4u);

  exec_options opt;
  opt.workers = 2;
  const auto res = hq::pipe::execute(g, backend::hyperqueue, opt);
  EXPECT_EQ(res.queue_nodes.size(), 2u);
  ASSERT_EQ(got.size(), 64u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(got[2 * i], i + 1);
    EXPECT_EQ(got[2 * i + 1], 2 * (i + 1));
  }
}

}  // namespace

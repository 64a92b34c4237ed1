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
//    and 4 workers, at the graph's own slice batches and at one token per
//    slice, under admission control and with an injected stage fault;
//  * the stage feeding a parallel run stays less than 2·P batches ahead of
//    the run at any stream length, for batches of 16 tokens and of one, and
//    at one worker runs its batches in spawn order, claiming all but the
//    last back off its own deque;
//  * a fault inside a claimed batch fails the run cleanly, a source that
//    throws runs no claimed batch while it unwinds, and every
//    admission policy claims, shed dropping offers while the source is late
//    from a claimed run;
//  * each drained queue counts the holds at its backlog bound and the
//    time they spent paused;
//  * queues sit only in front of serial stages and the sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
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

/// Every parameterised suite here runs backend::hyperqueue at one of two
/// grains. `slices` keeps each graph's own slice batches; `element` puts
/// slice_batch 1 on every edge, so each token is its own slice and, into a
/// parallel run, its own task.
enum class grain { slices, element };

std::string grain_label(grain gr) {
  return gr == grain::slices ? "Hyperqueue" : "HyperqueueElement";
}

/// Edge options at grain `gr`: `base` unchanged, or slice_batch 1.
edge_opts at(grain gr, edge_opts base = {}) {
  if (gr == grain::element) base.slice_batch = 1;
  return base;
}

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

  explicit retire_probe(grain gr = grain::slices) {
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
    g.connect(src, mid, at(gr));
    g.connect(mid, snk, at(gr));
  }
};

class StreamingRetire : public ::testing::TestWithParam<grain> {};

TEST_P(StreamingRetire, SinkRetiresBeforeSourcesLastEmission) {
  retire_probe ref;
  (void)hq::pipe::execute(ref.g, backend::serial);

  retire_probe two(GetParam());
  {
    watchdog_scope dog(2);
    exec_options opt;
    opt.workers = 2;
    (void)hq::pipe::execute(two.g, backend::hyperqueue, opt);
  }
  EXPECT_TRUE(two.saw_retire)
      << "the sink retired nothing while the source was emitting";
  EXPECT_EQ(two.retired.load(), retire_probe::kN);
  EXPECT_EQ(two.digest, ref.digest);

  retire_probe one(GetParam());
  exec_options opt;
  opt.workers = 1;
  (void)hq::pipe::execute(one.g, backend::hyperqueue, opt);
  EXPECT_EQ(one.digest, ref.digest);
}

/// src -> [serial ->] parallel -> sink. The source records, just before
/// its last emission, whether the sink has retired anything yet; with two
/// workers it first waits for that, for at most 10 s. On one worker nothing
/// can run beside the source: the sink must have retired on its stack.
struct early_probe {
  static constexpr std::uint64_t kN = 64;

  std::atomic<std::uint64_t> retired{0};
  bool saw_retire = false;
  std::uint64_t digest = 0;
  graph g;

  early_probe(grain gr, bool serial_middle) {
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
    if (serial_middle) {
      auto ser = g.stage<std::uint64_t, std::uint64_t>(
          "ser", stage_kind::serial_in_order,
          [](std::uint64_t&& v, emit<std::uint64_t> out) { out(v + 1); });
      g.connect(src, ser, at(gr));
      g.connect(ser, mid, at(gr));
    } else {
      g.connect(src, mid, at(gr));
    }
    g.connect(mid, snk, at(gr));
  }
};

void expect_early_retire(grain gr, bool serial_middle, unsigned workers) {
  early_probe ref(gr, serial_middle);
  (void)hq::pipe::execute(ref.g, backend::serial);
  early_probe run(gr, serial_middle);
  {
    watchdog_scope dog(workers);
    exec_options opt;
    opt.workers = workers;
    (void)hq::pipe::execute(run.g, backend::hyperqueue, opt);
  }
  EXPECT_TRUE(run.saw_retire)
      << "the sink retired nothing while the source was emitting, at "
      << workers << " worker(s)";
  EXPECT_EQ(run.retired.load(), early_probe::kN);
  EXPECT_EQ(run.digest, ref.digest);
}

TEST_P(StreamingRetire, SinkRetiresBeforeSourcesLastEmissionOnOneWorker) {
  expect_early_retire(GetParam(), /*serial_middle=*/false, 1);
}

TEST_P(StreamingRetire, SerialMiddleStageRetiresWhileSourceEmits) {
  expect_early_retire(GetParam(), /*serial_middle=*/true, 1);
  expect_early_retire(GetParam(), /*serial_middle=*/true, 2);
}

INSTANTIATE_TEST_SUITE_P(Backends, StreamingRetire,
                         ::testing::Values(grain::slices, grain::element),
                         [](const auto& info) { return grain_label(info.param); });

// ------------------------------------------------------------ backlog bound

/// src -> [serial ->] parallel -> slow sink, batch B on every edge, N
/// tokens. The producers of a drained queue may leave at most 2·P·B of
/// their tokens untaken (sched/drain.hpp). Measured at the stage bodies,
/// a token counts from the body that emits it to the body that takes it,
/// so the emitter buffers count too: the test allows one batch per worker
/// (a producer not yet scanned reserves its batch before buffering it, so
/// only the scanned one's partial batch is outside 2·P·B). The probe
/// samples, at every emission into each queue, how many tokens it holds
/// that way.
struct backlog_probe {
  const std::size_t batch;
  const std::uint64_t n;
  std::atomic<std::uint64_t> src_out{0}, ser_in{0}, par_out{0}, snk_in{0};
  std::atomic<std::uint64_t> max_ser_queue{0}, max_snk_queue{0};
  std::uint64_t digest = 0;
  graph g;

  /// Tokens emitted into a queue and not yet taken out of it. The taker's
  /// count is read first: it never passes the emitter's.
  static std::uint64_t held(const std::atomic<std::uint64_t>& out,
                            const std::atomic<std::uint64_t>& in) {
    const std::uint64_t taken = in.load(std::memory_order_acquire);
    return out.load(std::memory_order_acquire) - taken;
  }
  static void note(std::atomic<std::uint64_t>& max, std::uint64_t v) {
    std::uint64_t m = max.load(std::memory_order_relaxed);
    while (v > m && !max.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
    }
  }

  backlog_probe(bool serial_middle, std::size_t b, std::uint64_t count)
      : batch(b), n(count) {
    auto src = g.source<std::uint64_t>("src", [this](emit<std::uint64_t> out) {
      for (std::uint64_t i = 0; i < n; ++i) {
        out(std::uint64_t{i});
        src_out.fetch_add(1);
        note(max_ser_queue, held(src_out, ser_in));
      }
    });
    auto par = g.stage<std::uint64_t, std::uint64_t>(
        "par", stage_kind::parallel,
        [this](std::uint64_t&& v, emit<std::uint64_t> out) {
          out(mix(v));
          par_out.fetch_add(1);
          note(max_snk_queue, held(par_out, snk_in));
        });
    auto snk = g.sink<std::uint64_t>(
        "snk", stage_kind::serial_in_order, [this](std::uint64_t&& v) {
          volatile int i = 0;
          while (i < 400) i = i + 1;
          digest = digest * 31 + v;
          snk_in.fetch_add(1, std::memory_order_release);
        });
    edge_opts e;
    e.slice_batch = batch;
    if (serial_middle) {
      auto ser = g.stage<std::uint64_t, std::uint64_t>(
          "ser", stage_kind::serial_in_order,
          [this](std::uint64_t&& v, emit<std::uint64_t> out) {
            ser_in.fetch_add(1, std::memory_order_release);
            out(std::move(v));
          });
      g.connect(src, ser, e);
      g.connect(ser, par, e);
    } else {
      g.connect(src, par, e);
    }
    g.connect(par, snk, e);
  }
};

using backlog_param = std::tuple<grain, unsigned, bool>;

class StreamingBacklog : public ::testing::TestWithParam<backlog_param> {};

TEST_P(StreamingBacklog, DrainedQueuesStayWithinTwoPBatches) {
  const auto [gr, workers, serial_middle] = GetParam();
  const std::size_t b = gr == grain::slices ? 16 : 1;
  // 2·P·B in the queue, plus one emitter buffer of B per worker, at any
  // worker count: a held producer never goes over the bound
  // (sched/drain.hpp).
  const std::uint64_t bound = 2 * workers * b + workers * b;
  for (const std::uint64_t n : {std::uint64_t{4096}, std::uint64_t{16384}}) {
    backlog_probe ref(serial_middle, b, n);
    (void)hq::pipe::execute(ref.g, backend::serial);
    backlog_probe run(serial_middle, b, n);
    exec_options opt;
    opt.workers = workers;
    {
      watchdog_scope dog(workers);
      (void)hq::pipe::execute(run.g, backend::hyperqueue, opt);
    }
    EXPECT_EQ(run.snk_in.load(), n);
    EXPECT_EQ(run.digest, ref.digest) << "N = " << n;
    EXPECT_LT(run.max_snk_queue.load(), bound)
        << "the sink's queue held " << run.max_snk_queue.load()
        << " tokens, N = " << n;
    if (serial_middle) {
      EXPECT_LT(run.max_ser_queue.load(), bound)
          << "the serial stage's queue held " << run.max_ser_queue.load()
          << " tokens, N = " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamingBacklog,
    ::testing::Combine(::testing::Values(grain::slices, grain::element),
                       ::testing::Values(1u, 2u, 4u), ::testing::Bool()),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string(std::get<2>(p) ? "SrcSerParSink" : "SrcParSink") +
             "_" + grain_label(std::get<0>(p)) + "_P" +
             std::to_string(std::get<1>(p));
    });

TEST(StreamingHolds, PerEdgeCountersMatchTheScheduler) {
  // The backlog probe's slow sink at B = 1 keeps its producers at the
  // bound: the sink's queue counts those holds and the time they spent
  // paused. Holds need the
  // sink's drain to run on one worker while another produces, which a
  // loaded host can prevent for a whole run (one thread running alone
  // kicks the drain at every batch end and never reaches the bound), so
  // each worker count repeats the run for up to three seconds to show them.
  backlog_probe ref(/*serial_middle=*/false, 1, 4096);
  (void)hq::pipe::execute(ref.g, backend::serial);
  for (const unsigned workers : {2u, 4u}) {
    const std::string what = "P = " + std::to_string(workers);
    std::uint64_t holds = 0;
    std::uint64_t held_ns = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(3);
    while (holds == 0 && std::chrono::steady_clock::now() < deadline) {
      backlog_probe run(/*serial_middle=*/false, 1, 4096);
      exec_options opt;
      opt.workers = workers;
      hq::pipe::exec_result res;
      {
        watchdog_scope dog(workers);
        res = hq::pipe::execute(run.g, backend::hyperqueue, opt);
      }
      EXPECT_EQ(run.digest, ref.digest) << what;
      holds += res.pool.throttle_waits;
      held_ns += res.pool.throttle_ns;
    }
    EXPECT_GT(holds, 0u) << what;
    EXPECT_GT(held_ns, 0u) << what;
  }
}

// --------------------------------------------------- admission window flush

/// src -> sink, or src -> parallel -> sink, under a block window of 4 with
/// slice_batch 16 on the source edge. Admitted tokens the source's emitter
/// still buffers cannot reach the sink, so unless the emitter hands its
/// partial batch on before waiting for the window, the window never opens
/// and the run stalls (the watchdog fails it). The source samples, after
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
                       ::testing::Values(backend::hyperqueue)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "SrcParSink" : "SrcSink") +
             "_Hyperqueue";
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
  volatile std::uint64_t i = 0;
  while (i < (v % 7) * 300) i = i + 1;
}

tok step(tok t, std::uint64_t salt) {
  jitter(t.val);
  t.val = mix(t.val ^ salt);
  return t;
}

/// Build `s` into `g` at grain `gr`; the in-order sink appends to `out`.
/// Every shape's first parallel stage is "par_a", the fault-injection
/// target.
void describe(shape s, graph& g, std::vector<tok>* out,
              grain gr = grain::slices) {
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
  small = at(gr, small);
  const edge_opts plain = at(gr);
  switch (s) {
    case shape::par: {
      auto a = par("par_a", 1);
      g.connect(src, a, small);
      g.connect(a, snk, plain);
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
      g.connect(a, x, plain);
      g.connect(x, snk, small);
      break;
    }
    case shape::serial_sandwich: {
      auto s1 = g.stage<tok, tok>(
          "ser", stage_kind::serial_in_order,
          [](tok&& t, emit<tok> e) { e(step(t, 7)); });
      auto a = par("par_a", 1);
      auto s2 = g.stage<tok, tok>(
          "ordered", stage_kind::serial_in_order,
          [](tok&& t, emit<tok> e) { e(step(t, 9)); });
      auto b = par("par_b", 2);
      g.connect(src, s1, plain);
      g.connect(s1, a, small);
      g.connect(a, s2, plain);
      g.connect(s2, b, plain);
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

using matrix_param = std::tuple<shape, grain, unsigned, mode>;

class StreamingShapes : public ::testing::TestWithParam<matrix_param> {};

TEST_P(StreamingShapes, MatchesElision) {
  const auto [s, gr, workers, m] = GetParam();
  const backend b = backend::hyperqueue;
  const std::vector<tok> want = reference(s);
  const std::string what = grain_label(gr) + " @" + std::to_string(workers);

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
    describe(s, g, &got, gr);
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
  describe(s, g, &got, gr);
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
                       ::testing::Values(grain::slices, grain::element),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(mode::plain, mode::block, mode::shed,
                                         mode::fault)),
    [](const auto& info) {
      const auto& p = info.param;
      return shape_label(std::get<0>(p)) + "_" + grain_label(std::get<1>(p)) +
             "_P" + std::to_string(std::get<2>(p)) + "_" +
             mode_label(std::get<3>(p));
    });

std::uint64_t data_wait_helps(unsigned workers) {
  hq::scheduler_lease lease(workers);
  return lease->stats().data_wait_helps;
}

TEST(StreamingDrain, NoConsumerWaitsForData) {
  // Every consumer of a declared pipeline is a drain: it takes only what
  // its queue shows and returns, so no worker ever helps from inside a
  // hyperqueue data wait (scheduler::stats_t::data_wait_helps).
  for (const shape s : {shape::par, shape::par_expand, shape::serial_sandwich}) {
    for (const grain gr : {grain::slices, grain::element}) {
      for (const unsigned workers : {1u, 2u, 4u}) {
        const std::string what = shape_label(s) + "_" + grain_label(gr) +
                                 " @" + std::to_string(workers);
        graph g;
        std::vector<tok> got;
        describe(s, g, &got, gr);
        exec_options opt;
        opt.workers = workers;
        const std::uint64_t before = data_wait_helps(workers);
        (void)hq::pipe::execute(g, backend::hyperqueue, opt);
        EXPECT_EQ(data_wait_helps(workers) - before, 0u) << what;
        expect_same(got, reference(s), what);
      }
    }
  }
}

// ------------------------------------------------------- bounded run-ahead

/// src -> parallel -> sink, or src -> serial -> parallel -> sink: N = 4096
/// tokens, batch B on the edge into the parallel stage: 16, or 1 at the
/// element grain. The emitter — the stage feeding the parallel run: the
/// source, or the serial stage — records before each emission how many of its tokens the parallel body
/// has not finished yet. (In the serial shape the source itself is not
/// bounded: the queue in front of the serial stage absorbs whatever it runs
/// ahead.) At one worker the parallel body also records the first token of
/// every batch in the order it runs them.
struct runahead_probe {
  static constexpr std::uint64_t kN = 4096;
  static constexpr std::size_t kBatch = 16;

  const std::size_t batch;
  std::atomic<std::uint64_t> finished{0};
  std::uint64_t emitted = 0;
  std::uint64_t max_ahead = 0;
  std::vector<std::uint64_t> starts;
  std::uint64_t digest = 0;
  graph g;

  void note_emission() {
    const std::uint64_t ahead =
        emitted - finished.load(std::memory_order_acquire);
    max_ahead = std::max(max_ahead, ahead);
    ++emitted;
  }

  explicit runahead_probe(bool serial_first, std::size_t b = kBatch)
      : batch(b) {
    auto src = g.source<std::uint64_t>(
        "src", [this, serial_first](emit<std::uint64_t> out) {
          for (std::uint64_t i = 0; i < kN; ++i) {
            if (!serial_first) note_emission();
            out(std::uint64_t{i});
          }
        });
    auto par = g.stage<std::uint64_t, std::uint64_t>(
        "par", stage_kind::parallel,
        [this](std::uint64_t&& v, emit<std::uint64_t> out) {
          if (hq::workers() == 1 && v % batch == 0) starts.push_back(v);
          jitter(v);
          out(mix(v));
          finished.fetch_add(1, std::memory_order_release);
        });
    auto snk = g.sink<std::uint64_t>(
        "snk", stage_kind::serial_in_order,
        [this](std::uint64_t&& v) { digest = digest * 31 + v; });
    edge_opts into_run;
    into_run.slice_batch = batch;
    if (serial_first) {
      auto ser = g.stage<std::uint64_t, std::uint64_t>(
          "ser", stage_kind::serial_in_order,
          [this](std::uint64_t&& v, emit<std::uint64_t> out) {
            note_emission();
            out(std::move(v));
          });
      g.connect(src, ser);
      g.connect(ser, par, into_run);
    } else {
      g.connect(src, par, into_run);
    }
    g.connect(par, snk);
  }
};

std::uint64_t inline_runs(unsigned workers) {
  hq::scheduler_lease lease(workers);
  return lease->stats().inline_runs;
}

using runahead_param = std::tuple<grain, unsigned, bool>;

class StreamingRunAhead : public ::testing::TestWithParam<runahead_param> {};

TEST_P(StreamingRunAhead, EmitterStaysWithinTwoPBatches) {
  const auto [gr, workers, serial_first] = GetParam();
  const std::size_t batch = gr == grain::slices ? runahead_probe::kBatch : 1;

  runahead_probe ref(serial_first, batch);
  (void)hq::pipe::execute(ref.g, backend::serial);

  runahead_probe run(serial_first, batch);
  exec_options opt;
  opt.workers = workers;
  const std::uint64_t claims_before = inline_runs(workers);
  {
    watchdog_scope dog(workers);
    (void)hq::pipe::execute(run.g, backend::hyperqueue, opt);
  }
  const std::uint64_t claims = inline_runs(workers) - claims_before;

  EXPECT_EQ(run.emitted, runahead_probe::kN);
  EXPECT_EQ(run.digest, ref.digest);
  EXPECT_LT(run.max_ahead, 2 * workers * batch)
      << "the emitter ran " << run.max_ahead
      << " tokens ahead of the parallel run";
  if (workers != 1) return;
  // One worker: every batch but the last is claimed by the flush of the
  // next one, and the last runs in the emitter's join, so the run tasks
  // start in spawn order.
  EXPECT_EQ(claims, runahead_probe::kN / batch - 1);
  std::vector<std::uint64_t> in_order;
  for (std::uint64_t v = 0; v < runahead_probe::kN; v += batch)
    in_order.push_back(v);
  ASSERT_EQ(run.starts.size(), in_order.size());
  EXPECT_EQ(run.starts, in_order)
      << "run tasks started out of spawn order; first starts: "
      << run.starts[0] << ", " << run.starts[1] << ", " << run.starts[2];
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamingRunAhead,
    ::testing::Combine(::testing::Values(grain::slices, grain::element),
                       ::testing::Values(1u, 2u, 4u), ::testing::Bool()),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string(std::get<2>(p) ? "SrcSerParSink" : "SrcParSink") +
             "_" + grain_label(std::get<0>(p)) + "_P" +
             std::to_string(std::get<1>(p));
    });

/// The run-ahead probe as a registered app, so a faulted run reports its
/// outcome the way every app run does.
class runahead_app final : public hq::pipe::app_instance {
 public:
  void describe(graph& g) override {
    probe_ = std::make_unique<runahead_probe>(false);
    g = std::move(probe_->g);
  }
  [[nodiscard]] std::string digest() const override {
    return std::to_string(probe_->digest);
  }

 private:
  std::unique_ptr<runahead_probe> probe_;
};

TEST(StreamingClaim, FaultInClaimedBatchFailsCleanly) {
  static std::once_flag registered;
  std::call_once(registered, [] {
    hq::pipe::register_app("streaming.runahead", [](const auto&) {
      return std::make_unique<runahead_app>();
    });
  });
  hq::pipe::app_params p;
  p.workers = 1;
  // Clean first: memoizes the elision reference outside the fault plan.
  ASSERT_TRUE(hq::pipe::run_app("streaming.runahead", backend::hyperqueue, p).ok);

  // Token 39 lies in batch 2. At one worker every batch but the last runs
  // claimed, inline in the source's flush of a later batch.
  const std::uint64_t claims_before = inline_runs(1);
  {
    plan_guard guard;
    hq::fault::plan pl;
    std::string err;
    ASSERT_TRUE(hq::fault::parse("seed=3;throw@stage.par:nth=40", &pl, &err))
        << err;
    hq::fault::install(std::move(pl));
    watchdog_scope dog(1);
    const auto r =
        hq::pipe::run_app("streaming.runahead", backend::hyperqueue, p);
    EXPECT_EQ(r.exec.outcome, hq::pipe::run_outcome::failed) << r.exec.error;
    EXPECT_NE(r.exec.error.find("stage.par"), std::string::npos)
        << r.exec.error;
  }
  EXPECT_GE(inline_runs(1) - claims_before, 3u)
      << "the faulting batch was not run through the claim path";
  {
    hq::scheduler_lease lease(1);
    EXPECT_EQ(lease->frame_pool_stats().live, 0u);
  }
  const auto again =
      hq::pipe::run_app("streaming.runahead", backend::hyperqueue, p);
  EXPECT_EQ(again.exec.outcome, hq::pipe::run_outcome::ok) << again.exec.error;
  EXPECT_TRUE(again.ok);
}

TEST(StreamingClaim, EveryAdmissionPolicyClaims) {
  // One worker, a window wide enough never to fill: every policy claims on
  // the same path. The lossless ones claim every batch but the last. Under
  // shed each claimed run leaves the source late by its length, and a
  // tight-loop source pays that back far slower than it offers, so it
  // sheds; bounded_wait with a max_wait longer than the whole run never
  // does.
  runahead_probe ref(false);
  (void)hq::pipe::execute(ref.g, backend::serial);
  constexpr std::uint64_t kAllButLast =
      runahead_probe::kN / runahead_probe::kBatch - 1;
  for (const admission_policy p :
       {admission_policy::block, admission_policy::shed,
        admission_policy::bounded_wait}) {
    runahead_probe run(false);
    exec_options opt;
    opt.workers = 1;
    opt.admission.policy = p;
    opt.admission.window = 2 * runahead_probe::kN;
    opt.admission.max_wait_ns = 10'000'000'000;
    const std::uint64_t before = inline_runs(1);
    const auto res = hq::pipe::execute(run.g, backend::hyperqueue, opt);
    const std::uint64_t claims = inline_runs(1) - before;
    const std::string what = "policy " + std::to_string(static_cast<int>(p));
    EXPECT_EQ(res.outcome, hq::pipe::run_outcome::ok) << what;
    EXPECT_EQ(res.admitted + res.shed, runahead_probe::kN) << what;
    if (p == admission_policy::shed) {
      EXPECT_GT(res.shed, 0u) << what;
      EXPECT_GT(claims, 0u) << what;
      continue;
    }
    EXPECT_EQ(res.shed, 0u) << what;
    EXPECT_EQ(run.digest, ref.digest) << what;
    EXPECT_EQ(claims, kAllButLast) << what;
  }
}

TEST(StreamingClaim, UnwindingSourceOnlySpawns) {
  // One worker, batch 16: the source's flushes of batches 1 and 2 run
  // batches 0 and 1 inline. It then throws with three tokens buffered. The
  // flush in its emitter's destructor spawns them without claiming batch 2,
  // so the cancelled join skips both: no parallel body runs past the
  // failure.
  constexpr std::uint64_t kBatch = 16;
  std::atomic<std::uint64_t> bodies{0};
  graph g;
  auto src = g.source<std::uint64_t>("src", [](emit<std::uint64_t> out) {
    for (std::uint64_t i = 0;; ++i) {
      if (i == 3 * kBatch + 3) throw std::runtime_error("source failed");
      out(std::uint64_t{i});
    }
  });
  auto par = g.stage<std::uint64_t, std::uint64_t>(
      "par", stage_kind::parallel,
      [&bodies](std::uint64_t&& v, emit<std::uint64_t> out) {
        bodies.fetch_add(1, std::memory_order_relaxed);
        out(std::move(v));
      });
  auto snk = g.sink<std::uint64_t>("snk", stage_kind::serial_in_order,
                                   [](std::uint64_t&&) {});
  edge_opts into_run;
  into_run.slice_batch = kBatch;
  g.connect(src, par, into_run);
  g.connect(par, snk);
  exec_options opt;
  opt.workers = 1;
  watchdog_scope dog(1);
  EXPECT_THROW((void)hq::pipe::execute(g, backend::hyperqueue, opt),
               std::runtime_error);
  EXPECT_EQ(bodies.load(), 2 * kBatch);
  hq::scheduler_lease lease(1);
  EXPECT_EQ(lease->frame_pool_stats().live, 0u);
}

// ------------------------------------------------------------------ queues

TEST(StreamingQueues, QueueGraphListsOnlyRealQueues) {
  // src -> par -> expand(par) -> serial -> sink: queues sit in front of the
  // serial stage and the sink; the first is pushed by the source and the
  // run's two stages. The sink must see the elision's order.
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
  auto s = g.stage<int, int>("s", stage_kind::serial_in_order,
                             [](int&& v, emit<int> out) { out(std::move(v)); });
  std::vector<int> got;
  auto snk = g.sink<int>("snk", stage_kind::serial_in_order,
                         [&got](int&& v) { got.push_back(v); });
  g.connect(src, a);
  g.connect(a, x);
  g.connect(x, s);
  g.connect(s, snk);

  exec_options opt;
  opt.workers = 2;
  (void)hq::pipe::execute(g, backend::hyperqueue, opt);
  ASSERT_EQ(got.size(), 64u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(got[2 * i], i + 1);
    EXPECT_EQ(got[2 * i + 1], 2 * (i + 1));
  }
}

}  // namespace

// Scheduler and dataflow-tracker microbenchmarks: spawn/sync overhead,
// recursive task trees, versioned-object dependence chains.
//
// Provides its own main(): after the Google-Benchmark runs it executes a
// correctness-gated probe (spawn/steal counters + frame-pool steady state —
// a warm pipeline must report zero fresh task_frame allocations) and emits
// a BENCH_sched.json trajectory record (see bench_json.hpp; --json PATH
// overrides, --quick shrinks everything to smoke size).
//
// Beside the absolute records it writes one same-process ratio record,
// kSpawnRatioRecord: BM_SpawnSyncFlat/10000's per-spawn ns over the ns of a
// fixed calibration loop timed in the same process. Clock speed cancels
// out of it; whether it also holds across CPU models is not measured (the
// loop is bound by ALU latency, a spawn by atomics and the cache), so CI
// prints its diff without gating it. Its "ns_per_op" field carries the
// dimensionless ratio: the cost of one spawn in calibration steps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "bench_json.hpp"
#include "hq.hpp"

namespace {

constexpr const char* kSpawnRatioRecord = "BM_SpawnSyncFlat/10000:per_calib";

/// ns of one calibration step: one link of a dependent multiply-xorshift
/// chain, timed over 6.4M steps. Best of 9 repetitions, so preemption
/// inflates neither side of the ratio beyond what it does to the benchmark
/// itself. The ratio then reads "one spawn costs this many chain steps".
double calibration_step_ns() {
  constexpr int kSteps = 64;
  constexpr int kUnits = 100000;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 9; ++rep) {
    std::uint64_t x = static_cast<std::uint64_t>(rep) + 1;
    const auto t0 = std::chrono::steady_clock::now();
    for (int u = 0; u < kUnits; ++u) {
      for (int i = 0; i < kSteps; ++i) {
        x ^= x >> 29;
        x *= 0x9e3779b97f4a7c15ull;
      }
      benchmark::DoNotOptimize(x);
    }
    const std::chrono::duration<double, std::nano> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count() / (double{kUnits} * kSteps));
  }
  return best;
}

void BM_SpawnSyncFlat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  hq::scheduler sched(1);
  for (auto _ : state) {
    sched.run([&] {
      for (int i = 0; i < n; ++i) hq::spawn([] {});
      hq::sync();
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpawnSyncFlat)->Arg(1000)->Arg(10000);

void BM_CallSync(benchmark::State& state) {
  // hq::call round trip: spawn + completion-hook signalling on the caller's
  // stack flag (no shared_ptr allocation).
  const int n = static_cast<int>(state.range(0));
  hq::scheduler sched(1);
  for (auto _ : state) {
    long acc = 0;
    sched.run([&] {
      for (int i = 0; i < n; ++i) hq::call([&acc] { ++acc; });
    });
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CallSync)->Arg(1000);

long fib_serial(long n) { return n < 2 ? n : fib_serial(n - 1) + fib_serial(n - 2); }

void fib_task(long n, long* out) {
  if (n < 10) {
    *out = fib_serial(n);
    return;
  }
  long a = 0, b = 0;
  hq::spawn(fib_task, n - 1, &a);
  hq::spawn(fib_task, n - 2, &b);
  hq::sync();
  *out = a + b;
}

void BM_FibTree(benchmark::State& state) {
  hq::scheduler sched(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    long out = 0;
    sched.run([&] { fib_task(24, &out); });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FibTree)->Arg(1)->Arg(2)->Arg(4);

void BM_DataflowInoutChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  hq::scheduler sched(1);
  for (auto _ : state) {
    hq::versioned<long> acc(0);
    sched.run([&] {
      for (int i = 0; i < n; ++i) {
        hq::spawn([](hq::inoutdep<long> v) { *v += 1; }, (hq::inoutdep<long>)acc);
      }
      hq::sync();
    });
    benchmark::DoNotOptimize(acc.get());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DataflowInoutChain)->Arg(1000);

void BM_DataflowRenamedProducers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  hq::scheduler sched(2);
  for (auto _ : state) {
    hq::versioned<long> v(0);
    sched.run([&] {
      for (int i = 0; i < n; ++i) {
        hq::spawn([i](hq::outdep<long> o) { *o = i; }, (hq::outdep<long>)v);
      }
      hq::sync();
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DataflowRenamedProducers)->Arg(1000);

// Early head reduction cost vs spawn-tree depth (Section 4.5: O(depth)).
void deep_push(hq::pushdep<int> q, int depth) {
  if (depth == 0) {
    q.push(1);
    return;
  }
  hq::spawn(deep_push, q, depth - 1);
  hq::sync();
  q.push(1);  // empty user view here: triggers the early reduction walk
}

void BM_EarlyReductionDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  hq::scheduler sched(1);
  for (auto _ : state) {
    long sum = 0;
    sched.run([&] {
      hq::hyperqueue<int> q(64);
      hq::spawn(deep_push, (hq::pushdep<int>)q, depth);
      hq::spawn(
          [&sum](hq::popdep<int> qq) {
            while (!qq.empty()) sum += qq.pop();
          },
          (hq::popdep<int>)q);
      hq::sync();
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_EarlyReductionDepth)->Arg(4)->Arg(16)->Arg(64);

/// Counter/pool probe: fixed spawn workloads with known answers, reported
/// into the JSON record. The frame-pool steady-state check is the
/// correctness gate CI keys on: after warm-up, a bounded-burst workload on
/// one worker must allocate zero fresh task frames.
struct probe_result {
  hq::scheduler::stats_t stats;
  hq::detail::obj_pool::stats_t frames;
  hq::detail::obj_pool::stats_t attaches;
  bool zero_alloc_steady_state = false;
  bool counters_ok = false;
};

probe_result run_probe(bool quick) {
  probe_result pr;
  const int rounds = quick ? 20 : 200;
  const int width = 64;

  {
    // Deterministic zero-alloc gate on one worker, snapshots inside run().
    hq::scheduler sched(1);
    hq::detail::obj_pool::stats_t warm{}, after{};
    sched.run([&] {
      for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < width; ++i) hq::spawn([] {});
        hq::sync();
      }
      warm = sched.frame_pool_stats();
      for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < width; ++i) hq::spawn([] {});
        hq::sync();
      }
      after = sched.frame_pool_stats();
    });
    pr.zero_alloc_steady_state =
        after.allocated == warm.allocated && after.recycled > warm.recycled;
  }

  {
    // Steal-rate probe at 4 workers (recursive tree forces stealing).
    hq::scheduler sched(4);
    long out = 0;
    sched.run([&] { fib_task(quick ? 20 : 26, &out); });
    pr.stats = sched.stats();
    pr.frames = sched.frame_pool_stats();
    pr.attaches = sched.attach_pool_stats();
    pr.counters_ok = out == fib_serial(quick ? 20 : 26) &&
                     pr.stats.executed == pr.stats.spawns + 1 &&  // + root
                     pr.stats.steals <= pr.stats.steal_attempts;
  }
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  const auto opt =
      hq::bench::parse_micro_args(argc, argv, "BENCH_sched.json", args);
  benchmark::Initialize(&argc, args.data());
  hq::bench::collecting_reporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const double calib_ns = calibration_step_ns();

  const probe_result pr = run_probe(opt.quick);
  if (!pr.zero_alloc_steady_state) {
    std::fprintf(stderr,
                 "FAIL: frame pool kept allocating in steady state (warm "
                 "pipeline must spawn with zero fresh task frames)\n");
  }
  if (!pr.counters_ok) {
    std::fprintf(stderr, "FAIL: scheduler counter probe inconsistent\n");
  }

  // Headline: ns per spawn/execute/finish round trip from the largest flat
  // storm. Derived from wall-clock time (items_per_second is CPU-time based
  // and the workers run on their own threads).
  double spawn_ns = 0;
  for (const auto& r : reporter.rows) {
    if (r.name == "BM_SpawnSyncFlat/10000") spawn_ns = r.ns_per_op / 10000.0;
  }
  if (spawn_ns > 0) {
    hq::bench::bench_row ratio;
    ratio.name = kSpawnRatioRecord;
    ratio.ns_per_op = spawn_ns / calib_ns;
    ratio.iterations = 1;
    reporter.rows.push_back(ratio);
    std::printf("%s: %.3f (spawn %.1f ns / calibration step %.3f ns)\n",
                kSpawnRatioRecord, ratio.ns_per_op, spawn_ns, calib_ns);
  }

  const bool all_ok = pr.zero_alloc_steady_state && pr.counters_ok &&
                      !reporter.rows.empty();
  const bool wrote = hq::bench::write_micro_json(
      opt, "micro_sched", reporter.rows, all_ok, [&](FILE* f) {
        std::fprintf(f, "  \"spawn_ns\": %.1f,\n", spawn_ns);
        std::fprintf(f, "  \"calib_step_ns\": %.3f,\n", calib_ns);
        std::fprintf(f, "  \"probe\": {\n");
        std::fprintf(
            f,
            "    \"workers\": 4, \"spawns\": %llu, \"executed\": %llu, "
            "\"steals\": %llu, \"steal_attempts\": %llu, \"helps\": %llu,\n",
            static_cast<unsigned long long>(pr.stats.spawns),
            static_cast<unsigned long long>(pr.stats.executed),
            static_cast<unsigned long long>(pr.stats.steals),
            static_cast<unsigned long long>(pr.stats.steal_attempts),
            static_cast<unsigned long long>(pr.stats.helps));
        std::fprintf(f, "    \"steal_rate\": %.4f,\n",
                     pr.stats.spawns > 0
                         ? static_cast<double>(pr.stats.steals) /
                               static_cast<double>(pr.stats.spawns)
                         : 0.0);
        hq::bench::emit_pool_json(f, "frame_pool", pr.frames);
        hq::bench::emit_pool_json(f, "attach_pool", pr.attaches);
        std::fprintf(f, "    \"frame_zero_alloc_steady_state\": %s\n  },\n",
                     pr.zero_alloc_steady_state ? "true" : "false");
      });
  return all_ok && wrote ? 0 : 1;
}

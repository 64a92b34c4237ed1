// Hyperqueue microbenchmarks and design ablations:
//  * push/pop throughput vs segment length (Section 5.1 tuning),
//  * slice API vs element-wise push/pop (Section 5.2),
//  * producer -> consumer task handoff.
//
// Provides its own main(): emits a BENCH_queue.json trajectory record with
// a segment/attachment steady-state probe as the correctness gate (see
// bench_json.hpp; --json PATH overrides, --quick shrinks to smoke size).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "hq.hpp"

namespace {

// Section 5.1: segment-length sweep. One pushpop task in ring steady state.
void BM_PushPop_SegmentLength(benchmark::State& state) {
  const auto seglen = static_cast<std::size_t>(state.range(0));
  hq::scheduler sched(1);
  for (auto _ : state) {
    state.PauseTiming();
    long sum = 0;
    state.ResumeTiming();
    sched.run([&] {
      hq::hyperqueue<int> q(seglen);
      hq::spawn(
          [&sum](hq::pushpopdep<int> qq) {
            for (int i = 0; i < 20000; ++i) {
              qq.push(i);
              sum += qq.pop();
            }
          },
          (hq::pushpopdep<int>)q);
      hq::sync();
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PushPop_SegmentLength)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

// Section 5.2: slices amortize the per-element privilege lookup.
void BM_ElementWise(benchmark::State& state) {
  hq::scheduler sched(1);
  for (auto _ : state) {
    long sum = 0;
    sched.run([&] {
      hq::hyperqueue<int> q(1024);
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < 20000; ++i) qq.push(i);
          },
          (hq::pushdep<int>)q);
      hq::spawn(
          [&sum](hq::popdep<int> qq) {
            while (!qq.empty()) sum += qq.pop();
          },
          (hq::popdep<int>)q);
      hq::sync();
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_ElementWise);

void BM_Slices(benchmark::State& state) {
  hq::scheduler sched(1);
  for (auto _ : state) {
    long sum = 0;
    sched.run([&] {
      hq::hyperqueue<int> q(1024);
      hq::spawn(
          [](hq::pushdep<int> qq) {
            int v = 0;
            while (v < 20000) {
              auto ws = qq.get_write_slice(256);
              for (std::size_t i = 0; i < ws.size(); ++i) ws.emplace(i, v++);
              ws.commit();
            }
          },
          (hq::pushdep<int>)q);
      hq::spawn(
          [&sum](hq::popdep<int> qq) {
            for (;;) {
              auto rs = qq.get_read_slice(256);
              if (rs.empty()) break;
              for (int v : rs) sum += v;
              rs.release();
            }
          },
          (hq::popdep<int>)q);
      hq::sync();
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_Slices);

// Trivial-type batched transfer: write slices in, pop_bulk out (one memcpy
// per contiguous run on both sides).
void BM_PopBulk(benchmark::State& state) {
  hq::scheduler sched(1);
  for (auto _ : state) {
    long sum = 0;
    sched.run([&] {
      hq::hyperqueue<int> q(1024);
      hq::spawn(
          [](hq::pushdep<int> qq) {
            int v = 0;
            while (v < 20000) {
              auto ws = qq.get_write_slice(256);
              for (std::size_t i = 0; i < ws.size(); ++i) ws.emplace(i, v++);
              ws.commit();
            }
          },
          (hq::pushdep<int>)q);
      hq::spawn(
          [&sum](hq::popdep<int> qq) {
            int buf[256];
            for (;;) {
              const std::size_t n = qq.pop_bulk(buf, 256);
              if (n == 0) break;
              for (std::size_t i = 0; i < n; ++i) sum += buf[i];
            }
          },
          (hq::popdep<int>)q);
      hq::sync();
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PopBulk);

// Parallel producers: the paper's scale-free claim (Section 4). A fixed
// 64k-element stream is split across 1/8/64 producer tasks pushing into one
// queue; with constant total work, ns_per_op across the arms measures the
// cost of multiplying producers directly (it should stay flat — the sharded
// scan list splices and closes shards without any shared lock).
void BM_ParallelProducers(benchmark::State& state) {
  const int leaves = static_cast<int>(state.range(0));
  constexpr int kTotal = 64000;
  const int per_leaf = kTotal / leaves;
  hq::scheduler sched(2);
  for (auto _ : state) {
    long sum = 0;
    sched.run([&] {
      hq::hyperqueue<int> q(256);
      for (int l = 0; l < leaves; ++l) {
        hq::spawn(
            [l, per_leaf](hq::pushdep<int> qq) {
              for (int i = 0; i < per_leaf; ++i) qq.push(l * per_leaf + i);
            },
            (hq::pushdep<int>)q);
      }
      hq::spawn(
          [&sum](hq::popdep<int> qq) {
            while (!qq.empty()) sum += qq.pop();
          },
          (hq::popdep<int>)q);
      hq::sync();
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kTotal);
}
BENCHMARK(BM_ParallelProducers)->Arg(1)->Arg(8)->Arg(64);

/// Steady-state probe: a producer/consumer ring that stays in step must
/// recycle one segment and a bounded set of qattaches — no fresh segment or
/// attachment allocations once warm. This is the JSON correctness gate.
struct probe_result {
  hq::detail::seg_pool_stats segs;
  hq::detail::obj_pool::stats_t attaches;
  bool zero_alloc_steady_state = false;
  bool sum_ok = false;
  std::uint64_t mu_attach_push_burst = 0;  // mu acquisitions by push spawns
  bool zero_mutex_push_path = false;
  bool push_burst_sum_ok = false;
};

/// Zero-mutex-on-push gate: repeated wide producer-only bursts must never
/// touch queue_cb::mu. mu_attach counts pop-FIFO registrations only, so its
/// delta across a burst of push spawns pins the lock-free producer contract
/// (push, write_slice, push-privileged spawn and completion). The owner then
/// drains and checks the serial-elision sum.
void run_push_probe(bool quick, probe_result& pr) {
  const int rounds = quick ? 4 : 16;
  const int producers = 64;
  const int per_leaf = 256;
  hq::scheduler sched(2);
  std::uint64_t mu_delta = 0;
  bool sums_ok = true;
  sched.run([&] {
    for (int r = 0; r < rounds; ++r) {
      hq::hyperqueue<int> q(256);
      const hq::data_path_stats before = q.data_stats();
      for (int l = 0; l < producers; ++l) {
        hq::spawn(
            [l, per_leaf](hq::pushdep<int> qq) {
              for (int i = 0; i < per_leaf; ++i) qq.push(l * per_leaf + i);
            },
            (hq::pushdep<int>)q);
      }
      q.sync_push();
      const hq::data_path_stats after = q.data_stats();
      mu_delta += after.mu_attach - before.mu_attach;
      long sum = 0;
      while (!q.empty()) sum += q.pop();
      const long n = static_cast<long>(producers) * per_leaf;
      sums_ok = sums_ok && sum == n * (n - 1) / 2;
    }
  });
  pr.mu_attach_push_burst = mu_delta;
  pr.zero_mutex_push_path = mu_delta == 0;
  pr.push_burst_sum_ok = sums_ok;
}

probe_result run_probe(bool quick) {
  probe_result pr;
  const int rounds = quick ? 10 : 50;
  const int per_round = 4096;
  hq::scheduler sched(2);
  long total = 0;
  hq::detail::seg_pool_stats seg_warm{}, seg_after{};
  hq::detail::obj_pool::stats_t at_warm{}, at_after{};
  sched.run([&] {
    hq::hyperqueue<int> q(256);
    auto round = [&q, &total] {
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < per_round; ++i) qq.push(i);
          },
          (hq::pushdep<int>)q);
      hq::spawn(
          [&total](hq::popdep<int> qq) {
            long s = 0;
            while (!qq.empty()) s += qq.pop();
            total += s;  // pop tasks run FIFO: no race on total
          },
          (hq::popdep<int>)q);
      hq::sync();
    };
    for (int r = 0; r < rounds; ++r) round();
    seg_warm = q.pool_stats();
    at_warm = sched.attach_pool_stats();
    for (int r = 0; r < rounds; ++r) round();
    seg_after = q.pool_stats();
    at_after = sched.attach_pool_stats();
  });
  pr.segs = seg_after;
  pr.attaches = at_after;
  // Gate with worst-case-derived tolerances so CI-runner preemption cannot
  // fail the job spuriously: a fully unconsumed push burst needs at most
  // ceil(per_round / 256) + 1 segments beyond the warm-up peak, and each
  // measured round can catch at most its two attachments in cross-worker
  // flight. A real leak grows with every round and sails past both bounds.
  const std::uint64_t seg_slack = per_round / 256 + 2;
  const std::uint64_t at_slack = 2u * static_cast<std::uint64_t>(rounds);
  pr.zero_alloc_steady_state =
      seg_after.allocated <= seg_warm.allocated + seg_slack &&
      seg_after.recycled > seg_warm.recycled &&
      at_after.allocated <= at_warm.allocated + at_slack &&
      at_after.recycled > at_warm.recycled;
  pr.sum_ok =
      total == 2L * rounds * (static_cast<long>(per_round) * (per_round - 1) / 2);
  return pr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  const auto opt =
      hq::bench::parse_micro_args(argc, argv, "BENCH_queue.json", args);
  benchmark::Initialize(&argc, args.data());
  hq::bench::collecting_reporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  probe_result pr = run_probe(opt.quick);
  run_push_probe(opt.quick, pr);

  // Scale-free gate (machine-independent, so it can run on any CI host):
  // BM_ParallelProducers pushes the same 64k-element stream at every leaf
  // count, so 64 producers may cost at most kScaleFreeBound x the
  // single-producer time. A producer-side serialization bug shows up here
  // as a leaf-count-proportional blowup.
  constexpr double kScaleFreeBound = 8.0;
  double ns_1 = 0, ns_64 = 0;
  for (const auto& row : reporter.rows) {
    if (row.name == "BM_ParallelProducers/1") ns_1 = row.ns_per_op;
    if (row.name == "BM_ParallelProducers/64") ns_64 = row.ns_per_op;
  }
  const double scale_ratio = ns_1 > 0 ? ns_64 / ns_1 : -1.0;
  const bool scale_free = scale_ratio > 0 && scale_ratio <= kScaleFreeBound;
  if (!scale_free) {
    std::fprintf(stderr,
                 "FAIL: BM_ParallelProducers/64 is %.2fx the single-producer "
                 "time for the same total work (bound: %.1fx)\n",
                 scale_ratio, kScaleFreeBound);
  }

  if (!pr.zero_alloc_steady_state) {
    std::fprintf(stderr,
                 "FAIL: segment/attachment pools kept allocating in steady "
                 "state\n");
  }
  if (!pr.sum_ok) std::fprintf(stderr, "FAIL: probe checksum mismatch\n");
  if (!pr.zero_mutex_push_path) {
    std::fprintf(stderr,
                 "FAIL: producer path acquired queue_cb::mu %llu times "
                 "(contract: zero)\n",
                 static_cast<unsigned long long>(pr.mu_attach_push_burst));
  }
  if (!pr.push_burst_sum_ok) {
    std::fprintf(stderr, "FAIL: push-burst checksum mismatch\n");
  }

  const bool all_ok = pr.zero_alloc_steady_state && pr.sum_ok &&
                      pr.zero_mutex_push_path && pr.push_burst_sum_ok &&
                      scale_free && !reporter.rows.empty();
  const bool wrote = hq::bench::write_micro_json(
      opt, "micro_queue", reporter.rows, all_ok, [&](FILE* f) {
        std::fprintf(f, "  \"probe\": {\n");
        std::fprintf(f,
                     "    \"segment_pool\": {\"allocated\": %llu, \"recycled\": "
                     "%llu, \"high_water\": %llu},\n",
                     static_cast<unsigned long long>(pr.segs.allocated),
                     static_cast<unsigned long long>(pr.segs.recycled),
                     static_cast<unsigned long long>(pr.segs.high_water));
        hq::bench::emit_pool_json(f, "attach_pool", pr.attaches);
        std::fprintf(f, "    \"zero_alloc_steady_state\": %s,\n",
                     pr.zero_alloc_steady_state ? "true" : "false");
        std::fprintf(f, "    \"mu_attach_push_burst\": %llu,\n",
                     static_cast<unsigned long long>(pr.mu_attach_push_burst));
        std::fprintf(f, "    \"zero_mutex_push_path\": %s,\n",
                     pr.zero_mutex_push_path ? "true" : "false");
        std::fprintf(f, "    \"parallel_producers_64_vs_1\": %.3f,\n",
                     scale_ratio);
        std::fprintf(f, "    \"scale_free\": %s\n  },\n",
                     scale_free ? "true" : "false");
      });
  return all_ok && wrote ? 0 : 1;
}

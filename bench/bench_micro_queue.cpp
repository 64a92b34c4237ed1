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

// Placement ablation of the same workload: identical stream, identical
// worker count, only the worker->CPU policy differs (compact packs both
// workers into one cache domain; scatter spreads them across nodes). On a
// single-node machine the two arms coincide — the records then document
// that placement is free, not that it helps.
void BM_ParallelProducersPlaced(benchmark::State& state,
                                hq::placement_policy policy) {
  const int leaves = static_cast<int>(state.range(0));
  constexpr int kTotal = 64000;
  const int per_leaf = kTotal / leaves;
  hq::scheduler sched(2, {policy, nullptr, {}});
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
BENCHMARK_CAPTURE(BM_ParallelProducersPlaced, compact,
                  hq::placement_policy::compact)
    ->Arg(8)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_ParallelProducersPlaced, scatter,
                  hq::placement_policy::scatter)
    ->Arg(8)
    ->Arg(64);

/// Pick a CPU pair from the machine model at a requested topology distance:
/// `cross_node` = two CPUs on different nodes, otherwise two CPUs sharing
/// an LLC. Falls back to the nearest available pair (single-node machines
/// have no cross-node pair; the record still exists and simply measures the
/// same placement as same_llc).
std::vector<unsigned> pick_pair(bool cross_node) {
  const hq::topology& t = hq::topology::system();
  const auto& cpus = t.cpus();
  if (cpus.size() < 2) return {cpus.empty() ? 0u : cpus[0].cpu};
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    for (std::size_t j = i + 1; j < cpus.size(); ++j) {
      if (cross_node ? cpus[i].node != cpus[j].node
                     : cpus[i].llc == cpus[j].llc) {
        return {cpus[i].cpu, cpus[j].cpu};
      }
    }
  }
  return {cpus.front().cpu, cpus.back().cpu};
}

// Producer/consumer pair at a controlled topology distance: same LLC vs
// different nodes. The element stream crosses exactly the boundary the
// explicit pinning chooses, so the arm difference is the cache/interconnect
// cost the placement policies are designed to manage.
void BM_PairPlacement(benchmark::State& state, bool cross_node) {
  hq::scheduler sched(
      2, {hq::placement_policy::compact, nullptr, pick_pair(cross_node)});
  constexpr int kTotal = 64000;
  for (auto _ : state) {
    long sum = 0;
    sched.run([&] {
      hq::hyperqueue<int> q(256);
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < kTotal; ++i) qq.push(i);
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
  state.SetItemsProcessed(state.iterations() * kTotal);
}
BENCHMARK_CAPTURE(BM_PairPlacement, same_llc, false);
BENCHMARK_CAPTURE(BM_PairPlacement, cross_node, true);

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
  hq::detail::obj_pool::stats_t loc_frames;   // compact/flat locality run
  hq::detail::obj_pool::stats_t loc_attaches;
  bool locality_ok = false;
  bool locality_sum_ok = false;
};

/// Locality gate: under compact placement on a single-node (flat synthetic)
/// topology every worker magazine and slab is homed on node 0, so the pool
/// locality counters must attribute zero remote allocations — remote blocks
/// can only be minted by cross-node return-stack migration, and there is no
/// second node. Deterministic by construction (no dependence on the CI
/// machine's real topology or on whether the pins stuck).
void run_locality_probe(bool quick, probe_result& pr) {
  const int rounds = quick ? 8 : 32;
  const hq::topology topo = hq::topology::synthetic("flat");
  hq::scheduler sched(2, {hq::placement_policy::compact, &topo, {}});
  long total = 0;
  sched.run([&] {
    for (int r = 0; r < rounds; ++r) {
      hq::hyperqueue<int> q(256);
      hq::spawn(
          [](hq::pushdep<int> qq) {
            for (int i = 0; i < 4096; ++i) qq.push(i);
          },
          (hq::pushdep<int>)q);
      hq::spawn(
          [&total](hq::popdep<int> qq) {
            long s = 0;
            while (!qq.empty()) s += qq.pop();
            total += s;
          },
          (hq::popdep<int>)q);
      hq::sync();
    }
  });
  pr.loc_frames = sched.frame_pool_stats();
  pr.loc_attaches = sched.attach_pool_stats();
  pr.locality_ok = pr.loc_frames.remote_allocs == 0 &&
                   pr.loc_attaches.remote_allocs == 0 &&
                   pr.loc_frames.node_local_allocs > 0 &&
                   pr.loc_attaches.node_local_allocs > 0;
  pr.locality_sum_ok =
      total == static_cast<long>(rounds) * (4096L * 4095 / 2);
}

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
  run_locality_probe(opt.quick, pr);

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
  if (!pr.locality_ok) {
    std::fprintf(stderr,
                 "FAIL: pool locality counters report remote allocations "
                 "under compact single-node placement (frames: %llu local / "
                 "%llu remote; attaches: %llu local / %llu remote)\n",
                 static_cast<unsigned long long>(pr.loc_frames.node_local_allocs),
                 static_cast<unsigned long long>(pr.loc_frames.remote_allocs),
                 static_cast<unsigned long long>(pr.loc_attaches.node_local_allocs),
                 static_cast<unsigned long long>(pr.loc_attaches.remote_allocs));
  }
  if (!pr.locality_sum_ok) {
    std::fprintf(stderr, "FAIL: locality-probe checksum mismatch\n");
  }

  const bool all_ok = pr.zero_alloc_steady_state && pr.sum_ok &&
                      pr.zero_mutex_push_path && pr.push_burst_sum_ok &&
                      pr.locality_ok && pr.locality_sum_ok && scale_free &&
                      !reporter.rows.empty();
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
        std::fprintf(f, "    \"scale_free\": %s,\n",
                     scale_free ? "true" : "false");
        std::fprintf(f, "    \"locality\": {\n");
        std::fprintf(f,
                     "      \"frame_node_local\": %llu, \"frame_remote\": "
                     "%llu,\n",
                     static_cast<unsigned long long>(
                         pr.loc_frames.node_local_allocs),
                     static_cast<unsigned long long>(pr.loc_frames.remote_allocs));
        std::fprintf(f,
                     "      \"attach_node_local\": %llu, \"attach_remote\": "
                     "%llu,\n",
                     static_cast<unsigned long long>(
                         pr.loc_attaches.node_local_allocs),
                     static_cast<unsigned long long>(
                         pr.loc_attaches.remote_allocs));
        std::fprintf(f, "      \"placement\": \"%s\",\n",
                     hq::to_string(hq::placement_policy_from_env()));
        std::fprintf(f, "      \"locality_ok\": %s\n    }\n  },\n",
                     pr.locality_ok ? "true" : "false");
      });
  return all_ok && wrote ? 0 : 1;
}

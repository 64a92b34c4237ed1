// Shared JSON-trajectory emission for the Google-Benchmark micro harnesses.
//
// bench_micro_sched / bench_micro_queue provide their own main() (instead of
// benchmark_main) so they can emit a BENCH_*.json record: a top-level
// {"bench", ..., "all_ok"} object holding one entry per benchmark, the
// shape scripts/bench_compare.py diffs against bench/baselines/. CI runs
// them in --quick mode and uploads the JSON artifacts, making the perf
// trajectory machine-readable run over run.
//
// Flags handled here (stripped before benchmark::Initialize sees argv):
//   --quick        smoke sizes (maps to a tiny --benchmark_min_time)
//   --json PATH    output path (each harness passes its default)
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sched/obj_pool.hpp"

namespace hq::bench {

struct bench_row {
  std::string name;
  double ns_per_op = 0;         // wall-clock per iteration
  double items_per_second = 0;  // 0 when the bench reports no item counter
  std::uint64_t iterations = 0;
};

/// ConsoleReporter that additionally collects per-benchmark rows (real time;
/// CPU time is meaningless here — the workers run on their own threads).
class collecting_reporter : public ::benchmark::ConsoleReporter {
 public:
  std::vector<bench_row> rows;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      bench_row row;
      row.name = r.benchmark_name();
      row.iterations = static_cast<std::uint64_t>(r.iterations);
      if (r.iterations > 0) {
        row.ns_per_op = r.real_accumulated_time /
                        static_cast<double>(r.iterations) * 1e9;
      }
      auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) row.items_per_second = it->second;
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

struct micro_bench_options {
  bool quick = false;
  std::string json_path;
};

/// Strip --quick / --json from argv (benchmark::Initialize rejects unknown
/// flags) and inject the smoke-size min_time in quick mode.
inline micro_bench_options parse_micro_args(int& argc, char** argv,
                                            const char* default_json,
                                            std::vector<char*>& storage) {
  micro_bench_options opt;
  opt.json_path = default_json;
  static std::string min_time_flag = "--benchmark_min_time=0.01";
  storage.clear();
  storage.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--json" && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else {
      storage.push_back(argv[i]);
    }
  }
  if (opt.quick) storage.push_back(min_time_flag.data());
  argc = static_cast<int>(storage.size());
  return opt;
}

/// Emit one recycling-pool stats object as an indented JSON member followed
/// by a comma — shared so BENCH_sched.json and BENCH_queue.json keep the
/// exact same record shape.
inline void emit_pool_json(FILE* f, const char* key,
                           const hq::detail::obj_pool::stats_t& p) {
  std::fprintf(f,
               "    \"%s\": {\"allocated\": %llu, \"recycled\": %llu, "
               "\"high_water\": %llu, \"live\": %llu},\n",
               key, static_cast<unsigned long long>(p.allocated),
               static_cast<unsigned long long>(p.recycled),
               static_cast<unsigned long long>(p.high_water),
               static_cast<unsigned long long>(p.live));
}

/// Write the trajectory record. `extra` (optional, may be null) is invoked
/// to append harness-specific JSON members; it must emit zero or more
/// `"key": value,`-style fragments each followed by a comma.
template <typename ExtraFn>
bool write_micro_json(const micro_bench_options& opt, const char* bench_name,
                      const std::vector<bench_row>& rows, bool all_ok,
                      ExtraFn&& extra) {
  FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "could not open %s for writing\n", opt.json_path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"quick\": %s,\n", bench_name,
               opt.quick ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const bench_row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                 "\"items_per_second\": %.0f, \"iterations\": %llu",
                 r.name.c_str(), r.ns_per_op, r.items_per_second,
                 static_cast<unsigned long long>(r.iterations));
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  extra(f);
  std::fprintf(f, "  \"all_ok\": %s\n}\n", all_ok ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s (%zu benchmarks)\n", opt.json_path.c_str(), rows.size());
  return true;
}

}  // namespace hq::bench

// Section 5.2 adoption benchmark: element-at-a-time vs slice-based
// hyperqueue pipelines for all three evaluation apps (bzip2, dedup,
// ferret) at 1/2/4/8 workers, plus a segment-pool steady-state probe for
// the bzip2 split pipeline.
//
// The workloads are deliberately queue-bound (many small work units) so
// the per-element overheads the slices amortize — privilege lookup, one
// spawn per value, per-value segment traffic — are visible. Every parallel
// run is correctness-gated against the serial elision; the process exits
// nonzero on any mismatch, which is what CI keys on.
//
// Emits a JSON trajectory record (default BENCH_slice.json, override with
// --json PATH) so the perf history populates run over run.
//
// The apps run through the declarative front-end: each measurement builds
// the app's describe_pipeline graph and executes it on the hyperqueue (or
// hyperqueue_element) backend of pipeline/runner.hpp — the same path the
// conformance tests gate. Only the split-pipeline pool probe stays on its
// hand-rolled variant (the split shape is not a linear chain).
//
// Knobs: --quick (smoke sizes), HQ_SLICE_BATCH (default 16).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "apps/bzip2/bzip2.hpp"
#include "apps/dedup/dedup.hpp"
#include "apps/ferret/ferret.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "util/datagen.hpp"
#include "util/table.hpp"

namespace {

constexpr unsigned kWorkers[] = {1, 2, 4, 8};

struct run_record {
  unsigned workers = 0;
  double element_s = 0;
  double slice_s = 0;
  bool ok = false;
  [[nodiscard]] double speedup() const {
    return slice_s > 0 ? element_s / slice_s : 0.0;
  }
};

struct app_record {
  std::string name;
  std::vector<run_record> runs;
};

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

/// Time element vs slice at each worker count, keeping the fastest of
/// `reps` repetitions per variant; correctness is accumulated over every
/// repetition. `run(workers, backend)` executes the app's graph and returns
/// {seconds, output}; the reference output comes from the serial elision.
template <typename RunFn>
app_record measure_app(const std::string& name, int reps, RunFn run) {
  using hq::pipe::backend;
  const auto reference = run(1, backend::serial).second;
  app_record rec{name, {}};
  for (unsigned p : kWorkers) {
    run_record r;
    r.workers = p;
    r.element_s = r.slice_s = 1e30;
    r.ok = true;
    for (int rep = 0; rep < reps; ++rep) {
      const auto element = run(p, backend::hyperqueue_element);
      const auto slice = run(p, backend::hyperqueue);
      r.element_s = std::min(r.element_s, element.first);
      r.slice_s = std::min(r.slice_s, slice.first);
      r.ok = r.ok && element.second == reference && slice.second == reference;
    }
    rec.runs.push_back(r);
  }
  return rec;
}

void print_app(const app_record& app) {
  hq::util::table t({"Workers", "Element (s)", "Slice (s)", "Speedup",
                     "Output ok"});
  for (const auto& r : app.runs) {
    t.add_row({hq::util::table::cell(static_cast<std::uint64_t>(r.workers)),
               hq::util::table::cell(r.element_s, 4),
               hq::util::table::cell(r.slice_s, 4),
               hq::util::table::cell(r.speedup(), 2), r.ok ? "yes" : "NO"});
  }
  t.print(app.name + ": element-at-a-time vs slice pipeline (Section 5.2)");
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = hq::bench::quick_mode(argc, argv);
  std::string json_path = "BENCH_slice.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
  }
  const std::size_t batch = env_size("HQ_SLICE_BATCH", 16);
  // Oversubscribed hosts make single timings noisy; keep the fastest of a
  // few repetitions (correctness is checked on every repetition).
  const int reps = quick ? 1 : 3;
  bool all_ok = true;

  // ------------------------------------------------------------- bzip2
  hq::apps::bzip2::config bz;
  bz.input_bytes = quick ? (256u << 10) : (2u << 20);
  bz.block_bytes = 1u << 10;  // many small blocks: queue-bound
  bz.slice_batch = batch;
  auto bz_input = hq::util::gen_text(bz.input_bytes, bz.seed);

  auto bz_rec = measure_app("bzip2", reps, [&](unsigned p, hq::pipe::backend b) {
    hq::apps::bzip2::result r;
    hq::pipe::graph g;
    hq::apps::bzip2::describe_pipeline(bz, bz_input, &r, g);
    const auto ex = hq::pipe::execute(g, b, {.workers = p, .seed = bz.seed});
    return std::pair{ex.seconds, std::move(r.output)};
  });
  for (const auto& r : bz_rec.runs) all_ok = all_ok && r.ok;
  print_app(bz_rec);

  // Segment-pool steady state: the split pipeline (Section 5.4 batching +
  // Section 5.5 windowed sync) must stop allocating once warm — doubling
  // the stream length must not raise the fresh-allocation count, only the
  // recycle count.
  bz.threads = 4;
  auto split_base = hq::apps::bzip2::run_hyperqueue_split(bz, bz_input);
  auto bz2 = bz;
  bz2.input_bytes *= 2;
  auto bz2_input = hq::util::gen_text(bz2.input_bytes, bz2.seed);
  auto split_double = hq::apps::bzip2::run_hyperqueue_split(bz2, bz2_input);
  const bool pool_ok =
      split_double.seg_allocated <= split_base.seg_allocated + 2 &&
      split_double.seg_recycled > split_base.seg_recycled;
  all_ok = all_ok && pool_ok;
  {
    hq::util::table t({"Stream", "Fresh seg allocs", "Pool reuses",
                       "High water"});
    t.add_row({"1x",
               hq::util::table::cell(
                   static_cast<std::uint64_t>(split_base.seg_allocated)),
               hq::util::table::cell(
                   static_cast<std::uint64_t>(split_base.seg_recycled)),
               hq::util::table::cell(
                   static_cast<std::uint64_t>(split_base.seg_high_water))});
    t.add_row({"2x",
               hq::util::table::cell(
                   static_cast<std::uint64_t>(split_double.seg_allocated)),
               hq::util::table::cell(
                   static_cast<std::uint64_t>(split_double.seg_recycled)),
               hq::util::table::cell(
                   static_cast<std::uint64_t>(split_double.seg_high_water))});
    t.print(std::string("bzip2 split pipeline segment pool (steady state ") +
            (pool_ok ? "ZERO-ALLOC ok)" : "VIOLATED)"));
  }

  // ------------------------------------------------------------- dedup
  hq::apps::dedup::config dd;
  dd.input_bytes = quick ? (512u << 10) : (4u << 20);
  dd.coarse_bytes = 32u << 10;
  dd.fine_avg_log2 = 6;  // ~64 B chunks: queue-bound
  dd.fine_min = 32;
  dd.fine_max = 512;
  dd.dup_fraction = 0.9;  // few unique payloads: compression stays off the
                          // critical path so queue overheads are visible
  dd.slice_batch = batch;
  auto dd_input = hq::util::gen_archive(dd.input_bytes, dd.dup_fraction, dd.seed);

  auto dd_rec = measure_app("dedup", reps, [&](unsigned p, hq::pipe::backend b) {
    hq::apps::dedup::result r;
    hq::apps::dedup::dedup_table table;
    hq::pipe::graph g;
    hq::apps::dedup::describe_pipeline(dd, dd_input, &table, &r, g);
    const auto ex = hq::pipe::execute(g, b, {.workers = p, .seed = dd.seed});
    return std::pair{ex.seconds, std::move(r.output)};
  });
  for (const auto& r : dd_rec.runs) all_ok = all_ok && r.ok;
  print_app(dd_rec);

  // ------------------------------------------------------------- ferret
  hq::apps::ferret::config fr;
  fr.num_images = quick ? 256 : 4096;
  fr.image_wh = 8;  // tiny kernels: queue-bound
  fr.db_entries = 32;
  fr.dims = 8;
  fr.topk = 4;
  fr.slice_batch = batch;
  const auto fr_db = hq::apps::ferret::build_db(fr);

  auto fr_rec = measure_app("ferret", reps, [&](unsigned p, hq::pipe::backend b) {
    std::uint64_t checksum = 0;
    hq::pipe::graph g;
    hq::apps::ferret::describe_pipeline(fr, fr_db, &checksum, g);
    const auto ex = hq::pipe::execute(g, b, {.workers = p, .seed = fr.seed});
    return std::pair{ex.seconds, checksum};
  });
  for (const auto& r : fr_rec.runs) all_ok = all_ok && r.ok;
  print_app(fr_rec);

  // ------------------------------------------------------------- JSON
  double best_speedup_at_8 = 0;
  for (const auto* app : {&bz_rec, &dd_rec, &fr_rec}) {
    for (const auto& r : app->runs) {
      if (r.workers == 8 && r.speedup() > best_speedup_at_8) {
        best_speedup_at_8 = r.speedup();
      }
    }
  }
  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"slice_apps\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"slice_batch\": %zu,\n", batch);
    std::fprintf(f, "  \"apps\": [\n");
    bool first_app = true;
    for (const auto* app : {&bz_rec, &dd_rec, &fr_rec}) {
      std::fprintf(f, "%s    {\"app\": \"%s\", \"runs\": [\n",
                   first_app ? "" : ",\n", app->name.c_str());
      first_app = false;
      for (std::size_t i = 0; i < app->runs.size(); ++i) {
        const auto& r = app->runs[i];
        std::fprintf(f,
                     "      {\"workers\": %u, \"element_s\": %.6f, "
                     "\"slice_s\": %.6f, \"speedup\": %.3f, \"ok\": %s}%s\n",
                     r.workers, r.element_s, r.slice_s, r.speedup(),
                     r.ok ? "true" : "false",
                     i + 1 < app->runs.size() ? "," : "");
      }
      std::fprintf(f, "    ]}");
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f,
                 "  \"bzip2_split_pool\": {\"base\": {\"allocated\": %zu, "
                 "\"recycled\": %zu, \"high_water\": %zu}, \"double\": "
                 "{\"allocated\": %zu, \"recycled\": %zu, \"high_water\": "
                 "%zu}, \"steady_state_zero_alloc\": %s},\n",
                 split_base.seg_allocated, split_base.seg_recycled,
                 split_base.seg_high_water, split_double.seg_allocated,
                 split_double.seg_recycled, split_double.seg_high_water,
                 pool_ok ? "true" : "false");
    std::fprintf(f, "  \"best_speedup_at_8_workers\": %.3f,\n",
                 best_speedup_at_8);
    std::fprintf(f, "  \"all_ok\": %s\n}\n", all_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s (best slice speedup at 8 workers: %.2fx)\n",
                json_path.c_str(), best_speedup_at_8);
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", json_path.c_str());
    all_ok = false;
  }
  return all_ok ? 0 : 1;
}

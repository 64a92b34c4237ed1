// Section 6.3 reproduction: bzip2 pipeline, hyperqueue vs the baseline task
// dataflow ("objects") implementation, plus the Section 5.4 loop-split
// ablation (queue growth under serial execution).
//
// The paper's claim: the hyperqueue version performs equivalently to the
// task-dataflow version once the loop-split idiom bounds queue growth.
// The host has far fewer cores than the paper's testbed, so the scaling
// comparison of the two models is a model prediction in virtual time; the
// real runs below measure times and the queue footprint at the host's core
// count. Every real run — the declared graph on each backend, the
// task-dataflow baseline and the split variant — must reproduce the serial
// elision's stream and decompress back to the input.
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/bzip2/bzip2.hpp"
#include "calibrate.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "sim/models.hpp"
#include "util/datagen.hpp"
#include "util/mbzip.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  hq::apps::bzip2::config cfg;
  cfg.input_bytes = 4u << 20;
  if (const char* env = std::getenv("HQ_BZIP_MB")) {
    cfg.input_bytes = static_cast<std::size_t>(std::atol(env)) << 20;
  }
  if (hq::bench::quick_mode(argc, argv)) cfg.input_bytes = 1u << 20;
  cfg.threads = std::max(1u, std::thread::hardware_concurrency());
  auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);

  hq::util::table table({"Variant", "Time (s)", "Peak queue segments",
                         "Output ok"});
  std::vector<std::uint8_t> reference;
  bool ok = true;
  // peak == 0 means the variant has no hyperqueues to measure.
  auto add = [&](const std::string& name, double seconds, std::size_t peak,
                 const std::vector<std::uint8_t>& output) {
    const bool good =
        output == reference &&
        hq::util::mbzip_decompress(output.data(), output.size()) == input;
    ok = ok && good;
    table.add_row({name, hq::util::table::cell(seconds, 3),
                   peak ? hq::util::table::cell(static_cast<std::uint64_t>(peak))
                        : "-",
                   good ? "yes" : "NO"});
  };
  std::vector<hq::pipe::backend> backends = {hq::pipe::backend::serial};
  for (const auto b : hq::pipe::parallel_backends()) backends.push_back(b);
  for (const auto b : backends) {
    hq::apps::bzip2::result r;
    hq::pipe::graph g;
    hq::apps::bzip2::describe_pipeline(cfg, input, &r, g);
    const auto ex =
        hq::pipe::execute(g, b, {.workers = cfg.threads, .seed = cfg.seed});
    if (b == hq::pipe::backend::serial) reference = r.output;
    add(hq::pipe::to_string(b), ex.seconds, ex.peak_segments, r.output);
  }
  const auto obj_r = hq::apps::bzip2::run_objects(cfg, input);
  add("objects", obj_r.seconds, 0, obj_r.output);
  const auto split_r = hq::apps::bzip2::run_hyperqueue_split(cfg, input);
  add("hyperqueue+split(5.4)", split_r.seconds, split_r.peak_segments,
      split_r.output);
  table.print("bzip2 (Section 6.3), " + std::to_string(cfg.input_bytes >> 20) +
              " MiB input, " + std::to_string(cfg.threads) + " worker(s)");

  // Virtual-time scaling: hyperqueue vs objects on the 3-stage pipeline
  // (both overlap the read stage; Section 6.3 reports equal performance).
  auto t = hq::apps::bzip2::stage_times(cfg, input);
  const double blocks =
      static_cast<double>((input.size() + cfg.block_bytes - 1) / cfg.block_bytes);
  hq::sim::flat_spec spec;
  spec.stages = {{true, t[0] / blocks}, {false, t[1] / blocks},
                 {true, t[2] / blocks}};
  spec.items = static_cast<std::size_t>(blocks) * 8;  // longer stream
  spec.seed = cfg.seed;
  auto ov = hq::bench::calibrate_overheads();
  const double serial_v = hq::sim::serial_time_flat(spec);
  hq::util::table sweep({"Cores", "Objects", "Hyperqueue"});
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 32u}) {
    auto m = hq::bench::paper_machine(p);
    sweep.add_row(
        {hq::util::table::cell(static_cast<std::uint64_t>(p)),
         hq::util::table::cell(
             serial_v / hq::sim::sim_flat_objects(spec, m, ov, true), 2),
         hq::util::table::cell(
             serial_v / hq::sim::sim_flat_hyperqueue(spec, m, ov), 2)});
  }
  sweep.print("bzip2 speedup, task dataflow vs hyperqueue (model predictions, "
              "virtual time)");
  return ok ? 0 : 1;
}

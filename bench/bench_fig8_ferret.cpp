// Figure 8 reproduction: ferret speedup vs cores for Pthreads, TBB,
// Objects (task dataflow) and Hyperqueue.
//
// Stage costs are measured on this host (serial kernels); the speedup
// curves are model predictions from the virtual-time scheduling models,
// because the paper's core counts exceed the host's (see README
// "Substitutions"). The FPU-pairing penalty of the paper's Bulldozer
// testbed is modeled past 16 cores. Expected shape: pthreads ≈ TBB ≈
// hyperqueue scaling to ~27x with a dip past 16 cores; objects plateaus
// near 13x (unoverlapped input stage).
//
// A real-execution validation block runs the declared graph on every
// backend, plus the task-dataflow baseline, at the host's core count and
// checks each checksum against the serial elision.
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/ferret/ferret.hpp"
#include "calibrate.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "sim/models.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const bool quick = hq::bench::quick_mode(argc, argv);
  hq::apps::ferret::config cfg;
  cfg.num_images = 300;
  if (const char* env = std::getenv("HQ_FERRET_IMAGES")) {
    cfg.num_images = static_cast<std::size_t>(std::atol(env));
  }
  if (quick) cfg.num_images = 60;

  // 1. Host-measured per-item stage costs.
  auto t = hq::apps::ferret::stage_times(cfg);
  const double n = static_cast<double>(cfg.num_images);
  hq::sim::flat_spec spec;
  spec.stages = {{true, t[0] / n},  {false, t[1] / n}, {false, t[2] / n},
                 {false, t[3] / n}, {false, t[4] / n}, {true, t[5] / n}};
  spec.items = quick ? 350 : 3500;  // paper 'native' iteration count
  spec.jitter = 0.15;
  spec.seed = cfg.seed;
  const double serial = hq::sim::serial_time_flat(spec);

  // 2. Host-calibrated runtime overheads.
  auto ov = hq::bench::calibrate_overheads();

  // 3. Sweep the paper's core counts.
  hq::util::table table(
      {"Cores", "Pthreads", "TBB", "Objects", "Hyperqueue"});
  for (unsigned p : {1u, 2u, 4u, 8u, 12u, 16u, 20u, 24u, 28u, 32u}) {
    auto m = hq::bench::paper_machine(p);
    const double sp_pth =
        serial / hq::sim::sim_flat_pthreads(spec, m, ov, /*threads=*/p);
    const double sp_tbb = serial / hq::sim::sim_flat_tbb(spec, m, ov, 4 * p);
    const double sp_obj =
        serial / hq::sim::sim_flat_objects(spec, m, ov, /*overlap=*/false);
    const double sp_hq = serial / hq::sim::sim_flat_hyperqueue(spec, m, ov);
    table.add_row({hq::util::table::cell(static_cast<std::uint64_t>(p)),
                   hq::util::table::cell(sp_pth, 2),
                   hq::util::table::cell(sp_tbb, 2),
                   hq::util::table::cell(sp_obj, 2),
                   hq::util::table::cell(sp_hq, 2)});
  }
  table.print("Figure 8: ferret speedup over serial (model predictions: "
              "virtual-time models, host-measured stage costs)");

  // 4. Real-execution validation on this host.
  hq::apps::ferret::config small = cfg;
  small.num_images = quick ? 24 : 96;
  small.threads = std::max(1u, std::thread::hardware_concurrency());
  const auto db = hq::apps::ferret::build_db(small);
  hq::util::table val({"Variant", "Time (s)", "Checksum matches serial"});
  std::uint64_t reference = 0;
  bool ok = true;
  auto add = [&](const std::string& name, double seconds, std::uint64_t checksum) {
    ok = ok && checksum == reference;
    val.add_row({name, hq::util::table::cell(seconds, 3),
                 checksum == reference ? "yes" : "NO"});
  };
  std::vector<hq::pipe::backend> backends = {hq::pipe::backend::serial};
  for (const auto b : hq::pipe::parallel_backends()) backends.push_back(b);
  for (const auto b : backends) {
    std::uint64_t checksum = 0;
    hq::pipe::graph g;
    hq::apps::ferret::describe_pipeline(small, db, &checksum, g);
    const auto ex =
        hq::pipe::execute(g, b, {.workers = small.threads, .seed = small.seed});
    if (b == hq::pipe::backend::serial) reference = checksum;
    add(hq::pipe::to_string(b), ex.seconds, checksum);
  }
  const auto obj_r = hq::apps::ferret::run_objects(small);
  add("objects", obj_r.seconds, obj_r.checksum);
  val.print("Real execution at " + std::to_string(small.threads) +
            " worker(s) on this host (validation)");
  return ok ? 0 : 1;
}

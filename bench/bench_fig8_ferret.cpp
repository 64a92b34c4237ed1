// Figure 8 reproduction: ferret speedup vs cores for Pthreads, TBB,
// Objects (task dataflow) and Hyperqueue, measured on this host.
//
// The paper's curves run to 32 cores; this bench measures every worker
// count the host has (P = 1..nproc, see README "Substitutions"). Each P runs
// interleaved rounds of the serial elision, the declared graph on every
// parallel backend and the task-dataflow baseline, and exits nonzero if any
// run's output checksum differs from the same round's elision.
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/ferret/ferret.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "speedup.hpp"

namespace {

using run = hq::bench::timed_run<std::uint64_t>;

run run_graph(const hq::apps::ferret::config& cfg,
              const hq::apps::ferret::feature_db& db, hq::pipe::backend b,
              unsigned workers) {
  std::uint64_t checksum = 0;
  hq::pipe::graph g;
  hq::apps::ferret::describe_pipeline(cfg, db, &checksum, g);
  const auto ex =
      hq::pipe::execute(g, b, {.workers = workers, .admission = {}});
  return {ex.seconds, checksum};
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = hq::bench::quick_mode(argc, argv);
  hq::apps::ferret::config cfg;
  cfg.num_images = 300;
  if (const char* env = std::getenv("HQ_FERRET_IMAGES")) {
    cfg.num_images = static_cast<std::size_t>(std::atol(env));
  }
  if (quick) cfg.num_images = 60;
  const auto db = hq::apps::ferret::build_db(cfg);

  std::vector<hq::bench::variant<std::uint64_t>> variants;
  for (const auto b : hq::pipe::parallel_backends()) {
    variants.push_back({hq::pipe::to_string(b), [&, b](unsigned workers) {
                          return run_graph(cfg, db, b, workers);
                        }});
  }
  variants.push_back({"objects", [&](unsigned workers) {
                        hq::apps::ferret::config c = cfg;
                        c.threads = workers;
                        const auto r = hq::apps::ferret::run_objects(c);
                        return run{r.seconds, r.checksum};
                      }});
  const bool ok = hq::bench::measure_speedups<std::uint64_t>(
      "Figure 8: ferret, " + std::to_string(cfg.num_images) + " images",
      quick ? 1 : 5,
      [&] { return run_graph(cfg, db, hq::pipe::backend::serial, 1); },
      variants);
  return ok ? 0 : 1;
}

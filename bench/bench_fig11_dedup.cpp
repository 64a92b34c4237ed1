// Figure 11 reproduction: dedup speedup vs cores for Pthreads, TBB,
// Objects and Hyperqueue, measured on this host.
//
// The paper's curves run to 32 cores; this bench measures every worker
// count the host has (P = 1..nproc, see README "Substitutions"). Each P runs
// interleaved rounds of the serial elision, the declared graph on every
// parallel backend and the task-dataflow baseline, and exits nonzero if any
// run's output stream differs from the same round's elision.
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/dedup/dedup.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "speedup.hpp"
#include "util/datagen.hpp"

namespace {

using bytes = std::vector<std::uint8_t>;
using run = hq::bench::timed_run<bytes>;

run run_graph(const hq::apps::dedup::config& cfg, const bytes& input,
              hq::pipe::backend b, unsigned workers) {
  hq::apps::dedup::result r;
  hq::apps::dedup::dedup_table table;
  hq::pipe::graph g;
  hq::apps::dedup::describe_pipeline(cfg, input, &table, &r, g);
  const auto ex =
      hq::pipe::execute(g, b, {.workers = workers});
  return {ex.seconds, std::move(r.output)};
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = hq::bench::quick_mode(argc, argv);
  hq::apps::dedup::config cfg;
  cfg.input_bytes = 8u << 20;
  if (const char* env = std::getenv("HQ_DEDUP_MB")) {
    cfg.input_bytes = static_cast<std::size_t>(std::atol(env)) << 20;
  }
  if (quick) cfg.input_bytes = 2u << 20;
  const auto input =
      hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);

  std::vector<hq::bench::variant<bytes>> variants;
  for (const auto b : hq::pipe::parallel_backends()) {
    variants.push_back({hq::pipe::to_string(b), [&, b](unsigned workers) {
                          return run_graph(cfg, input, b, workers);
                        }});
  }
  variants.push_back({"objects", [&](unsigned workers) {
                        hq::apps::dedup::config c = cfg;
                        c.threads = workers;
                        auto r = hq::apps::dedup::run_objects(c, input);
                        return run{r.seconds, std::move(r.output)};
                      }});
  const bool ok = hq::bench::measure_speedups<bytes>(
      "Figure 11: dedup, " + std::to_string(cfg.input_bytes >> 20) +
          " MiB input",
      quick ? 1 : 5,
      [&] { return run_graph(cfg, input, hq::pipe::backend::serial, 1); },
      variants);
  return ok ? 0 : 1;
}

// Section 6.3 reproduction: bzip2 pipeline, hyperqueue vs the baseline task
// dataflow ("objects") implementation, plus the Section 5.4 loop-split
// ablation (queue growth under serial execution), measured on this host.
//
// The paper's claim: the hyperqueue version performs equivalently to the
// task-dataflow version once the loop-split idiom bounds queue growth.
// Every worker count the host has (P = 1..nproc) runs interleaved rounds of
// the serial elision, the declared graph on every parallel backend, the
// task-dataflow baseline and the split variant. Every run must reproduce
// the same round's elision stream, and the elision's stream must decompress
// back to the input; otherwise the bench exits nonzero.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "apps/bzip2/bzip2.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "speedup.hpp"
#include "util/datagen.hpp"
#include "util/mbzip.hpp"
#include "util/table.hpp"

namespace {

using bytes = std::vector<std::uint8_t>;
using run = hq::bench::timed_run<bytes>;

}  // namespace

int main(int argc, char** argv) {
  const bool quick = hq::bench::quick_mode(argc, argv);
  hq::apps::bzip2::config cfg;
  cfg.input_bytes = 4u << 20;
  if (const char* env = std::getenv("HQ_BZIP_MB")) {
    cfg.input_bytes = static_cast<std::size_t>(std::atol(env)) << 20;
  }
  if (quick) cfg.input_bytes = 1u << 20;
  const auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);

  // Peak queue segments per hyperqueue variant, max over all its runs.
  std::map<std::string, std::size_t> peak;
  auto graph_run = [&](hq::pipe::backend b, unsigned workers) {
    hq::apps::bzip2::result r;
    hq::pipe::graph g;
    hq::apps::bzip2::describe_pipeline(cfg, input, &r, g);
    const auto ex =
        hq::pipe::execute(g, b, {.workers = workers});
    if (ex.peak_segments != 0) {
      auto& p = peak[hq::pipe::to_string(b)];
      p = std::max(p, ex.peak_segments);
    }
    return run{ex.seconds, std::move(r.output)};
  };

  std::vector<hq::bench::variant<bytes>> variants;
  for (const auto b : hq::pipe::parallel_backends()) {
    variants.push_back({hq::pipe::to_string(b), [&, b](unsigned workers) {
                          return graph_run(b, workers);
                        }});
  }
  variants.push_back({"objects", [&](unsigned workers) {
                        hq::apps::bzip2::config c = cfg;
                        c.threads = workers;
                        auto r = hq::apps::bzip2::run_objects(c, input);
                        return run{r.seconds, std::move(r.output)};
                      }});
  variants.push_back({"hyperqueue+split(5.4)", [&](unsigned workers) {
                        hq::apps::bzip2::config c = cfg;
                        c.threads = workers;
                        auto r =
                            hq::apps::bzip2::run_hyperqueue_split(c, input);
                        auto& p = peak["hyperqueue+split(5.4)"];
                        p = std::max(p, r.peak_segments);
                        return run{r.seconds, std::move(r.output)};
                      }});
  bool roundtrip = true;
  const bool ok = hq::bench::measure_speedups<bytes>(
      "bzip2 (Section 6.3), " + std::to_string(cfg.input_bytes >> 20) +
          " MiB input",
      quick ? 1 : 5,
      [&] {
        run r = graph_run(hq::pipe::backend::serial, 1);
        roundtrip = roundtrip && hq::util::mbzip_decompress(
                                     r.output.data(), r.output.size()) == input;
        return r;
      },
      variants);
  if (!roundtrip) {
    std::fprintf(stderr, "MISMATCH: the serial elision's stream does not "
                         "decompress to the input\n");
  }

  hq::util::table seg({"Variant", "Peak queue segments"});
  for (const auto& [name, p] : peak) {
    seg.add_row({name, hq::util::table::cell(static_cast<std::uint64_t>(p))});
  }
  seg.print("bzip2 queue footprint, max over all runs above");
  return ok && roundtrip ? 0 : 1;
}

// Deduplicating compression of a synthetic archive using the dedup pipeline
// (the paper's Figure 9 stages) on the hyperqueue backend, verified against
// the serial elision's stream and by reassembly. Shows the public app API
// end to end.
//
//   $ ./examples/dedup_archive [workers] [megabytes]
#include <cstdio>
#include <cstdlib>

#include "apps/dedup/dedup.hpp"
#include "pipeline/runner.hpp"
#include "util/datagen.hpp"

int main(int argc, char** argv) {
  hq::apps::dedup::config cfg;
  cfg.threads = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  cfg.input_bytes =
      (argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 4) << 20;

  auto input =
      hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto run = [&](hq::pipe::backend b, unsigned w) {
    hq::apps::dedup::result r;
    hq::apps::dedup::dedup_table table;
    hq::pipe::graph g;
    hq::apps::dedup::describe_pipeline(cfg, input, &table, &r, g);
    r.seconds = hq::pipe::execute(g, b, {.workers = w, .seed = cfg.seed}).seconds;
    r.unique_chunks = table.unique_chunks();
    return r;
  };
  const auto r = run(hq::pipe::backend::hyperqueue, cfg.threads);

  std::printf("input      : %zu bytes\n", input.size());
  std::printf("output     : %zu bytes (%.1f%%)\n", r.output.size(),
              100.0 * static_cast<double>(r.output.size()) /
                  static_cast<double>(input.size()));
  std::printf("chunks     : %zu total, %zu unique (%.1f%% duplicates)\n",
              r.total_chunks, r.unique_chunks,
              100.0 * static_cast<double>(r.total_chunks - r.unique_chunks) /
                  static_cast<double>(r.total_chunks));
  std::printf("time       : %.3f s (%u workers)\n", r.seconds, cfg.threads);

  const bool same = r.output == run(hq::pipe::backend::serial, 1).output;
  auto back = hq::apps::dedup::reassemble(r.output.data(), r.output.size());
  const bool ok = same && back == input;
  std::printf("verification: %s, %s\n",
              same ? "stream identical to serial elision" : "stream DIFFERS",
              back == input ? "reassembled stream matches input" : "MISMATCH");
  return ok ? 0 : 1;
}

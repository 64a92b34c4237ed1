// Content-based image similarity search: the ferret pipeline over a
// synthetic image corpus, run on the hyperqueue backend and compared with
// its serial elision. Demonstrates scale-freedom: the same program runs
// unchanged at any worker count.
//
//   $ ./examples/image_search [workers] [images]
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "apps/ferret/ferret.hpp"
#include "pipeline/runner.hpp"

int main(int argc, char** argv) {
  hq::apps::ferret::config cfg;
  cfg.threads = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  cfg.num_images = argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 128;

  const auto db = hq::apps::ferret::build_db(cfg);
  auto run = [&](hq::pipe::backend b, unsigned w) {
    std::uint64_t checksum = 0;
    hq::pipe::graph g;
    hq::apps::ferret::describe_pipeline(cfg, db, &checksum, g);
    const auto ex = hq::pipe::execute(g, b, {.workers = w, .seed = cfg.seed});
    return std::pair{ex.seconds, checksum};
  };
  const auto serial = run(hq::pipe::backend::serial, 1);
  const auto parallel = run(hq::pipe::backend::hyperqueue, cfg.threads);

  std::printf("ranked %zu query images against %zu database entries\n",
              cfg.num_images, cfg.db_entries);
  std::printf("serial     : %.3f s, checksum %016llx\n", serial.first,
              static_cast<unsigned long long>(serial.second));
  std::printf("hyperqueue : %.3f s (%u workers), checksum %016llx\n",
              parallel.first, cfg.threads,
              static_cast<unsigned long long>(parallel.second));
  const bool ok = serial.second == parallel.second;
  std::printf("determinism: results %s\n",
              ok ? "identical to serial elision" : "DIFFER (bug!)");
  return ok ? 0 : 1;
}

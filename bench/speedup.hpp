// Measured speedup tables for the figure benches (Figures 8/11, bzip2).
//
// For every worker count P in 1..nproc (never more workers than cores, so
// no point is oversubscribed) it runs `rounds` interleaved rounds: the
// serial elision, then each variant at P workers. A variant's speedup in a
// round is the elision's seconds over its own in that same round, so slow
// drift of the host hits both sides of the ratio. The table prints the
// median and [q1, q3] of each variant's speedups per P. Every variant's
// output is compared with the same round's elision output.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "util/table.hpp"

namespace hq::bench {

/// One timed run: wall seconds and the output compared with the elision's.
template <typename Out>
struct timed_run {
  double seconds = 0;
  Out output{};
};

/// A variant measured against the elision; `run(P)` executes it once at P
/// workers.
template <typename Out>
struct variant {
  std::string name;
  std::function<timed_run<Out>(unsigned workers)> run;
};

/// CPUs this process may run on (what `nproc` prints), at least 1.
inline unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// Prints the speedup table titled `title` (the caller names the app and
/// its input size) and returns false if any run's output differed from the
/// elision's.
template <typename Out>
bool measure_speedups(const std::string& title, int rounds,
                      const std::function<timed_run<Out>()>& elision,
                      const std::vector<variant<Out>>& variants) {
  const unsigned nproc = affinity_cpus();
  std::vector<std::string> headers = {"P", "Elision (s)"};
  for (const auto& v : variants) headers.push_back(v.name);
  util::table table(std::move(headers));
  bool ok = true;
  for (unsigned p = 1; p <= nproc; ++p) {
    std::vector<double> base;
    std::vector<std::vector<double>> speedups(variants.size());
    for (int r = 0; r < rounds; ++r) {
      const timed_run<Out> ref = elision();
      base.push_back(ref.seconds);
      for (std::size_t i = 0; i < variants.size(); ++i) {
        const timed_run<Out> run = variants[i].run(p);
        speedups[i].push_back(ref.seconds / run.seconds);
        if (run.output != ref.output) {
          ok = false;
          std::fprintf(stderr,
                       "MISMATCH: %s at P=%u, round %d: output differs from "
                       "the serial elision\n",
                       variants[i].name.c_str(), p, r + 1);
        }
      }
    }
    std::vector<std::string> row = {
        util::table::cell(static_cast<std::uint64_t>(p)),
        util::table::cell(util::summarize(base).median, 3)};
    for (const auto& xs : speedups) {
      const util::summary s = util::summarize(xs);
      row.push_back(util::table::cell(s.median, 2) + " [" +
                    util::table::cell(s.q1, 2) + ", " +
                    util::table::cell(s.q3, 2) + "]");
    }
    table.add_row(std::move(row));
  }
  table.print(title +
              ": measured speedup over the serial elision, median [q1, q3] "
              "of " + std::to_string(rounds) +
              " interleaved round(s), nproc=" + std::to_string(nproc) +
              ", workers P=1.." + std::to_string(nproc));
  return ok;
}

}  // namespace hq::bench

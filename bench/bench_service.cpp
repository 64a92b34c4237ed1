// SLO service benchmark: wall-clock tail latency vs offered load through the
// hyperqueue runtime's own admission control.
//
// A seeded open-loop request stream (Poisson arrivals, lognormal service
// demands) runs through a three-stage pipeline on the hyperqueue backend:
//
//   arrivals — spins until each request is due, then emits it;
//   serve    — parallel: spins for the request's demand;
//   retire   — serial_in_order: records the time since the request was due.
//
// The policy, window and max_wait travel in exec_options::admission, so what
// is shed, and how long the source blocks, is the runtime's decision. The
// spinning source holds one of the nproc (at least 2) workers, so capacity is
// servers = workers - 1 and each offered load is a fraction of
// servers / service mean. When the serve stage falls behind, the source
// serves too: its emitter runs a request it claims back inline (bounded
// run-ahead, pipeline/builder.hpp). Under none and block that only makes the
// source late, so their backlog is the source's lateness; shed and
// bounded_wait drop offers while the source is late from such a run.
//
// The process exits nonzero unless every run ends ok, the sink sees strictly
// increasing request ids, admitted + shed equals the requests offered and the
// sink retires exactly the admitted, none and block shed nothing and retire
// the full stream's checksum, and at 2.0x load shed sheds something and keeps
// p99 below none's. Absolute latencies are reported, not gated: a shared
// host's tails are noise-bound.
//
// Knobs: --quick (smoke sizes), --json PATH.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/latency.hpp"
#include "pipeline/runner.hpp"
#include "quick.hpp"
#include "speedup.hpp"
#include "util/rng.hpp"

namespace {

using hq::pipe::admission_policy;

struct policy_def {
  admission_policy policy;
  const char* name;
};

constexpr policy_def kPolicies[] = {
    {admission_policy::none, "none"},
    {admission_policy::block, "block"},
    {admission_policy::shed, "shed"},
    {admission_policy::bounded_wait, "bounded_wait"},
};

constexpr double kLoads[] = {0.5, 0.9, 1.5, 2.0};

constexpr double kServiceMeanNs = 1.0e6;
constexpr double kServiceSigma = 0.5;
constexpr std::size_t kWindow = 64;
constexpr std::uint64_t kMaxWaitNs = 2'000'000;
constexpr std::uint64_t kSeed = 42;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void spin_until(std::int64_t t) {
  while (now_ns() < t) {
  }
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-sensitive digest of the replies the sink retires.
std::uint64_t fold(std::uint64_t sum, std::uint64_t reply) noexcept {
  return mix64(sum + reply);
}

struct request {
  std::uint64_t id = 0;
  std::int64_t due_ns = 0;  ///< absolute steady-clock due time
  std::int64_t demand_ns = 0;
  std::uint64_t reply = 0;
};

/// Seeded stream: unit-rate exponential gaps (scaled per load) and lognormal
/// demands with mean kServiceMeanNs (mu = ln(mean) - sigma^2/2). The demands
/// are the same at every load.
struct workload {
  std::vector<double> gaps;
  std::vector<std::int64_t> demand_ns;
};

workload generate(std::size_t n) {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double mu =
      std::log(kServiceMeanNs) - 0.5 * kServiceSigma * kServiceSigma;
  hq::util::xoshiro256 rng(kSeed);
  workload w;
  for (std::size_t i = 0; i < n; ++i) {
    // uniform() < 1, so both logs stay finite.
    w.gaps.push_back(-std::log1p(-rng.uniform()));
    const double u1 = rng.uniform();
    const double u2 = rng.uniform();
    const double z = std::sqrt(-2.0 * std::log1p(-u1)) * std::cos(kTwoPi * u2);
    w.demand_ns.push_back(
        static_cast<std::int64_t>(std::exp(mu + kServiceSigma * z)));
  }
  return w;
}

struct point {
  double load = 0;
  const policy_def* policy = nullptr;
  bool ok = false;
  bool ordered = true;
  hq::stats::latency_histogram latency;  ///< ns since due, retired requests
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t retired = 0;
  std::uint64_t checksum = 0;
  double source_late_ms = 0;  ///< how far behind schedule the source ended
  double wait_ms = 0;         ///< time the source spent blocked on the window
  double seconds = 0;
};

point run_point(const workload& w, double load, const policy_def& pd,
                unsigned workers) {
  namespace pipe = hq::pipe;
  const std::size_t n = w.gaps.size();
  const double ns_per_gap = kServiceMeanNs / (load * (workers - 1));
  point pt;
  pt.load = load;
  pt.policy = &pd;
  std::int64_t last_due = 0;
  std::int64_t source_end = 0;
  std::uint64_t last_id = 0;

  pipe::graph g;
  auto src = g.source<request>("arrivals", [&](pipe::emit<request> out) {
    const std::int64_t start = now_ns();
    double t = 0;
    for (std::size_t i = 0; i < n; ++i) {
      t += w.gaps[i] * ns_per_gap;
      last_due = start + static_cast<std::int64_t>(t);
      spin_until(last_due);
      out(request{i, last_due, w.demand_ns[i], 0});
    }
    source_end = now_ns();
  });
  auto serve = g.stage<request, request>(
      "serve", pipe::stage_kind::parallel,
      [](request&& r, pipe::emit<request> out) {
        spin_until(now_ns() + r.demand_ns);
        r.reply = mix64(r.id);
        out(std::move(r));
      });
  auto retire = g.sink<request>(
      "retire", pipe::stage_kind::serial_in_order, [&](request&& r) {
        pt.latency.record(static_cast<std::uint64_t>(now_ns() - r.due_ns));
        if (pt.retired > 0 && r.id <= last_id) pt.ordered = false;
        last_id = r.id;
        ++pt.retired;
        pt.checksum = fold(pt.checksum, r.reply);
      });
  // One request per slice: the emitter never holds a due request back
  // waiting for a batch to fill.
  pipe::edge_opts edge;
  edge.slice_batch = 1;
  g.connect(src, serve, edge);
  g.connect(serve, retire, edge);

  pipe::exec_options opt;
  opt.workers = workers;
  opt.admission = {pd.policy, kWindow, kMaxWaitNs};
  try {
    const pipe::exec_result ex =
        pipe::execute(g, pipe::backend::hyperqueue, opt);
    pt.ok = ex.outcome == pipe::run_outcome::ok;
    // The runtime counts nothing under `none`: every emission is admitted.
    pt.admitted = pd.policy == admission_policy::none ? n : ex.admitted;
    pt.shed = ex.shed;
    pt.wait_ms = static_cast<double>(ex.admission_wait_ns) / 1e6;
    pt.seconds = ex.seconds;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s at %.1fx: %s\n", pd.name, load, e.what());
  }
  pt.source_late_ms = static_cast<double>(source_end - last_due) / 1e6;
  return pt;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The promises a run can break; prints each broken one.
bool check(const point& pt, std::size_t offered, std::uint64_t full_checksum) {
  bool ok = true;
  auto fail = [&](const char* what) {
    std::printf("FAIL %s at %.1fx: %s\n", pt.policy->name, pt.load, what);
    ok = false;
  };
  if (!pt.ok) fail("run did not end ok");
  if (!pt.ordered) fail("sink saw request ids out of order");
  if (pt.admitted + pt.shed != offered) fail("admitted + shed != offered");
  if (pt.retired != pt.admitted) fail("sink count != admitted");
  const admission_policy p = pt.policy->policy;
  if (p == admission_policy::none || p == admission_policy::block) {
    if (pt.shed != 0) fail("lossless policy shed requests");
    if (pt.checksum != full_checksum) fail("sink checksum != full stream's");
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = hq::bench::quick_mode(argc, argv);
  std::string json_path = "BENCH_service.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  const std::size_t requests = quick ? 400 : 1000;
  const unsigned workers = std::max(2u, hq::bench::affinity_cpus());
  const workload w = generate(requests);
  std::uint64_t full_checksum = 0;
  for (std::uint64_t id = 0; id < requests; ++id)
    full_checksum = fold(full_checksum, mix64(id));

  std::printf(
      "workers %u, servers %u, %zu requests, service mean %.1f ms "
      "(lognormal sigma %.1f), window %zu, max_wait %.1f ms, seed %llu\n\n",
      workers, workers - 1, requests, kServiceMeanNs / 1e6, kServiceSigma,
      kWindow, ms(kMaxWaitNs), static_cast<unsigned long long>(kSeed));
  std::printf("%-5s %-13s %9s %9s %9s %9s %8s %6s %9s %9s\n", "load", "policy",
              "p50_ms", "p99_ms", "p999_ms", "max_ms", "admitted", "shed",
              "late_ms", "wait_ms");
  std::vector<point> points;
  bool all_ok = true;
  for (double load : kLoads) {
    for (const policy_def& pd : kPolicies) {
      point pt = run_point(w, load, pd, workers);
      std::printf("%-5.1f %-13s %9.2f %9.2f %9.2f %9.2f %8llu %6llu %9.2f %9.2f\n",
                  load, pd.name, ms(pt.latency.p50()), ms(pt.latency.p99()),
                  ms(pt.latency.p999()), ms(pt.latency.max()),
                  static_cast<unsigned long long>(pt.admitted),
                  static_cast<unsigned long long>(pt.shed), pt.source_late_ms,
                  pt.wait_ms);
      all_ok = check(pt, requests, full_checksum) && all_ok;
      points.push_back(std::move(pt));
    }
  }

  // The SLO claim: at 2x offered load, shedding bounds the admitted tail
  // while the unadmitted policy's backlog keeps growing.
  const point* none_2x = nullptr;
  const point* shed_2x = nullptr;
  for (const point& pt : points) {
    if (pt.load != 2.0) continue;
    if (pt.policy->policy == admission_policy::none) none_2x = &pt;
    if (pt.policy->policy == admission_policy::shed) shed_2x = &pt;
  }
  const bool slo_ok = shed_2x->shed > 0 &&
                      shed_2x->latency.p99() < none_2x->latency.p99();
  std::printf("\nSLO at 2.0x load: shed p99 %.2f ms (%llu shed), none p99 "
              "%.2f ms: %s\n",
              ms(shed_2x->latency.p99()),
              static_cast<unsigned long long>(shed_2x->shed),
              ms(none_2x->latency.p99()), slo_ok ? "ok" : "FAIL");
  all_ok = all_ok && slo_ok;

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"service\",\n  \"quick\": %s,\n"
                 "  \"workers\": %u,\n  \"servers\": %u,\n"
                 "  \"requests\": %zu,\n  \"service_mean_ns\": %.0f,\n"
                 "  \"window\": %zu,\n  \"max_wait_ns\": %llu,\n"
                 "  \"points\": [\n",
                 quick ? "true" : "false", workers, workers - 1, requests,
                 kServiceMeanNs, kWindow,
                 static_cast<unsigned long long>(kMaxWaitNs));
    for (std::size_t i = 0; i < points.size(); ++i) {
      const point& pt = points[i];
      std::fprintf(
          f,
          "    {\"load\": %.1f, \"policy\": \"%s\", \"p50_ns\": %llu, "
          "\"p99_ns\": %llu, \"p999_ns\": %llu, \"max_ns\": %llu, "
          "\"admitted\": %llu, \"shed\": %llu, \"source_late_ms\": %.3f, "
          "\"admission_wait_ms\": %.3f, \"seconds\": %.6f}%s\n",
          pt.load, pt.policy->name,
          static_cast<unsigned long long>(pt.latency.p50()),
          static_cast<unsigned long long>(pt.latency.p99()),
          static_cast<unsigned long long>(pt.latency.p999()),
          static_cast<unsigned long long>(pt.latency.max()),
          static_cast<unsigned long long>(pt.admitted),
          static_cast<unsigned long long>(pt.shed), pt.source_late_ms,
          pt.wait_ms, pt.seconds, i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"all_ok\": %s\n}\n", all_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s, all_ok=%s\n", json_path.c_str(),
                all_ok ? "true" : "false");
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", json_path.c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}

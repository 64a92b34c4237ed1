// SLO service benchmark: tail latency vs offered load through the real
// hyperqueue pipeline under per-queue memory budgets and admission control
// (sim/service.hpp). Sweeps offered load x admission policy, runs every
// point at two worker counts, and emits a BENCH_service.json trajectory
// record (override with --json PATH).
//
// The process exits nonzero — which is what CI keys on — unless:
//   * every point's percentile curve (p50/p99/p99.9), admitted/shed split,
//     and transport checksum are identical across worker counts (the
//     determinism gate of the virtual-time model);
//   * at 2x offered load the shed policy keeps admitted-request p99 below
//     the no-admission p99 AND below an absolute SLO bound, with the
//     in-system population capped at the window;
//   * the real transport respects its per-queue byte budget whenever the
//     run completed without a counted escape (pool.budget_overruns == 0).
//
// Knobs: --quick (smoke sizes), --json PATH.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/service.hpp"

namespace {

using hq::pipe::admission_policy;
using hq::sim::service_result;
using hq::sim::service_spec;

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

struct point_record {
  double load = 0;
  std::string policy;
  service_result res;        // from the first worker count
  double seconds_alt = 0;    // wall time at the second worker count
  bool deterministic = false;
  bool budget_ok = false;
};

bool same_curves(const service_result& a, const service_result& b) {
  return a.latency == b.latency && a.admitted == b.admitted &&
         a.shed == b.shed && a.checksum == b.checksum &&
         a.peak_in_system == b.peak_in_system;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[i + 1];
  }

  service_spec base;
  base.requests = quick ? 4000 : 50000;
  base.servers = 4;
  base.service_mean = 1.0e-3;
  base.service_sigma = 0.5;
  base.seed = 42;
  base.window = 256;
  base.max_wait = 10.0e-3;
  // Smaller than the structural per-shard exemption: with one request per
  // slice the sink's queue sees hundreds of live producer shards, so the
  // peak (about 240 KB at --quick) exceeds this cap, budget_ok holds only
  // through the exemption (pool_exempt_peak_bytes in the JSON), and the
  // transport does not throttle (throttle_waits = 0).
  base.memory_budget = 64 * 1024;
  const unsigned w_lo = 1;
  const unsigned w_hi = quick ? 2 : 4;

  // With in-system capped at `window`, an admitted request waits behind at
  // most window predecessors on `servers` servers; the factor-4 headroom
  // covers the lognormal service tail.
  const double slo_bound_ns =
      4.0 * (static_cast<double>(base.window) / base.servers + 1.0) *
      base.service_mean * 1e9;

  std::vector<point_record> points;
  bool all_ok = true;

  std::printf("%-6s %-13s %10s %10s %10s %9s %9s %6s %5s\n", "load", "policy",
              "p50_us", "p99_us", "p999_us", "admitted", "shed", "det",
              "inmax");
  for (double load : kLoads) {
    for (const policy_def& pd : kPolicies) {
      service_spec spec = base;
      spec.offered_load = load;
      spec.policy = pd.policy;

      spec.workers = w_lo;
      service_result lo = hq::sim::run_service(spec);
      spec.workers = w_hi;
      service_result hi = hq::sim::run_service(spec);

      point_record pt;
      pt.load = load;
      pt.policy = pd.name;
      pt.deterministic = same_curves(lo, hi);
      // Only the escape-free runs promise a hard cap; a counted overrun
      // (single-worker schedules that cannot interleave the consumer)
      // reports itself instead of deadlocking. exec.pool covers the one
      // budgeted queue, in front of the sink, and reports the exact
      // structural slack for the run's shard high-water mark.
      auto capped = [&](const hq::seg_pool_stats& pool) {
        return spec.memory_budget == 0 || pool.budget_overruns != 0 ||
               pool.peak_bytes <= pool.budget_bytes + pool.exempt_peak_bytes;
      };
      pt.budget_ok = capped(lo.exec.pool) && capped(hi.exec.pool);
      pt.seconds_alt = hi.exec.seconds;
      pt.res = lo;
      all_ok = all_ok && pt.deterministic && pt.budget_ok;

      std::printf("%-6.2f %-13s %10.1f %10.1f %10.1f %9llu %9llu %6s %5zu\n",
                  load, pd.name, pt.res.latency.p50() / 1e3,
                  pt.res.latency.p99() / 1e3, pt.res.latency.p999() / 1e3,
                  static_cast<unsigned long long>(pt.res.admitted),
                  static_cast<unsigned long long>(pt.res.shed),
                  pt.deterministic ? "ok" : "FAIL", pt.res.peak_in_system);
      points.push_back(std::move(pt));
    }
  }

  // The SLO claim: at 2x offered load, shedding keeps the admitted tail
  // bounded while the unadmitted policy's tail diverges.
  const point_record* none_2x = nullptr;
  const point_record* shed_2x = nullptr;
  for (const auto& pt : points) {
    if (pt.load == 2.0 && pt.policy == "none") none_2x = &pt;
    if (pt.load == 2.0 && pt.policy == "shed") shed_2x = &pt;
  }
  bool slo_ok = none_2x != nullptr && shed_2x != nullptr;
  if (slo_ok) {
    const double shed_p99 = static_cast<double>(shed_2x->res.latency.p99());
    slo_ok = shed_p99 <= slo_bound_ns &&
             shed_p99 < static_cast<double>(none_2x->res.latency.p99()) &&
             shed_2x->res.peak_in_system <= base.window;
    std::printf(
        "\nSLO at 2.0x load: shed p99 %.1f us (bound %.1f us), none p99 "
        "%.1f us, shed in-system max %zu (window %zu): %s\n",
        shed_p99 / 1e3, slo_bound_ns / 1e3,
        none_2x->res.latency.p99() / 1e3, shed_2x->res.peak_in_system,
        base.window, slo_ok ? "ok" : "FAIL");
  }
  all_ok = all_ok && slo_ok;

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"service\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f,
                 "  \"requests\": %zu,\n  \"servers\": %u,\n"
                 "  \"service_mean_s\": %g,\n  \"window\": %zu,\n"
                 "  \"memory_budget\": %llu,\n  \"workers\": [%u, %u],\n",
                 base.requests, base.servers, base.service_mean, base.window,
                 static_cast<unsigned long long>(base.memory_budget), w_lo,
                 w_hi);
    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const point_record& pt = points[i];
      const auto& pool = pt.res.exec.pool;
      std::fprintf(
          f,
          "    {\"load\": %.2f, \"policy\": \"%s\", \"p50_ns\": %llu, "
          "\"p99_ns\": %llu, \"p999_ns\": %llu, \"admitted\": %llu, "
          "\"shed\": %llu, \"peak_in_system\": %zu, "
          "\"deterministic\": %s, \"budget_ok\": %s, "
          "\"pool_peak_bytes\": %llu, \"pool_budget_bytes\": %llu, "
          "\"pool_exempt_peak_bytes\": %llu, \"pool_shards_peak\": %llu, "
          "\"throttle_waits\": %llu, \"budget_overruns\": %llu, "
          "\"seconds\": %.6f, \"seconds_alt\": %.6f}%s\n",
          pt.load, pt.policy.c_str(),
          static_cast<unsigned long long>(pt.res.latency.p50()),
          static_cast<unsigned long long>(pt.res.latency.p99()),
          static_cast<unsigned long long>(pt.res.latency.p999()),
          static_cast<unsigned long long>(pt.res.admitted),
          static_cast<unsigned long long>(pt.res.shed), pt.res.peak_in_system,
          pt.deterministic ? "true" : "false",
          pt.budget_ok ? "true" : "false",
          static_cast<unsigned long long>(pool.peak_bytes),
          static_cast<unsigned long long>(pool.budget_bytes),
          static_cast<unsigned long long>(pool.exempt_peak_bytes),
          static_cast<unsigned long long>(pool.shards_peak),
          static_cast<unsigned long long>(pool.throttle_waits),
          static_cast<unsigned long long>(pool.budget_overruns),
          pt.res.exec.seconds, pt.seconds_alt,
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"all_ok\": %s\n}\n", all_ok ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s (%zu points), all_ok=%s\n", json_path.c_str(),
                points.size(), all_ok ? "true" : "false");
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", json_path.c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}

// bench_e2e — end-to-end and per-layer numbers for the hyperqueue runtime on
// four workloads: ferret-search, dedup-fine, bzip2-blocks, stream-query
// (workloads.hpp; README.md says why each was chosen).
//
//   bench_e2e [--workload W]... [--seed N] [--seconds S] [--quick]
//             [--json PATH] [--trace DIR]
//
// Every workload runs in a child process (/proc/self/exe --child W), which
// isolates heap state; peak memory comes from further fresh children that
// each run the workload once on an input drawn from the seed. Inside a child
// each pipe::execute call is timed from outside with steady_clock, so
// scheduler start-up and teardown count on every backend.
// Workers = the CPUs in the process affinity mask; a run with more workers
// is refused. The serial elision is the single-threaded baseline, and every
// run's output is checked against its memoized digest. Timings are medians
// with quartiles over interleaved runs, never best-of-N.
//
// Without --trace the children print the end-to-end metrics. --trace DIR is
// a separate run that prints the per-layer metrics instead and writes one
// Chrome trace per workload to DIR/<workload>.trace.json. --quick uses tiny
// inputs and one round (the ctest smoke entry); its numbers are marked
// non-comparable. The process exits nonzero on any correctness failure.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "probe.hpp"
#include "workloads.hpp"

#ifndef HQ_E2E_BUILD_TYPE
#define HQ_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hq;
using namespace hq::e2e;
using pipe::backend;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
/// Open-loop p99 limit the stream-query latency is reported against.
constexpr double kLatencyLimitUs = 2000;
/// Traced twin slower than the untraced graph by more than this: warn.
constexpr double kTraceOverheadWarn = 1.10;

struct options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  double seconds = -1;  ///< measured phase per workload; -1 = default
  bool quick = false;
  std::string json_path;
  std::string trace_dir;
  std::string child;  ///< internal: measure this one workload in-process
  bool probe_rss = false;  ///< internal, with child: one peak-memory probe
};

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

// ---- statistics ------------------------------------------------------------

struct spread {
  double q1 = kNaN;
  double median = kNaN;
  double q3 = kNaN;
  std::size_t n = 0;
};

/// Median and quartiles, the quartiles as Python's
/// statistics.quantiles(v, n=4) gives them (the "exclusive" method).
spread quartiles(std::vector<double> v) {
  spread s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) return s;
  auto cut = [&](std::size_t i) {
    const std::size_t m = (n + 1) * i;
    const std::size_t j = std::clamp<std::size_t>(m / 4, 1, n - 1);
    const double delta = static_cast<double>(m) / 4 - static_cast<double>(j);
    return v[j - 1] + (v[j] - v[j - 1]) * std::clamp(delta, 0.0, 1.0);
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

double median(std::vector<double> v) { return quartiles(std::move(v)).median; }

/// Nearest-rank percentile of one run's samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return kNaN;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

// ---- child -> parent protocol ------------------------------------------------
// The child prints one fact per line on stdout; progress and warnings go to
// stderr. M = end-to-end metric, L = layer metric, C = run condition (value
// already JSON), S = status.

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void put_metric(const char* name, const char* unit, double value,
                const spread& s) {
  std::printf("M %s %s %s %s %s %zu\n", name, unit, json_number(value).c_str(),
              json_number(s.q1).c_str(), json_number(s.q3).c_str(), s.n);
}

void put_layer(const std::string& name, double value) {
  std::printf("L %s %s\n", name.c_str(), json_number(value).c_str());
}

void put_cond(const char* key, const std::string& json) {
  std::printf("C %s %s\n", key, json.c_str());
}

// ---- one measured run ------------------------------------------------------

struct run_result {
  bool ok = false;
  double wall = 0;          ///< outer execute time, seconds
  std::int64_t start = 0;   ///< steady-clock ns at execute entry
  pipe::exec_result ex;
};

/// Runs one workload's graphs, checks every output against the memoized
/// serial-elision digest and counts attempts and failures.
class workload_runner {
 public:
  workload_runner(workload& w, unsigned nproc) : w_(w), nproc_(nproc) {}

  /// Serial elision of the real graph, unpaced: the digest every later run
  /// must reproduce.
  bool make_reference() {
    const run_result r = run(variant::real, backend::serial, 1);
    reference_ = w_.digest();
    return r.ok;
  }
  [[nodiscard]] const std::string& reference() const { return reference_; }

  run_result run(variant v, backend b, unsigned workers, bool paced = false,
                 tracer* tr = nullptr, bool stamps = false) {
    if (workers > nproc_)
      throw std::invalid_argument("refused: " + std::to_string(workers) +
                                  " workers on " + std::to_string(nproc_) +
                                  " CPUs would be oversubscribed");
    pr.tr = tr;
    pr.stamps = stamps;
    pr.arm(w_.emitted(), w_.retired());
    if (tr != nullptr) tr->reset();
    pipe::graph g;
    w_.describe(v, g, pr, paced);
    pipe::exec_options opt;
    opt.workers = workers;
    run_result r;
    r.start = now_ns();
    try {
      r.ex = pipe::execute(g, b, opt);
      r.wall = static_cast<double>(now_ns() - r.start) * 1e-9;
      r.ok = r.ex.outcome == pipe::run_outcome::ok && output_ok(v);
      if (!r.ok)
        std::fprintf(stderr, "%s: %s run on %s@%u: wrong output\n", w_.name(),
                     variant_name(v), pipe::to_string(b), workers);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s run on %s@%u failed: %s\n", w_.name(),
                   variant_name(v), pipe::to_string(b), workers, e.what());
    }
    if (paced) {
      // Open loop: every request of the run is an attempt, and a lost or
      // misordered one a failure.
      attempted += w_.emitted();
      const std::size_t lost =
          w_.retired() > pr.retired ? w_.retired() - pr.retired : 0;
      if (!r.ok) failed += std::max<std::size_t>(1, lost + w_.misordered());
    } else if (v != variant::empty || !r.ok) {
      // Zero-token set-up probes check nothing but that they ran; they
      // count as attempts only when they fail.
      ++attempted;
      if (!r.ok) ++failed;
    }
    return r;
  }

  probe pr;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  static const char* variant_name(variant v) {
    switch (v) {
      case variant::real: return "real";
      case variant::twin: return "twin";
      case variant::hollow: return "hollow";
      case variant::empty: return "empty";
    }
    return "?";
  }

  bool output_ok(variant v) const {
    const bool counts =
        pr.emitted == w_.emitted() && pr.retired == w_.retired();
    switch (v) {
      case variant::empty:
        return true;
      case variant::hollow:
        return counts;
      case variant::twin:
        if (!counts) return false;
        [[fallthrough]];
      case variant::real:
        return reference_.empty() ||
               (w_.digest() == reference_ && w_.misordered() == 0);
    }
    return false;
  }

  workload& w_;
  unsigned nproc_;
  std::string reference_;
};

/// Repeat `round` until the measured phase has taken about `seconds` (it
/// stops when the next round would end more than half a round late), and at
/// least `min_rounds` times.
template <typename F>
double run_rounds(double seconds, int min_rounds, F&& round) {
  const std::int64_t t0 = now_ns();
  for (int n = 1;; ++n) {
    const std::int64_t r0 = now_ns();
    round();
    const double last = static_cast<double>(now_ns() - r0) * 1e-9;
    const double used = static_cast<double>(now_ns() - t0) * 1e-9;
    if (n >= min_rounds && used + last / 2 > seconds) return used;
  }
}

/// Microseconds from each token's due time to its stamp (emission or
/// retirement, by ordinal). A request is due at its scheduled time (open
/// loop); a batch item at the start of the run, when every input is there.
std::vector<double> since_due_us(const workload& w,
                                 const std::vector<std::int64_t>& stamps,
                                 const run_result& r) {
  std::vector<double> us(stamps.size());
  const auto& due = w.due_ns();
  for (std::size_t k = 0; k < us.size(); ++k) {
    const std::int64_t due_at =
        w.open_loop() ? w.gen_start_ns() + due[k] : r.start;
    us[k] = static_cast<double>(stamps[k] - due_at) * 1e-3;
  }
  return us;
}

// ---- end-to-end measurement ------------------------------------------------

struct timing_set {
  std::vector<double> hq, serial, hq1;      ///< walls, seconds
  std::vector<double> speedup, overhead;    ///< per round
  std::vector<double> lat50, lat99;         ///< per latency rep, us
  std::vector<double> setup;                ///< zero-token execute walls
};

void setup_probes(workload_runner& s, unsigned nproc, int n, timing_set& t) {
  for (int i = 0; i < n; ++i) {
    const run_result r = s.run(variant::empty, backend::hyperqueue, nproc);
    if (r.ok) t.setup.push_back(r.wall);
  }
}

void add_latency_rep(const workload& w, const probe& pr, const run_result& r,
                     timing_set& t) {
  const auto lat = since_due_us(w, pr.retire_ns, r);
  t.lat50.push_back(percentile(lat, 0.50));
  t.lat99.push_back(percentile(lat, 0.99));
}

/// One interleaved round: hyperqueue at nproc x3, serial, hyperqueue at 1,
/// all unpaced. On an open-loop workload the unpaced runs measure the
/// service's capacity, with the generator emitting as fast as the pipeline
/// accepts, and one paced hyperqueue run with retirement stamps follows:
/// the latency rep.
///
/// The host's speed drifts over tens of seconds, so the ratios are taken
/// within a round and every metric samples the whole measured phase. The
/// cost of waking an idle vCPU comes and goes in bursts, so `setups`
/// zero-token set-up probes precede every run rather than sitting in one
/// block.
void e2e_round(workload_runner& s, workload& w, unsigned nproc, int setups,
               timing_set& t) {
  auto timed = [&](backend b, unsigned workers, bool paced = false) {
    setup_probes(s, nproc, setups, t);
    return s.run(variant::real, b, workers, paced, nullptr, paced);
  };
  std::vector<double> hq;
  for (int i = 0; i < 3; ++i) {
    const run_result r = timed(backend::hyperqueue, nproc);
    if (r.ok) hq.push_back(r.wall);
  }
  const run_result ser = timed(backend::serial, 1);
  const run_result one = timed(backend::hyperqueue, 1);
  t.hq.insert(t.hq.end(), hq.begin(), hq.end());
  if (ser.ok) t.serial.push_back(ser.wall);
  if (one.ok) t.hq1.push_back(one.wall);
  if (!hq.empty() && ser.ok && one.ok) {
    t.speedup.push_back(ser.wall / median(hq));
    t.overhead.push_back(one.wall / ser.wall);
  }
  if (!w.open_loop()) return;
  const run_result lr = timed(backend::hyperqueue, nproc, true);
  if (lr.ok) add_latency_rep(w, s.pr, lr, t);
}

void measure_e2e(workload_runner& s, workload& w, const options& o, unsigned nproc) {
  // Warm-up: one discarded run (still checked).
  (void)s.run(variant::real, backend::hyperqueue, nproc);

  // Set-up time is the median of at least setup_total zero-token executes,
  // spread over the rounds and topped up at the end.
  const int setup_total = o.quick ? 20 : 200;
  const int setup_per_run = o.quick ? 4 : 5;
  timing_set t;
  const double measured =
      run_rounds(o.quick ? 0 : o.seconds, o.quick ? 1 : 3,
                 [&] { e2e_round(s, w, nproc, setup_per_run, t); });
  setup_probes(s, nproc, setup_total - static_cast<int>(t.setup.size()), t);

  const double items = static_cast<double>(w.retired());
  std::vector<double> tput;
  for (double wall : t.hq) tput.push_back(items / wall);
  const spread tput_q = quartiles(tput);
  const spread speedup = quartiles(t.speedup);
  const spread overhead = quartiles(t.overhead);
  const spread lat50 = quartiles(t.lat50);
  const spread lat99 = quartiles(t.lat99);
  const spread setup_q = quartiles(t.setup);

  put_metric("throughput_items_s", "1/s", tput_q.median, tput_q);
  put_metric("speedup_vs_serial", "x", speedup.median, speedup);
  put_metric("overhead_1w", "x", overhead.median, overhead);
  if (w.open_loop()) {
    put_metric("latency_p50_us", "us", lat50.median, lat50);
    put_metric("latency_p99_us", "us", lat99.median, lat99);
  }
  put_metric("setup_s", "s", setup_q.median, setup_q);
  put_metric("failed_share", "share",
             static_cast<double>(s.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, s.attempted)),
             spread{});

  put_cond("reps", "{\"hq\": " + std::to_string(t.hq.size()) +
                       ", \"serial\": " + std::to_string(t.serial.size()) +
                       ", \"hq_1w\": " + std::to_string(t.hq1.size()) +
                       ", \"latency\": " + std::to_string(t.lat50.size()) +
                       ", \"setup\": " + std::to_string(t.setup.size()) + "}");
  put_cond("run_seconds", json_number(measured));
  if (w.open_loop()) {
    put_cond("latency_samples_per_rep", std::to_string(w.retired()));
    put_cond("latency_limit_us", json_number(kLatencyLimitUs));
    put_cond("latency_p99_meets_limit",
             lat99.median <= kLatencyLimitUs ? "true" : "false");
  }
}

// ---- per-layer measurement (--trace) ---------------------------------------

using layer_map = std::map<std::string, double>;

/// Layer metrics of one traced run, from its spans and stamps. Every value
/// is measured from outside the runtime: bodies are timed by the twin's
/// spans, everything else in the run is what remains of wall x workers.
layer_map analyse(const workload& w, const probe& pr,
                  const std::vector<span>& spans, const run_result& r,
                  unsigned workers) {
  const auto& st = w.stages();
  layer_map m;
  std::vector<double> busy(st.size(), 0);
  std::vector<double> calls(st.size(), 0);
  std::set<std::uint32_t> par_threads;
  std::vector<std::pair<std::int64_t, int>> edges;
  double body = 0;
  for (const span& sp : spans) {
    const double d = static_cast<double>(sp.t1 - sp.t0) * 1e-9;
    busy[sp.stage] += d;
    calls[sp.stage] += 1;
    body += d;
    if (st[sp.stage].kind == pipe::stage_kind::parallel)
      par_threads.insert(sp.thread);
    edges.emplace_back(sp.t0, +1);
    edges.emplace_back(sp.t1, -1);
  }
  double par = 0, serial = 0, par_calls = 0;
  for (std::size_t i = 0; i < st.size(); ++i) {
    m["apps." + st[i].name + ".busy_s"] = busy[i];
    m["apps." + st[i].name + ".calls"] = calls[i];
    if (st[i].kind == pipe::stage_kind::parallel) {
      par += busy[i];
      par_calls += calls[i];
    } else {
      serial += busy[i];
    }
  }
  m["apps.source.busy_s"] = busy.front();
  m["apps.source.calls"] = calls.front();
  m["apps.parallel.busy_s"] = par;
  m["apps.parallel.calls"] = par_calls;
  m["apps.sink.busy_s"] = busy.back();
  m["apps.sink.calls"] = calls.back();
  m["apps.serial_bound_share"] = serial / r.wall;

  // Share of the wall with two or more bodies running (ends sort first, so
  // back-to-back spans on one thread never count as overlap).
  std::sort(edges.begin(), edges.end());
  double overlap = 0;
  int active = 0;
  std::int64_t prev = 0;
  for (const auto& [t, d] : edges) {
    if (active >= 2) overlap += static_cast<double>(t - prev) * 1e-9;
    active += d;
    prev = t;
  }
  const double capacity = r.wall * workers;
  m["sched.body_share"] = body / capacity;
  m["sched.overlap_share"] = overlap / r.wall;
  m["sched.parallel_stage_threads"] = static_cast<double>(par_threads.size());
  m["sched.nonbody_s"] = capacity - body;

  m["pipeline.setup_teardown_s"] = r.wall - r.ex.seconds;
  const auto lat = since_due_us(w, pr.retire_ns, r);
  if (!pr.retire_ns.empty()) {
    m["pipeline.first_retire_s"] =
        static_cast<double>(pr.retire_ns.front() - r.start) * 1e-9;
    std::vector<double> gaps;
    for (std::size_t k = 1; k < pr.retire_ns.size(); ++k)
      gaps.push_back(static_cast<double>(pr.retire_ns[k] - pr.retire_ns[k - 1]) *
                     1e-3);
    m["pipeline.retire_gap_p99_us"] = percentile(gaps, 0.99);
    m["pipeline.latency_p50_us"] = percentile(lat, 0.50);
    m["pipeline.latency_p99_us"] = percentile(lat, 0.99);
    m["pipeline.latency_p999_us"] = percentile(lat, 0.999);
    m["pipeline.latency_max_us"] = *std::max_element(lat.begin(), lat.end());
  }
  const auto late = since_due_us(w, pr.emit_ns, r);
  m["gen.late_p50_us"] = percentile(late, 0.50);
  m["gen.late_p99_us"] = percentile(late, 0.99);
  return m;
}

/// Chrome trace-event JSON of one traced run (opens in Perfetto or
/// chrome://tracing): one complete event per stage-body span.
bool write_chrome_trace(const std::string& path, const workload& w,
                        const std::vector<span>& spans, const run_result& r) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": "
                  "{\"workload\": \"%s\", \"wall_s\": %s},\n\"traceEvents\": [\n",
               w.name(), json_number(r.wall).c_str());
  std::set<std::uint32_t> threads;
  for (const span& sp : spans) threads.insert(sp.thread);
  bool first = true;
  for (std::uint32_t t : threads) {
    std::fprintf(f,
                 "%s{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, \"name\": "
                 "\"thread_name\", \"args\": {\"name\": \"thread %u\"}}",
                 first ? "" : ",\n", t, t);
    first = false;
  }
  for (const span& sp : spans) {
    std::fprintf(f,
                 "%s{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"cat\": \"apps\", "
                 "\"name\": \"%s\", \"ts\": %.3f, \"dur\": %.3f}",
                 first ? "" : ",\n", sp.thread, w.stages()[sp.stage].name.c_str(),
                 static_cast<double>(sp.t0 - r.start) * 1e-3,
                 static_cast<double>(sp.t1 - sp.t0) * 1e-3);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void measure_trace(workload_runner& s, workload& w, const options& o, unsigned nproc) {
  (void)s.run(variant::real, backend::hyperqueue, nproc);  // warm-up

  // One buffer per worker plus the calling thread, each large enough to hold
  // every span of a run (one thread may run them all).
  const std::size_t max_spans = w.emitted() + w.edge_tokens() + w.retired();
  tracer tr(nproc + 1, max_spans);

  std::vector<double> real_walls, twin_walls, hollow_n, hollow_1;
  std::vector<layer_map> samples;
  std::vector<pipe::exec_result> real_ex;
  std::vector<span> last_spans;
  run_result last_run;
  std::uint64_t dropped = 0;
  const double measured = run_rounds(o.quick ? 0 : o.seconds, o.quick ? 1 : 3, [&] {
    const run_result real = s.run(variant::real, backend::hyperqueue, nproc);
    if (real.ok) {
      real_walls.push_back(real.wall);
      real_ex.push_back(real.ex);
    }
    // The fidelity pair: the same unpaced work traced, for the overhead
    // ratio (and, for batch workloads, the layer breakdown itself).
    const run_result twin =
        s.run(variant::twin, backend::hyperqueue, nproc, false, &tr, true);
    if (twin.ok) twin_walls.push_back(twin.wall);
    dropped += tr.dropped();
    run_result layered = twin;
    if (w.open_loop()) {
      // Open loop: the layers of the paced service run.
      layered = s.run(variant::twin, backend::hyperqueue, nproc, true, &tr, true);
      dropped += tr.dropped();
    }
    if (layered.ok) {
      last_spans = tr.spans();
      last_run = layered;
      samples.push_back(analyse(w, s.pr, last_spans, layered, nproc));
    }
    const run_result hn = s.run(variant::hollow, backend::hyperqueue, nproc);
    if (hn.ok) hollow_n.push_back(hn.wall);
    const run_result h1 = s.run(variant::hollow, backend::hyperqueue, 1);
    if (h1.ok) hollow_1.push_back(h1.wall);
  });

  if (samples.empty()) return;
  // Span counts are a pure function of the inputs: they must repeat exactly.
  for (const auto& sm : samples)
    for (const auto& [k, v] : sm)
      if (k.ends_with(".calls") && v != samples.front().at(k)) {
        std::fprintf(stderr, "%s: %s differs between traced runs\n", w.name(),
                     k.c_str());
        ++s.failed;
      }
  for (const auto& [k, v] : samples.front()) {
    std::vector<double> vals;
    for (const auto& sm : samples) vals.push_back(sm.at(k));
    put_layer(k, median(vals));
  }

  auto pool_median = [&](auto field) {
    std::vector<double> v;
    for (const auto& ex : real_ex) v.push_back(static_cast<double>(field(ex)));
    return median(v);
  };
  put_layer("core.seg_allocated", pool_median([](auto& e) { return e.pool.allocated; }));
  put_layer("core.seg_recycled", pool_median([](auto& e) { return e.pool.recycled; }));
  put_layer("core.recycle_share", pool_median([](auto& e) {
              const double all = static_cast<double>(e.pool.allocated + e.pool.recycled);
              return all > 0 ? static_cast<double>(e.pool.recycled) / all : 0.0;
            }));
  put_layer("core.seg_high_water", pool_median([](auto& e) { return e.pool.high_water; }));
  put_layer("core.peak_bytes", pool_median([](auto& e) { return e.pool.peak_bytes; }));
  put_layer("core.peak_segments", pool_median([](auto& e) { return e.peak_segments; }));
  put_layer("core.throttle_waits", pool_median([](auto& e) { return e.pool.throttle_waits; }));
  put_layer("core.throttle_s", pool_median([](auto& e) {
              return static_cast<double>(e.pool.throttle_ns) * 1e-9;
            }));
  put_layer("core.budget_overruns", pool_median([](auto& e) { return e.pool.budget_overruns; }));

  put_layer("throughput_items_s",
            static_cast<double>(w.retired()) / median(real_walls));
  const double tokens = static_cast<double>(w.edge_tokens());
  put_layer("pipeline.hollow_ns_per_token", median(hollow_n) / tokens * 1e9);
  put_layer("pipeline.hollow_1w_ns_per_token", median(hollow_1) / tokens * 1e9);
  const double ratio = median(twin_walls) / median(real_walls);
  put_layer("bench.trace_overhead_ratio", ratio);
  if (ratio > kTraceOverheadWarn)
    std::fprintf(stderr,
                 "warning: %s: traced twin takes %.2fx the untraced graph "
                 "(limit %.2f); the twin may be stale or tracing too heavy\n",
                 w.name(), ratio, kTraceOverheadWarn);
  if (dropped != 0) {
    std::fprintf(stderr, "%s: %llu spans dropped\n", w.name(),
                 static_cast<unsigned long long>(dropped));
    ++s.failed;
  }

  put_cond("reps", "{\"traced\": " + std::to_string(samples.size()) +
                       ", \"untraced\": " + std::to_string(real_walls.size()) +
                       ", \"hollow\": " + std::to_string(hollow_n.size()) + "}");
  put_cond("run_seconds", json_number(measured));
  const std::string path = o.trace_dir + "/" + w.name() + ".trace.json";
  if (!write_chrome_trace(path, w, last_spans, last_run)) ++s.failed;
  put_cond("trace_file", json_string(path));
}

std::string topology_json() {
  const topology t = topology::detect();
  return "{\"cpus\": " + std::to_string(t.num_cpus()) +
         ", \"cores\": " + std::to_string(t.num_cores()) +
         ", \"llcs\": " + std::to_string(t.num_llcs()) +
         ", \"nodes\": " + std::to_string(t.num_nodes()) +
         ", \"packages\": " + std::to_string(t.num_packages()) +
         ", \"synthetic\": " + (t.is_synthetic() ? "true" : "false") + "}";
}

/// Peak-memory probe, one per fresh process: the inputs plus one hyperqueue
/// run of the real graph. A process's peak grows with every further run (the
/// allocator keeps what it freed), so one run per process is the stable
/// measure. The peak is read before the serial check, whose own allocations
/// therefore do not count. Prints "R <peak KiB> <ok>".
int run_rss_probe(workload& w, unsigned nproc) {
  workload_runner s(w, nproc);
  const run_result r = s.run(variant::real, backend::hyperqueue, nproc);
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const std::string out = w.digest();
  const bool ok = r.ok && s.make_reference() && out == s.reference();
  if (!ok) std::fprintf(stderr, "%s: memory probe run: wrong output\n", w.name());
  std::printf("R %ld %d\n", ru.ru_maxrss, ok ? 1 : 0);
  return ok ? 0 : 1;
}

int run_child(const options& o) {
  // A wedged run must not hang the parent: the default SIGALRM action ends
  // the child, and the parent reports the workload as failed.
  alarm(static_cast<unsigned>(2 * o.seconds + 60));
  auto w = make_workload(o.child, o.seed, o.quick);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.child.c_str());
    return 2;
  }
  const unsigned nproc = affinity_cpus();
  if (o.probe_rss) return run_rss_probe(*w, nproc);
  put_cond("mode", o.trace_dir.empty() ? "\"e2e\"" : "\"trace\"");
  put_cond("nproc", std::to_string(nproc));
  put_cond("workers", std::to_string(nproc));
  put_cond("compiler", json_string(__VERSION__));
  put_cond("build_type", json_string(HQ_E2E_BUILD_TYPE));
#ifdef NDEBUG
  put_cond("asserts", "false");
#else
  put_cond("asserts", "true");
#endif
  put_cond("seed", std::to_string(o.seed));
  put_cond("comparable", o.quick ? "false" : "true");
  put_cond("topology", topology_json());

  workload_runner s(*w, nproc);
  bool ok = s.make_reference();
  if (ok) {
    try {
      if (o.trace_dir.empty())
        measure_e2e(s, *w, o, nproc);
      else
        measure_trace(s, *w, o, nproc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", w->name(), e.what());
      ++s.failed;
      ++s.attempted;
    }
  }
  ok = ok && s.failed == 0;
  std::printf("S %d %llu %llu\n", ok ? 1 : 0,
              static_cast<unsigned long long>(s.attempted),
              static_cast<unsigned long long>(s.failed));
  std::fflush(stdout);
  return ok ? 0 : 1;
}

// ---- parent ----------------------------------------------------------------

struct metric_rec {
  std::string name, unit, value, q1, q3, n;
};

struct workload_rec {
  std::string name;
  bool ok = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> conds;
  std::vector<metric_rec> metrics;
  std::vector<std::pair<std::string, std::string>> layers;
};

/// Re-execute this binary as a child with `args`; returns its stdout, and
/// whether it exited with status 0.
std::pair<std::string, bool> spawn_child(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    return {"", false};
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    close(fds[0]);
    close(fds[1]);
    return {"", false};
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    std::perror("execv /proc/self/exe");
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status))
    std::fprintf(stderr, "%s: child killed by signal %d\n", args[2].c_str(),
                 WTERMSIG(status));
  return {out, WIFEXITED(status) && WEXITSTATUS(status) == 0};
}

workload_rec run_workload(const options& o, const char* self,
                          const std::string& name) {
  workload_rec rec;
  rec.name = name;
  auto child_args = [&](std::uint64_t seed) {
    std::vector<std::string> a = {self, "--child", name, "--seed",
                                  std::to_string(seed), "--seconds",
                                  json_number(o.seconds)};
    if (o.quick) a.push_back("--quick");
    return a;
  };
  std::vector<std::string> args = child_args(o.seed);

  // Peak memory: the median over fresh single-run processes. dedup-fine's
  // footprint follows its input's duplicate structure, which differs by
  // several percent between seeds, so each probe takes its own input drawn
  // from the seed and no single input sets the median.
  const std::uint64_t probes = o.quick ? 1 : 9;
  std::vector<double> peaks;
  bool probes_ok = true;
  if (o.trace_dir.empty()) {
    for (std::uint64_t i = 0; i < probes; ++i) {
      std::vector<std::string> probe_args = child_args(o.seed * probes + i);
      probe_args.push_back("--probe-rss");
      const auto [out, exited_ok] = spawn_child(probe_args);
      long kib = 0;
      int ok = 0;
      const bool parsed = std::sscanf(out.c_str(), "R %ld %d", &kib, &ok) == 2;
      if (parsed && ok == 1 && exited_ok)
        peaks.push_back(static_cast<double>(kib) / 1024.0);  // KiB -> MiB
      else
        probes_ok = false;
    }
  } else {
    args.push_back("--trace");
    args.push_back(o.trace_dir);
  }

  const auto [out, exited_ok] = spawn_child(args);
  bool status_line = false;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream in(line);
    std::string tag, key;
    in >> tag >> key;
    std::string rest;
    std::getline(in >> std::ws, rest);
    if (tag == "M") {
      metric_rec m;
      m.name = key;
      std::istringstream f(rest);
      f >> m.unit >> m.value >> m.q1 >> m.q3 >> m.n;
      rec.metrics.push_back(m);
    } else if (tag == "L") {
      rec.layers.emplace_back(key, rest);
    } else if (tag == "C") {
      rec.conds.emplace_back(key, rest);
    } else if (tag == "S") {
      std::istringstream f(rest);
      unsigned long long att = 0, fail = 0;
      f >> att >> fail;
      rec.ok = key == "1";
      rec.attempted = att;
      rec.failed = fail;
      status_line = true;
    }
  }
  if (!status_line || !exited_ok) {
    rec.ok = false;
    rec.failed = std::max<std::uint64_t>(rec.failed, 1);
    rec.attempted = std::max(rec.attempted, rec.failed);
  }
  if (o.trace_dir.empty()) {
    rec.attempted += probes;
    rec.failed += probes - peaks.size();
    rec.ok = rec.ok && probes_ok;
    const spread q = quartiles(peaks);
    rec.metrics.push_back({"peak_rss_mb", "MB", json_number(q.median),
                           json_number(q.q1), json_number(q.q3),
                           std::to_string(q.n)});
  }
  return rec;
}

void print_record(const workload_rec& r) {
  std::printf("== %s: %s (attempted %llu, failed %llu)\n", r.name.c_str(),
              r.ok ? "ok" : "FAILED", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& m : r.metrics) {
    std::printf("  %-22s %14s %-6s", m.name.c_str(), m.value.c_str(),
                m.unit.c_str());
    if (m.q1 != "null")
      std::printf(" q1 %s q3 %s n %s", m.q1.c_str(), m.q3.c_str(), m.n.c_str());
    std::printf("\n");
  }
  for (const auto& [k, v] : r.layers) std::printf("  %-36s %s\n", k.c_str(), v.c_str());
}

bool write_json(const std::string& path, const options& o,
                const std::vector<workload_rec>& recs, bool all_ok) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_e2e\",\n  \"comparable\": %s,\n",
               o.quick ? "false" : "true");
  std::fprintf(f, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const workload_rec& r = recs[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"ok\": %s, \"attempted\": %llu, "
                 "\"failed\": %llu,\n      \"conditions\": {",
                 r.name.c_str(), r.ok ? "true" : "false",
                 static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    for (std::size_t j = 0; j < r.conds.size(); ++j)
      std::fprintf(f, "%s\"%s\": %s", j ? ", " : "", r.conds[j].first.c_str(),
                   r.conds[j].second.c_str());
    std::fprintf(f, "},\n      \"metrics\": {");
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      const metric_rec& m = r.metrics[j];
      std::fprintf(f,
                   "%s\n        \"%s\": {\"value\": %s, \"unit\": \"%s\", "
                   "\"q1\": %s, \"q3\": %s, \"n\": %s}",
                   j ? "," : "", m.name.c_str(), m.value.c_str(), m.unit.c_str(),
                   m.q1.c_str(), m.q3.c_str(), m.n.c_str());
    }
    std::fprintf(f, "},\n      \"layers\": {");
    for (std::size_t j = 0; j < r.layers.size(); ++j)
      std::fprintf(f, "%s\n        \"%s\": %s", j ? "," : "",
                   r.layers[j].first.c_str(), r.layers[j].second.c_str());
    std::fprintf(f, "}}%s\n", i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"all_ok\": %s\n}\n", all_ok ? "true" : "false");
  return std::fclose(f) == 0;
}

int run_parent(const options& o, const char* self) {
  if (!o.trace_dir.empty() && mkdir(o.trace_dir.c_str(), 0777) != 0 &&
      errno != EEXIST) {
    std::perror(o.trace_dir.c_str());
    return 2;
  }
  std::vector<workload_rec> recs;
  bool all_ok = true;
  for (const std::string& name : o.workloads) {
    recs.push_back(run_workload(o, self, name));
    print_record(recs.back());
    std::fflush(stdout);
    all_ok = all_ok && recs.back().ok;
  }
  if (!o.json_path.empty() && !write_json(o.json_path, o, recs, all_ok))
    all_ok = false;
  if (o.quick) std::printf("(--quick: tiny inputs, numbers not comparable)\n");
  return all_ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--workload W]... [--seed N] [--seconds S] "
               "[--quick] [--json PATH] [--trace DIR]\n  workloads:");
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--quick") {
      o.quick = true;
    } else if (a == "--workload" && has_value) {
      o.workloads.emplace_back(argv[++i]);
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
      if (!(o.seconds >= 0)) return usage();
    } else if (a == "--json" && has_value) {
      o.json_path = argv[++i];
    } else if (a == "--trace" && has_value) {
      o.trace_dir = argv[++i];
    } else if (a == "--child" && has_value) {
      o.child = argv[++i];
    } else if (a == "--probe-rss") {
      o.probe_rss = true;
    } else {
      return usage();
    }
  }
  // Default measured phase per workload: 5 s, which with the memory probes
  // makes about 11 s per workload; 4 s traced, under 20 s for all four.
  if (o.seconds < 0) o.seconds = o.trace_dir.empty() ? 5 : 4;
  if (o.seconds > 600) return usage();
  if (!o.child.empty()) return run_child(o);
  if (o.workloads.empty()) o.workloads = workload_names();
  for (const auto& n : o.workloads)
    if (std::find(workload_names().begin(), workload_names().end(), n) ==
        workload_names().end())
      return usage();
  return run_parent(o, argv[0]);
}

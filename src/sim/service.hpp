// SLO service simulation: tail latency vs offered load through a real
// hyperqueue pipeline under memory budgets and admission control.
//
// The workload is an open-loop request stream — seeded Poisson arrivals,
// lognormal service demands — pushed through a real 3-stage pipeline
// (arrivals -> service -> retire) so the run exercises the actual transport:
// segment churn under `edge_opts::memory_budget`, the runner's admission
// boundary, and the scheduler. Latency itself accrues in *virtual time*
// inside the in-order sink: `service_model` is the same non-preemptive
// FIFO multi-server discipline as sim::engine (src/sim/des.hpp) — c servers,
// dispatch in arrival order — folded into a min-heap pass over the stream.
// Because the sink consumes in serial-elision order and the model is a pure
// function of the record sequence, every percentile curve is byte-identical
// for a fixed seed at any worker count and on any backend
// (tests/test_service.cpp replays the admitted trace through sim::engine to
// pin the two formulations to each other).
//
// Admission policies are evaluated at the model boundary in virtual time:
//   none         — every request queues; latency unbounded past rho = 1.
//   block        — the arrival stream stalls while `window` requests are in
//                  the system: memory bounded, sojourn (incl. gate wait)
//                  unbounded under overload.
//   shed         — arrivals finding `window` in flight are dropped: both the
//                  in-system population and admitted-request latency stay
//                  bounded at any load (the SLO-preserving policy).
//   bounded_wait — shed only the requests whose queueing delay would exceed
//                  `max_wait`.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "core/latency.hpp"
#include "pipeline/runner.hpp"

namespace hq::sim {

/// One request flowing through the service pipeline (virtual seconds).
struct request {
  std::uint64_t id = 0;
  double arrival = 0;
  double service = 0;
};

struct service_spec {
  std::size_t requests = 20000;
  /// Virtual service capacity: the model dispatches to this many servers.
  unsigned servers = 4;
  double service_mean = 1.0e-3;   ///< mean per-request demand (virtual s)
  double service_sigma = 0.5;     ///< lognormal shape (0 = deterministic-ish)
  /// rho: arrival rate as a fraction of capacity servers/service_mean.
  double offered_load = 0.9;
  std::uint64_t seed = 1;

  // -- admission at the model boundary (virtual time) --
  pipe::admission_policy policy = pipe::admission_policy::none;
  std::size_t window = 256;   ///< block/shed: max requests in the system
  double max_wait = 10.0e-3;  ///< bounded_wait: max queueing delay (virtual s)

  // -- real transport --
  unsigned workers = 1;
  std::uint64_t memory_budget = 0;  ///< sink-queue bytes; 0 = env/unlimited
  pipe::backend transport = pipe::backend::hyperqueue;
};

/// Deterministic workload for `spec`: Poisson arrivals at rate
/// offered_load * servers / service_mean, lognormal service demands with
/// mean service_mean (mu = ln(mean) - sigma^2/2). Pure function of the seed.
[[nodiscard]] std::vector<request> generate_requests(const service_spec& spec);

/// Non-preemptive FIFO G/G/c queueing model with boundary admission.
/// Feed requests in arrival order via offer(); identical dispatch to
/// sim::engine with options{.cores = servers} over the admitted trace.
class service_model {
 public:
  explicit service_model(const service_spec& spec);

  /// Returns true if the request was admitted (sojourn recorded), false if
  /// the policy shed it.
  bool offer(const request& r);

  [[nodiscard]] const stats::latency_histogram& latency() const noexcept {
    return hist_;
  }
  [[nodiscard]] std::uint64_t admitted() const noexcept { return admitted_; }
  [[nodiscard]] std::uint64_t shed() const noexcept { return shed_; }
  /// Virtual time of the last departure.
  [[nodiscard]] double makespan() const noexcept { return makespan_; }
  /// Max simultaneous admitted-but-not-departed requests — the model's
  /// memory footprint; bounded by `window` under block/shed.
  [[nodiscard]] std::size_t peak_in_system() const noexcept {
    return peak_in_system_;
  }

 private:
  void drain(double now);

  const service_spec spec_;
  stats::latency_histogram hist_;
  // Min-heap of per-server next-free times (c entries, all starting at 0).
  std::priority_queue<double, std::vector<double>, std::greater<>> free_;
  // Min-heap of departure times of in-system requests.
  std::priority_queue<double, std::vector<double>, std::greater<>> in_system_;
  double gate_ = 0;  ///< block policy: earliest admission for the next arrival
  double makespan_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
  std::size_t peak_in_system_ = 0;
};

struct service_result {
  stats::latency_histogram latency;  ///< sojourn (ns) of admitted requests
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  double makespan = 0;
  std::size_t peak_in_system = 0;
  /// Order/content digest of what the sink actually received from the real
  /// transport (equal across backends/worker counts for a fixed seed).
  std::uint64_t checksum = 0;
  /// The real run: wall time, queue footprint/throttle counters under the
  /// memory budget, runner admission accounting.
  pipe::exec_result exec;
};

/// Generate the workload, run it through the real pipeline on
/// `spec.transport`, and score it with `service_model` in the sink.
[[nodiscard]] service_result run_service(const service_spec& spec);

}  // namespace hq::sim

#include "sim/service.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace hq::sim {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t to_ns(double seconds) noexcept {
  return seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

}  // namespace

std::vector<request> generate_requests(const service_spec& spec) {
  util::xoshiro256 rng(spec.seed);
  const double sigma = spec.service_sigma;
  const double mu = std::log(spec.service_mean) - 0.5 * sigma * sigma;
  const double rate = spec.offered_load * spec.servers / spec.service_mean;
  std::vector<request> rs(spec.requests);
  double t = 0;
  for (std::size_t i = 0; i < spec.requests; ++i) {
    // Exponential interarrival; uniform() < 1 so log1p stays finite.
    t += -std::log1p(-rng.uniform()) / rate;
    // Box-Muller lognormal; 1-u1 in (0,1] keeps the log finite.
    const double u1 = rng.uniform();
    const double u2 = rng.uniform();
    const double z = std::sqrt(-2.0 * std::log1p(-u1)) * std::cos(kTwoPi * u2);
    rs[i].id = i;
    rs[i].arrival = t;
    rs[i].service = std::exp(mu + sigma * z);
  }
  return rs;
}

service_model::service_model(const service_spec& spec) : spec_(spec) {
  const unsigned c = spec.servers ? spec.servers : 1;
  for (unsigned i = 0; i < c; ++i) free_.push(0.0);
}

void service_model::drain(double now) {
  while (!in_system_.empty() && in_system_.top() <= now) in_system_.pop();
}

bool service_model::offer(const request& r) {
  using pipe::admission_policy;
  // block: arrivals queue behind the gate, so each enters no earlier than
  // its predecessor's admission instant.
  double enter =
      spec_.policy == admission_policy::block ? std::max(r.arrival, gate_)
                                              : r.arrival;
  drain(enter);
  switch (spec_.policy) {
    case admission_policy::none:
      break;
    case admission_policy::block:
      // Stall the stream until a window slot opens: admission happens at
      // the departure that frees it.
      while (in_system_.size() >= spec_.window) {
        enter = std::max(enter, in_system_.top());
        in_system_.pop();
      }
      gate_ = enter;
      break;
    case admission_policy::shed:
      if (in_system_.size() >= spec_.window) {
        ++shed_;
        return false;
      }
      break;
    case admission_policy::bounded_wait: {
      const double start = std::max(enter, free_.top());
      if (start - r.arrival > spec_.max_wait) {
        ++shed_;
        return false;
      }
      break;
    }
  }
  const double start = std::max(enter, free_.top());
  free_.pop();
  const double depart = start + r.service;
  free_.push(depart);
  in_system_.push(depart);
  peak_in_system_ = std::max(peak_in_system_, in_system_.size());
  makespan_ = std::max(makespan_, depart);
  // Sojourn from the *original* arrival: under block the gate wait counts,
  // which is exactly why its tail diverges under overload while shed's
  // stays flat.
  hist_.record(to_ns(depart - r.arrival));
  ++admitted_;
  return true;
}

service_result run_service(const service_spec& spec) {
  const std::vector<request> reqs = generate_requests(spec);
  service_model model(spec);
  std::uint64_t checksum = 0;
  std::uint64_t order = 0;

  pipe::graph g;
  auto src = g.source<request>("arrivals", [&reqs](pipe::emit<request> out) {
    for (const request& r : reqs) out(request{r});
  });
  // A real parallel hop between source and sink so records actually cross
  // two queues (segment churn on both edges) and the in-order sink has
  // reordering to undo at worker counts > 1.
  auto svc = g.stage<request, request>(
      "service", pipe::stage_kind::parallel,
      [](request&& r, pipe::emit<request> out) {
        r.id = (r.id & 0xffffffffull) | (mix64(r.id & 0xffffffffull) << 32);
        out(std::move(r));
      });
  auto snk = g.sink<request>(
      "retire", pipe::stage_kind::serial_in_order,
      [&model, &checksum, &order](request&& r) {
        checksum ^= mix64(r.id + 0x9e3779b97f4a7c15ull * ++order);
        r.id &= 0xffffffffull;
        model.offer(r);
      });
  // The budget caps the queue in front of the sink. The edge into the
  // parallel hop has no queue on the hyperqueue backends; the admission
  // window bounds how far the source runs ahead of it.
  pipe::edge_opts eo;
  g.connect(src, svc, eo);
  eo.memory_budget = spec.memory_budget;
  g.connect(svc, snk, eo);

  pipe::exec_options opt;
  opt.workers = spec.workers;

  service_result res;
  res.exec = pipe::execute(g, spec.transport, opt);
  res.latency = model.latency();
  res.admitted = model.admitted();
  res.shed = model.shed();
  res.makespan = model.makespan();
  res.peak_in_system = model.peak_in_system();
  res.checksum = checksum;
  return res;
}

}  // namespace hq::sim

#include "pipeline/builder.hpp"

#include <chrono>

#include "conc/backoff.hpp"
#include "sched/scheduler.hpp"

namespace hq::pipe {

namespace detail {

bool admission_ctl::admit() {
  if (opts.policy == admission_policy::none) {
    admitted.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (late_ns > 0) {
    // Pay the claimed runs back with the source's own time since the last
    // offer (see held()).
    const std::int64_t now = clock_ns();
    late_ns -= now - paced_at_ns;
    paced_at_ns = now;
    const std::int64_t allowed =
        opts.policy == admission_policy::bounded_wait
            ? static_cast<std::int64_t>(opts.max_wait_ns)
            : 0;
    if (late_ns > allowed) {
      shed.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (late_ns < 0) late_ns = 0;
  }
  if (in_flight() < opts.window) {
    admitted.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (opts.policy == admission_policy::shed ||
      cancelled.load(std::memory_order_acquire)) {
    shed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // block / bounded_wait: hold the source until the window opens. The wait
  // runs ready tasks meanwhile: the source's own exposed batches, and
  // through them the drains their pushes kick, so on one worker the sink
  // retires the tokens the window waits for on this very stack. No
  // consumer in a declared pipeline waits for data (sched/drain.hpp), so
  // nothing this nests can wait on the source. Every admitted token
  // retires, at the sink or where an expand stage drops its subtree
  // (retire_dropped), so the window always opens. Off the scheduler (the
  // pthreads and TBB feeders) it is a plain backoff. cancel() and
  // scheduler cancellation both unblock as a shed so failure teardown
  // never hangs.
  scheduler* sc = scheduler::current();
  const auto t0 = std::chrono::steady_clock::now();
  backoff bo;
  bool ok;
  for (;;) {
    if (in_flight() < opts.window) {
      admitted.fetch_add(1, std::memory_order_relaxed);
      ok = true;
      break;
    }
    if (cancelled.load(std::memory_order_acquire) ||
        (sc != nullptr && sc->cancelled())) {
      shed.fetch_add(1, std::memory_order_relaxed);
      ok = false;
      break;
    }
    if (opts.policy == admission_policy::bounded_wait &&
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()) >= opts.max_wait_ns) {
      shed.fetch_add(1, std::memory_order_relaxed);
      ok = false;
      break;
    }
    if (sc != nullptr && sc->help_one()) {
      bo.reset();
    } else {
      bo.pause();
    }
  }
  wait_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  return ok;
}

void admission_ctl::held(std::int64_t start_ns, std::int64_t end_ns,
                         bool waiting) noexcept {
  if (waiting)
    wait_ns.fetch_add(static_cast<std::uint64_t>(end_ns - start_ns),
                      std::memory_order_relaxed);
  if (opts.policy != admission_policy::shed &&
      opts.policy != admission_policy::bounded_wait)
    return;
  late_ns += end_ns - start_ns;
  paced_at_ns = end_ns;
}

bool admission_ctl::would_wait() const noexcept {
  if (opts.policy == admission_policy::none ||
      opts.policy == admission_policy::shed)
    return false;
  return in_flight() >= opts.window &&
         !cancelled.load(std::memory_order_acquire);
}

namespace {

void run_from(const hq_run& run, std::size_t first, void* token,
              const erased_emit& last, admission_ctl* ctl) {
  const stage_rec& s = *run.stages[first];
  // The rest of the run, as the emission target of this body: each token
  // this body emits continues depth-first, as in the serial elision.
  struct rest_t {
    const hq_run* run;
    std::size_t next;
    const erased_emit* last;
    admission_ctl* ctl;
  } rest{&run, first + 1, &last, ctl};
  const erased_emit to_rest{&rest, [](void* c, void* tok) {
                              const auto* r = static_cast<const rest_t*>(c);
                              run_from(*r->run, r->next, tok, *r->last, r->ctl);
                            }};
  const erased_emit& next = first + 1 == run.stages.size() ? last : to_rest;
  retire_dropped(s.multi_out ? ctl : nullptr, next,
                 [&](const erased_emit& e) { s.run_value(token, e); });
}

}  // namespace

void run_through(const hq_run& run, void* token, const erased_emit& last,
                 admission_ctl* ctl) {
  run_from(run, 0, token, last, ctl);
}

}  // namespace detail

const char* to_string(stage_kind k) noexcept {
  switch (k) {
    case stage_kind::serial_in_order:
      return "serial_in_order";
    case stage_kind::parallel:
      return "parallel";
  }
  return "?";
}

void graph::connect(stage_id from, stage_id to, edge_opts opts) {
  if (from >= stages_.size() || to >= stages_.size())
    throw graph_error("pipe::connect: stage id out of range");
  auto& src = stages_[from];
  auto& dst = stages_[to];
  if (src.is_sink)
    throw graph_error("pipe::connect: cannot connect from sink stage '" +
                      src.name + "'");
  if (dst.is_source)
    throw graph_error("pipe::connect: cannot connect into source stage '" +
                      dst.name + "'");
  if (src.out_type != dst.in_type)
    throw graph_error("pipe::connect: type mismatch on edge '" + src.name +
                      "' -> '" + dst.name + "': produces " +
                      src.out_type_name + ", consumes " + dst.in_type_name);
  if (src.out_edge != -1)
    throw graph_error("pipe::connect: output of stage '" + src.name +
                      "' already connected");
  if (dst.in_edge != -1)
    throw graph_error("pipe::connect: input of stage '" + dst.name +
                      "' already connected");

  detail::edge_rec e;
  e.from = from;
  e.to = to;
  e.opts = opts;
  e.type = src.out_type;
  src.out_edge = static_cast<int>(edges_.size());
  dst.in_edge = static_cast<int>(edges_.size());
  edges_.push_back(std::move(e));
}

graph::plan graph::compile() const {
  if (stages_.empty()) throw graph_error("pipe::compile: empty graph");

  std::size_t src = stages_.size();
  std::size_t snk = stages_.size();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i].is_source) {
      if (src != stages_.size())
        throw graph_error("pipe::compile: more than one source stage");
      src = i;
    }
    if (stages_[i].is_sink) {
      if (snk != stages_.size())
        throw graph_error("pipe::compile: more than one sink stage");
      snk = i;
    }
  }
  if (src == stages_.size())
    throw graph_error("pipe::compile: no source stage declared");
  if (snk == stages_.size())
    throw graph_error("pipe::compile: no sink stage declared");
  if (stages_[snk].kind == stage_kind::parallel)
    throw graph_error(
        "pipe::compile: sink stage '" + stages_[snk].name +
        "' is parallel; sinks must be serial_in_order");

  plan p;
  // Walk the chain from the source; every stage must be reachable.
  std::size_t cur = src;
  unsigned depth = 0;  // reorder-path depth of tokens *entering* cur
  for (;;) {
    p.order.push_back(cur);
    const auto& s = stages_[cur];
    if (s.is_sink) break;
    if (s.out_edge < 0)
      throw graph_error("pipe::compile: stage '" + s.name +
                        "' has no outgoing edge");
    // Depth of the tokens this stage emits: an in-order stage (the source
    // included) restarts sequence numbering (its output is a fresh
    // totally-ordered stream); a parallel stage tags outputs relative to its
    // input's position. An expand stage appends one sub-sequence level
    // either way.
    unsigned out_depth = s.kind == stage_kind::serial_in_order ? 1 : depth;
    if (s.multi_out) ++out_depth;
    if (out_depth > kMaxDepth)
      throw graph_error("pipe::compile: fan-out nesting exceeds kMaxDepth at '" +
                        s.name + "'");
    p.edges.push_back(static_cast<std::size_t>(s.out_edge));
    p.edge_depth.push_back(out_depth);
    depth = out_depth;
    cur = edges_[static_cast<std::size_t>(s.out_edge)].to;
  }

  if (p.order.size() != stages_.size()) {
    // Some declared stage was never reached from the source.
    std::vector<bool> seen(stages_.size(), false);
    for (auto i : p.order) seen[i] = true;
    for (std::size_t i = 0; i < stages_.size(); ++i)
      if (!seen[i])
        throw graph_error("pipe::compile: stage '" + stages_[i].name +
                          "' is not attached to the source->sink chain");
  }
  return p;
}

}  // namespace hq::pipe

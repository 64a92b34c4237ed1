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
  if (wedged.load(std::memory_order_relaxed)) {
    // A previous wait proved the sink cannot currently run; don't re-pay
    // the patience wait per token. Re-arm enforcement once it completes
    // something again.
    if (completed.load(std::memory_order_acquire) ==
        wedge_done.load(std::memory_order_relaxed)) {
      admitted.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    wedged.store(false, std::memory_order_relaxed);
  }
  // block / bounded_wait: park the source until the sink opens the window.
  // Pause-only, never help-first: helping from the blocked source can nest
  // the sink on this very stack, where it blocks forever on the source's
  // open shard (the same producer-side hazard queue_cb::budget_wait
  // documents). When sink completions stop arriving entirely — a schedule
  // that cannot interleave the sink at all — the wait escapes by admitting
  // over the window rather than wedging; a block window degrades to a soft
  // one only where a hard one is impossible. "Stopped" takes both many
  // yielding iterations and a stall longer than an OS time slice: a sink
  // whose worker is merely preempted must not open the window. cancel() and
  // scheduler cancellation both unblock as a shed so failure teardown never
  // hangs.
  scheduler* sc = scheduler::current();
  const auto t0 = std::chrono::steady_clock::now();
  backoff bo;
  std::uint64_t last_done = completed.load(std::memory_order_acquire);
  auto last_progress = t0;
  std::uint32_t stalled_iters = 0;
  constexpr std::uint32_t kPatience = 1024;
  constexpr auto kPatienceTime = std::chrono::milliseconds(20);
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
    const auto now = std::chrono::steady_clock::now();
    const auto waited = now - t0;
    if (opts.policy == admission_policy::bounded_wait &&
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
                .count()) >= opts.max_wait_ns) {
      shed.fetch_add(1, std::memory_order_relaxed);
      ok = false;
      break;
    }
    const std::uint64_t done = completed.load(std::memory_order_acquire);
    if (done != last_done) {
      last_done = done;
      last_progress = now;
      stalled_iters = 0;
      bo.reset();
    } else if (bo.is_yielding() && ++stalled_iters > kPatience &&
               now - last_progress >= kPatienceTime) {
      wedge_done.store(done, std::memory_order_relaxed);
      wedged.store(true, std::memory_order_relaxed);
      admitted.fetch_add(1, std::memory_order_relaxed);
      ok = true;
      break;
    }
    bo.pause();
  }
  wait_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  return ok;
}

void admission_ctl::held(std::int64_t start_ns, std::int64_t end_ns) noexcept {
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
  if (in_flight() < opts.window || cancelled.load(std::memory_order_acquire))
    return false;
  return !wedged.load(std::memory_order_relaxed) ||
         completed.load(std::memory_order_acquire) !=
             wedge_done.load(std::memory_order_relaxed);
}

namespace {

void run_from(const hq_run& run, std::size_t first, void* token,
              const erased_emit& last) {
  const stage_rec& s = *run.stages[first];
  if (first + 1 == run.stages.size()) {
    s.run_value(token, last);
    return;
  }
  // The rest of the run, as the emission target of this body: each token
  // this body emits continues depth-first, as in the serial elision.
  struct rest_t {
    const hq_run* run;
    std::size_t next;
    const erased_emit* last;
  } rest{&run, first + 1, &last};
  const erased_emit next{&rest, [](void* c, void* tok) {
                           const auto* r = static_cast<const rest_t*>(c);
                           run_from(*r->run, r->next, tok, *r->last);
                         }};
  s.run_value(token, next);
}

}  // namespace

void run_through(const hq_run& run, void* token, const erased_emit& last) {
  run_from(run, 0, token, last);
}

}  // namespace detail

const char* to_string(stage_kind k) noexcept {
  switch (k) {
    case stage_kind::serial_in_order:
      return "serial_in_order";
    case stage_kind::serial:
      return "serial";
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
  if (opts.memory_budget != 0 && dst.kind == stage_kind::parallel &&
      !dst.is_sink)
    throw graph_error("pipe::connect: memory_budget on edge '" + src.name +
                      "' -> '" + dst.name +
                      "': an edge into a parallel stage has no queue to cap");

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
        "' is parallel; sinks must be serial or serial_in_order");

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
    // Depth of the tokens this stage emits: an in-order stage restarts
    // sequence numbering (its output is a fresh totally-ordered stream);
    // other kinds tag outputs relative to their input's position. An
    // expand stage appends one sub-sequence level either way.
    unsigned out_depth =
        (s.kind == stage_kind::serial_in_order || s.is_source) ? 1 : depth;
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

#include "pipeline/runner.hpp"

#include <array>
#include <atomic>
#include <cassert>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "conc/bounded_queue.hpp"
#include "pipeline/tbb_pipeline.hpp"
#include "sched/scheduler_lease.hpp"
#include "sched/watchdog.hpp"
#include "util/stats.hpp"

namespace hq::pipe {

const char* to_string(backend b) noexcept {
  switch (b) {
    case backend::serial:
      return "serial";
    case backend::hyperqueue:
      return "hyperqueue";
    case backend::hyperqueue_element:
      return "hyperqueue_element";
    case backend::pthreads:
      return "pthreads";
    case backend::tbb:
      return "tbb";
  }
  return "?";
}

const char* to_string(run_outcome o) noexcept {
  switch (o) {
    case run_outcome::ok:
      return "ok";
    case run_outcome::failed:
      return "failed";
    case run_outcome::stalled:
      return "stalled";
  }
  return "?";
}

const std::vector<backend>& parallel_backends() {
  static const std::vector<backend> v = {
      backend::hyperqueue, backend::hyperqueue_element, backend::pthreads,
      backend::tbb};
  return v;
}

namespace {

using detail::erased_emit;
using detail::stage_rec;

// ---- serial elision --------------------------------------------------------
// Stages invoked depth-first on the calling thread: each emission is a call
// into the next stage's deliver thunk with a pointer to the value still on
// the emitter's stack. No queues, no heap tokens — this is the elision whose
// output order defines correctness for every parallel backend.

exec_result run_serial_elision(graph& g, detail::admission_ctl* ctl = nullptr) {
  graph::plan p = g.compile();
  const std::size_t n = p.order.size();
  std::vector<std::function<void(void*)>> deliver(n);
  std::vector<erased_emit> next(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) {
      next[i].ctx = &deliver[i + 1];
      next[i].fn = [](void* ctx, void* tok) {
        (*static_cast<std::function<void(void*)>*>(ctx))(tok);
      };
    }
    const stage_rec& s = g.stage_at(p.order[i]);
    deliver[i] = [&s, &next, i](void* tok) { s.run_value(tok, next[i]); };
  }
  if (ctl != nullptr) {
    // Same boundary as the parallel backends: gate each source emission,
    // retire at the sink. Tokens flow source->sink within one emit call
    // here, so in_flight never exceeds one and the elision stays the
    // lossless reference under any admission policy.
    auto sink = std::move(deliver[n - 1]);
    deliver[n - 1] = [sink, ctl](void* tok) {
      sink(tok);
      ctl->complete();
    };
    auto first = std::move(deliver[1]);
    deliver[1] = [first, ctl](void* tok) {
      if (ctl->admit()) first(tok);
    };
  }
  exec_result res;
  util::stopwatch sw;
  deliver[0](nullptr);
  res.seconds = sw.seconds();
  return res;
}

// ---- hyperqueue backend ----------------------------------------------------
// One hyperqueue in front of every serial stage and the sink, created by the
// root task (which thereby owns them, per the attachment model). Runs of
// parallel stages have no queue: the stage feeding a run spawns one task per
// batch that carries the batch through the run's bodies (hq_run,
// builder.hpp). Stage tasks are spawned in chain order — the serial-elision
// order the queues' visibility rules assume — joined oldest first (as every
// join is, scheduler.hpp), so the source starts at top level and never
// nests above its consumers. The element
// backend is the same lowering with one token per run task and the bulk
// path forced off on every queue.

exec_result run_hyperqueue_backend(graph& g, const exec_options& opt,
                                   bool force_element,
                                   detail::admission_ctl* ctl) {
  graph::plan p = g.compile();
  const std::size_t n = p.order.size();
  auto stage = [&](std::size_t i) -> const stage_rec& {
    return g.stage_at(p.order[i]);
  };
  // Edge i connects chain positions i and i + 1.
  auto edge = [&](std::size_t i) -> const edge_opts& {
    return g.edge_at(p.edges[i]).opts;
  };
  auto batch_of = [](const edge_opts& e) {
    return e.slice_batch ? e.slice_batch : std::size_t{1};
  };

  // Chain positions with a queue in front: the serial stages and the sink.
  std::vector<std::size_t> heads;
  for (std::size_t i = 1; i < n; ++i)
    if (stage(i).kind != stage_kind::parallel) heads.push_back(i);

  // A resident scheduler: after the first run per worker count this starts
  // no threads.
  scheduler_lease lease(opt.workers);
  scheduler& sched = *lease;

  exec_result res;
  util::stopwatch sw;
  sched.run([&] {
    // Declared before the queues: a run must outlive its tasks, and queue
    // destruction waits for every task attached to the queue.
    std::vector<detail::hq_run> runs;
    runs.reserve(heads.size());
    std::vector<std::unique_ptr<detail::hq_chan_base>> chans;
    chans.reserve(heads.size());
    for (std::size_t k = 0; k < heads.size(); ++k) {
      const edge_opts& e = edge(heads[k] - 1);
      const std::size_t seglen =
          e.segment_length ? e.segment_length : 2 * batch_of(e);
      chans.push_back(
          stage(heads[k] - 1).make_out_chan(seglen, e.memory_budget));
    }
    // Producer k is the source (k = 0) or the stage behind queue k - 1; it
    // pushes into queue k, directly or through the parallel run between.
    for (std::size_t k = 0; k <= heads.size(); ++k) {
      const std::size_t i = k == 0 ? 0 : heads[k - 1];
      detail::hq_stage_ctx ctx;
      if (k > 0) {
        ctx.in = chans[k - 1].get();
        ctx.knobs.in_batch = batch_of(edge(i - 1));
        ctx.knobs.in_bulk = !force_element;
      }
      if (k < heads.size()) {
        const std::size_t next = heads[k];
        ctx.out = chans[k].get();
        if (next > i + 1) {
          detail::hq_run& r = runs.emplace_back();
          for (std::size_t j = i + 1; j < next; ++j)
            r.stages.push_back(&stage(j));
          r.out = ctx.out;
          r.batch = force_element ? 1 : batch_of(edge(i));
          r.out_batch = batch_of(edge(next - 1));
          r.out_bulk = !force_element;
          ctx.knobs.run = &r;
        } else {
          ctx.knobs.out_batch = batch_of(edge(i));
          ctx.knobs.out_bulk = !force_element;
        }
      }
      // Admission boundary: gate at the source's emitter, retire at the
      // sink's pop loop.
      if (k == 0) ctx.knobs.admit = ctl;
      if (k == heads.size()) ctx.knobs.complete = ctl;
      stage(i).hq_spawn(ctx);
    }
    hq::sync();
    for (auto& ch : chans) {
      res.pool = res.pool + ch->pool();
      res.peak_segments = std::max(res.peak_segments, ch->segments());
    }
    chans.clear();  // queues must be destroyed by their owning task
  });
  res.seconds = sw.seconds();
  return res;
}

// ---- pthreads backend ------------------------------------------------------
// One bounded_queue per edge (capacity = the edge knob), explicit stage
// threads. Serial-elision order behind parallel and expand stages is
// recovered by a multi-level reorder buffer: tokens carry a path of
// sequence components (one per expand level), count records announce how
// many children each path prefix has, and a cursor walks the leaf paths in
// lexicographic = elision order, carrying at exhausted prefixes. This
// generalizes the two-level (coarse, fine) counting scheme of PARSEC
// dedup's pthread version to any declared chain.

struct prec {
  std::array<std::uint32_t, graph::kMaxDepth> path{};
  std::uint8_t depth = 0;
  bool is_count = false;      ///< `count` children exist under prefix `path`
  std::uint32_t count = 0;
  void* payload = nullptr;    ///< owned heap token (leaf records only)
};

/// First-failure slot of one pthreads-backend run. A throwing stage records
/// its exception here and closes every inter-stage queue: close *is* the
/// cancellation signal (bounded_queue has closed_ in both wait predicates),
/// so all other stage threads unblock — producers see push() == false,
/// consumers drain then see nullopt — and exit their loops without any
/// polling. The backend then drains the queues, destroys stranded payloads
/// through the stage destroy hooks, and rethrows on the calling thread.
struct pth_fail {
  std::mutex mu;
  std::exception_ptr err;
  std::vector<bounded_queue<prec>*> queues;
  detail::admission_ctl* ctl = nullptr;

  void fail(std::exception_ptr e) noexcept {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!err) err = std::move(e);
    }
    // The source may be parked on a full admission window; the sink that
    // would open it is tearing down. Cancel first so it sheds and exits.
    if (ctl != nullptr) ctl->cancel();
    for (auto* q : queues) q->close();
  }

  [[nodiscard]] std::exception_ptr take() {
    std::lock_guard<std::mutex> lk(mu);
    return std::exchange(err, nullptr);
  }
};

/// Thrown out of a source body's emit when its output queue closed under
/// it (cancellation initiated elsewhere): unwinds the source without
/// recording a failure of its own.
struct src_abort {};

class reorderer {
 public:
  explicit reorderer(unsigned leaf_depth) : cursor_(leaf_depth, 0) {
    assert(leaf_depth >= 1);
  }
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Ingest one record, delivering any now-in-order leaf payloads.
  template <typename Deliver>
  void feed(const prec& r, Deliver&& deliver) {
    if (r.is_count) {
      counts_.emplace(key(r, r.depth), r.count);
    } else {
      assert(r.depth == cursor_.size());
      pending_.emplace(key(r, r.depth), r.payload);
    }
    drain(deliver);
  }

  /// Failure teardown: hand every undelivered leaf payload to `f` (which
  /// destroys it) and forget it. After a cancelled run the reorder buffer
  /// still holds the out-of-order leaves that never met the cursor.
  template <typename F>
  void for_each_pending(F&& f) {
    for (auto& [path, payload] : pending_) f(payload);
    pending_.clear();
  }

 private:
  static std::vector<std::uint32_t> key(const prec& r, unsigned len) {
    return {r.path.begin(), r.path.begin() + len};
  }

  template <typename Deliver>
  void drain(Deliver&& deliver) {
    const auto L = static_cast<int>(cursor_.size());
    while (!done_) {
      auto it = pending_.find(cursor_);
      if (it != pending_.end()) {
        void* payload = it->second;
        pending_.erase(it);
        deliver(payload);
        ++cursor_[L - 1];
        continue;
      }
      // The cursor's leaf hasn't arrived. Either it is genuinely pending,
      // or the cursor sits one past the end of an exhausted subtree and
      // must carry. Walk prefixes deepest-first; at each level the deeper
      // cursor components are all zero (guaranteed by the walk order), so
      // a count match means "this prefix is complete".
      bool progressed = false;
      for (int d = L - 1; d >= 0; --d) {
        auto ct = counts_.find(
            std::vector<std::uint32_t>(cursor_.begin(), cursor_.begin() + d));
        if (ct != counts_.end() && ct->second == cursor_[d]) {
          counts_.erase(ct);
          progressed = true;
          if (d == 0) {
            done_ = true;
            assert(pending_.empty() && counts_.empty());
          } else {
            cursor_[d] = 0;
            ++cursor_[d - 1];
          }
          break;  // re-check pending at the carried cursor
        }
        if (ct != counts_.end()) break;  // subtree not exhausted yet
        if (cursor_[d] != 0) break;      // mid-subtree; count not yet known
        // Count absent with cursor 0 at this level: this subtree may not
        // exist at all (cursor one past its parent's last child) — keep
        // walking up; the parent's count decides.
      }
      if (!progressed) return;  // wait for more records
    }
  }

  std::vector<std::uint32_t> cursor_;
  std::map<std::vector<std::uint32_t>, void*> pending_;
  std::map<std::vector<std::uint32_t>, std::uint32_t> counts_;
  bool done_ = false;
};

/// Run one heap-mode stage body, collecting its emitted heap tokens. The
/// input payload is consumed even on throw (run_heap owns it); tokens
/// already emitted before a throw are destroyed before rethrowing.
std::vector<void*> run_collect(const stage_rec& s, void* payload) {
  std::vector<void*> outs;
  erased_emit em;
  em.ctx = &outs;
  em.fn = [](void* c, void* t) {
    static_cast<std::vector<void*>*>(c)->push_back(t);
  };
  try {
    s.run_heap(payload, em);
  } catch (...) {
    if (s.destroy_out)
      for (void* t : outs) s.destroy_out(t);
    throw;
  }
  return outs;
}

/// Push `outs` tagged relative to input record `r` (parallel / unordered
/// stages: output order is derived from the input's path). Returns false —
/// with the unsent tokens destroyed — when the output queue closed under
/// us, i.e. the run was cancelled.
[[nodiscard]] bool push_tagged(bounded_queue<prec>& out, const stage_rec& s,
                               const prec& r, std::vector<void*>&& outs) {
  if (s.multi_out) {
    for (std::uint32_t j = 0; j < outs.size(); ++j) {
      prec c;
      c.path = r.path;
      c.path[r.depth] = j;
      c.depth = static_cast<std::uint8_t>(r.depth + 1);
      c.payload = outs[j];
      if (!out.push(c)) {
        if (s.destroy_out)
          for (std::size_t k = j; k < outs.size(); ++k) s.destroy_out(outs[k]);
        return false;
      }
    }
    prec cnt;
    cnt.path = r.path;
    cnt.depth = r.depth;
    cnt.is_count = true;
    cnt.count = static_cast<std::uint32_t>(outs.size());
    return out.push(cnt);
  }
  assert(outs.size() == 1 && "pipe::stage body must emit exactly once");
  prec o = r;
  o.payload = outs[0];
  if (!out.push(o)) {
    if (s.destroy_out) s.destroy_out(outs[0]);
    return false;
  }
  return true;
}

void pth_worker_stage(const stage_rec& s, bounded_queue<prec>& in,
                      bounded_queue<prec>& out) {
  for (;;) {
    auto v = in.pop();
    if (!v) break;
    if (v->is_count) {
      if (!out.push(*v)) break;  // counts pass through; paths are preserved
      continue;
    }
    if (!push_tagged(out, s, *v, run_collect(s, v->payload))) break;
  }
}

/// serial_in_order middle stage: reorder the input to elision order, run
/// the body inline, and restart sequence numbering on the output stream.
void pth_inorder_stage(const stage_rec& s, unsigned in_depth,
                       bounded_queue<prec>& in, bounded_queue<prec>& out) {
  reorderer ro(in_depth);
  std::uint32_t in_seq = 0;
  // The reorder buffer owns out-of-order payloads; destroy them on any exit
  // that leaves it non-empty (body throw, cancellation via closed queues).
  auto drop_pending = [&] {
    if (s.destroy_in) ro.for_each_pending([&](void* p) { s.destroy_in(p); });
  };
  try {
    bool live = true;
    for (;;) {
      auto v = in.pop();
      if (!v) break;
      ro.feed(*v, [&](void* payload) {
        if (!live) {  // output closed mid-drain: consume, don't run
          if (s.destroy_in) s.destroy_in(payload);
          return;
        }
        prec r;
        r.path[0] = in_seq++;
        r.depth = 1;
        live = push_tagged(out, s, r, run_collect(s, payload));
      });
      if (!live || ro.done()) break;
    }
  } catch (...) {
    drop_pending();
    throw;
  }
  drop_pending();  // no-op on a clean, completed run
  prec root;
  root.is_count = true;
  root.count = in_seq;
  (void)out.push(root);  // rejected iff cancelled; the count is moot then
}

void pth_sink_stage(const stage_rec& s, unsigned in_depth,
                    bounded_queue<prec>& in, detail::admission_ctl* ctl) {
  erased_emit none;
  auto retire = [&](void* payload) {
    s.run_heap(payload, none);
    if (ctl != nullptr) ctl->complete();
  };
  if (s.kind == stage_kind::serial_in_order) {
    reorderer ro(in_depth);
    auto drop_pending = [&] {
      if (s.destroy_in) ro.for_each_pending([&](void* p) { s.destroy_in(p); });
    };
    try {
      for (;;) {
        auto v = in.pop();
        if (!v) break;
        ro.feed(*v, retire);
        if (ro.done()) break;
      }
    } catch (...) {
      drop_pending();
      throw;
    }
    drop_pending();
  } else {
    for (;;) {
      auto v = in.pop();
      if (!v) break;
      if (!v->is_count) retire(v->payload);
    }
  }
}

exec_result run_pthreads_backend(graph& g, const exec_options& opt,
                                 detail::admission_ctl* ctl) {
  graph::plan p = g.compile();
  const std::size_t n = p.order.size();
  const unsigned workers = opt.workers ? opt.workers : 1;

  std::vector<std::unique_ptr<bounded_queue<prec>>> qs;
  qs.reserve(p.edges.size());
  for (auto e : p.edges)
    qs.push_back(
        std::make_unique<bounded_queue<prec>>(g.edge_at(e).opts.capacity));

  pth_fail fl;
  fl.ctl = ctl;
  fl.queues.reserve(qs.size());
  for (auto& q : qs) fl.queues.push_back(q.get());

  exec_result res;
  util::stopwatch sw;
  std::vector<std::vector<std::thread>> stage_threads(n);
  for (std::size_t i = 1; i < n; ++i) {
    const stage_rec& s = g.stage_at(p.order[i]);
    const unsigned in_depth = p.edge_depth[i - 1];
    auto* in = qs[i - 1].get();
    if (s.is_sink) {
      stage_threads[i].emplace_back([&fl, &s, in_depth, in, ctl] {
        try {
          pth_sink_stage(s, in_depth, *in, ctl);
        } catch (...) {
          fl.fail(std::current_exception());
        }
      });
    } else {
      auto* out = qs[i].get();
      if (s.kind == stage_kind::serial_in_order) {
        stage_threads[i].emplace_back([&fl, &s, in_depth, in, out] {
          try {
            pth_inorder_stage(s, in_depth, *in, *out);
          } catch (...) {
            fl.fail(std::current_exception());
          }
        });
      } else {
        const unsigned nthreads =
            s.kind == stage_kind::parallel ? workers : 1;
        for (unsigned t = 0; t < nthreads; ++t)
          stage_threads[i].emplace_back([&fl, &s, in, out] {
            try {
              pth_worker_stage(s, *in, *out);
            } catch (...) {
              fl.fail(std::current_exception());
            }
          });
      }
    }
  }

  // The source runs on the calling thread, numbering its stream directly.
  {
    const stage_rec& src = g.stage_at(p.order[0]);
    struct src_ctx {
      bounded_queue<prec>* q;
      void (*destroy)(void*);
      detail::admission_ctl* ctl;
      std::uint32_t seq = 0;
    } c{qs[0].get(), src.destroy_out, ctl};
    erased_emit em;
    em.ctx = &c;
    em.fn = [](void* cp, void* tok) {
      auto* ctx = static_cast<src_ctx*>(cp);
      if (ctx->ctl != nullptr && !ctx->ctl->admit()) {
        // Shed before numbering: the stream stays dense, so downstream
        // reorderers never wait on a sequence slot that will not arrive.
        if (ctx->destroy) ctx->destroy(tok);
        return;
      }
      prec r;
      r.path[0] = ctx->seq++;
      r.depth = 1;
      r.payload = tok;
      if (!ctx->q->push(r)) {
        // Queue closed under us: a downstream stage failed. Stop producing.
        if (ctx->destroy) ctx->destroy(tok);
        throw src_abort{};
      }
    };
    try {
      src.run_heap(nullptr, em);
      prec root;
      root.is_count = true;
      root.count = c.seq;
      (void)qs[0]->push(root);
    } catch (const src_abort&) {
      // Cancelled from elsewhere; that stage recorded the failure.
    } catch (...) {
      fl.fail(std::current_exception());
    }
    qs[0]->close();
  }

  for (std::size_t i = 1; i < n; ++i) {
    for (auto& t : stage_threads[i]) t.join();
    if (i < n - 1) qs[i]->close();
  }
  res.seconds = sw.seconds();

  if (std::exception_ptr err = fl.take()) {
    // All threads have exited; whatever is still buffered in the queues was
    // abandoned mid-stream. Queue j carries the *output* tokens of stage
    // order[j] — destroy the stranded payloads through that stage's hook.
    for (std::size_t j = 0; j < qs.size(); ++j) {
      const stage_rec& prod = g.stage_at(p.order[j]);
      for (prec& r : qs[j]->drain())
        if (!r.is_count && r.payload != nullptr && prod.destroy_out)
          prod.destroy_out(r.payload);
    }
    std::rethrow_exception(err);
  }
  return res;
}

// ---- TBB backend -----------------------------------------------------------
// Gathered-list tokens (paper Figure 10a): each token is the list of all
// live descendants of one source item, so expand stages grow the list in
// place and ordered filters recover elision order from token order alone.
// A feeder thread adapts the push-style source to the engine's pull-style
// first filter through a bounded queue, preserving input/compute overlap.

exec_result run_tbb_backend(graph& g, const exec_options& opt,
                            detail::admission_ctl* ctl) {
  graph::plan p = g.compile();
  const std::size_t n = p.order.size();
  const unsigned workers = opt.workers ? opt.workers : 1;
  using toklist = std::vector<void*>;

  // A filter's *input* is a gathered list whose elements are the previous
  // stage's output tokens: the engine reclaims parked/queued lists through
  // this hook when a failure cancels the run.
  auto list_destroy = [](void (*elem)(void*)) {
    return [elem](void* t) {
      std::unique_ptr<toklist> list(static_cast<toklist*>(t));
      if (elem)
        for (void* v : *list) elem(v);
    };
  };

  bounded_queue<void*> feed(g.edge_at(p.edges[0]).opts.capacity);
  std::exception_ptr feeder_err;
  std::thread feeder([&] {
    const stage_rec& src = g.stage_at(p.order[0]);
    struct fctx {
      bounded_queue<void*>* q;
      void (*destroy)(void*);
      detail::admission_ctl* ctl;
    } c{&feed, src.destroy_out, ctl};
    erased_emit em;
    em.ctx = &c;
    em.fn = [](void* cp, void* tok) {
      auto* ctx = static_cast<fctx*>(cp);
      if (ctx->ctl != nullptr && !ctx->ctl->admit()) {
        if (ctx->destroy) ctx->destroy(tok);
        return;
      }
      if (!ctx->q->push(tok)) {
        // Feed closed under us: the engine failed. Stop producing.
        if (ctx->destroy) ctx->destroy(tok);
        throw src_abort{};
      }
    };
    try {
      src.run_heap(nullptr, em);
    } catch (const src_abort&) {
      // Cancelled from elsewhere; the engine holds the failure.
    } catch (...) {
      feeder_err = std::current_exception();
    }
    feed.close();
  });

  tbbpipe::pipeline pl;
  pl.add_filter(tbbpipe::filter_mode::serial_in_order, [&feed](void*) -> void* {
    auto v = feed.pop();
    if (!v) return nullptr;
    return new toklist{*v};
  });
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const stage_rec& s = g.stage_at(p.order[i]);
    auto mode = s.kind == stage_kind::parallel
                    ? tbbpipe::filter_mode::parallel
                    : tbbpipe::filter_mode::serial_in_order;
    pl.add_filter(
        mode,
        [&s](void* t) -> void* {
          std::unique_ptr<toklist> list(static_cast<toklist*>(t));
          toklist next;
          next.reserve(list->size());
          erased_emit em;
          em.ctx = &next;
          em.fn = [](void* c, void* tok) {
            static_cast<toklist*>(c)->push_back(tok);
          };
          // run_heap consumes its input even on throw, so on failure the
          // leak set is exactly: outputs already gathered, plus the inputs
          // not yet consumed (everything after index `done`).
          std::size_t done = 0;
          try {
            for (void* v : *list) {
              s.run_heap(v, em);
              ++done;
            }
          } catch (...) {
            if (s.destroy_out)
              for (void* o : next) s.destroy_out(o);
            if (s.destroy_in)
              for (std::size_t k = done + 1; k < list->size(); ++k)
                s.destroy_in((*list)[k]);
            throw;
          }
          *list = std::move(next);
          return list.release();
        },
        list_destroy(s.destroy_in));
  }
  {
    const stage_rec& snk = g.stage_at(p.order[n - 1]);
    pl.add_filter(
        tbbpipe::filter_mode::serial_in_order,
        [&snk, ctl](void* t) -> void* {
          std::unique_ptr<toklist> list(static_cast<toklist*>(t));
          erased_emit none;
          std::size_t done = 0;
          try {
            for (void* v : *list) {
              snk.run_heap(v, none);
              if (ctl != nullptr) ctl->complete();
              ++done;
            }
          } catch (...) {
            if (snk.destroy_in)
              for (std::size_t k = done + 1; k < list->size(); ++k)
                snk.destroy_in((*list)[k]);
            throw;
          }
          return nullptr;
        },
        list_destroy(snk.destroy_in));
  }

  exec_result res;
  util::stopwatch sw;
  std::exception_ptr run_err;
  try {
    pl.run(opt.max_tokens ? opt.max_tokens : 4 * std::size_t{workers}, workers);
  } catch (...) {
    run_err = std::current_exception();
  }
  res.seconds = sw.seconds();
  // Unblock and retire the feeder (a failed engine stops pulling from the
  // feed), then reclaim whatever it had buffered. A feeder parked on a full
  // admission window would never see the feed close — shed it out first.
  if (run_err != nullptr && ctl != nullptr) ctl->cancel();
  feed.close();
  feeder.join();
  {
    const stage_rec& src = g.stage_at(p.order[0]);
    for (void* tok : feed.drain())
      if (src.destroy_out) src.destroy_out(tok);
  }
  if (run_err) std::rethrow_exception(run_err);
  if (feeder_err) std::rethrow_exception(feeder_err);
  return res;
}

}  // namespace

exec_result execute(graph& g, backend b, const exec_options& opt) {
  // One admission gate per run, shared by the source (admit) and the sink
  // (complete) ends across every backend lowering.
  std::unique_ptr<detail::admission_ctl> ctl;
  if (opt.admission.policy != admission_policy::none)
    ctl = std::make_unique<detail::admission_ctl>(opt.admission);

  auto run = [&]() -> exec_result {
    switch (b) {
      case backend::serial:
        return run_serial_elision(g, ctl.get());
      case backend::hyperqueue:
        return run_hyperqueue_backend(g, opt, /*force_element=*/false,
                                      ctl.get());
      case backend::hyperqueue_element:
        return run_hyperqueue_backend(g, opt, /*force_element=*/true,
                                      ctl.get());
      case backend::pthreads:
        return run_pthreads_backend(g, opt, ctl.get());
      case backend::tbb:
        return run_tbb_backend(g, opt, ctl.get());
    }
    throw std::logic_error("pipe::execute: unknown backend");
  };
  exec_result res = run();
  if (ctl) {
    res.admitted = ctl->admitted.load(std::memory_order_relaxed);
    res.shed = ctl->shed.load(std::memory_order_relaxed);
    res.admission_wait_ns = ctl->wait_ns.load(std::memory_order_relaxed);
  }
  return res;
}

// ---- app registry ----------------------------------------------------------

namespace {

struct registry_t {
  std::mutex mu;
  std::vector<std::string> names;
  std::map<std::string, app_factory> factories;
  std::map<std::string, std::string> references;  // (name|seed|mode) -> digest
};

registry_t& registry() {
  static registry_t r;
  return r;
}

std::string ref_key(const std::string& name, const app_params& p) {
  return name + "|" + std::to_string(p.seed) + (p.quick ? "|q" : "|f");
}

}  // namespace

void register_app(std::string name, app_factory make) {
  auto& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.factories.emplace(name, std::move(make)).second)
    r.names.push_back(std::move(name));
}

const std::vector<std::string>& registered_apps() {
  ensure_builtin_apps();
  return registry().names;
}

app_run run_app(const std::string& name, backend b, const app_params& p,
                const exec_options* opt_override) {
  ensure_builtin_apps();
  app_factory make;
  {
    auto& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    auto it = r.factories.find(name);
    if (it == r.factories.end())
      throw std::out_of_range("pipe::run_app: unknown app '" + name + "'");
    make = it->second;
  }

  app_run out;
  // Serial-elision reference digest, memoized per (app, seed, size). The
  // runner owns the equality gate: apps only declare kernels and a digest.
  {
    const std::string key = ref_key(name, p);
    auto& r = registry();
    std::unique_lock<std::mutex> lk(r.mu);
    auto it = r.references.find(key);
    if (it == r.references.end()) {
      lk.unlock();
      app_params ref_p = p;
      ref_p.workers = 1;
      auto ref_inst = make(ref_p);
      graph ref_g;
      ref_inst->describe(ref_g);
      (void)run_serial_elision(ref_g);
      std::string digest = ref_inst->digest();
      lk.lock();
      it = r.references.emplace(key, std::move(digest)).first;
    }
    out.reference = it->second;
  }

  auto inst = make(p);
  graph g;
  inst->describe(g);
  exec_options opt;
  if (opt_override) {
    opt = *opt_override;
  } else {
    opt.workers = p.workers;
  }
  // A failing run is a reportable result, not a crash of the harness: map
  // the backend's rethrown exception onto exec.outcome/error. The digest is
  // left empty (partial output must not masquerade as a result), so ok
  // stays false. graph_error still propagates — a miswired pipeline is a
  // caller bug, not a run outcome.
  try {
    out.exec = execute(g, b, opt);
    out.digest = inst->digest();
    out.ok = out.digest == out.reference;
  } catch (const graph_error&) {
    throw;
  } catch (const stall_error& e) {
    out.exec.outcome = run_outcome::stalled;
    out.exec.error = e.what();
  } catch (const std::exception& e) {
    out.exec.outcome = run_outcome::failed;
    out.exec.error = e.what();
  }
  return out;
}

}  // namespace hq::pipe

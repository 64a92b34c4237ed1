// Declarative pipeline front-end: the stage-graph builder.
//
// The paper's programming model makes the hyperqueue the abstraction, but
// every app still hand-wires its variant plumbing: queue construction,
// dispatcher loops, reorder buffers, thread pools. This builder absorbs that
// wiring the way Pipeflow does for modern-C++ pipelines: an app declares a
// linear chain of typed stages
//
//   pipe::graph g;
//   auto src = g.source<block>("read",     [&](pipe::emit<block> out) {...});
//   auto cmp = g.stage<block, block>("compress", pipe::stage_kind::parallel,
//                                    [](block&& b, pipe::emit<block> out) {...});
//   auto snk = g.sink<block>("write", pipe::stage_kind::serial_in_order,
//                            [&](block&& b) {...});
//   g.connect(src, cmp, opts);   // per-edge knobs travel on the connection
//   g.connect(cmp, snk, opts);
//
// and the runner (pipeline/runner.hpp) lowers the same description onto the
// serial elision, hyperqueues, the pthreads baseline, or the TBB baseline.
// Stage kinds:
//
//   serial_in_order — one in-flight activation, tokens in serial-elision
//                     order (sources, serial middle stages, sinks);
//   parallel        — any number of concurrent activations.
//
// `expand` stages may emit any number of tokens per input (dedup's
// coarse->refine fan-out); plain `stage`s emit exactly one. Per-edge knobs
// (edge_opts) carry the hyperqueue segment length, the slice batch and the
// bounded-queue capacity of the pthreads baseline — the numbers the
// hand-rolled variants hard-coded.
//
// The hyperqueue lowering follows the paper's producer-spawns-consumers
// idiom. Each serial stage and the sink has a hyperqueue in front of it; a
// run of consecutive parallel stages has none. Instead, the emitter of the
// stage feeding the run (the source or a serial stage) collects
// `slice_batch` tokens and spawns one task per batch, which carries each
// token through the run's bodies and pushes the results into the queue in
// front of the next serial stage or the sink.
//
// Each serial stage and the sink is a drain (sched/drain.hpp): no task
// waits for its input. A producer that pushed a batch runs the consumer's
// activation inline if it is idle (a closing producer shard starts one
// too); the activation takes only what the queue shows, runs the stage
// body on it and returns, one at a time. So the sink retires while the
// source still emits, on one worker too. The producers of a drain's queue
// may leave at most 2·P·B tokens untaken in it (B = the edge's
// slice_batch): over that a producer runs the drain itself, runs older
// producers of the same queue, or pauses while they run elsewhere.
//
// Run-ahead is bounded: at each batch the emitter claims its own newest
// run task back off its worker's deque if no thief took it, spawns the new
// batch (which stays exposed) and runs the claimed one inline
// (scheduler::claim_child). It claims only while one batch per other
// worker is still unstolen, so tokens emitted but not yet through the run
// stay below 2·P·batch however long the stream is. Every emitter claims,
// a source under admission control too; the time a claimed run holds the
// source back is what shed and bounded_wait see (admission_ctl::held).
//
// Misuse (type-mismatched edges, unattached stages, parallel sinks) throws
// graph_error at connect()/compile() time.
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/fault.hpp"
#include "core/hyperqueue.hpp"
#include "sched/spawn.hpp"

namespace hq::pipe {

enum class stage_kind { serial_in_order, parallel };

[[nodiscard]] const char* to_string(stage_kind k) noexcept;

/// Per-edge tuning knobs. One description drives every backend, so the
/// knobs cover all of them; each backend reads the subset it understands.
struct edge_opts {
  /// Bounded-queue slots in the pthreads baseline (the PARSEC-style
  /// hand-wired `bounded_queue<item> q(64)` numbers, now declarative).
  std::size_t capacity = 64;
  /// Tokens moved per slice grant (Section 5.2). On an edge into a
  /// parallel stage: tokens per spawned run task.
  std::size_t slice_batch = 16;
  /// Hyperqueue segment length (Section 5.1); 0 = 2 * slice_batch so a
  /// batch normally fits one contiguous grant. Ignored on an edge into a
  /// parallel stage, which has no queue.
  std::size_t segment_length = 0;
  /// Ignored. Kept only because the end-to-end benchmark's workload graphs
  /// still set it; it goes once they stop.
  double traffic = 1.0;
};

/// How the pipeline boundary treats offered work once the in-flight window
/// is full (tokens emitted by the source minus tokens retired by the sink).
/// Generalizes the hand-rolled selective-sync throttle the bzip2 port used:
///   none         — admit everything (the window is not enforced);
///   block        — source waits (helping the scheduler) for sink progress:
///                  lossless, output identical to the serial elision;
///   shed         — over-window tokens are dropped at the source and
///                  counted: lossy, bounded memory and bounded latency for
///                  the admitted. So are tokens offered while the source is
///                  late from running a claimed batch inline (bounded
///                  run-ahead; admission_ctl::held);
///   bounded_wait — block up to max_wait_ns, then shed; the same bound
///                  applies to how late a claimed batch makes the source.
enum class admission_policy { none, block, shed, bounded_wait };

struct admission_opts {
  admission_policy policy = admission_policy::none;
  /// Max in-flight tokens (source emissions not yet retired by the sink).
  std::size_t window = 1024;
  /// bounded_wait only: wait this long for the window to open, then shed.
  std::uint64_t max_wait_ns = 1000000;  // 1 ms
};

/// Thrown on pipeline misuse: type-mismatched edges, unattached stages,
/// missing source/sink, parallel sinks, over-deep fan-out nesting.
class graph_error : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// The typed emission handle a stage body writes its outputs through. A
/// lightweight (context, function) pair so the same body serves every
/// backend: the runner decides where emitted tokens actually go. On the
/// hyperqueue backends an emission into a parallel stage may run a batch of
/// that stage's bodies (and the parallel stages after it) inline, on the
/// emitting body's stack, before it returns: bounded run-ahead.
template <typename T>
class emit {
 public:
  using fn_t = void (*)(void*, T&&);
  emit(void* ctx, fn_t fn) : ctx_(ctx), fn_(fn) {}
  void operator()(T&& v) const { fn_(ctx_, std::move(v)); }

 private:
  void* ctx_;
  fn_t fn_;
};

namespace detail {

/// Runtime state of one run's admission window, shared by the source-side
/// gate (admit) and the retire counter (complete). A token retires where
/// its subtree ends: at the sink, or at an expand stage that emits nothing
/// for it (retire_dropped). A token an expand stage fans out to k > 1
/// outputs retires k times, so the window then counts the sink's tokens
/// rather than the source's. The runner owns one per execution and reads
/// the counters into exec_result.
struct admission_ctl {
  explicit admission_ctl(admission_opts o) : opts(o) {}

  admission_opts opts;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> wait_ns{0};
  std::atomic<bool> cancelled{false};

  /// Gate one offered token. True: admitted (counted). False: shed (counted)
  /// — the caller must drop the token without emitting it. Blocks per the
  /// policy, running ready tasks when called from a worker, plain backoff
  /// on threads outside the scheduler; it never admits past the window.
  /// cancel() unblocks every waiter (they shed).
  bool admit();

  /// True when admit() would park the caller right now: a full window under
  /// block or bounded_wait, not cancelled. The emitters flush their partial
  /// batch first, so the tokens the sink must retire to open the window are
  /// not held back behind the wait.
  [[nodiscard]] bool would_wait() const noexcept;

  /// Bounded run-ahead holds the source back too: its emitter runs a
  /// batch it claimed back inline (hq_spawner), or the consumer's drain
  /// (hq_emitter), and the run stays too short for the window ever to
  /// fill. held() books such a run as the source's lateness; the time the
  /// source then spends in its own body, between offers, pays it back.
  /// Under shed an offer is dropped while any lateness is owed, under
  /// bounded_wait once it exceeds max_wait_ns: the hold is the wait those
  /// policies bound. block and none owe nothing. `waiting`: the run was
  /// made because the window was full, and counts as admission wait. Source
  /// task only: no other thread reads late_ns / paced_at_ns.
  void held(std::int64_t start_ns, std::int64_t end_ns,
            bool waiting = false) noexcept;
  static std::int64_t clock_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  std::int64_t late_ns = 0;
  std::int64_t paced_at_ns = 0;  ///< when late_ns was last brought up to date

  /// One token retired (at the sink, or dropped by an expand stage): opens
  /// the window for the next waiter.
  void complete() noexcept {
    completed.fetch_add(1, std::memory_order_release);
  }

  /// Failure teardown: no more admissions, release blocked sources.
  void cancel() noexcept {
    cancelled.store(true, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    // `completed` is loaded first: each token's admit happens-before its
    // complete, so observing N completions (acquire, paired with the
    // release in complete()) implies observing >= N admissions. Clamped at
    // zero anyway — a fan-out above 1 retires more tokens than the source
    // admitted, which would otherwise wrap the unsigned difference.
    const std::uint64_t done = completed.load(std::memory_order_acquire);
    const std::uint64_t adm = admitted.load(std::memory_order_relaxed);
    return adm > done ? adm - done : 0;
  }
};

/// Type-erased emission: `token` points at a value the callee may move
/// from (value mode) or owns outright (heap mode), per the runner used.
struct erased_emit {
  void* ctx = nullptr;
  void (*fn)(void* ctx, void* token) = nullptr;
};

template <typename T>
emit<T> value_emit(const erased_emit& next) {
  return emit<T>(const_cast<erased_emit*>(&next), [](void* c, T&& v) {
    const auto* e = static_cast<const erased_emit*>(c);
    e->fn(e->ctx, &v);
  });
}

template <typename T>
emit<T> heap_emit(const erased_emit& next) {
  return emit<T>(const_cast<erased_emit*>(&next), [](void* c, T&& v) {
    const auto* e = static_cast<const erased_emit*>(c);
    e->fn(e->ctx, new T(std::move(v)));
  });
}

/// An erased emission target that puts each token (an Out the callee may
/// move from) into emitter `em`.
template <typename Out, typename Em>
erased_emit put_into(Em& em) {
  return {&em, [](void* c, void* tok) {
            static_cast<Em*>(c)->put(std::move(*static_cast<Out*>(tok)));
          }};
}

/// Call `body` with an emission target forwarding to `next`. With `ctl`
/// (callers pass it for expand stages only) an input the body emits
/// nothing for retires at the admission window here, where its subtree
/// ends, as a token the sink takes does: no other retirement will ever
/// match its admission. The serial elision, the hyperqueue run tasks and
/// the serial drains retire through this.
template <typename Body>
void retire_dropped(admission_ctl* ctl, const erased_emit& next, Body&& body) {
  if (ctl == nullptr) {
    body(next);
    return;
  }
  struct counted {
    const erased_emit* next;
    bool emitted;
  } c{&next, false};
  body(erased_emit{&c, [](void* p, void* tok) {
                     auto* cp = static_cast<counted*>(p);
                     cp->emitted = true;
                     cp->next->fn(cp->next->ctx, tok);
                   }});
  if (!c.emitted) ctl->complete();
}

/// A batch of tokens whose type the task carrying it does not name: the
/// producer in front of a parallel run fills one per spawn, and the run
/// task hands each token to the run's first body by address.
class token_batch {
 public:
  token_batch() = default;
  token_batch(const token_batch&) = delete;
  token_batch& operator=(const token_batch&) = delete;
  virtual ~token_batch() = default;
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  [[nodiscard]] virtual void* at(std::size_t i) noexcept = 0;
};

template <typename T>
class token_batch_of final : public token_batch {
 public:
  [[nodiscard]] std::size_t size() const noexcept override { return v.size(); }
  [[nodiscard]] void* at(std::size_t i) noexcept override { return &v[i]; }

  std::vector<T> v;
};

struct stage_rec;
struct hq_run;

/// Type-erased handle on one inter-stage hyperqueue, so the runner can
/// construct and probe channels without knowing token types.
class hq_chan_base {
 public:
  virtual ~hq_chan_base() = default;
  /// The drain consuming this queue: the next serial stage or the sink.
  hq::detail::drain drain;
  [[nodiscard]] virtual seg_pool_stats pool() const = 0;
  /// Push privilege for a producer that only spawns this queue's pushers.
  [[nodiscard]] virtual pushdep_any push_any() const = 0;
  /// Spawn one run task over `work` that pushes into this queue (called
  /// from the producer task holding push_any()); `ctl` retires what its
  /// expand stages drop.
  virtual void spawn_run(std::unique_ptr<token_batch> work, const hq_run& run,
                         admission_ctl* ctl) = 0;
};

/// A run of consecutive parallel stages, lowered without queues. The
/// emitter of the stage feeding the run batches its tokens and spawns one
/// run task per batch; the task carries each token through the run's
/// bodies in value mode (the serial elision's run_value chain) and pushes
/// the results into `out`, the queue in front of the next serial stage or
/// the sink. Spawn order is serial-elision order, so `out` sees exactly
/// the elision's token order.
struct hq_run {
  std::vector<const stage_rec*> stages;
  hq_chan_base* out = nullptr;
  std::size_t batch = 16;      ///< tokens per run task (spawn batch)
  std::size_t out_batch = 16;  ///< slice size of the pushes into `out`
};

/// Deliver one token through every body of `run`, handing the last body's
/// emissions to `last`; `ctl` (null without a window) retires the inputs
/// its expand stages drop.
void run_through(const hq_run& run, void* token, const erased_emit& last,
                 admission_ctl* ctl);

/// Resolved data-path knobs of one stage's input/output.
struct hq_knobs {
  std::size_t in_batch = 16;
  std::size_t out_batch = 16;
  /// Drains: this stage's own (input side; null for the source), and the
  /// one consuming its output queue directly (null when a run is between).
  hq::detail::drain* self = nullptr;
  hq::detail::drain* out_drain = nullptr;
  /// The backlog bound of `self`, in tokens: 2·P·in_batch.
  std::uint64_t backlog = 0;
  /// The parallel run this stage's output feeds (null: the output queue is
  /// in front of the next stage itself).
  const hq_run* run = nullptr;
  /// Admission gate, set by the runner on the source stage only: every
  /// emission passes admission_ctl::admit() and is dropped when it sheds.
  admission_ctl* admit = nullptr;
  /// The same window's retire counter, set on every stage: the sink
  /// retires each token it takes, an expand stage (or one in the run it
  /// feeds) each input it drops.
  admission_ctl* complete = nullptr;
};

/// Channel endpoints handed to a stage's hyperqueue lowering (null at the
/// chain ends). `out` is the queue the stage's tokens land in: the next
/// stage's input, or past the parallel run knobs.run.
struct hq_stage_ctx {
  hq_chan_base* in = nullptr;
  hq_chan_base* out = nullptr;
  hq_knobs knobs;
};

/// Buffers a stage body's emissions and moves them onto the output queue
/// through write slices, reserving room under the consuming drain's
/// backlog bound (sched/drain.hpp): before the first token of a batch
/// while the scan has not reached this producer (a short batch returns the
/// rest at its flush), else at the flush. Each flush kicks the drain: the
/// consumer runs as soon as a batch is visible, inline if it is idle.
template <typename Out>
class hq_emitter {
 public:
  hq_emitter(pushdep<Out>& out, std::size_t batch, admission_ctl* admit,
             hq::detail::drain* d)
      : out_(out), batch_(batch ? batch : 1), admit_(admit), drain_(d),
        uncaught_(std::uncaught_exceptions()) {}
  hq_emitter(pushdep<Out>& out, const hq_knobs& k)
      : hq_emitter(out, k.out_batch, k.admit, k.out_drain) {}
  hq_emitter(const hq_emitter&) = delete;
  hq_emitter& operator=(const hq_emitter&) = delete;
  ~hq_emitter() {
    // A body that is unwinding fails the run: its buffered tokens go with
    // it. Otherwise flush() can allocate a segment, so under allocation-
    // fault injection it may itself throw; route that failure into the
    // scheduler slot instead of terminating.
    if (std::uncaught_exceptions() != uncaught_) return;
    try {
      flush();
    } catch (...) {
      if (scheduler* s = scheduler::current())
        s->record_failure(std::current_exception());
      buf_.clear();
    }
  }

  emit<Out> handle() {
    return emit<Out>(this, [](void* c, Out&& v) {
      static_cast<hq_emitter*>(c)->put(std::move(v));
    });
  }

  void put(Out&& v) {
    // Admission gate (source stage only): a shed token dies here, before it
    // touches the queue — bounded memory is the point.
    if (admit_ != nullptr) {
      if (admit_->would_wait()) flush(/*waiting=*/true);
      if (!admit_->admit()) return;
    }
    if (buf_.empty() && drain_ != nullptr &&
        !out_.shard().scanned.load(std::memory_order_relaxed)) {
      // A hold here holds a source back as a flush's kick does.
      const std::int64_t t0 = admit_ != nullptr ? admission_ctl::clock_ns() : 0;
      drain_->reserve(batch_, pushed_, out_.shard());
      if (admit_ != nullptr) admit_->held(t0, admission_ctl::clock_ns());
      ahead_ = true;
    }
    buf_.push_back(std::move(v));
    if (buf_.size() >= batch_) flush();
  }

  /// Push the buffered tokens. The kick may run the consumer on this
  /// stack; in a source under admission control that time holds the source
  /// back (admission_ctl::held), and a flush made because the window is
  /// full is how the source waits for it.
  void flush(bool waiting = false) {
    if (buf_.empty()) return;
    const std::int64_t t0 = admit_ != nullptr ? admission_ctl::clock_ns() : 0;
    if (drain_ == nullptr) {
      push_slices(out_, buf_.begin(), buf_.end(), batch_);
      buf_.clear();
    } else {
      if (!ahead_) drain_->reserve(buf_.size(), pushed_, out_.shard());
      push_slices(out_, buf_.begin(), buf_.end(), batch_);
      pushed_ += buf_.size();
      if (ahead_ && buf_.size() < batch_)
        drain_->unreserve(batch_ - buf_.size());
      ahead_ = false;
      buf_.clear();
      drain_->kick();
    }
    if (admit_ != nullptr) admit_->held(t0, admission_ctl::clock_ns(), waiting);
  }

 private:
  pushdep<Out>& out_;
  std::vector<Out> buf_;
  std::size_t batch_;
  admission_ctl* admit_;
  hq::detail::drain* drain_;
  std::uint64_t pushed_ = 0;  ///< tokens this emitter put on the queue
  bool ahead_ = false;  ///< the buffered batch reserved before it started
  const int uncaught_;  ///< std::uncaught_exceptions() at construction
};

/// The emitter of a stage feeding a parallel run: collects run.batch
/// tokens, then spawns a run task over them from the calling stage task.
/// Each flush first claims the task's newest unstolen run task
/// (scheduler::claim_child), spawns the new batch, then runs the claimed
/// batch inline — the emitter works off its own backlog instead of running
/// ahead of the run by the whole stream. A source under admission control
/// books each claimed run with admission_ctl::held(). The flush in the
/// destructor of a body that is unwinding only spawns: the failed body's
/// tokens are left to the cancelled join.
template <typename Out>
class hq_spawner {
 public:
  hq_spawner(const pushdep_any&, const hq_knobs& k)
      : k_(k), uncaught_(std::uncaught_exceptions()) {}
  hq_spawner(const hq_spawner&) = delete;
  hq_spawner& operator=(const hq_spawner&) = delete;
  ~hq_spawner() {
    // As hq_emitter: the final partial batch is spawned here, and a failing
    // spawn (injected allocation fault) must not terminate.
    try {
      flush(std::uncaught_exceptions() == uncaught_);
    } catch (...) {
      if (scheduler* s = scheduler::current())
        s->record_failure(std::current_exception());
    }
  }

  emit<Out> handle() {
    return emit<Out>(this, [](void* c, Out&& v) {
      static_cast<hq_spawner*>(c)->put(std::move(v));
    });
  }

  void put(Out&& v) {
    if (k_.admit != nullptr) {
      if (k_.admit->would_wait()) flush();
      if (!k_.admit->admit()) return;
    }
    if (!work_) {
      work_ = std::make_unique<token_batch_of<Out>>();
      work_->v.reserve(k_.run->batch);
    }
    work_->v.push_back(std::move(v));
    if (work_->v.size() >= k_.run->batch) flush();
  }

  void flush(bool claim = true) {
    if (!work_) return;
    scheduler& s = *scheduler::current();
    hq::detail::task_frame* mine = claim ? s.claim_child() : nullptr;
    try {
      k_.run->out->spawn_run(std::move(work_), *k_.run, k_.complete);
    } catch (...) {
      // A popped frame is off every deque: it must run, or the join hangs.
      if (mine != nullptr) run_claimed(s, mine);
      throw;
    }
    if (mine != nullptr) run_claimed(s, mine);
  }

 private:
  void run_claimed(scheduler& s, hq::detail::task_frame* t) {
    if (k_.admit == nullptr) {
      s.run_claimed(t);
      return;
    }
    const std::int64_t start = admission_ctl::clock_ns();
    s.run_claimed(t);
    k_.admit->held(start, admission_ctl::clock_ns());
  }

  const hq_knobs k_;
  const int uncaught_;  ///< std::uncaught_exceptions() at construction
  std::unique_ptr<token_batch_of<Out>> work_;
};

/// What a stage task emits through, by the output dependence it was
/// spawned with: the queue itself (pushdep<Out>) or a run (pushdep_any).
template <typename Out, typename Dep>
using hq_output_t = std::conditional_t<std::is_same_v<Dep, pushdep_any>,
                                       hq_spawner<Out>, hq_emitter<Out>>;

// ---- hyperqueue stage lowering ----------------------------------------------
// The source is one task, made by the runner's root first and run in place
// on its thread. Every serial stage and the sink is a drain (sched/drain.hpp)
// whose frame the root creates after it, in declaration order — the
// serial-elision order the queues' definitive-empty gate relies on. Parallel
// stages have no frame of their own: they run inside the run tasks their
// producer's hq_spawner spawns.

template <typename Out, typename Dep>
void hq_source_task(std::function<void(emit<Out>)> body, hq_knobs k,
                    Dep out) {
  hq_output_t<Out, Dep> em(out, k);
  body(em.handle());
}

/// Serial stage, one activation per call: consumes what its queue shows
/// now through read slices, in serial-elision order (so in-order needs
/// nothing extra), then hands on its partial output batch. At the end of
/// the stream it flushes for good and ends its drain. An expand stage
/// retires each input it drops.
template <typename In, typename Out, typename Dep>
class hq_serial_drain {
 public:
  hq_serial_drain(std::function<void(In&&, emit<Out>)> body, hq_knobs k,
                  bool expand)
      : body_(std::move(body)), k_(k),
        drops_(expand ? k.complete : nullptr) {}

  void operator()(popdep<In>& in, Dep& out) {
    if (!em_) em_ = std::make_unique<hq_output_t<Out, Dep>>(out, k_);
    const erased_emit to_em = put_into<Out>(*em_);
    for (;;) {
      bool ended = false;
      auto rs = in.poll_read_slice(k_.in_batch, &ended);
      if (rs.empty()) {
        if (ended) {
          em_.reset();
          k_.self->end();
        } else {
          em_->flush();
        }
        return;
      }
      for (auto& v : rs) {
        retire_dropped(drops_, to_em, [&](const erased_emit& e) {
          body_(std::move(v), value_emit<Out>(e));
        });
      }
      const std::size_t n = rs.size();
      rs.release();
      k_.self->retired(n);
    }
  }

 private:
  std::function<void(In&&, emit<Out>)> body_;
  hq_knobs k_;
  admission_ctl* drops_;  ///< the window, for an expand stage only
  std::unique_ptr<hq_output_t<Out, Dep>> em_;
};

/// The sink, one activation per call; retires each token at the admission
/// boundary.
template <typename In>
class hq_sink_drain {
 public:
  hq_sink_drain(std::function<void(In&&)> body, hq_knobs k)
      : body_(std::move(body)), k_(k) {}

  void operator()(popdep<In>& in) {
    for (;;) {
      bool ended = false;
      auto rs = in.poll_read_slice(k_.in_batch, &ended);
      if (rs.empty()) {
        if (ended) k_.self->end();
        return;
      }
      for (auto& v : rs) {
        body_(std::move(v));
        if (k_.complete != nullptr) k_.complete->complete();
      }
      const std::size_t n = rs.size();
      rs.release();
      k_.self->retired(n);
    }
  }

 private:
  std::function<void(In&&)> body_;
  hq_knobs k_;
};

/// One batch through a parallel run, pushed into the run's output queue.
template <typename T>
void hq_run_task(std::unique_ptr<token_batch> work, const hq_run* run,
                 admission_ctl* ctl, pushdep<T> out) {
  hq_emitter<T> em(out, run->out_batch, nullptr, &run->out->drain);
  const erased_emit last = put_into<T>(em);
  for (std::size_t i = 0; i < work->size(); ++i)
    run_through(*run, work->at(i), last, ctl);
}

template <typename T>
class hq_chan final : public hq_chan_base {
 public:
  explicit hq_chan(std::size_t seglen) : q(seglen) { q.set_drain(&drain); }
  [[nodiscard]] seg_pool_stats pool() const override { return q.pool_stats(); }
  [[nodiscard]] pushdep_any push_any() const override { return q; }
  void spawn_run(std::unique_ptr<token_batch> work, const hq_run& run,
                 admission_ctl* ctl) override {
    hq::spawn(hq_run_task<T>, std::move(work), &run, ctl, (pushdep<T>)q);
  }

  hyperqueue<T> q;
};

/// One declared stage, with its typed behavior captured behind erased
/// runners so the backends stay non-template code.
struct stage_rec {
  std::string name;
  stage_kind kind = stage_kind::parallel;
  bool is_source = false;
  bool is_sink = false;
  bool multi_out = false;  ///< expand stage: 0..N emissions per input
  std::type_index in_type = typeid(void);
  std::type_index out_type = typeid(void);
  std::string in_type_name;
  std::string out_type_name;
  int in_edge = -1;
  int out_edge = -1;
  /// Value-mode runner (serial elision): `token` points at an In the body
  /// may move from (null for sources); emissions pass pointers into callee
  /// stack space, so the whole chain runs without heap traffic.
  std::function<void(void* token, const erased_emit& next)> run_value;
  /// Heap-mode runner (pthreads/TBB backends): `token` is an owned heap In*
  /// (consumed); emissions are owned heap Out*.
  std::function<void(void* token, const erased_emit& next)> run_heap;
  /// Hyperqueue lowering over the typed channels: the source returns its
  /// task, made but not yet launched; a serial stage or the sink creates
  /// its drain's frame and returns null. Empty for parallel stages, which
  /// run inside their producer's runs.
  std::function<hq::detail::task_frame*(const hq_stage_ctx&)> hq_spawn;
  /// Factory for this stage's *output* channel (typed on Out).
  std::function<std::unique_ptr<hq_chan_base>(std::size_t seglen)>
      make_out_chan;
  /// Destroy an owned heap token of this stage's input / output type. The
  /// pthreads and TBB backends use these to drain in-flight tokens leak-free
  /// when a failure tears the pipeline down mid-stream (null at chain ends).
  void (*destroy_in)(void*) = nullptr;
  void (*destroy_out)(void*) = nullptr;
};

struct edge_rec {
  std::size_t from = 0;
  std::size_t to = 0;
  edge_opts opts;
  std::type_index type = typeid(void);
};

}  // namespace detail

using stage_id = std::size_t;

/// The declared stage graph (currently a linear chain with typed edges;
/// expand stages carry fan-out *within* the chain, the shape all three
/// PARSEC pipelines and the planned FEC family need).
class graph {
 public:
  /// Reorder paths track at most this many nested expand levels.
  static constexpr unsigned kMaxDepth = 4;

  /// Declare the (single) source. Runs as one in-order activation; `body`
  /// receives the emission handle: void(emit<Out>).
  template <typename Out, typename F>
  stage_id source(std::string name, F&& body) {
    // Every stage body runs behind a named fault site ("stage.<name>") on
    // every backend — the injection choke point the declarative front-end
    // buys us. Cost when no plan is installed: one relaxed load per
    // activation.
    std::function<void(emit<Out>)> fn =
        [site = "stage." + name,
         inner = std::function<void(emit<Out>)>(std::forward<F>(body))](
            emit<Out> out) {
          hq::fault::crashpoint(site);
          inner(out);
        };
    detail::stage_rec s;
    s.name = std::move(name);
    s.kind = stage_kind::serial_in_order;
    s.is_source = true;
    fill_out_type<Out>(&s);
    s.run_value = [fn](void*, const detail::erased_emit& next) {
      fn(detail::value_emit<Out>(next));
    };
    s.run_heap = [fn](void*, const detail::erased_emit& next) {
      fn(detail::heap_emit<Out>(next));
    };
    s.hq_spawn = [fn](const detail::hq_stage_ctx& c) {
      if (c.knobs.run != nullptr)
        return hq::detail::make_task(detail::hq_source_task<Out, pushdep_any>,
                                     fn, c.knobs, c.out->push_any());
      auto& q = static_cast<detail::hq_chan<Out>*>(c.out)->q;
      return hq::detail::make_task(detail::hq_source_task<Out, pushdep<Out>>,
                                   fn, c.knobs, (pushdep<Out>)q);
    };
    stages_.push_back(std::move(s));
    return stages_.size() - 1;
  }

  /// Declare a 1:1 transform stage; `body` is void(In&&, emit<Out>) and
  /// must emit exactly once per input.
  template <typename In, typename Out, typename F>
  stage_id stage(std::string name, stage_kind kind, F&& body) {
    return add_middle<In, Out>(std::move(name), kind,
                               std::forward<F>(body), /*multi_out=*/false);
  }

  /// Declare a 1:N expansion stage (dedup's coarse->refine split); `body`
  /// may emit any number of tokens per input, including zero.
  template <typename In, typename Out, typename F>
  stage_id expand(std::string name, stage_kind kind, F&& body) {
    return add_middle<In, Out>(std::move(name), kind,
                               std::forward<F>(body), /*multi_out=*/true);
  }

  /// Declare the (single) sink; `body` is void(In&&) and observes tokens in
  /// serial-elision order on every backend. The sink must be
  /// serial_in_order: parallel sinks are rejected at compile().
  template <typename In, typename F>
  stage_id sink(std::string name, stage_kind kind, F&& body) {
    std::function<void(In&&)> fn =
        [site = "stage." + name,
         inner = std::function<void(In &&)>(std::forward<F>(body))](In&& v) {
          hq::fault::crashpoint(site);
          inner(std::move(v));
        };
    detail::stage_rec s;
    s.name = std::move(name);
    s.kind = kind;
    s.is_sink = true;
    fill_in_type<In>(&s);
    s.run_value = [fn](void* t, const detail::erased_emit&) {
      fn(std::move(*static_cast<In*>(t)));
    };
    s.run_heap = [fn](void* t, const detail::erased_emit&) {
      std::unique_ptr<In> own(static_cast<In*>(t));
      fn(std::move(*own));
    };
    s.hq_spawn = [fn](const detail::hq_stage_ctx& c) -> hq::detail::task_frame* {
      auto& q = static_cast<detail::hq_chan<In>*>(c.in)->q;
      hq::detail::make_drain_frame(*c.knobs.self, c.knobs.backlog,
                                   detail::hq_sink_drain<In>(fn, c.knobs),
                                   (popdep<In>)q);
      return nullptr;
    };
    stages_.push_back(std::move(s));
    return stages_.size() - 1;
  }

  /// Connect `from`'s output to `to`'s input. Throws graph_error when the
  /// token types disagree or either port is already connected.
  void connect(stage_id from, stage_id to, edge_opts opts = {});

  // ---- introspection (tests, runner) ----
  [[nodiscard]] std::size_t num_stages() const noexcept { return stages_.size(); }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }
  [[nodiscard]] const detail::stage_rec& stage_at(std::size_t i) const {
    return stages_.at(i);
  }
  [[nodiscard]] const detail::edge_rec& edge_at(std::size_t i) const {
    return edges_.at(i);
  }

  /// The validated execution plan: stages in chain order plus the reorder
  /// depth of every edge's tokens (how many (seq, subseq, ...) levels a
  /// baseline reorder buffer must track).
  struct plan {
    std::vector<std::size_t> order;    ///< stage indices, source..sink
    std::vector<std::size_t> edges;    ///< edge indices; edges[i]: order[i]->order[i+1]
    std::vector<unsigned> edge_depth;  ///< reorder-path depth on edges[i]
  };

  /// Validate the declared graph and derive the chain. Throws graph_error
  /// on misuse (no/duplicate source or sink, unattached stage, parallel
  /// sink, fan-out nesting beyond kMaxDepth).
  [[nodiscard]] plan compile() const;

 private:
  template <typename In, typename Out, typename F>
  stage_id add_middle(std::string name, stage_kind kind, F&& body,
                      bool multi_out) {
    std::function<void(In&&, emit<Out>)> fn =
        [site = "stage." + name,
         inner = std::function<void(In&&, emit<Out>)>(std::forward<F>(body))](
            In&& v, emit<Out> out) {
          hq::fault::crashpoint(site);
          inner(std::move(v), out);
        };
    detail::stage_rec s;
    s.name = std::move(name);
    s.kind = kind;
    s.multi_out = multi_out;
    fill_in_type<In>(&s);
    fill_out_type<Out>(&s);
    s.run_value = [fn](void* t, const detail::erased_emit& next) {
      fn(std::move(*static_cast<In*>(t)), detail::value_emit<Out>(next));
    };
    s.run_heap = [fn](void* t, const detail::erased_emit& next) {
      std::unique_ptr<In> own(static_cast<In*>(t));
      fn(std::move(*own), detail::heap_emit<Out>(next));
    };
    // Parallel stages get no frame of their own (see hq_run).
    if (kind != stage_kind::parallel) {
      s.hq_spawn = [fn, multi_out](
                       const detail::hq_stage_ctx& c) -> hq::detail::task_frame* {
        auto& inq = static_cast<detail::hq_chan<In>*>(c.in)->q;
        if (c.knobs.run != nullptr) {
          hq::detail::make_drain_frame(
              *c.knobs.self, c.knobs.backlog,
              detail::hq_serial_drain<In, Out, pushdep_any>(fn, c.knobs,
                                                            multi_out),
              (popdep<In>)inq, c.out->push_any());
        } else {
          auto& outq = static_cast<detail::hq_chan<Out>*>(c.out)->q;
          hq::detail::make_drain_frame(
              *c.knobs.self, c.knobs.backlog,
              detail::hq_serial_drain<In, Out, pushdep<Out>>(fn, c.knobs,
                                                             multi_out),
              (popdep<In>)inq, (pushdep<Out>)outq);
        }
        return nullptr;
      };
    }
    stages_.push_back(std::move(s));
    return stages_.size() - 1;
  }

  template <typename In>
  void fill_in_type(detail::stage_rec* s) {
    s->in_type = typeid(In);
    s->in_type_name = typeid(In).name();
    s->destroy_in = [](void* p) { delete static_cast<In*>(p); };
  }

  template <typename Out>
  void fill_out_type(detail::stage_rec* s) {
    s->out_type = typeid(Out);
    s->out_type_name = typeid(Out).name();
    s->destroy_out = [](void* p) { delete static_cast<Out*>(p); };
    s->make_out_chan =
        [](std::size_t seglen) -> std::unique_ptr<detail::hq_chan_base> {
      return std::make_unique<detail::hq_chan<Out>>(seglen);
    };
  }

  std::vector<detail::stage_rec> stages_;
  std::vector<detail::edge_rec> edges_;
};

}  // namespace hq::pipe

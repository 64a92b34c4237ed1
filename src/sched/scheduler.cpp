#include "sched/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <utility>

#include "core/queue_cb.hpp"  // qattach, for nesting safety + the attach pool
#include "sched/watchdog.hpp"

namespace hq {

namespace detail {

constinit thread_local worker_ctx* t_worker = nullptr;

task_frame* current_frame() noexcept {
  return t_worker ? t_worker->current : nullptr;
}

}  // namespace detail

using detail::task_frame;
using detail::worker_ctx;

scheduler* scheduler::current() noexcept {
  return detail::t_worker ? detail::t_worker->sched : nullptr;
}

namespace {

/// Cross-worker return-stack bound for the frame/attachment pools (see
/// sched/obj_pool.hpp: beyond this many parked returns a freed block
/// migrates to the freeing worker's own magazine instead). Pool memory
/// itself is bounded by the peak in-flight record count, not by this bound.
constexpr std::size_t kPoolReturnCap = 4096;

/// HQ_WATCHDOG_MS: no-progress interval (milliseconds) after which a run is
/// cancelled with a stall diagnostic. 0 / unset = disabled.
unsigned watchdog_ms_from_env() {
  if (const char* env = std::getenv("HQ_WATCHDOG_MS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  return 0;
}

}  // namespace

scheduler::scheduler(unsigned num_workers) {
  if (num_workers == 0) {
    num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    auto w = std::make_unique<worker_ctx>();
    w->sched = this;
    w->index = i;
    workers_.push_back(std::move(w));
  }

  frame_pool_.init(num_workers, sizeof(task_frame), kPoolReturnCap);
  // The attach pool serves both per-(task, queue) attachments and producer
  // shard records (core/shard.hpp): one block size covering the larger of
  // the two keeps every spawn-path allocation on the per-worker magazines.
  attach_pool_.init(num_workers,
                    std::max(sizeof(detail::qattach), sizeof(detail::pshard)),
                    kPoolReturnCap);

  // Worker 0 is whichever thread calls run().
  threads_.reserve(num_workers - 1);
  for (unsigned i = 1; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

scheduler::~scheduler() {
  stop_.store(true, std::memory_order_release);
  work_epoch_.fetch_add(1, std::memory_order_release);
  idle_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void scheduler::run_root(task_fn fn) {
  assert(detail::t_worker == nullptr &&
         "run() must not be called from inside a task; use spawn()");
  // The caller is worker 0 until the root returns, and unbound again on
  // every exit, also when the root's allocation throws.
  struct bind_caller {
    explicit bind_caller(worker_ctx* w) noexcept { detail::t_worker = w; }
    ~bind_caller() { detail::t_worker = nullptr; }
    bind_caller(const bind_caller&) = delete;
    bind_caller& operator=(const bind_caller&) = delete;
  } bound(workers_[0].get());
  // Arm the stall watchdog for the duration of this run: set_watchdog's
  // interval once called, else HQ_WATCHDOG_MS read now, so a scheduler kept
  // resident across runs follows the knob. Its monitor thread cancels a
  // no-progress run with a stall_error diagnostic, which surfaces through
  // the rethrow below.
  const unsigned dog_ms = watchdog_set_ ? watchdog_ms_ : watchdog_ms_from_env();
  std::optional<watchdog> dog;
  if (dog_ms > 0) {
    watchdog::options wo;
    wo.interval = std::chrono::milliseconds(dog_ms);
    wo.grace_intervals = watchdog_grace_;
    dog.emplace(*this, wo);
  }
  task_frame* root = alloc_frame(nullptr);
  root->fn = std::move(fn);
  // The root has no dependences and no parent: run it here. Its implicit
  // join waits for every frame of the run, and finish() recycles the root
  // before execute() returns, so the pools are quiescent from here on.
  execute(root);
  dog.reset();
  // Surface the run's first failure on the calling thread. The root has
  // completed, so every frame was executed (bodies skipped once cancelling)
  // and every queue torn down — resetting the epoch leaves the scheduler
  // ready for the next run().
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(failure_mu_);
    err = std::exchange(failure_, nullptr);
  }
  cancelled_.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);
}

void scheduler::record_failure(std::exception_ptr e) noexcept {
  {
    std::lock_guard<std::mutex> lk(failure_mu_);
    if (!failure_) failure_ = std::move(e);
  }
  cancelled_.store(true, std::memory_order_release);
  // Parked workers wake within their 10ms safety-net timeout and then help
  // drain the (body-skipping) remainder; no extra signalling needed.
}

void scheduler::enqueue(task_frame* t) {
  assert(t->sched == this);
  worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->sched == this && "enqueue() off a worker");
  w->deque.push_bottom(t);
  // Publish-then-check handshake with parking workers: the task publish
  // above must be ordered before the idle probe, exactly as a parking
  // worker orders its num_idle_ increment before its last work probe
  // (worker_main). One of the two sides is guaranteed to see the other, so
  // spawns with no parked worker — the hot path — touch neither the shared
  // work_epoch_ line nor the condition variable.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_idle();
}

void scheduler::wake_idle() {
  if (num_idle_.load(std::memory_order_relaxed) > 0) {
    work_epoch_.fetch_add(1, std::memory_order_release);
    idle_cv_.notify_one();
  }
}

task_frame* scheduler::try_steal(worker_ctx& w) {
  const unsigned n = num_workers();
  if (n <= 1) return nullptr;
  std::uint64_t attempts = 0;
  task_frame* found = nullptr;
  // Two sweeps over every other worker in index rotation, starting after
  // this one, so thieves spread over different victims.
  for (unsigned round = 0; round < 2 && found == nullptr; ++round) {
    unsigned victim = w.index;
    for (unsigned j = 1; j < n; ++j) {
      if (++victim == n) victim = 0;
      ++attempts;
      if (task_frame* t = workers_[victim]->deque.steal()) {
        detail::bump(w.counters.steals);
        found = t;
        break;
      }
    }
  }
  detail::bump(w.counters.steal_attempts, attempts);
  return found;
}

task_frame* scheduler::find_task(worker_ctx& w) {
  if (task_frame* t = w.deque.pop_bottom()) return t;
  return try_steal(w);
}

bool scheduler::work_available() const {
  for (const auto& w : workers_) {
    if (w->deque.size_estimate() > 0) return true;
  }
  return false;
}

namespace {

bool is_spawn_ancestor(const task_frame* anc, const task_frame* t) {
  for (const task_frame* p = t->parent; p != nullptr; p = p->parent) {
    if (p == anc) return true;
  }
  return false;
}

/// True when frame `a` comes before frame `b` in serial-elision order.
/// Neither may be an ancestor of the other. Climbs both to their lowest
/// common ancestor and compares the spawn order of the two children of it
/// on the paths; every frame visited is live (a parent outlives its
/// children) and spawn_index is immutable, so the walk is race-free.
bool elision_precedes(const task_frame* a, const task_frame* b) {
  while (a->depth > b->depth) a = a->parent;
  while (b->depth > a->depth) b = b->parent;
  assert(a != b && "elision_precedes on an ancestor pair");
  while (a->parent != b->parent) {
    a = a->parent;
    b = b->parent;
  }
  return a->spawn_index < b->spawn_index;
}

/// Help-while-blocked deadlock avoidance. A blocking wait that helps may
/// pull any ready task, including a pop-privileged (consumer) task `cand`.
/// Executing it nested on this worker is unsafe when a frame `f` suspended
/// on the worker's execution stack is one cand's blocking pop can wait on,
/// while f resumes only after cand returns — a cycle that spins forever:
///  * f holds a live *spawned* push attachment on a queue cand pops (the
///    scan blocks at f's still-open shard);
///  * f holds any live spawned attachment and precedes cand in serial-
///    elision order. cand may then wait on f transitively: a sink nested
///    on the stage two edges upstream waits for the middle stage, which
///    waits for the end of the stream that f closes only on completion.
/// Spawn-tree ancestors of cand are exempt: a descendant consumer never
/// waits on an ancestor's own later pushes (its visible range was frozen at
/// its spawn, before the ancestor's continuation shard), which also keeps
/// the paper's producer-spawns-consumer idiom executable on one worker. The
/// owner attachment (parent == nullptr) is exempt for the same reason.
/// Refusing a later consumer never blocks progress: every wait that helps
/// depends only on earlier frames or on the waiter's own descendants
/// (backlog holds and admission waits pause instead of helping), so the
/// refused task is re-exposed for another worker, or runs once the stack
/// unwinds.
/// All frames inspected are either suspended on this worker's own stack or
/// not yet started, so their attachment lists are stable.
bool safe_to_nest(task_frame* host, task_frame* cand) {
  for (detail::qattach* at : cand->attachments) {
    if ((at->priv & detail::kPrivPop) == 0) continue;
    for (task_frame* f = host; f != nullptr; f = f->exec_parent) {
      if (is_spawn_ancestor(f, cand)) continue;
      for (detail::qattach* af : f->attachments) {
        if (af->parent == nullptr) continue;
        if (af->q == at->q && (af->priv & detail::kPrivPush) != 0) return false;
        if (elision_precedes(f, cand)) return false;
      }
    }
  }
  return true;
}

}  // namespace

bool scheduler::help_one(const task_frame* joiner) {
  worker_ctx* w = detail::t_worker;
  if (w == nullptr || w->sched != this) return false;
  // Two attempts: if the first pick is unsafe to nest, re-expose it and try
  // the opposite end of the local deque once (steal takes the oldest task).
  // When the deque held nothing else, steal hands the deferred task straight
  // back — recognize it and stop rather than churn.
  task_frame* deferred = nullptr;
  for (int attempt = 0; attempt < 2; ++attempt) {
    task_frame* t = nullptr;
    if (attempt == 0) {
      // A join runs the joiner's own children in spawn order. The floor
      // keeps the take off everything pushed before the joiner started —
      // the pending siblings of the frames below it on this worker's stack
      // — which pop_bottom below never reaches while the joiner has
      // children of its own on the deque.
      if (joiner != nullptr) t = w->deque.take_top(joiner->deque_floor);
      if (t == nullptr) t = find_task(*w);
    } else {
      t = w->deque.steal();
    }
    if (t == nullptr) return false;
    if (t == deferred) {
      w->deque.push_bottom(t);  // already exposed and advertised once
      return false;
    }
    if (w->current != nullptr && !safe_to_nest(w->current, t)) {
      enqueue(t);  // re-expose: a parked worker can run it at top level
      deferred = t;
      continue;
    }
    detail::bump(w->counters.helps);
    execute(t);
    return true;
  }
  return false;
}

task_frame* scheduler::claim_child() {
  worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->sched == this && w->current != nullptr &&
         "claim_child outside a task");
  task_frame* cur = w->current;
  const std::int64_t keep =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(num_workers()) - 1);
  if (w->deque.count_from(cur->deque_floor) < keep) return nullptr;
  // The newest child may sit under a batch another emitter left exposed (a
  // later drain's, spawned while one of ours ran inline): look a few frames
  // deep, then put back what is not ours, in order. Every frame popped here
  // was already advertised when it was enqueued.
  constexpr int kDepth = 8;
  task_frame* skipped[kDepth];
  int n = 0;
  task_frame* found = nullptr;
  while (n < kDepth) {
    task_frame* t = w->deque.pop_bottom_from(cur->deque_floor);
    if (t == nullptr) break;
    if (t->parent == cur) {
      found = t;
      break;
    }
    skipped[n++] = t;
  }
  if (found != nullptr && !safe_to_nest(cur, found)) {
    w->deque.push_bottom(found);
    found = nullptr;
  }
  while (n > 0) w->deque.push_bottom(skipped[--n]);
  return found;
}

void scheduler::run_claimed(task_frame* t) {
  detail::bump(detail::t_worker->counters.inline_runs);
  execute(t);
}

void scheduler::run_in_place(task_frame* t) {
  if (t->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) execute(t);
}

void scheduler::join_children(bool cancellable) {
  worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->sched == this && w->current != nullptr &&
         "join outside a task");
  const task_frame* f = w->current;
  backoff bo;
  while (f->live_children.load(std::memory_order_acquire) != 0) {
    if (cancellable && cancelled()) throw detail::cancel_unwind{};
    if (help_one(f)) {
      bo.reset();
    } else {
      bo.pause();
    }
  }
}

void scheduler::execute(task_frame* t) {
  worker_ctx* w = detail::t_worker;
  assert(w != nullptr);
  task_frame* prev = w->current;
  t->exec_parent = prev;
  t->deque_floor = w->deque.bottom_index();
  w->current = t;
  detail::bump(w->counters.executed);

  // The failure guard. Cost when nothing throws: one relaxed load and a
  // zero-overhead (table-driven) try region around the existing basic_fn
  // invoke — no allocation, nothing added to the spawn path. Once the run
  // is cancelling, frames skip their bodies entirely: the completion
  // protocol below still runs, so join counters, completion hooks (queue
  // shard reduction) and attachments unwind exactly as on success.
  if (!cancelled_.load(std::memory_order_relaxed)) [[likely]] {
    try {
      t->fn();
    } catch (const detail::cancel_unwind&) {
      // A cancellable wait unwound this body; the originating failure is
      // already in the slot.
    } catch (...) {
      record_failure(std::current_exception());
    }
  }
  // Implicit sync: a task returns only once all its children completed
  // (Cilk semantics; required for the hyperqueue view cascade, which merges
  // children views bottom-up). Not cancellable: children always complete
  // (their bodies skip once cancelling), and the view cascade needs them.
  join_children(/*cancellable=*/false);
  t->fn.reset();
  finish(t);
  w->current = prev;
  if (w->pending_drains != nullptr) run_pending_drains();
}

void scheduler::run_activation(task_frame* f) {
  worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->sched == this && f->detached);
  task_frame* prev = w->current;
  f->exec_parent = prev;
  // Floor 0: the drain's children from earlier activations, possibly under
  // other frames on this deque, stay claimable (claim_child checks parents).
  f->deque_floor = 0;
  w->current = f;
  if (!cancelled_.load(std::memory_order_relaxed)) {
    try {
      f->fn();
    } catch (const detail::cancel_unwind&) {
    } catch (...) {
      record_failure(std::current_exception());
    }
  }
  w->current = prev;
}

void scheduler::end_activations(task_frame* f) {
  worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->sched == this && f->detached);
  task_frame* prev = w->current;
  f->exec_parent = prev;
  f->deque_floor = 0;
  w->current = f;
  f->fn.reset();
  w->current = prev;
  // Release the body token the frame was created with (spawn.hpp).
  if (f->live_children.fetch_sub(1, std::memory_order_acq_rel) == 1) finish(f);
}

void scheduler::defer_drain(detail::drain* d) noexcept {
  worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->sched == this);
  d->next_pending = w->pending_drains;
  w->pending_drains = d;
}

void scheduler::run_pending_drains() {
  worker_ctx* w = detail::t_worker;
  while (detail::drain* d = w->pending_drains) {
    w->pending_drains = d->next_pending;
    d->next_pending = nullptr;
    d->run_owned();
  }
}

void scheduler::finish(task_frame* t) {
  // 1. Completion hooks: deregister from object trackers, reduce hyperqueue
  //    views into the left sibling / parent (core/queue_cb.cpp).
  for (auto& hook : t->completion_hooks) hook();
  t->completion_hooks.clear();

  // 2. Mark completed and collect dependents; no new dependents can be added
  //    past this point (task_frame::add_dependent checks the flag).
  {
    std::lock_guard<spinlock> lk(t->dep_mu);
    t->completed = true;
  }
  for (task_frame* d : t->dependents) satisfy(d);
  t->dependents.clear();

  // 3. Notify the parent's join counter last, so that a parent passing its
  //    sync observes all effects of this child.
  task_frame* parent = t->parent;
  free_frame(t);
  if (parent != nullptr) {
    // A drain's frame has no join: the child that completes it last (after
    // its drain released the body token) finishes it.
    const bool detached = parent->detached;
    if (parent->live_children.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        detached)
      finish(parent);
  }
}

void scheduler::satisfy(task_frame* t) {
  if (t->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    enqueue(t);
  }
}

void scheduler::worker_main(unsigned index) {
  worker_ctx* w = workers_[index].get();
  detail::t_worker = w;
  backoff bo;
  while (true) {
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) break;
    if (task_frame* t = find_task(*w)) {
      execute(t);
      bo.reset();
      continue;
    }
    bo.pause();
    if (bo.is_yielding()) {
      // Park until new work is enqueued (epoch moves) or shutdown. Advertise
      // idleness first, then probe once more: an enqueue() that missed the
      // increment must have published its task before its idle check (both
      // sides fence seq_cst), so either it wakes us or we see its task here.
      // The timeout is a safety net against the residual notify race; it
      // bounds any stall to one period.
      num_idle_.fetch_add(1, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!work_available()) {
        std::unique_lock<std::mutex> lk(idle_mu_);
        idle_cv_.wait_for(lk, std::chrono::milliseconds(10), [&] {
          return stop_.load(std::memory_order_acquire) ||
                 work_epoch_.load(std::memory_order_acquire) != epoch;
        });
      }
      num_idle_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  detail::t_worker = nullptr;
}

namespace {

/// Relaxed read of a counter its worker may be bumping right now.
std::uint64_t read_counter(std::uint64_t& counter) {
  return std::atomic_ref<std::uint64_t>(counter).load(std::memory_order_relaxed);
}

}  // namespace

scheduler::stats_t scheduler::stats() const {
  stats_t s;
  for (const auto& w : workers_)
    for (const auto& c : kSchedCounters)
      s.*c.field += read_counter(w->counters.*c.field);
  return s;
}

std::vector<scheduler::worker_stats_t> scheduler::per_worker_stats() const {
  std::vector<worker_stats_t> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    worker_stats_t s;
    for (const auto& c : kSchedCounters)
      s.*c.field = read_counter(w->counters.*c.field);
    s.worker = w->index;
    s.deque_depth = w->deque.size_estimate();
    out.push_back(s);
  }
  return out;
}

void scheduler::reset_stats() {
  for (auto& w : workers_)
    for (const auto& c : kSchedCounters)
      std::atomic_ref<std::uint64_t>(w->counters.*c.field)
          .store(0, std::memory_order_relaxed);
}

}  // namespace hq

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
/// itself is bounded by the peak in-flight record count, not by this knob.
std::size_t pool_cap_from_env() {
  if (const char* env = std::getenv("HQ_FRAME_POOL_CAP")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 4096;
}

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

  const std::size_t cap = pool_cap_from_env();
  frame_pool_.init(num_workers, sizeof(task_frame), cap);
  // The attach pool serves both per-(task, queue) attachments and producer
  // shard records (core/view.hpp): one block size covering the larger of
  // the two keeps every spawn-path allocation on the per-worker magazines.
  attach_pool_.init(num_workers,
                    std::max(sizeof(detail::qattach), sizeof(detail::pshard)),
                    cap);

  threads_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

scheduler::~scheduler() {
  stop_.store(true, std::memory_order_release);
  work_epoch_.fetch_add(1, std::memory_order_release);
  idle_cv_.notify_all();
  for (auto& t : threads_) t.join();
  assert(injector_.empty() && "scheduler destroyed with pending tasks");
}

void scheduler::run_root(task_fn fn) {
  assert(detail::t_worker == nullptr &&
         "run() must not be called from inside a task; use spawn()");
  {
    std::lock_guard<std::mutex> lk(done_mu_);
    root_done_ = false;
  }
  task_frame* root = alloc_frame(nullptr);
  root->fn = std::move(fn);
  // finish() signals done_cv_ for the parentless root frame after freeing
  // it (not via a completion hook, which would run pre-free): once the wait
  // below returns, no frame is live and no scheduler work is in flight.
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
  // Release the spawn guard: the root has no dependences.
  if (root->pending_deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    enqueue(root);
  }
  {
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [&] { return root_done_; });
  }
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
  if (w != nullptr && w->sched == this) {
    w->deque.push_bottom(t);
  } else {
    std::lock_guard<std::mutex> lk(inj_mu_);
    injector_.push_back(t);
    inj_count_.store(injector_.size(), std::memory_order_release);
  }
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
        w.counters.steals.fetch_add(1, std::memory_order_relaxed);
        found = t;
        break;
      }
    }
  }
  w.counters.steal_attempts.fetch_add(attempts, std::memory_order_relaxed);
  return found;
}

task_frame* scheduler::pop_injector() {
  // The count gate keeps the empty case (the common one) lock-free.
  if (inj_count_.load(std::memory_order_acquire) == 0) return nullptr;
  std::lock_guard<std::mutex> lk(inj_mu_);
  if (injector_.empty()) return nullptr;
  task_frame* t = injector_.front();
  injector_.pop_front();
  inj_count_.store(injector_.size(), std::memory_order_release);
  return t;
}

task_frame* scheduler::find_task(worker_ctx& w) {
  if (task_frame* t = w.deque.pop_bottom()) return t;
  // Poll the injector before the steal sweep: external submissions must not
  // starve behind 2·n failed steal rounds.
  if (task_frame* t = pop_injector()) return t;
  if (task_frame* t = try_steal(w)) return t;
  return pop_injector();
}

bool scheduler::work_available() const {
  if (inj_count_.load(std::memory_order_relaxed) > 0) return true;
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
/// (budget and admission waits pause instead of helping), so the refused
/// task is re-exposed for another worker, or runs once the stack unwinds.
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
    w->counters.helps.fetch_add(1, std::memory_order_relaxed);
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
  task_frame* t = w->deque.pop_bottom_from(cur->deque_floor);
  if (t == nullptr) return nullptr;
  if (t->parent != cur || !safe_to_nest(cur, t)) {
    w->deque.push_bottom(t);  // already advertised when it was enqueued
    return nullptr;
  }
  return t;
}

void scheduler::run_claimed(task_frame* t) {
  detail::t_worker->counters.inline_runs.fetch_add(1, std::memory_order_relaxed);
  execute(t);
}

void scheduler::join_children(bool cancellable) {
  worker_ctx* w = detail::t_worker;
  assert(w != nullptr && w->sched == this && w->current != nullptr &&
         "join outside a task");
  const task_frame* f = w->current;
  backoff bo;
  while (f->live_children.load(std::memory_order_acquire) != 0) {
    if (cancellable) throw_if_cancelled();
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
  w->counters.executed.fetch_add(1, std::memory_order_relaxed);

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
    parent->live_children.fetch_sub(1, std::memory_order_release);
  } else {
    // The root (the only parentless frame): wake run_root after the frame
    // is recycled, so run() returning means the pools are quiescent.
    {
      std::lock_guard<std::mutex> lk(done_mu_);
      root_done_ = true;
    }
    done_cv_.notify_all();
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

scheduler::stats_t scheduler::stats() const {
  stats_t s;
  for (const auto& w : workers_) {
    s.spawns += w->counters.spawns.load(std::memory_order_relaxed);
    s.executed += w->counters.executed.load(std::memory_order_relaxed);
    s.steals += w->counters.steals.load(std::memory_order_relaxed);
    s.steal_attempts += w->counters.steal_attempts.load(std::memory_order_relaxed);
    s.helps += w->counters.helps.load(std::memory_order_relaxed);
    s.inline_runs += w->counters.inline_runs.load(std::memory_order_relaxed);
  }
  s.throttle_waits = throttle_waits_.load(std::memory_order_relaxed);
  s.throttle_ns = throttle_ns_.load(std::memory_order_relaxed);
  return s;
}

void scheduler::throttle_begin(const void* queue) noexcept {
  detail::worker_ctx* w = detail::t_worker;
  if (w != nullptr && w->sched == this)
    w->blocked_on_budget.store(queue, std::memory_order_relaxed);
  throttle_waits_.fetch_add(1, std::memory_order_relaxed);
}

void scheduler::throttle_end(std::uint64_t waited_ns) noexcept {
  detail::worker_ctx* w = detail::t_worker;
  if (w != nullptr && w->sched == this)
    w->blocked_on_budget.store(nullptr, std::memory_order_relaxed);
  throttle_ns_.fetch_add(waited_ns, std::memory_order_relaxed);
}

std::vector<scheduler::worker_stats_t> scheduler::per_worker_stats() const {
  std::vector<worker_stats_t> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    worker_stats_t s;
    s.worker = w->index;
    s.spawns = w->counters.spawns.load(std::memory_order_relaxed);
    s.executed = w->counters.executed.load(std::memory_order_relaxed);
    s.steals = w->counters.steals.load(std::memory_order_relaxed);
    s.steal_attempts =
        w->counters.steal_attempts.load(std::memory_order_relaxed);
    s.helps = w->counters.helps.load(std::memory_order_relaxed);
    s.inline_runs = w->counters.inline_runs.load(std::memory_order_relaxed);
    s.deque_depth = w->deque.size_estimate();
    s.blocked_on_budget = w->blocked_on_budget.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

void scheduler::reset_stats() {
  for (auto& w : workers_) {
    w->counters.spawns.store(0, std::memory_order_relaxed);
    w->counters.executed.store(0, std::memory_order_relaxed);
    w->counters.steals.store(0, std::memory_order_relaxed);
    w->counters.steal_attempts.store(0, std::memory_order_relaxed);
    w->counters.helps.store(0, std::memory_order_relaxed);
    w->counters.inline_runs.store(0, std::memory_order_relaxed);
  }
  throttle_waits_.store(0, std::memory_order_relaxed);
  throttle_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace hq

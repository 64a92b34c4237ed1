// Work-stealing task scheduler (the Swan-style substrate of the paper).
//
// Help-first spawning: spawn() enqueues the child on the calling worker's
// Chase–Lev deque and the parent continues; idle workers steal oldest-first.
// All waiting primitives (sync, blocking hyperqueue operations) re-enter the
// scheduler through help_one(), so a "blocked" worker keeps executing ready
// tasks — this realizes the paper's block-the-worker policy (Section 4.5)
// without losing progress, and makes single-worker execution of pipelines
// deadlock-free.
//
// Joins (hq::sync and the implicit sync at task return, one path:
// join_children) help with the joining task's own ready children oldest
// first, in spawn order, and fall back to the newest-first / steal path
// only once none is left. Spawn order is serial-elision order, so the tasks
// feeding a pipeline's serial consumer finish in the order it drains them,
// and the consumer's worker (stealing oldest first) is not handed a batch
// the joiner will reach last. The frame's deque floor (task_frame::
// deque_floor) bounds the oldest-first take to the joiner's own children:
// it never reaches the pending siblings of frames further down the
// worker's stack, so nesting depth stays within the spawn tree.
//
// Bounded run-ahead (claim_child / run_claimed). Help-first spawning lets a
// task that spawns faster than its children finish run ahead of them
// without bound. A pipeline emitter (pipeline/builder.hpp, hq_spawner) therefore
// claims, exposes, then runs: before it spawns its next child it pops its
// own newest child back off the deque, if no thief took it, spawns the new
// one (which stays exposed to thieves) and runs the claimed one inline. It
// claims only while at least max(1, P - 1) of its children sit unstolen on
// the deque — one exposed child per other worker — so thieves never starve,
// and the children spawned but not finished stay below 2·P at any stream
// length. Generic hq::spawn does not claim: a flat spawn loop that kept one
// child per spawner exposed would cap its own parallelism.
//
// Hot-path design (the "scale-free" requirement of the paper's Section 1:
// one task per element/batch must stay cheap at any worker count):
//  * task frames come from a per-worker magazine pool (sched/obj_pool.hpp) —
//    steady-state pipelines spawn with zero mallocs;
//  * event counters are per-worker cache lines, aggregated in stats();
//  * enqueue() touches the shared work_epoch_/idle_cv_ lines only when a
//    worker is actually parked.
//
// The thread that calls run() is worker 0 for the duration of the run: it
// executes the root in place, and the root's implicit join is its wait, so
// a run hands nothing to another thread and needs no wake-up to return.
// The scheduler starts P - 1 pool threads for workers 1..P-1 (none at
// P = 1). Workers are not pinned; the OS places them. A thief sweeps the
// other workers in index rotation starting after itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "conc/backoff.hpp"
#include "conc/cache.hpp"
#include "conc/chase_lev_deque.hpp"
#include "sched/drain.hpp"
#include "sched/obj_pool.hpp"
#include "sched/task.hpp"
#include "sched/task_fn.hpp"

namespace hq {

/// The scheduler's per-worker event counters, declared once. Each worker
/// bumps its own copy (detail::worker_ctx::counters) and scheduler::stats()
/// sums them; every reader walks kSchedCounters.
struct sched_counters {
  std::uint64_t spawns = 0;
  std::uint64_t executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t helps = 0;  ///< tasks executed inside a wait
  std::uint64_t inline_runs = 0;  ///< claimed children run by their spawner
  /// help_one() calls made from hyperqueue data waits (a consumer blocked on
  /// an empty queue, or on the scan position). Declared pipelines consume
  /// through drains and never make one.
  std::uint64_t data_wait_helps = 0;
  /// Producers held at a drain's bound that went on over it because every
  /// worker was paused in a hold (sched/drain.hpp).
  std::uint64_t give_ways = 0;
  /// Drain activations that took at least one value: with spawns and
  /// executed, the run progress the stall watchdog reads.
  std::uint64_t drain_takes = 0;
};

/// The name table of sched_counters: stats(), per_worker_stats(),
/// reset_stats() and the watchdog dump loop over it.
struct sched_counter_field {
  const char* name;
  std::uint64_t sched_counters::*field;
};
inline constexpr sched_counter_field kSchedCounters[] = {
    {"spawns", &sched_counters::spawns},
    {"executed", &sched_counters::executed},
    {"steals", &sched_counters::steals},
    {"steal_attempts", &sched_counters::steal_attempts},
    {"helps", &sched_counters::helps},
    {"inline_runs", &sched_counters::inline_runs},
    {"data_wait_helps", &sched_counters::data_wait_helps},
    {"give_ways", &sched_counters::give_ways},
    {"drain_takes", &sched_counters::drain_takes},
};
static_assert(sizeof(sched_counters) ==
                  std::size(kSchedCounters) * sizeof(std::uint64_t),
              "every sched_counters field needs a row in kSchedCounters");

namespace detail {

/// Count `n` events in a worker's counter: a relaxed RMW by the owning
/// worker only, while stats() may read it from any thread.
inline void bump(std::uint64_t& counter, std::uint64_t n = 1) noexcept {
  std::atomic_ref<std::uint64_t>(counter).fetch_add(n, std::memory_order_relaxed);
}

struct worker_ctx {
  scheduler* sched = nullptr;
  unsigned index = 0;
  chase_lev_deque<task_frame> deque;
  task_frame* current = nullptr;

  /// Event counters on the worker's own cache line (written with bump()).
  /// Keeping them out of the scheduler object removes the shared fetch_add
  /// per spawn/execute/steal.
  alignas(kCacheLine) sched_counters counters;

  /// Drains kicked from completion hooks on this worker, run once the
  /// completing task's execute() returns (scheduler::defer_drain).
  drain* pending_drains = nullptr;
};

}  // namespace detail

/// Work-stealing scheduler over a fixed pool of worker threads. Construct
/// once, call run() any number of times (serially) — workers park in between.
class scheduler {
 public:
  /// @param num_workers worker count, the calling thread included (>=1): run()
  /// executes tasks on its caller (worker 0) and num_workers - 1 pool
  /// threads. This is the paper's "core count" knob. Defaults to hardware
  /// concurrency.
  explicit scheduler(unsigned num_workers = 0);
  ~scheduler();

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  /// Execute `f` as the root task on the calling thread, which is worker 0
  /// until it (and all transitively spawned tasks) complete: it helps and
  /// steals while it waits. Must not be called from inside a task.
  ///
  /// Failure semantics: the first exception a task body throws is captured
  /// into the scheduler's failure slot, flips the cancellation epoch (so
  /// remaining frames skip their bodies and blocking waits unwind), and is
  /// rethrown here on the calling thread once the root completes. The
  /// scheduler and its pools stay consistent — the next run() starts clean.
  template <typename F>
  void run(F&& f) {
    run_root(task_fn(std::forward<F>(f)));
  }

  [[nodiscard]] unsigned num_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Scheduler of the calling worker thread, or of the run() the calling
  /// thread is in (null on other threads).
  static scheduler* current() noexcept;

  /// Monotonic event counters, for the overhead benches and the watchdog:
  /// the per-worker counters summed over the workers.
  using stats_t = sched_counters;
  [[nodiscard]] stats_t stats() const;
  void reset_stats();

  /// One worker's counters and run state (the watchdog's dump).
  struct worker_stats_t : sched_counters {
    unsigned worker = 0;
    std::size_t deque_depth = 0;  ///< ready frames on the worker's deque
  };
  [[nodiscard]] std::vector<worker_stats_t> per_worker_stats() const;

  // ------------- failure propagation / cooperative cancellation -----------

  /// Record the first failure of the current run (first-failure-wins) and
  /// flip the cancellation epoch: subsequent frames skip their bodies and
  /// every cancellable blocking wait unwinds with detail::cancel_unwind.
  /// Safe from any thread (workers, the watchdog monitor).
  void record_failure(std::exception_ptr e) noexcept;

  /// True once the current run is cancelling (a failure was recorded).
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Unwind the calling task if the run is cancelling. Blocking loops that
  /// run in destructor context (queue teardown) must NOT call this.
  void throw_if_cancelled() const {
    if (cancelled()) [[unlikely]]
      throw detail::cancel_unwind{};
  }

  /// Stall-watchdog knob: when nonzero, every run() is monitored and a
  /// no-progress interval of this many milliseconds cancels the run with a
  /// hq::stall_error carrying a per-worker diagnostic dump (and aborts the
  /// process if cancellation itself makes no progress for `grace` further
  /// intervals). Until this is called, each run() reads HQ_WATCHDOG_MS at
  /// its start instead; once called (0 included) the env is ignored.
  void set_watchdog(unsigned ms, unsigned grace_intervals = 8) noexcept {
    watchdog_ms_ = ms;
    watchdog_grace_ = grace_intervals;
    watchdog_set_ = true;
  }

  /// Parked pool threads, out of num_workers() - 1 (the watchdog's dump).
  [[nodiscard]] int idle_workers() const noexcept {
    return num_idle_.load(std::memory_order_relaxed);
  }

  /// Task-frame pool counters, the pool_counts that hyperqueue<T>::
  /// pool_stats() also reports for segments: in a steady-state pipeline `allocated` plateaus while `recycled` grows —
  /// every spawn past warm-up reuses a frame instead of calling malloc.
  [[nodiscard]] detail::pool_counts frame_pool_stats() const {
    return frame_pool_.stats();
  }
  /// Same counters for the hyperqueue-attachment (qattach) pool.
  [[nodiscard]] detail::pool_counts attach_pool_stats() const {
    return attach_pool_.stats();
  }

  // ------------- internal API (spawn/sync/hyperqueue machinery) -----------

  /// Allocate + construct a task frame from the calling worker's magazine
  /// (a root comes from magazine 0, the caller's).
  detail::task_frame* alloc_frame(detail::task_frame* parent) {
    const unsigned owner = my_worker_index();
    void* mem = frame_pool_.alloc(owner);
    auto* fr = ::new (mem) detail::task_frame(this, parent);
    fr->pool_owner = owner;
    return fr;
  }

  /// Destroy a completed frame and recycle its memory into the owning
  /// magazine (bounded cross-worker return when freed by another worker).
  void free_frame(detail::task_frame* t) {
    const unsigned owner = t->pool_owner;
    t->~task_frame();
    frame_pool_.free(t, owner, my_worker_index());
  }

  /// Pooled fixed-size blocks for hyperqueue attachments and producer shard
  /// records (core/queue_cb.*, core/shard.hpp) — the block size covers both.
  /// The caller placement-constructs the record in the block and stashes
  /// *owner for the matching free.
  void* alloc_attach_block(unsigned* owner) {
    *owner = my_worker_index();
    return attach_pool_.alloc(*owner);
  }
  void free_attach_block(void* p, unsigned owner) {
    attach_pool_.free(p, owner, my_worker_index());
  }

  /// Make a ready frame available for execution. Only a worker of this
  /// scheduler enqueues: every frame but the root is spawned or satisfied
  /// by a task.
  void enqueue(detail::task_frame* t);

  /// Execute one ready task if any is available. Returns false when no task
  /// could be obtained (the caller should back off). With `joiner` (the
  /// calling worker's current frame, waiting for its children) the oldest
  /// of its own ready children is taken first; otherwise, and once it has
  /// none left on this worker's deque, the newest local task, then a steal.
  bool help_one(const detail::task_frame* joiner = nullptr);

  /// Bounded run-ahead, step 1 (see the class comment): pop the calling
  /// task's newest child off this worker's deque and hand it to the caller,
  /// provided no thief took it and at least max(1, P - 1) of the task's
  /// children are still unstolen there (counted from the task's
  /// deque_floor). Null otherwise. A popped frame that is not the task's
  /// child, or that safe_to_nest refuses, is pushed back untouched. The
  /// caller spawns its next child and then must pass a non-null result to
  /// run_claimed(), also when that spawn throws.
  detail::task_frame* claim_child();

  /// Bounded run-ahead, step 2: execute a frame claim_child() returned,
  /// nested on the calling task. Counted in inline_runs, not helps.
  void run_claimed(detail::task_frame* t);

  /// Launch a frame made by make_task() in place: release its spawn guard
  /// and, if that makes it ready, execute it nested on the calling task
  /// without exposing it or waking anyone; a frame with dependences left
  /// becomes ready through satisfy() as usual. Counted in executed only.
  /// The caller must be a task the frame may nest on (safe_to_nest), e.g.
  /// a root whose only attachments are owner ones.
  void run_in_place(detail::task_frame* t);

  /// help_one() from a hyperqueue data wait, counted in data_wait_helps.
  bool help_data_wait() {
    detail::worker_ctx* w = detail::t_worker;
    if (w != nullptr && w->sched == this)
      detail::bump(w->counters.data_wait_helps);
    return help_one();
  }

  // ------------- drains (sched/drain.hpp) ----------------------------------

  /// One drain activation: invoke detached frame `f`'s closure with `f`
  /// current on the calling worker, nested on whatever runs there. A
  /// failure is recorded like a task body's.
  void run_activation(detail::task_frame* f);
  /// The drain is finished: destroy `f`'s closure with `f` current, then
  /// release the frame's body token, completing the frame now if no child
  /// is live (else its last child completes it, see finish()).
  void end_activations(detail::task_frame* f);
  /// Queue `d` (already in its running state) to run on this worker once
  /// the current execute() has finished its task.
  void defer_drain(detail::drain* d) noexcept;
  /// Run the drains defer_drain queued on this worker.
  void run_pending_drains();

  /// The pause census of drain holds (sched/drain.hpp). Pause the calling
  /// worker once with `bo`, counted meanwhile as a worker paused in a hold;
  /// true when, at the end of the pause, every worker was counted so. A
  /// worker running an activation or a task is never counted, so then
  /// nothing runs anywhere: no activation, task or producer can take or
  /// add a value until a paused hold goes on.
  bool pause_in_hold(backoff& bo) noexcept {
    paused_workers_.fetch_add(1, std::memory_order_acq_rel);
    bo.pause();
    const bool all =
        paused_workers_.load(std::memory_order_acquire) >= num_workers();
    paused_workers_.fetch_sub(1, std::memory_order_acq_rel);
    return all;
  }
  void count_give_way() noexcept {
    detail::bump(detail::t_worker->counters.give_ways);
  }
  void count_drain_take() noexcept {
    detail::bump(detail::t_worker->counters.drain_takes);
  }

  /// Wait until the calling worker's current task has no live children,
  /// helping with its own children oldest first (help_one(current)). The
  /// one join path: hq::sync() (cancellable: unwinds with
  /// detail::cancel_unwind once the run cancels) and the implicit sync at
  /// task return (not cancellable: children always complete, and the view
  /// cascade needs them).
  void join_children(bool cancellable);

  /// Help-while-blocked wait: run ready tasks until `p()` holds. Does not
  /// unwind on cancellation — used where the wait must complete regardless
  /// (hq::call, whose callee writes into the waiting stack frame).
  template <typename Pred>
  void wait_until(Pred&& p) {
    backoff bo;
    while (!p()) {
      if (help_one()) {
        bo.reset();
      } else {
        bo.pause();
      }
    }
  }

 private:
  friend struct detail::worker_ctx;

  /// Index of the calling thread's magazine in this scheduler's pools
  /// (kPoolExternal when the thread is not one of our workers).
  unsigned my_worker_index() const noexcept {
    detail::worker_ctx* w = detail::t_worker;
    return (w != nullptr && w->sched == this) ? w->index : detail::kPoolExternal;
  }

  void run_root(task_fn fn);
  void worker_main(unsigned index);
  detail::task_frame* find_task(detail::worker_ctx& w);
  detail::task_frame* try_steal(detail::worker_ctx& w);
  bool work_available() const;
  void execute(detail::task_frame* t);
  void finish(detail::task_frame* t);
  void satisfy(detail::task_frame* t);
  void wake_idle();

  std::vector<std::unique_ptr<detail::worker_ctx>> workers_;
  std::vector<std::thread> threads_;

  // Frame / attachment recycling (see sched/obj_pool.hpp).
  detail::obj_pool frame_pool_;
  detail::obj_pool attach_pool_;

  // Idle-worker parking.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  std::atomic<int> num_idle_{0};
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<bool> stop_{false};

  // Workers paused in a drain hold right now (pause_in_hold).
  std::atomic<unsigned> paused_workers_{0};

  // Failure slot (first-failure-wins) + cancellation epoch, reset by
  // run_root after rethrowing so the scheduler is reusable.
  std::mutex failure_mu_;
  std::exception_ptr failure_;
  std::atomic<bool> cancelled_{false};

  // Stall watchdog (see set_watchdog / HQ_WATCHDOG_MS). 0 = disabled;
  // until set_watchdog is called, run_root reads the env per run.
  unsigned watchdog_ms_ = 0;
  unsigned watchdog_grace_ = 8;
  bool watchdog_set_ = false;
};

}  // namespace hq

#include "core/queue_cb.hpp"

#include <bit>

#include "conc/backoff.hpp"
#include "core/fault.hpp"
#include "sched/scheduler.hpp"

namespace hq::detail {

namespace {

/// One step of a blocking wait: run a ready task if possible, else back off.
/// Keeping the worker executing tasks while "blocked" is what makes the
/// paper's block-the-worker policy live-lock free even on one worker. Data
/// waits (a consumer waiting for values or for the scan position) are
/// counted apart: declared pipelines consume through drains and make none.
void wait_step(backoff& bo, bool data_wait = false) {
  scheduler* s = scheduler::current();
  if (s != nullptr && (data_wait ? s->help_data_wait() : s->help_one())) {
    bo.reset();
  } else {
    bo.pause();
  }
}

/// Cancellation poll for *data* waits (wait_data / ensure_pos /
/// sync_children): once a failure cancels the run, a producer this consumer
/// blocks on may never push or close again — throwing cancel_unwind unwinds
/// the stage body instead of deadlocking. detach_owner's teardown wait must
/// NOT throw (it runs during unwind, from hyperqueue destructors) and keeps
/// the plain wait_step loop; its children always complete under cancellation
/// because frame bodies are skipped.
void throw_if_run_cancelled() {
  scheduler* s = scheduler::current();
  if (s != nullptr && s->cancelled()) [[unlikely]]
    throw cancel_unwind{};
}

/// Attachments recycle through the calling scheduler's per-worker attach
/// pool (sched/obj_pool.hpp); both calls always run on a worker of the
/// scheduler that owns the enclosing task (spawn-argument resolution and
/// completion hooks execute there), so alloc and free hit the same pool.
qattach* alloc_qattach() {
  if (scheduler* s = scheduler::current()) {
    unsigned owner = kPoolExternal;
    void* mem = s->alloc_attach_block(&owner);
    auto* a = ::new (mem) qattach();
    a->pool_sched = s;
    a->pool_owner = owner;
    return a;
  }
  return new qattach();
}

void free_qattach(qattach* a) {
  scheduler* s = a->pool_sched;
  if (s == nullptr) {
    delete a;
    return;
  }
  const unsigned owner = a->pool_owner;
  a->~qattach();
  s->free_attach_block(a, owner);
}

}  // namespace

queue_cb::queue_cb(element_ops o, std::uint64_t segment_capacity)
    : ops(o),
      seg_capacity(std::bit_ceil(segment_capacity < 2 ? std::uint64_t{2}
                                                      : segment_capacity)),
      seg_bytes_(segment::footprint_bytes(seg_capacity, &ops)) {}

queue_cb::~queue_cb() {
  assert(owner == nullptr && "queue control block released before detach_owner");
  // Drain the one-slot cache and the segment free list.
  if (segment* s = seg_cache_.exchange(nullptr, std::memory_order_relaxed)) {
    segment::destroy(s);
    seg_live.fetch_sub(1, std::memory_order_relaxed);
  }
  while (free_list != nullptr) {
    segment* s = free_list;
    free_list = s->next.load(std::memory_order_relaxed);
    s->reset();
    segment::destroy(s);
    seg_live.fetch_sub(1, std::memory_order_relaxed);
  }
  assert(seg_live.load(std::memory_order_relaxed) == 0 &&
         "segment leak: some segment was never reachable from the scan list");
}

void queue_cb::release() noexcept {
  if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
}

segment* queue_cb::alloc_segment() {
  // Lock-free front of the pool: the steady-state ring recycle (consumer
  // recycles the drained segment, producer allocates the next wrap) is
  // served entirely by this one-slot cache. The acquire pairs with the
  // release in recycle_segment so the reset() state is visible.
  const auto take_cached = [this] {
    segment* c = seg_cache_.exchange(nullptr, std::memory_order_acquire);
    if (c != nullptr) {
      seg_recycled.fetch_add(1, std::memory_order_relaxed);
      bump(dp_.seg_cache_hits);
    }
    return c;
  };
  const auto raise_high_water = [this](std::uint64_t in_use) {
    std::uint64_t hw = seg_high_water.load(std::memory_order_relaxed);
    while (in_use > hw &&
           !seg_high_water.compare_exchange_weak(hw, in_use,
                                                 std::memory_order_relaxed)) {
    }
  };
  segment* s = take_cached();
  if (s == nullptr) {
    std::lock_guard<spinlock> lk(free_mu);
    if (free_list != nullptr) {
      s = free_list;
      free_list = s->next.load(std::memory_order_relaxed);
      s->next.store(nullptr, std::memory_order_relaxed);
      seg_recycled.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // A pooled segment is counted in use once it is taken: recycle_segment
  // uncounts one before it publishes it, so a count made before the take
  // could overlap that window and push high_water past `allocated`.
  if (s != nullptr) {
    raise_high_water(seg_in_use.fetch_add(1, std::memory_order_relaxed) + 1);
    return s;
  }
  // The pool looked empty. Count the request first, then look at the cache
  // once more: a segment uncounted since the first look is either there
  // now, or its recycle was too late to spare the create. A segment taken
  // here was counted before the take, so it leaves the mark alone.
  const std::uint64_t in_use =
      seg_in_use.fetch_add(1, std::memory_order_relaxed) + 1;
  if ((s = take_cached()) != nullptr) return s;
  try {
    s = segment::create(seg_capacity, &ops, &dp_);
  } catch (...) {
    // A failed (real or injected) allocation leaves the counters
    // consistent for teardown and the next run.
    seg_in_use.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
  seg_live.fetch_add(1, std::memory_order_relaxed);
  seg_fresh.fetch_add(1, std::memory_order_relaxed);
  raise_high_water(in_use);
  return s;
}

void queue_cb::recycle_segment(segment* s) {
  s->reset();
  // Uncount before publishing: once published, another producer may take
  // the segment and count it again.
  seg_in_use.fetch_sub(1, std::memory_order_relaxed);
  segment* expected = nullptr;
  if (seg_cache_.compare_exchange_strong(expected, s, std::memory_order_release,
                                         std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<spinlock> lk(free_mu);
  s->next.store(free_list, std::memory_order_relaxed);
  free_list = s;
}

pshard* queue_cb::alloc_shard() {
  // Shards share the scheduler's attach pool (its block size covers both
  // record types), so steady-state spawn churn recycles shard records with
  // the same zero-malloc guarantee as attachments.
  if (scheduler* s = scheduler::current()) {
    unsigned owner = kPoolExternal;
    void* mem = s->alloc_attach_block(&owner);
    auto* sh = ::new (mem) pshard();
    sh->pool_sched = s;
    sh->pool_owner = owner;
    return sh;
  }
  return new pshard();
}

void queue_cb::free_shard(pshard* sh) {
  scheduler* s = sh->pool_sched;
  if (s == nullptr) {
    delete sh;
    return;
  }
  const unsigned owner = sh->pool_owner;
  sh->~pshard();
  s->free_attach_block(sh, owner);
}

void queue_cb::splice_after(pshard* sp, pshard* first, pshard* last) {
  // Only the task owning `sp` (its current open shard) calls this, so the
  // insertion point has exactly one writer: pre-link the new records, then
  // publish them and close the shard with one release store. A consumer
  // reads sp->next only after observing sp->closed with acquire, which also
  // makes every segment pushed into sp before the close visible.
  last->next.store(sp->next.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sp->next.store(first, std::memory_order_relaxed);
  sp->closed.store(true, std::memory_order_release);
}

qattach* queue_cb::my_attachment([[maybe_unused]] std::uint8_t need) {
  task_frame* fr = current_frame();
  assert(fr != nullptr && "hyperqueue operations are only valid inside a task");
  for (qattach* a : fr->attachments) {
    if (a->q == this) {
      assert((a->priv & need) == need && "task lacks the required queue privilege");
      return a;
    }
  }
  assert(!"task has no privileges on this hyperqueue");
  return nullptr;
}

void queue_cb::attach_owner(task_frame* owner_frame) {
  assert(owner_frame != nullptr &&
         "construct hyperqueues inside a task (e.g. the scheduler::run root)");
  // Single-task context: nothing else can reach the queue yet, no lock.
  qattach* a = alloc_qattach();
  a->q = this;
  a->frame = owner_frame;
  a->priv = kPrivPush | kPrivPop;
  // Invariant 1: a hyperqueue always holds at least one segment. The owner's
  // shard starts with it, and the scan position starts there too.
  pshard* sh = alloc_shard();
  segment* s0;
  try {
    s0 = alloc_segment();
  } catch (...) {
    // Allocation failure constructing the queue (real or injected,
    // alloc@segment.alloc): neither record is registered anywhere yet, so
    // return them to the attach pool before the throw reaches the ctor.
    free_shard(sh);
    free_qattach(a);
    throw;
  }
  sh->head.store(s0, std::memory_order_relaxed);
  sh->tail = s0;
  a->my_shard = sh;
  a->has_pos = true;
  a->pos_shard = sh;
  a->pos_seg = s0;
  assert(owner == nullptr);
  owner = a;
  owner_frame->attachments.push_back(a);
}

void queue_cb::detach_owner() {
  qattach* a = owner;
  assert(a != nullptr);
  assert(current_frame() == a->frame &&
         "hyperqueue must be destroyed by the task that created it");
  // Wait for every task spawned on this queue (children complete bottom-up,
  // so direct children suffice), helping the scheduler meanwhile. The
  // acquire pairs with the completion-time release decrement, making every
  // child's shard closes and scan-position hand-backs visible.
  backoff bo;
  while (a->live_children.load(std::memory_order_acquire) != 0) wait_step(bo);
  // Single-threaded teardown. Every completed consumer handed the scan
  // position back up the spawn tree, so it has returned to the owner;
  // everything before it was already retired by the scan.
  assert(a->has_pos && "scan position must return to the owner");
  assert(a->live_pop_children.load(std::memory_order_relaxed) == 0);
  pshard* sh = a->pos_shard;
  segment* s = a->pos_seg;
  while (sh != nullptr) {
    if (s == nullptr) s = sh->head.load(std::memory_order_relaxed);
    while (s != nullptr) {
      segment* n = s->next.load(std::memory_order_relaxed);
      s->destroy_remaining();
      s->next.store(nullptr, std::memory_order_relaxed);
      segment::destroy(s);
      seg_live.fetch_sub(1, std::memory_order_relaxed);
      s = n;
    }
    pshard* nx = sh->next.load(std::memory_order_relaxed);
    free_shard(sh);
    sh = nx;
  }
  a->frame->attachments.erase_value(a);
  owner = nullptr;
  free_qattach(a);
}

qattach* queue_cb::attach_spawn(task_frame* child, std::uint8_t priv) {
  assert(priv != 0);
  // Allocation, privilege lookup, refcounting, shard splicing and hook
  // registration all happen lock-free on the spawning task's thread: the
  // splice only touches the spawner's own current shard, and the child is
  // not yet visible to anyone. Only the pop-FIFO registration below needs
  // the lock.
  qattach* pa = my_attachment(priv);  // asserts the subset-privilege rule
  qattach* ca = alloc_qattach();
  ca->q = this;
  ca->frame = child;
  ca->parent = pa;
  ca->priv = priv;

  pa->live_children.fetch_add(1, std::memory_order_relaxed);

  if ((priv & kPrivPush) != 0) {
    // Push-capable child: close the parent's current shard and splice in the
    // child's shard followed by the parent's continuation — the lock-free
    // equivalent of the paper's user-view transfer (Section 4.2). The merge
    // order is fixed here, at the spawn point, which is what keeps the
    // consumer's scan deterministic regardless of execution interleaving.
    pshard* sp = pa->my_shard;
    assert(sp != nullptr && "push spawns require a push-capable parent");
    pshard* sc = alloc_shard();
    pshard* sp2 = alloc_shard();
    sc->next.store(sp2, std::memory_order_relaxed);
    splice_after(sp, sc, sp2);
    pa->my_shard = sp2;
    ca->my_shard = sc;
    pa->live_push_children.fetch_add(1, std::memory_order_relaxed);
  } else if (pa->my_shard != nullptr) {
    // Pop-only child of a push-capable parent: the parent's pushes so far
    // are visible to the child, later ones are not (they follow the child
    // in program order). Freeze that boundary by closing the parent's shard;
    // only the continuation is spliced in.
    pshard* sp = pa->my_shard;
    pshard* sp2 = alloc_shard();
    splice_after(sp, sp2, sp2);
    pa->my_shard = sp2;
    ca->end_shard = sp;
  } else {
    // Pop-only child of a pop-only parent: same visible range, no splice.
    ca->end_shard = pa->end_shard;
    assert(ca->end_shard != nullptr);
  }

  if ((priv & kPrivPop) != 0) {
    std::lock_guard<std::mutex> lk(mu);
    bump(dp_.mu_attach);
    // The scan position follows the consumer in pop FIFO order. Take it from
    // the parent only when no older pop sibling is live: if one is, the
    // position either sits with that sibling or is parked here in transit to
    // it (a completed sibling hands it back to the parent, and the FIFO
    // successor claims it lazily — see ensure_pos). Grabbing it for this
    // younger child would strand the older sibling waiting for a position
    // held by a task that cannot run before it: deadlock.
    if (pa->live_pop_children.load(std::memory_order_relaxed) == 0 &&
        pa->has_pos) {
      ca->has_pos = true;
      ca->pos_shard = pa->pos_shard;
      ca->pos_seg = pa->pos_seg;
      pa->has_pos = false;
    }
    // Scheduling rule 3: pop-privileged tasks of one parent run FIFO. The
    // predecessor's frame is still valid here — its completion hook clears
    // last_pop_child under this same mu before the frame is freed.
    if (pa->last_pop_child != nullptr) {
      task_frame::depend(child, pa->last_pop_child->frame);
    }
    pa->last_pop_child = ca;
    pa->live_pop_children.fetch_add(1, std::memory_order_relaxed);
  }

  child->attachments.push_back(ca);
  add_ref();
  child->completion_hooks.push_back(hook_fn([this, ca] {
    on_task_complete(ca);
    release();
  }));
  return ca;
}

void queue_cb::on_task_complete(qattach* a) {
  qattach* pa = a->parent;
  assert(pa != nullptr);
  assert(a->live_children.load(std::memory_order_relaxed) == 0 &&
         "children must complete before their parent (implicit sync)");

  if ((a->priv & kPrivPush) != 0) {
    // "Return from spawn" (Section 4.2): this producer's span can no longer
    // grow. One release store replaces the mutex-guarded reduction cascade —
    // a finishing producer never blocks a live one. The scan-order successor
    // was linked at spawn time, so the consumer advances right past.
    a->my_shard->closed.store(true, std::memory_order_release);
    pa->live_push_children.fetch_sub(1, std::memory_order_release);
    // The close can make later shards' values reachable: let a drained
    // consumer look (after this task's execute() returns, drain.hpp).
    if (consumer_drain != nullptr) consumer_drain->kick_deferred();
  }

  if ((a->priv & kPrivPop) != 0) {
    std::lock_guard<std::mutex> lk(mu);
    bump(dp_.mu_complete);
    // Hand the scan position back to the parent; the FIFO-next consumer
    // claims it lazily (ensure_pos).
    if (a->has_pos) {
      assert(!pa->has_pos && "two scan positions (invariant 2)");
      pa->has_pos = true;
      pa->pos_shard = a->pos_shard;
      pa->pos_seg = a->pos_seg;
      a->has_pos = false;
    }
    if (pa->last_pop_child == a) pa->last_pop_child = nullptr;
    // Release: pairs with the acquire load on the parent's consumer fast
    // path; the hand-back above must be visible to a parent that observes
    // the decremented count without taking mu.
    pa->live_pop_children.fetch_sub(1, std::memory_order_release);
  }

  // Release: pairs with the acquire loads in sync_children/detach_owner.
  pa->live_children.fetch_sub(1, std::memory_order_release);
  a->frame = nullptr;
  free_qattach(a);
}

// ---------------------------------------------------------------- producer

void queue_cb::push(void* src) {
  fault::delaypoint("queue.push");
  qattach* a = my_attachment(kPrivPush);
  pshard* sh = a->my_shard;
  if (segment* s = sh->tail) {
    if (s->try_push(src)) return;
    // Segment full: chain a fresh one. We own the shard's tail, so the link
    // needs no lock.
    segment* ns = alloc_segment();
    bool ok = ns->try_push(src);
    assert(ok);
    (void)ok;
    s->next.store(ns, std::memory_order_release);
    sh->tail = ns;
    return;
  }
  // First push into this shard: create the chain and publish its head. The
  // release store makes the element visible to the consumer the moment it
  // reaches this shard in scan order — no mutex, unlike the old early-
  // reduction path.
  segment* ns = alloc_segment();
  bool ok = ns->try_push(src);
  assert(ok);
  (void)ok;
  sh->tail = ns;
  sh->head.store(ns, std::memory_order_release);
}

void* queue_cb::write_slice(std::uint64_t want, std::uint64_t* count) {
  fault::delaypoint("queue.push");
  qattach* a = my_attachment(kPrivPush);
  if (want < 1) want = 1;
  if (want > seg_capacity) want = seg_capacity;
  pshard* sh = a->my_shard;
  if (segment* s = sh->tail) {
    // Grant the contiguous run even when shorter than `want`. Slices are
    // allowed to come back short (Section 5.2), and abandoning the segment
    // here would permanently strand its wrapped free space: a producer /
    // consumer pair that stays in step must ring-recycle one segment, not
    // leak a fresh one per wrap.
    if (void* p = s->acquire_write(want, count)) return p;
    // Segment truly full: chain a fresh one.
    segment* ns = alloc_segment();
    s->next.store(ns, std::memory_order_release);
    sh->tail = ns;
    return ns->acquire_write(want, count);
  }
  segment* ns = alloc_segment();
  sh->tail = ns;
  sh->head.store(ns, std::memory_order_release);
  return ns->acquire_write(want, count);
}

void queue_cb::commit_write(std::uint64_t produced) {
  qattach* a = my_attachment(kPrivPush);
  assert(a->my_shard != nullptr && a->my_shard->tail != nullptr);
  a->my_shard->tail->publish_write(produced);
}

// ---------------------------------------------------------------- consumer

bool queue_cb::try_pos(qattach* a) {
  assert((a->priv & kPrivPop) != 0);
  // Program order: our own pops resume only after our pop children are
  // done (they are earlier in the serial elision). While any is live the
  // position cannot be ours, so do not touch mu; the acquire pairs with the
  // completion-time release so the hand-back below is visible.
  if (a->live_pop_children.load(std::memory_order_acquire) != 0) return false;
  // Lock-free fast path: the scan position already in hand. This is the
  // Section 5.2 "as fast as array accesses" precondition: a consumer
  // streaming through ready data never touches mu.
  if (a->has_pos) return true;
  std::lock_guard<std::mutex> lk(mu);
  bump(dp_.mu_data);
  if (a->has_pos) return true;
  // Claim the scan position from an ancestor: after the previous consumer
  // completed, it travels back up the spawn tree.
  for (qattach* anc = a->parent; anc != nullptr; anc = anc->parent) {
    if (anc->has_pos) {
      a->has_pos = true;
      a->pos_shard = anc->pos_shard;
      a->pos_seg = anc->pos_seg;
      anc->has_pos = false;
      return true;
    }
  }
  return false;
}

void queue_cb::ensure_pos(qattach* a) {
  backoff bo;
  while (!try_pos(a)) {
    throw_if_run_cancelled();
    wait_step(bo, /*data_wait=*/true);
  }
}

segment* queue_cb::scan(qattach* a, bool* ended) {
  for (;;) {
    pshard* sh = a->pos_shard;
    segment* s = a->pos_seg;
    // Drain the shard's chain: return the first readable segment, recycle
    // drained interiors (with next set, no producer holds their tail).
    for (;;) {
      if (s == nullptr) {
        s = sh->head.load(std::memory_order_acquire);
        if (s != nullptr) a->pos_seg = s;
      }
      if (s != nullptr) {
        if (s->readable()) {
          a->ready_seg = s;
          return s;
        }
        if (segment* n = s->next.load(std::memory_order_acquire)) {
          if (s->readable()) {  // values committed before the link
            a->ready_seg = s;
            return s;
          }
          a->pos_seg = n;
          recycle_segment(s);
          s = n;
          continue;
        }
      }
      break;  // chain end (or headless shard) with nothing readable
    }
    a->ready_seg = nullptr;
    if (sh == scan_end(a)) {
      // End of this task's visible range. For a push-capable task this is
      // its own open shard — only it can append. For a pop-only task the
      // end shard was closed at its spawn. Either way the failed poll above
      // was conclusive: no older-in-program-order producer can still push.
      *ended = true;
      return nullptr;
    }
    if (sh->closed.load(std::memory_order_acquire)) {
      // The producer is done with this shard. Re-check once: pushes and
      // links made before the close are visible now (acquire).
      if (s == nullptr) {
        s = sh->head.load(std::memory_order_relaxed);
        if (s != nullptr) {
          a->pos_seg = s;
          continue;
        }
      } else if (s->readable() ||
                 s->next.load(std::memory_order_relaxed) != nullptr) {
        continue;
      }
      // Shard exhausted for good: retire its last segment and the shard
      // record, and advance to the scan-order successor (linked before the
      // close — the list tail is always the owner's open shard).
      pshard* nx = sh->next.load(std::memory_order_relaxed);
      assert(nx != nullptr && "closed non-terminal shard without successor");
      if (s != nullptr) recycle_segment(s);
      a->pos_shard = nx;
      a->pos_seg = nullptr;
      nx->scanned.store(true, std::memory_order_relaxed);
      free_shard(sh);
      continue;
    }
    // Open shard of a live producer older in program order.
    *ended = false;
    return nullptr;
  }
}

segment* queue_cb::wait_data(qattach* a) {
  fault::delaypoint("queue.pop");
  ensure_pos(a);
  backoff bo;
  for (;;) {
    bool ended = false;
    if (segment* s = scan(a, &ended)) return s;
    if (ended) return nullptr;
    // Block (helping) until the producer pushes or closes — or the run
    // cancels (the producer may then never push again: its remaining
    // frames skip their bodies).
    throw_if_run_cancelled();
    wait_step(bo, /*data_wait=*/true);
  }
}

bool queue_cb::empty() {
  return consumer_ready(my_attachment(kPrivPop)) == nullptr;
}

void queue_cb::pop(void* dst) {
  qattach* a = my_attachment(kPrivPop);
  segment* s = consumer_ready(a);
  assert(s != nullptr && "pop() on a definitively empty hyperqueue");
  s->pop_into(dst);
}

void* queue_cb::read_slice(std::uint64_t want, std::uint64_t* count) {
  qattach* a = my_attachment(kPrivPop);
  if (want < 1) want = 1;
  segment* s = consumer_ready(a);
  if (s == nullptr) {
    *count = 0;
    return nullptr;
  }
  return s->acquire_read(want, count);
}

void* queue_cb::poll_slice(std::uint64_t want, std::uint64_t* count,
                           bool* ended) {
  qattach* a = my_attachment(kPrivPop);
  if (want < 1) want = 1;
  *ended = false;
  segment* s = a->ready_seg;
  if (s == nullptr || a->live_pop_children.load(std::memory_order_acquire) != 0 ||
      !a->has_pos || s != a->pos_seg || !s->readable()) {
    fault::delaypoint("queue.pop");
    s = try_pos(a) ? scan(a, ended) : nullptr;
  }
  if (s == nullptr) {
    *count = 0;
    return nullptr;
  }
  return s->acquire_read(want, count);
}

void queue_cb::commit_read(std::uint64_t consumed) {
  qattach* a = my_attachment(kPrivPop);
  assert(a->has_pos && a->pos_seg != nullptr);
  a->pos_seg->retire_read(consumed);
  std::atomic<std::uint64_t>& t = a->pos_shard->taken;
  t.store(t.load(std::memory_order_relaxed) + consumed,
          std::memory_order_relaxed);
}

const pshard& queue_cb::my_shard() {
  return *my_attachment(kPrivPush)->my_shard;
}

// ----------------------------------------------------------- selective sync

void queue_cb::sync_children(std::uint8_t priv_filter) {
  qattach* a = my_attachment(0);
  // Lock-free: the counters are decremented with release at completion, so
  // an acquire load observing zero also observes the children's effects.
  backoff bo;
  for (;;) {
    long pending;
    if (priv_filter == 0) {
      pending = a->live_children.load(std::memory_order_acquire);
    } else if ((priv_filter & kPrivPop) != 0) {
      pending = a->live_pop_children.load(std::memory_order_acquire);
    } else {
      pending = a->live_push_children.load(std::memory_order_acquire);
    }
    if (pending == 0) return;
    throw_if_run_cancelled();
    wait_step(bo);
  }
}

}  // namespace hq::detail

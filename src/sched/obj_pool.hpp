// Per-worker slab + magazine allocator for the runtime's fixed-size
// hot-path records (task frames, hyperqueue attachments, producer shards).
//
// Every spawn allocates one task_frame (plus, per queue argument, one
// qattach and up to two pshard records), and every completion frees them —
// on whichever worker happened to run finish(). Shards are additionally
// freed by the consumer as its scan passes them, which is exactly the
// cross-worker return path below. A global new/delete pair on that path
// serializes all workers on the allocator; this pool removes it:
//
//  * each worker owns a magazine: a singly-linked freelist touched only by
//    that worker (no synchronization on the alloc fast path), refilled by
//    carving cache-aligned blocks out of per-worker slabs;
//  * a block freed by a *different* worker is pushed onto the allocating
//    magazine's MPSC return stack (one release-CAS), bounded by `cap` —
//    beyond it the block migrates to the freeing worker's own freelist
//    instead of piling up at one owner;
//  * the owner adopts its whole return stack in one exchange when its local
//    list runs dry, so steady-state pipelines (producer spawns on one
//    worker, consumer finishes on another) recirculate a bounded working
//    set with zero mallocs.
//
// Slabs are 64 KiB anonymous mappings, not heap memory, so they stay out
// of the allocator's arenas.
//
// Total pool memory is bounded by the peak number of simultaneously live
// blocks (slabs never shrink before the pool dies); the cap only bounds the
// return-stack length. Fresh-block and high-water accounting happens only
// on the slab-carve slow path; per-magazine counters live on owner lines.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include <sys/mman.h>

#include "conc/cache.hpp"
#include "conc/spinlock.hpp"
#include "core/fault.hpp"

namespace hq::detail {

/// Magazine index for blocks allocated outside any worker of the owning
/// scheduler (e.g. root frames launched from an external thread). Such
/// blocks bypass the pool: plain heap round trip.
inline constexpr unsigned kPoolExternal = ~0u;

class obj_pool {
 public:
  /// Counters mirroring seg_pool_stats (core/queue_cb.hpp): a well-behaved
  /// steady-state pipeline plateaus `allocated` while `recycled` grows.
  struct stats_t {
    std::uint64_t allocated = 0;   ///< fresh blocks ever carved / heap-allocated
    std::uint64_t recycled = 0;    ///< allocation requests served by a magazine
    /// Peak `live` observed at the sampling points (fresh-block slow paths
    /// and stats() calls). Exact tracking would put a shared counter on
    /// every alloc — the contention this pool exists to remove — so bursts
    /// served purely from magazines between samples can exceed it.
    std::uint64_t high_water = 0;
    std::uint64_t live = 0;        ///< blocks currently in use
  };

  obj_pool() = default;
  obj_pool(const obj_pool&) = delete;
  obj_pool& operator=(const obj_pool&) = delete;

  /// One-time setup (the worker count is only known in the scheduler ctor
  /// body). `cap` bounds each magazine's cross-worker return stack.
  void init(unsigned num_workers, std::size_t block_bytes, std::size_t cap) {
    assert(mags_.empty() && "obj_pool::init called twice");
    block_bytes_ = (block_bytes + kCacheLine - 1) / kCacheLine * kCacheLine;
    assert(block_bytes_ <= kSlabBytes && "block exceeds slab size");
    cap_ = cap;
    mags_.reserve(num_workers);
    // One allocation per magazine: the cross-worker return-stack heads of
    // different workers are written remotely under contention, so they
    // never share a cache line (magazine is line-aligned and line-padded).
    for (unsigned w = 0; w < num_workers; ++w)
      mags_.push_back(std::make_unique<magazine>());
  }

  ~obj_pool() {
    assert(stats().live == 0 && "obj_pool destroyed with blocks still in use");
    for (const auto& m : mags_)
      for (void* s : m->slabs) ::munmap(s, kSlabBytes);
    while (ext_free_ != nullptr) {
      free_block* n = ext_free_->next;
      ::operator delete(static_cast<void*>(ext_free_), std::align_val_t{kCacheLine});
      ext_free_ = n;
    }
  }

  /// Allocate one block on behalf of magazine `worker` (kPoolExternal for
  /// non-worker threads). Only the owning worker may pass its own index.
  void* alloc(unsigned worker) {
    if (worker == kPoolExternal) return external_alloc();
    magazine& m = *mags_[worker];
    if (m.local == nullptr) adopt_returns(m);
    if (free_block* b = m.local) {
      m.local = b->next;
      m.recycled.fetch_add(1, std::memory_order_relaxed);
      return b;
    }
    return carve(m);
  }

  /// Return a block to the pool. `owner` is the magazine recorded at alloc
  /// time, `freeing` the calling worker's index (kPoolExternal when not a
  /// worker): the same-worker path pushes locally, any other thread uses the
  /// owner's bounded return stack.
  void free(void* p, unsigned owner, unsigned freeing) {
    if (owner == kPoolExternal) {
      external_discard(p);
      return;
    }
    auto* b = ::new (p) free_block{nullptr};
    if (freeing != kPoolExternal) {
      magazine& f = *mags_[freeing];
      f.freed.fetch_add(1, std::memory_order_relaxed);
      if (owner == freeing ||
          mags_[owner]->return_count.load(std::memory_order_relaxed) >= cap_) {
        // Same-worker free, or the owner's return stack is full: keep the
        // block here. Blocks are interchangeable, so ownership migrates to
        // this magazine the next time the block is handed out.
        b->next = f.local;
        f.local = b;
        return;
      }
    } else {
      // External thread: no magazine of its own to absorb an over-cap
      // return, and slab-carved blocks must never reach the heap, so the
      // block goes back to the owner regardless — the cap is soft on this
      // path. Cold in practice: frames and attachments are freed in
      // finish(), which always runs on a worker.
      mags_[owner]->freed.fetch_add(1, std::memory_order_relaxed);
    }
    // Bounded cross-worker return (frames are freed by whichever worker ran
    // finish()). The count is approximate — concurrent frees may overshoot
    // by a thread count, which only makes the bound slightly soft.
    magazine& m = *mags_[owner];
    m.return_count.fetch_add(1, std::memory_order_relaxed);
    free_block* head = m.returns.load(std::memory_order_relaxed);
    do {
      b->next = head;
    } while (!m.returns.compare_exchange_weak(head, b, std::memory_order_release,
                                              std::memory_order_relaxed));
  }

  [[nodiscard]] stats_t stats() const {
    stats_t s;
    std::uint64_t freed = 0;
    for (const auto& m : mags_) {
      s.allocated += m->carved.load(std::memory_order_relaxed);
      s.recycled += m->recycled.load(std::memory_order_relaxed);
      freed += m->freed.load(std::memory_order_relaxed);
    }
    s.allocated += ext_fresh_.load(std::memory_order_relaxed);
    s.recycled += ext_recycled_.load(std::memory_order_relaxed);
    freed += ext_freed_.load(std::memory_order_relaxed);
    // The per-magazine counters are read without synchronization, so a
    // mid-flight snapshot can transiently observe a free before the
    // matching alloc; clamp instead of wrapping (live is monitoring-only,
    // and high_ is monotonic — a wrapped value would stick forever).
    const std::uint64_t alloc_total = s.allocated + s.recycled;
    s.live = alloc_total >= freed ? alloc_total - freed : 0;
    // Every stats() call is itself a sampling point for the observed peak.
    std::uint64_t hw = high_.load(std::memory_order_relaxed);
    while (s.live > hw &&
           !high_.compare_exchange_weak(hw, s.live, std::memory_order_relaxed)) {
    }
    s.high_water = std::max(hw, s.live);
    return s;
  }

 private:
  struct free_block {
    free_block* next;
  };

  struct magazine {
    // Owner-worker lines: freelist, slab cursor and counters are only ever
    // written by the owning worker (counters are read by stats()).
    free_block* local = nullptr;
    char* slab_pos = nullptr;
    char* slab_end = nullptr;
    std::vector<void*> slabs;
    std::atomic<std::uint64_t> carved{0};    // fresh blocks cut from slabs
    std::atomic<std::uint64_t> recycled{0};  // allocs served from freelists
    std::atomic<std::uint64_t> freed{0};     // frees executed by this worker
    // Shared line: cross-worker returns land here (MPSC Treiber stack; the
    // owner pops everything at once, so there is no ABA window).
    alignas(kCacheLine) std::atomic<free_block*> returns{nullptr};
    std::atomic<std::size_t> return_count{0};
  };

  static constexpr std::size_t kSlabBytes = std::size_t{1} << 16;  // 64 KiB

  /// Adopt the entire return stack into the local freelist. The acquire
  /// exchange synchronizes with every pusher's release-CAS (they form one
  /// release sequence), so the adopted blocks' memory is safe to reuse.
  void adopt_returns(magazine& m) {
    free_block* r = m.returns.exchange(nullptr, std::memory_order_acquire);
    if (r == nullptr) return;
    std::size_t k = 1;
    free_block* tail = r;
    while (tail->next != nullptr) {
      tail = tail->next;
      ++k;
    }
    m.return_count.fetch_sub(k, std::memory_order_relaxed);
    tail->next = m.local;
    m.local = r;
  }

  /// Slow path: cut a fresh cache-aligned block out of the worker's slab,
  /// mapping a fresh (page-aligned) slab when exhausted.
  void* carve(magazine& m) {
    if (m.slab_pos == m.slab_end) {
      if (fault::failpoint("pool.slab")) throw std::bad_alloc();
      void* slab = ::mmap(nullptr, kSlabBytes, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (slab == MAP_FAILED) throw std::bad_alloc();
      m.slabs.push_back(slab);
      m.slab_pos = static_cast<char*>(slab);
      m.slab_end = m.slab_pos + kSlabBytes / block_bytes_ * block_bytes_;
    }
    void* p = m.slab_pos;
    m.slab_pos += block_bytes_;
    m.carved.fetch_add(1, std::memory_order_relaxed);
    note_high_water();
    return p;
  }

  /// External threads (no magazine) recycle through a tiny spinlock-guarded
  /// freelist — cold path, one root frame per scheduler::run(). These blocks
  /// are plain heap memory, never slab-carved.
  void* external_alloc() {
    {
      std::lock_guard<spinlock> lk(ext_mu_);
      if (free_block* b = ext_free_) {
        ext_free_ = b->next;
        ext_recycled_.fetch_add(1, std::memory_order_relaxed);
        return b;
      }
    }
    ext_fresh_.fetch_add(1, std::memory_order_relaxed);
    note_high_water();
    return ::operator new(block_bytes_, std::align_val_t{kCacheLine});
  }

  void external_discard(void* p) {
    auto* b = ::new (p) free_block{nullptr};
    ext_freed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<spinlock> lk(ext_mu_);
    b->next = ext_free_;
    ext_free_ = b;
  }

  /// Record a high-water sample. Called on fresh-block paths (where the
  /// local working set just grew) — cross-magazine recycling bursts between
  /// samples are intentionally not tracked; see stats_t::high_water.
  void note_high_water() { (void)stats(); }

  std::size_t block_bytes_ = 0;
  std::size_t cap_ = 0;
  std::vector<std::unique_ptr<magazine>> mags_;
  // External-thread blocks and the high-water mark: slow paths only, never
  // touched by the recycling fast path.
  spinlock ext_mu_;
  free_block* ext_free_ = nullptr;
  std::atomic<std::uint64_t> ext_fresh_{0}, ext_recycled_{0}, ext_freed_{0};
  mutable std::atomic<std::uint64_t> high_{0};  // stats() records samples
};

}  // namespace hq::detail

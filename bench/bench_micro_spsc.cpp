// Section 3.2 substrate ablation: single-producer single-consumer queue
// designs — Lamport array ring (with cached indices), FastForward
// slot-state ring, mutex+condvar bounded queue, and the hyperqueue segment
// itself. Single-threaded ping-pong isolates the per-operation cost.
//
// The segment appears twice: the current padded / cached-index /
// trivial-batched implementation, and a faithful replica of the seed layout
// (head and tail adjacent, remote index acquired on every operation, every
// element through a function pointer) so the cached-vs-seed speedup is a
// single JSON diff away.
//
// Provides its own main(): emits a BENCH_spsc.json trajectory record (see
// bench_json.hpp; --json PATH overrides, --quick shrinks to smoke size)
// gated on a single-threaded reload-count probe and a 2-thread FIFO
// torture of the padded segment.
#include <benchmark/benchmark.h>

#include <thread>

#include "bench_json.hpp"
#include "conc/backoff.hpp"
#include "conc/bounded_queue.hpp"
#include "conc/spsc_ring.hpp"
#include "core/hyperqueue.hpp"

namespace {

void BM_LamportRing(benchmark::State& state) {
  hq::spsc_ring<int> q(1024);
  int v = 0;
  for (auto _ : state) {
    q.try_push(v++);
    benchmark::DoNotOptimize(q.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LamportRing);

void BM_FastForwardRing(benchmark::State& state) {
  hq::ff_ring<int> q(1024, -1);
  int v = 0;
  for (auto _ : state) {
    q.try_push(v++ & 0xFFFF);
    benchmark::DoNotOptimize(q.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastForwardRing);

void BM_MutexBoundedQueue(benchmark::State& state) {
  hq::bounded_queue<int> q(1024);
  int v = 0;
  for (auto _ : state) {
    q.push(v++);
    benchmark::DoNotOptimize(q.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexBoundedQueue);

/// The seed-era segment, reproduced verbatim as a benchmark-local fixture:
/// head and tail share a cache line, the remote index is acquired on every
/// push/pop, and each element moves through an element_ops function pointer.
class seed_segment {
 public:
  seed_segment(std::uint64_t capacity, const hq::detail::element_ops* o)
      : mask_(capacity - 1), ops_(o), storage_(new std::byte[capacity * o->size]) {}
  ~seed_segment() { delete[] storage_; }

  bool try_push(void* src) noexcept {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    if (t - h > mask_) return false;
    ops_->move_construct(slot(t), src);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }
  bool readable() const noexcept {
    return head_.load(std::memory_order_relaxed) <
           tail_.load(std::memory_order_acquire);
  }
  void pop_into(void* dst) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    // The seed's precondition assert re-read the remote tail; the repo
    // ships with asserts on (HQ_KEEP_ASSERTS), so the seed paid this load.
    assert(h < tail_.load(std::memory_order_acquire));
    void* s = slot(h);
    ops_->move_construct(dst, s);
    ops_->destroy(s);
    head_.store(h + 1, std::memory_order_release);
  }

 private:
  void* slot(std::uint64_t i) noexcept { return storage_ + (i & mask_) * ops_->size; }

  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  const std::uint64_t mask_;
  const hq::detail::element_ops* ops_;
  std::byte* storage_;
};

void BM_HyperqueueSegment_Seed(benchmark::State& state) {
  const hq::detail::element_ops ops = hq::detail::make_element_ops<int>();
  hq::detail::element_ops seed_ops = ops;
  seed_ops.trivial_copy = false;  // the seed had no flags: always indirect
  seed_ops.trivial_destroy = false;
  seed_segment seg(1024, &seed_ops);
  int v = 0, out = 0;
  // Streaming steady state: producer half a ring ahead, as in a pipeline
  // whose stages are rate-matched (the paper's Section 5.1 setting).
  while (v < 512) {
    seg.try_push(&v);
    ++v;
  }
  for (auto _ : state) {
    seg.try_push(&v);
    ++v;
    // The real consumer polls readable() before every pop (poll_chain).
    if (seg.readable()) seg.pop_into(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperqueueSegment_Seed);

void BM_HyperqueueSegment(benchmark::State& state) {
  const hq::detail::element_ops ops = hq::detail::make_element_ops<int>();
  auto* seg = hq::detail::segment::create(1024, &ops);
  int v = 0, out = 0;
  // Same streaming depth as the seed variant.
  while (v < 512) {
    seg->try_push(&v);
    ++v;
  }
  for (auto _ : state) {
    seg->try_push(&v);
    ++v;
    // Fused poll+pop; usually resolves on the cached index alone.
    seg->try_pop_into(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
  seg->destroy_remaining();
  hq::detail::segment::destroy(seg);
}
BENCHMARK(BM_HyperqueueSegment);

/// Batched trivial-type transfer: a write slice in, read slices out
/// (consumed in place), 64 at a time.
void BM_HyperqueueSegment_Bulk64(benchmark::State& state) {
  const hq::detail::element_ops ops = hq::detail::make_element_ops<int>();
  auto* seg = hq::detail::segment::create(1024, &ops);
  long sum = 0;
  int v = 0;
  for (auto _ : state) {
    std::uint64_t n = 0;
    void* p = seg->acquire_write(64, &n);
    auto* slots = static_cast<int*>(p);
    for (std::uint64_t i = 0; i < n; ++i) slots[i] = v++;
    seg->publish_write(n);
    std::uint64_t got = 0;
    while (got < n) {
      std::uint64_t k = 0;
      const auto* r = static_cast<const int*>(seg->acquire_read(n - got, &k));
      for (std::uint64_t i = 0; i < k; ++i) sum += r[i];
      seg->retire_read(k);
      got += k;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 64);
  seg->destroy_remaining();
  hq::detail::segment::destroy(seg);
}
BENCHMARK(BM_HyperqueueSegment_Bulk64);

// ------------------------------------------------------------------- probes

/// Deterministic single-threaded probe: fill/drain rounds on one segment
/// must reload each remote index once per round, not once per element, and
/// deliver every value in order.
bool run_cached_index_probe() {
  const hq::detail::element_ops ops = hq::detail::make_element_ops<std::uint64_t>();
  hq::detail::data_path_counts counters;
  auto* seg = hq::detail::segment::create(256, &ops, &counters);
  const std::uint64_t rounds = 100, cap = 256;
  bool fifo_ok = true;
  std::uint64_t v = 0, expect = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::uint64_t i = 0; i < cap; ++i) {
      if (!seg->try_push(&v)) fifo_ok = false;
      ++v;
    }
    for (std::uint64_t i = 0; i < cap; ++i) {
      std::uint64_t out = ~0ull;
      if (!seg->readable()) fifo_ok = false;
      seg->pop_into(&out);
      if (out != expect++) fifo_ok = false;
    }
  }
  const std::uint64_t head_reloads = counters.head_reloads;
  const std::uint64_t tail_reloads = counters.tail_reloads;
  const bool reloads_ok = head_reloads <= rounds + 2 && tail_reloads <= rounds + 2;
  if (!reloads_ok) {
    std::fprintf(stderr,
                 "FAIL: remote-index reloads not amortized (head %llu, tail "
                 "%llu over %llu rounds)\n",
                 static_cast<unsigned long long>(head_reloads),
                 static_cast<unsigned long long>(tail_reloads),
                 static_cast<unsigned long long>(rounds));
  }
  if (!fifo_ok) std::fprintf(stderr, "FAIL: single-threaded FIFO mismatch\n");
  seg->destroy_remaining();
  hq::detail::segment::destroy(seg);
  return fifo_ok && reloads_ok;
}

/// 2-thread FIFO torture of the padded segment (element path).
bool run_two_thread_probe(bool quick) {
  const std::uint64_t items = quick ? 200'000 : 2'000'000;
  const hq::detail::element_ops ops = hq::detail::make_element_ops<std::uint64_t>();
  auto* seg = hq::detail::segment::create(1024, &ops);
  std::thread producer([&] {
    hq::backoff bo;
    for (std::uint64_t i = 0; i < items;) {
      std::uint64_t val = i * 0x9e3779b97f4a7c15ull;
      if (seg->try_push(&val)) {
        ++i;
        bo.reset();
      } else {
        bo.pause();
      }
    }
  });
  std::uint64_t first_bad = items;
  hq::backoff bo;
  for (std::uint64_t i = 0; i < items;) {
    if (!seg->readable()) {
      bo.pause();
      continue;
    }
    bo.reset();
    std::uint64_t out = 0;
    seg->pop_into(&out);
    if (first_bad == items && out != i * 0x9e3779b97f4a7c15ull) first_bad = i;
    ++i;
  }
  producer.join();
  if (first_bad != items) {
    std::fprintf(stderr, "FAIL: 2-thread FIFO violation at item %llu\n",
                 static_cast<unsigned long long>(first_bad));
  }
  seg->destroy_remaining();
  hq::detail::segment::destroy(seg);
  return first_bad == items;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  const auto opt =
      hq::bench::parse_micro_args(argc, argv, "BENCH_spsc.json", args);
  benchmark::Initialize(&argc, args.data());
  hq::bench::collecting_reporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  const bool cached_ok = run_cached_index_probe();
  const bool torture_ok = run_two_thread_probe(opt.quick);

  const bool all_ok = cached_ok && torture_ok && !reporter.rows.empty();
  const bool wrote = hq::bench::write_micro_json(
      opt, "micro_spsc", reporter.rows, all_ok, [&](FILE* f) {
        std::fprintf(f,
                     "  \"probe\": {\"cached_index_ok\": %s, "
                     "\"two_thread_fifo_ok\": %s},\n",
                     cached_ok ? "true" : "false", torture_ok ? "true" : "false");
      });
  return all_ok && wrote ? 0 : 1;
}

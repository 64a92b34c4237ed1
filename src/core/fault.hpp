// Deterministic, site-based fault injection.
//
// A fault *plan* is a seed plus a list of rules keyed by site name. Every
// instrumented point in the runtime names its site ("stage.compress",
// "pool.slab", "segment.alloc", "queue.push", "queue.pop") and calls one of
// three entry points:
//
//   crashpoint(site)        may throw injected_fault (action `throw`), spin
//                           until the run cancels (action `stall`), or spin a
//                           fixed count (action `delay`);
//   failpoint(site)         returns true when the caller should simulate an
//                           operation failure (action `alloc`: the pool /
//                           segment sites throw std::bad_alloc);
//   delaypoint(site)        applies only `delay` rules — placed on queue ops
//                           to widen interleavings without changing results.
//
// Whether a given hit fires is a pure function of (seed, site, hit count):
// `nth=N` fires exactly at the Nth hit of that site, `every=K` at every Kth,
// `prob=P` with seeded per-hit probability via splitmix64. Counting is global
// per site (one atomic per site), so a plan replayed against the same
// workload fires at byte-identical (site, count) points regardless of thread
// interleaving; `firings()` exposes the log for replay tests.
//
// Plans install programmatically (tests) or from the HQ_FAULTS environment
// variable at process start:
//
//   HQ_FAULTS="seed=7;throw@stage.compress:nth=3;alloc@pool.slab:nth=2;
//              delay@queue.push:every=64,iters=200"
//
// When no plan is installed, every entry point is one relaxed atomic load —
// cheap enough to leave compiled into release builds.
//
// Installing or clearing a plan while a run is actively hitting sites is a
// race by design (the configuration swap is not synchronized with hits);
// tests install between runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hq::fault {

/// Thrown by `throw` rules: carries the site and the hit count that fired so
/// tests can assert the failure surfaced from the exact injected point.
class injected_fault : public std::runtime_error {
 public:
  injected_fault(std::string site, std::uint64_t count);
  [[nodiscard]] const std::string& site() const noexcept { return site_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::string site_;
  std::uint64_t count_;
};

enum class action : std::uint8_t {
  throw_exc,   ///< crashpoint throws injected_fault
  alloc_fail,  ///< failpoint returns true (caller simulates the failure)
  delay,       ///< spin `iters` pause hints, then continue normally
  stall,       ///< crashpoint spins until the run cancels or the plan clears
};

struct rule {
  std::string site;        ///< exact site name ("*" suffix matches a prefix)
  action act = action::throw_exc;
  std::uint64_t nth = 0;   ///< fire exactly at this hit count (1-based)
  std::uint64_t every = 0; ///< fire at every multiple of this count
  double prob = 0.0;       ///< seeded per-hit firing probability
  std::uint64_t iters = 256;  ///< spin iterations for `delay`
};

struct plan {
  std::uint64_t seed = 0;
  std::vector<rule> rules;
};

/// One recorded firing, in firing order. (site, count) pairs are the
/// deterministic replay identity; the order itself can vary with thread
/// interleaving when distinct sites fire concurrently.
struct firing {
  std::string site;
  std::uint64_t count = 0;
  action act = action::throw_exc;
};

/// Replace the active plan (site counters and the firing log reset).
void install(plan p);
/// Remove the active plan; also releases any rule currently stalling.
void clear();

namespace detail {
extern std::atomic<const void*> g_cfg;
void hit_crash(std::string_view site);
bool hit_fail(std::string_view site) noexcept;
void hit_delay(std::string_view site) noexcept;
}  // namespace detail

/// True when a plan is installed. Single relaxed load — the only cost every
/// instrumented point pays when injection is off.
inline bool active() noexcept {
  return detail::g_cfg.load(std::memory_order_relaxed) != nullptr;
}

inline void crashpoint(std::string_view site) {
  if (active()) detail::hit_crash(site);
}

[[nodiscard]] inline bool failpoint(std::string_view site) noexcept {
  return active() && detail::hit_fail(site);
}

inline void delaypoint(std::string_view site) noexcept {
  if (active()) detail::hit_delay(site);
}

/// Parse an HQ_FAULTS-style spec into a plan. Returns false and fills *err
/// on malformed input. Grammar: ';'-separated entries, each either `seed=N`
/// or `ACTION@SITE[:k=v[,k=v...]]` with ACTION in {throw,alloc,delay,stall}
/// and keys nth/every/prob/iters.
bool parse(std::string_view spec, plan* out, std::string* err);

/// Snapshot of the firing log since the last install().
std::vector<firing> firings();

}  // namespace hq::fault

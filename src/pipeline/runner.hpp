// Generic pipeline runner + app registry.
//
// Executes one pipe::graph description on any backend:
//
//   serial      — the serial elision: stages invoked depth-first on one
//                 thread, emissions passed as stack references. The
//                 correctness reference every other backend is gated
//                 against.
//   hyperqueue  — hyperqueues moved through read and write slices, one in
//                 front of each serial stage and the sink; the stage feeding
//                 a run of parallel stages spawns one task per slice_batch
//                 tokens through the run (builder.hpp).
//   pthreads    — explicit-thread baseline over bounded_queue, with
//                 multi-level reorder buffers recovering serial-elision
//                 order behind expand stages.
//   tbb         — the TBB-style token pipeline baseline
//                 (pipeline/tbb_pipeline.hpp), gathered-list tokens for
//                 expand stages (paper Figure 10a).
//
// Apps register a factory under a name (register_app / REGISTER_HQ_APP via
// registry.cpp); run_app(name, backend, params) builds a fresh instance,
// runs it, and compares its digest against a memoized serial-elision
// reference — the output-equality gate lives here once instead of being
// re-implemented per app.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/builder.hpp"

namespace hq::pipe {

enum class backend { serial, hyperqueue, pthreads, tbb };

[[nodiscard]] const char* to_string(backend b) noexcept;

/// All registered app-facing backends (everything but `serial`, which is
/// the reference the others are gated against).
[[nodiscard]] const std::vector<backend>& parallel_backends();

struct exec_options {
  unsigned workers = 1;
  /// Admission control at the pipeline boundary (every backend): gate each
  /// source emission against the in-flight window per the policy. The
  /// window counts source emissions not yet retired by the sink, so it is
  /// calibrated for ~1:1 pipelines; expand stages skew the accounting
  /// (never below zero, but the effective window widens).
  admission_opts admission;
};

/// How a run ended. `failed` covers stage exceptions (including injected
/// faults, core/fault.hpp) and allocation failures; `stalled` means the
/// watchdog (sched/watchdog.hpp) cancelled a hung run.
enum class run_outcome { ok, failed, stalled };

[[nodiscard]] const char* to_string(run_outcome o) noexcept;

struct exec_result {
  double seconds = 0;
  run_outcome outcome = run_outcome::ok;
  /// what() of the failure when outcome != ok (filled by run_app; execute()
  /// itself throws instead).
  std::string error;
  /// Hyperqueue backend only: the chain's queue snapshots summed
  /// (seg_pool_stats, operator+) and the peak live segment count
  /// (zero-steady-state-alloc probes). Each queue's snapshot includes the
  /// backlog holds at its drain, so throttle_waits / throttle_ns here are
  /// the holds and paused time of every edge into a serial stage or the
  /// sink, summed (budget_overruns is always 0).
  seg_pool_stats pool;
  std::size_t peak_segments = 0;
  /// Admission accounting (exec_options::admission; zero when the policy is
  /// none): tokens admitted at the source, tokens shed, and the total time
  /// sources spent blocked on a full window. Queue-level backpressure (the
  /// drains' backlog holds) lives in `pool`.
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t admission_wait_ns = 0;
};

/// Run `g` on `b`. Throws graph_error if the description doesn't compile.
/// A stage body that throws cancels the run on every backend: in-flight
/// tokens are reclaimed, worker threads drain out, and the first exception
/// is rethrown here on the calling thread (run_app instead catches it and
/// reports it through exec_result::outcome/error).
exec_result execute(graph& g, backend b, const exec_options& opt = {});

// ---- app registry ----------------------------------------------------------

struct app_params {
  unsigned workers = 1;
  std::uint64_t seed = 0;
  /// Small deterministic inputs (tests / --quick benches) vs full size.
  bool quick = true;
};

/// One constructed app run: describes its pipeline into a graph, then
/// reports a digest of its output after execution. Instances are
/// single-shot; the registry makes a fresh one per run.
class app_instance {
 public:
  virtual ~app_instance() = default;
  virtual void describe(graph& g) = 0;
  [[nodiscard]] virtual std::string digest() const = 0;
};

using app_factory =
    std::function<std::unique_ptr<app_instance>(const app_params&)>;

void register_app(std::string name, app_factory make);
[[nodiscard]] const std::vector<std::string>& registered_apps();
/// Force registration of the built-in apps (bzip2/dedup/ferret). Defined in
/// src/apps/registry.cpp; callers in the same binary get the registrations
/// via this link-time dependency regardless of static-init order.
void ensure_builtin_apps();

struct app_run {
  exec_result exec;
  std::string digest;     ///< this run's output digest
  std::string reference;  ///< serial-elision digest for (app, seed, quick)
  /// digest == reference. False whenever exec.outcome != run_outcome::ok
  /// (a failed run leaves digest empty rather than reporting partial
  /// output as if it were a result).
  bool ok = false;
};

/// Build app `name` with `p`, run it on `b`, and gate the result against
/// the memoized serial-elision reference digest. Throws std::out_of_range
/// for unknown apps.
app_run run_app(const std::string& name, backend b, const app_params& p,
                const exec_options* opt_override = nullptr);

}  // namespace hq::pipe

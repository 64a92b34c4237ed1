// The four bench_e2e workloads. Each one owns its seeded inputs and can
// build four graphs over them:
//
//   real    the app's own describe_pipeline (stream-query has no app; its
//           real graph is the benchmark's pipeline below);
//   twin    the same stages rebuilt here from the app's public kernels, with
//           the same stage names, kinds and edge_opts, calling the probe
//           hooks (spans, emission and retirement times). Its output must
//           equal the real graph's, which bench_e2e checks on every run;
//   hollow  the twin's shape and per-stage token counts with bodies that
//           only move default-constructed tokens: transport and scheduling
//           cost alone;
//   empty   the real graph fed zero tokens: the fixed cost of one execute.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/runner.hpp"
#include "probe.hpp"

namespace hq::e2e {

enum class variant { real, twin, hollow, empty };

struct stage_info {
  std::string name;
  pipe::stage_kind kind;
};

class workload {
 public:
  virtual ~workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// Open-loop service workload: requests are due on a precomputed
  /// schedule and latency is timed from each due time.
  [[nodiscard]] virtual bool open_loop() const { return false; }
  /// Declared stages, source first; span stage ids index this list.
  [[nodiscard]] virtual const std::vector<stage_info>& stages() const = 0;
  /// Tokens the source emits, and the sink retires, in one run.
  [[nodiscard]] virtual std::size_t emitted() const = 0;
  [[nodiscard]] virtual std::size_t retired() const = 0;
  /// Tokens moved over all edges in one run.
  [[nodiscard]] virtual std::size_t edge_tokens() const = 0;

  /// Build a fresh run of `v` into `g` and reset the output. `pr` receives
  /// the twin's and hollow graph's hooks and must outlive the run. `paced`
  /// (open loop only) makes the generator wait for each due time; unpaced,
  /// it emits as fast as the pipeline accepts.
  virtual void describe(variant v, pipe::graph& g, probe& pr, bool paced) = 0;
  /// Output of the last real or twin run, equal for every correct run.
  [[nodiscard]] virtual std::string digest() const = 0;
  /// Requests retired out of order in the last run (open loop only).
  [[nodiscard]] virtual std::size_t misordered() const { return 0; }
  /// Due times relative to the generator's start (open loop only).
  [[nodiscard]] virtual const std::vector<std::int64_t>& due_ns() const;
  /// When the last run's generator started (open loop only).
  [[nodiscard]] virtual std::int64_t gen_start_ns() const { return 0; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null for an unknown name. `quick` selects tiny smoke-test inputs.
[[nodiscard]] std::unique_ptr<workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      bool quick);

}  // namespace hq::e2e

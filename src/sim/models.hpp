// Virtual-time models of the four scheduling policies evaluated in the
// paper (pthreads stage pools, TBB token pipeline, task dataflow "objects",
// hyperqueue work-stealing), over two pipeline shapes:
//   * flat  — ferret/bzip2: every item passes the same stage list;
//   * nested — dedup: coarse chunks fan out into many fine chunks
//     (Figure 10), which is where the models genuinely differ.
//
// Costs are measured on the host (apps' stage_times); overheads are
// calibrated from the runtime microbenchmarks. Speedup(P) =
// serial_time / makespan(P). See README "Substitutions" for the argument.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/des.hpp"

namespace hq::sim {

struct machine {
  unsigned cores = 1;
  unsigned fpu_pairs = 0;    // e.g. 16 on the paper's 32-core Bulldozer
  double fpu_penalty = 0.0;  // FP service-time stretch at full occupancy
};

/// Per-operation runtime costs (seconds), host-calibrated by the benches.
struct overheads {
  double task_spawn = 1.0e-6;   // dataflow/hyperqueue task create+schedule
  double hq_queue_op = 0.2e-6;  // hyperqueue push+pop per item
  double pth_queue_op = 3.0e-6; // pthread bounded-queue transfer (mutex+cv)
  double tbb_token = 1.0e-6;    // token admission / filter advance
  /// Service-time stretch of the pthreads model under thread
  /// oversubscription (stage pools sum to ~3x the core count): quantum
  /// timesharing evicts per-item private working sets between slices.
  /// Workload-dependent: ~0 for ferret (the dominant ranking stage scans a
  /// shared read-only database) and noticeable for dedup (per-chunk
  /// compressor state) — the locality effect the paper names when the
  /// hyperqueue advantage appears (Section 6.2).
  double pth_oversub_penalty = 0.0;
};

// -------------------------------------------------------------------- flat

struct stage_spec {
  bool serial = false;  // serial stages execute in item order, one at a time
  double cost = 0;      // mean per-item seconds
};

struct flat_spec {
  std::vector<stage_spec> stages;
  std::size_t items = 0;
  double jitter = 0.15;  // multiplicative per-execution variation
  std::uint64_t seed = 1;
};

double serial_time_flat(const flat_spec& spec);

/// Thread-per-stage pools with inter-stage queues; `threads_per_stage`
/// replicas for parallel stages (the PARSEC oversubscription knob).
double sim_flat_pthreads(const flat_spec& spec, const machine& m,
                         const overheads& ov, unsigned threads_per_stage);

/// Token pipeline with bounded tokens in flight.
double sim_flat_tbb(const flat_spec& spec, const machine& m, const overheads& ov,
                    std::size_t max_tokens);

/// Task dataflow. When overlap_first_stage is false the first (input) stage
/// runs unoverlapped before the pipeline — the unrestructured-input
/// shortcoming of the paper's "objects" ferret (Section 6.1).
double sim_flat_objects(const flat_spec& spec, const machine& m,
                        const overheads& ov, bool overlap_first_stage);

/// Hyperqueue: identical DAG but the input stage is an ordinary concurrent
/// producer task and items stream through queues at element granularity.
double sim_flat_hyperqueue(const flat_spec& spec, const machine& m,
                           const overheads& ov);

// ------------------------------------------------------------------ nested

struct nested_spec {
  std::size_t coarse = 0;
  std::size_t fine_per_coarse = 0;  // mean; varied per coarse chunk
  double fragment_cost = 0;         // per coarse, serial stage
  double refine_cost = 0;           // per coarse, parallel
  double dedup_cost = 0;            // per fine, parallel
  double compress_cost = 0;         // per unique fine, parallel
  double unique_fraction = 0.5;
  double output_cost = 0;           // per fine, serial in order
  double jitter = 0.3;
  std::uint64_t seed = 1;
};

double serial_time_nested(const nested_spec& spec);

/// Fine-granularity stage pools (PARSEC pthreads dedup).
double sim_nested_pthreads(const nested_spec& spec, const machine& m,
                           const overheads& ov, unsigned threads_per_stage);

/// Coarse tokens; all fine chunks of a token are gathered before the serial
/// output filter runs (the Reed et al. nested-pipeline limitation).
double sim_nested_tbb(const nested_spec& spec, const machine& m,
                      const overheads& ov, std::size_t max_tokens);

/// Task dataflow over per-coarse lists (Figure 10a): output waits for each
/// complete list.
double sim_nested_objects(const nested_spec& spec, const machine& m,
                          const overheads& ov);

/// Hyperqueues (Figure 10b/c): merged dedup+compress task per coarse chunk
/// streams fine chunks to the output as they complete.
double sim_nested_hyperqueue(const nested_spec& spec, const machine& m,
                             const overheads& ov);

}  // namespace hq::sim

// dedup — deduplicating compression (PARSEC), rebuilt on synthetic archives
// (see README "Substitutions").
//
// Pipeline (paper Figure 9): Fragment -> FragmentRefine -> Deduplicate ->
// Compress -> Output, with variable-rate stages: refinement produces many
// small chunks per coarse chunk, and compression is skipped for duplicates.
// The output stream interleaves unique payloads ('U') and back-references
// ('R'); the first occurrence in OUTPUT order carries the payload, so the
// stream is byte-identical across all backends and schedules.
//
// The declared graph and the task-dataflow "objects" baseline share these
// kernels; correctness = the reassembled stream equals the input, and every
// run's output is byte-identical to the serial elision's.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/sha1.hpp"

namespace hq::pipe {
class graph;
}

namespace hq::apps::dedup {

struct config {
  std::size_t input_bytes = 8u << 20;  // paper 'native': 672 MiB archive
  double dup_fraction = 0.5;           // whole-block duplicate rate
  std::size_t coarse_bytes = 128u << 10;  // Fragment granularity
  unsigned fine_avg_log2 = 12;            // FragmentRefine ~4 KiB chunks
  std::size_t fine_min = 512, fine_max = 16u << 10;
  unsigned threads = 1;
  std::uint64_t seed = 7;
  std::size_t slice_batch = 16;  // records moved per queue slice (Section 5.2)
  /// Coarse chunks per nested pipeline (hyperqueue variants): one local
  /// queue and one refine/dedup task pair serve this many consecutive
  /// coarse chunks, so the per-pipeline setup cost (queue construction,
  /// attachments, spawns) amortizes over a stream of batch * fine-chunk
  /// records instead of being paid per coarse chunk.
  std::size_t coarse_batch = 8;
};

/// Shared state of one unique content chunk.
struct dedup_entry {
  std::vector<std::uint8_t> compressed;
  std::atomic<bool> ready{false};  // compression finished
  bool written = false;            // output stage only (serial)
};

/// A fine-grained chunk record travelling to the output stage.
struct chunk_rec {
  std::uint64_t coarse_seq = 0;
  std::uint64_t fine_seq = 0;
  util::sha1_digest digest{};
  std::shared_ptr<dedup_entry> entry;  // shared with equal-content chunks
  bool owner = false;                  // this record must compress the data
  std::vector<std::uint8_t> data;      // raw payload (owners only)
};

/// Thread-safe digest -> entry map (striped locking, PARSEC-style).
class dedup_table {
 public:
  /// Returns the entry for the digest; *inserted is true when this caller
  /// created it (and therefore owns compression).
  std::shared_ptr<dedup_entry> intern(const util::sha1_digest& d, bool* inserted);

  [[nodiscard]] std::size_t unique_chunks() const;

 private:
  static constexpr std::size_t kStripes = 64;
  mutable std::mutex mu_[kStripes];
  std::unordered_map<util::sha1_digest, std::shared_ptr<dedup_entry>>
      map_[kStripes];
};

// ---- stage kernels -------------------------------------------------------

/// Fragment: content-defined coarse chunk boundaries.
std::vector<std::pair<std::size_t, std::size_t>> k_fragment(
    const config& cfg, const std::uint8_t* data, std::size_t len);

/// FragmentRefine: content-defined fine chunks of one coarse chunk.
std::vector<chunk_rec> k_refine(const config& cfg, const std::uint8_t* base,
                                std::size_t off, std::size_t len,
                                std::uint64_t coarse_seq);

/// Deduplicate: digest + table interning. Owners keep their payload.
void k_dedup(dedup_table* table, chunk_rec* c);

/// Compress: LZ-compress an owner's payload into its entry.
void k_compress(chunk_rec* c);

/// Output: append one record to the stream (strictly in (coarse,fine)
/// order; serial). Blocks until the entry's compression is ready when the
/// record is the first occurrence.
void k_output(std::vector<std::uint8_t>* out, chunk_rec* c);

/// Rebuild the original data from an output stream (verification).
std::vector<std::uint8_t> reassemble(const std::uint8_t* stream, std::size_t len);

struct result {
  std::vector<std::uint8_t> output;
  double seconds = 0;
  std::size_t total_chunks = 0;
  std::size_t unique_chunks = 0;
};

/// Declarative Figure 9 description (pipeline/builder.hpp): fragment ->
/// refine (variable-rate expand) -> dedup+compress -> in-order output.
/// Every backend of pipe::execute runs this one graph; `cfg`, `input`,
/// `table` and `r` must outlive the built graph. A run fills r->output and
/// r->total_chunks; the unique count is table->unique_chunks().
void describe_pipeline(const config& cfg, const std::vector<std::uint8_t>& input,
                       dedup_table* table, result* r, pipe::graph& g);
result run_objects(const config& cfg, const std::vector<std::uint8_t>& input);

/// Serial per-stage seconds {Fragment, FragmentRefine, Deduplicate,
/// Compress, Output} plus iteration counts, for Table 2.
struct characterization {
  double seconds[5];
  std::uint64_t iterations[5];
};
characterization stage_times(const config& cfg,
                             const std::vector<std::uint8_t>& input);

}  // namespace hq::apps::dedup

// bzip2-like block compression utility over the mbzip kernel (paper
// Section 6.3): a 3-stage pipeline — serial read, parallel per-block
// compression, serial in-order write.
//
// Entry points: the declared graph (describe_pipeline, run by pipe::execute
// on any backend), task dataflow ("objects", the structure of prior work
// [7] the paper compares against), and the hyperqueue version with the
// loop-split idiom of Section 5.4 that bounds queue growth under serial
// execution.
#pragma once

#include <cstdint>
#include <vector>

namespace hq::pipe {
class graph;
}

namespace hq::apps::bzip2 {

struct config {
  std::size_t input_bytes = 4u << 20;
  std::size_t block_bytes = 128u << 10;
  unsigned threads = 1;
  std::uint64_t seed = 99;
  std::size_t split_batch = 8;   // blocks per batch in the loop-split variant
  std::size_t split_window = 4;  // batches in flight before a selective sync
  std::size_t slice_batch = 16;  // blocks moved per queue slice (Section 5.2)
};

struct result {
  std::vector<std::uint8_t> output;  // mbzip stream (decompressible)
  double seconds = 0;
  std::size_t blocks = 0;
  // run_hyperqueue_split only: peak queue segments (memory footprint probe)
  // and the segment-pool counters summed over its two queues — fresh
  // allocations, pool reuses, peak segments in use.
  std::size_t peak_segments = 0;
  std::size_t seg_allocated = 0;
  std::size_t seg_recycled = 0;
  std::size_t seg_high_water = 0;
};

/// Declarative 3-stage description (pipeline/builder.hpp): serial read ->
/// parallel compress -> in-order write. Every backend of pipe::execute runs
/// this one graph; `cfg`, `input` and `r` must outlive the built graph.
void describe_pipeline(const config& cfg, const std::vector<std::uint8_t>& input,
                       result* r, pipe::graph& g);
result run_objects(const config& cfg, const std::vector<std::uint8_t>& input);
result run_hyperqueue_split(const config& cfg,
                            const std::vector<std::uint8_t>& input);

/// Serial per-stage seconds {read, compress, write}.
std::vector<double> stage_times(const config& cfg,
                                const std::vector<std::uint8_t>& input);

}  // namespace hq::apps::bzip2

// ferret — content-based similarity search (PARSEC), rebuilt on synthetic
// images (see README "Substitutions").
//
// Pipeline (paper Figure 7):  input -> segment -> extract -> vector ->
// rank -> output, where input (recursive directory traversal + image load)
// and output are serial stages and the middle four are parallel.
//
// The declared graph (describe_pipeline, run by pipe::execute on any
// backend) and the task-dataflow "objects" baseline share the same kernels
// and must produce the serial elision's output checksum.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/datagen.hpp"

namespace hq::pipe {
class graph;
}

namespace hq::apps::ferret {

struct config {
  std::size_t num_images = 256;    // paper 'native': 3500
  std::size_t image_wh = 32;       // square images, image_wh^2 pixels
  std::size_t db_entries = 10240;  // feature database size (ranking cost knob)
  std::size_t dims = 96;           // feature vector dimensionality
  std::size_t topk = 16;          // neighbours reported per query
  unsigned threads = 1;           // worker threads / cores to use
  std::uint64_t seed = 42;
  std::size_t slice_batch = 16;   // items moved per queue slice (Section 5.2)
};

/// One image travelling through the pipeline.
struct item {
  std::uint64_t seq = 0;
  std::string path;
  std::uint64_t seed = 0;
  std::vector<float> pixels;
  std::vector<std::uint8_t> labels;   // segmentation output
  std::vector<float> features;        // extraction output
  std::vector<float> qvector;         // vectorization output
  std::vector<std::pair<float, std::uint32_t>> topk;  // ranking output
};

/// The feature database ranked against (built once per run).
struct feature_db {
  std::size_t entries = 0;
  std::size_t dims = 0;
  std::vector<float> data;  // entries x dims
};

feature_db build_db(const config& cfg);

// ---- stage kernels -------------------------------------------------------
// load: synthesize the image for `path` (the stand-in for disk I/O).
void k_load(const config& cfg, item* it);
// segment: small k-means over intensity, producing a label map.
void k_segment(const config& cfg, item* it);
// extract: per-segment moment features.
void k_extract(const config& cfg, item* it);
// vector: soft-assignment histogram into `dims` bins (the EMD prep).
void k_vector(const config& cfg, item* it);
// rank: exhaustive top-k scan of the database (dominant stage).
void k_rank(const config& cfg, const feature_db& db, item* it);
// output folding: must be applied in seq order (serial stage).
void k_output(std::uint64_t* checksum, const item& it);

/// Depth-first file list of the synthetic directory tree, in traversal
/// (serial-elision) order: the order the input stage emits images in.
std::vector<std::string> traversal_order(const config& cfg);

struct result {
  std::uint64_t checksum = 0;
  double seconds = 0;
};

/// Declarative 3-stage description (pipeline/builder.hpp): serial input ->
/// fused parallel middle (segment+extract+vector+rank) -> in-order output.
/// Every backend of pipe::execute runs this one graph; `cfg`, `db` and
/// `checksum` must outlive the built graph.
void describe_pipeline(const config& cfg, const feature_db& db,
                       std::uint64_t* checksum, pipe::graph& g);
result run_objects(const config& cfg);     // task dataflow, input not overlapped

/// Serial per-stage seconds {input, segment, extract, vector, rank, output}
/// for the Table 1 characterization.
std::vector<double> stage_times(const config& cfg);

}  // namespace hq::apps::ferret

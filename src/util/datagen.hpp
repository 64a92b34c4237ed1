// Synthetic input generators — the substitution for PARSEC's 'native'
// inputs (see README "Substitutions"). All generators are seeded and
// deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hq::util {

/// Text-like data: words drawn from a Zipf-ish vocabulary with punctuation
/// and line breaks. Compressible like natural text (the bzip2 workload).
std::vector<std::uint8_t> gen_text(std::size_t bytes, std::uint64_t seed);

/// Archive-like data for dedup: a sequence of content blocks where
/// `dup_fraction` of blocks repeat earlier blocks exactly (whole-block
/// duplication, the pattern dedup exploits) and the rest are fresh
/// semi-compressible payloads.
std::vector<std::uint8_t> gen_archive(std::size_t bytes, double dup_fraction,
                                      std::uint64_t seed);

/// A synthetic "image": dense feature grid with a few superimposed blobs.
/// Used by the ferret pipeline; width*height floats in [0,1].
std::vector<float> gen_image(std::size_t width, std::size_t height,
                             std::uint64_t seed);

/// A synthetic directory tree listing for ferret's recursive input stage:
/// returns file identifiers (paths) in the traversal's deterministic order.
struct dir_tree {
  struct dir_node {
    std::string name;
    std::vector<std::string> files;
    std::vector<dir_node> subdirs;
  };
  dir_node root;
  std::size_t total_files = 0;
};
dir_tree gen_dir_tree(std::size_t total_files, std::uint64_t seed);

}  // namespace hq::util

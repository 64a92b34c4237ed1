// Tests for the application substrates: SHA-1, Rabin chunking, LZ77, BWT,
// MTF, zero-RLE, Huffman, mbzip, and the synthetic data generators.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "util/bwt.hpp"
#include "util/datagen.hpp"
#include "util/huffman.hpp"
#include "util/lz77.hpp"
#include "util/mbzip.hpp"
#include "util/rabin.hpp"
#include "util/rng.hpp"
#include "util/sha1.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace hq::util;

// -------------------------------------------------------------------- sha1

TEST(Sha1, Fips180TestVectors) {
  EXPECT_EQ(sha1("abc", 3).hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1("", 0).hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  const std::string msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(sha1(msg.data(), msg.size()).hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  sha1_stream s;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk.data(), chunk.size());
  EXPECT_EQ(s.finish().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  auto data = gen_text(10000, 7);
  sha1_stream s;
  std::size_t pos = 0;
  xoshiro256 rng(3);
  while (pos < data.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.below(200), data.size() - pos);
    s.update(data.data() + pos, n);
    pos += n;
  }
  EXPECT_EQ(s.finish(), sha1(data.data(), data.size()));
}

TEST(Sha1, DigestPrefixAndHashable) {
  auto d = sha1("abc", 3);
  EXPECT_EQ(d.prefix64() >> 32, d.h[0]);
  std::hash<sha1_digest> h;
  EXPECT_EQ(h(d), static_cast<std::size_t>(d.prefix64()));
}

// ------------------------------------------------------------------- rabin

TEST(Rabin, ChunksCoverStreamExactly) {
  auto data = gen_archive(1 << 18, 0.3, 11);
  auto chunks = chunk_stream(data.data(), data.size(), 12, 256, 16384);
  ASSERT_FALSE(chunks.empty());
  std::size_t pos = 0;
  for (const auto& c : chunks) {
    EXPECT_EQ(c.offset, pos);
    EXPECT_GT(c.size, 0u);
    EXPECT_LE(c.size, 16384u);
    pos += c.size;
  }
  EXPECT_EQ(pos, data.size());
}

TEST(Rabin, AverageChunkSizeNearTarget) {
  auto data = gen_text(1 << 20, 23);
  auto chunks = chunk_stream(data.data(), data.size(), 12, 64, 65536);
  const double avg = static_cast<double>(data.size()) / static_cast<double>(chunks.size());
  // Expected ~4096; allow generous slack (content-dependent).
  EXPECT_GT(avg, 1024.0);
  EXPECT_LT(avg, 16384.0);
}

TEST(Rabin, ContentDefinedCutsShiftInvariant) {
  // Inserting a prefix must not change chunk boundaries far after it —
  // the property that makes dedup find duplicates at shifted offsets.
  auto base = gen_text(1 << 16, 5);
  std::vector<std::uint8_t> shifted(base);
  shifted.insert(shifted.begin(), {'X', 'Y', 'Z', 'Q', 'W'});
  auto c1 = chunk_stream(base.data(), base.size(), 10, 128, 8192);
  auto c2 = chunk_stream(shifted.data(), shifted.size(), 10, 128, 8192);
  ASSERT_GT(c1.size(), 4u);
  ASSERT_GT(c2.size(), 4u);
  // Compare the last chunk *contents* (boundaries resynchronize).
  const auto& l1 = c1.back();
  const auto& l2 = c2.back();
  ASSERT_EQ(l1.size, l2.size);
  EXPECT_TRUE(std::equal(base.begin() + static_cast<std::ptrdiff_t>(l1.offset),
                         base.end(),
                         shifted.begin() + static_cast<std::ptrdiff_t>(l2.offset)));
}

TEST(Rabin, EmptyAndTinyInputs) {
  EXPECT_TRUE(chunk_stream(nullptr, 0, 12, 256, 8192).empty());
  std::uint8_t one = 42;
  auto c = chunk_stream(&one, 1, 12, 256, 8192);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].size, 1u);
}

// -------------------------------------------------------------------- lz77

TEST(Lz77, RoundtripText) {
  auto data = gen_text(100000, 42);
  auto comp = lz77_compress(data.data(), data.size());
  EXPECT_LT(comp.size(), data.size()) << "text must compress";
  auto back = lz77_decompress(comp.data(), comp.size());
  EXPECT_EQ(back, data);
}

TEST(Lz77, RoundtripIncompressibleRandom) {
  xoshiro256 rng(9);
  std::vector<std::uint8_t> data(50000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  auto comp = lz77_compress(data.data(), data.size());
  auto back = lz77_decompress(comp.data(), comp.size());
  EXPECT_EQ(back, data);
}

TEST(Lz77, RoundtripEdgeCases) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u}) {
    std::vector<std::uint8_t> data(n, 0xAB);
    auto comp = lz77_compress(data.data(), data.size());
    auto back = lz77_decompress(comp.data(), comp.size());
    EXPECT_EQ(back, data) << "n=" << n;
  }
}

TEST(Lz77, OverlappingMatchesReplicate) {
  // "aaaa..." forces matches with dist < len.
  std::vector<std::uint8_t> data(10000, 'a');
  auto comp = lz77_compress(data.data(), data.size());
  EXPECT_LT(comp.size(), 200u) << "runs must compress drastically";
  EXPECT_EQ(lz77_decompress(comp.data(), comp.size()), data);
}

TEST(Lz77, RejectsCorruptInput) {
  auto data = gen_text(1000, 1);
  auto comp = lz77_compress(data.data(), data.size());
  comp.resize(comp.size() / 2);  // truncate
  EXPECT_THROW(lz77_decompress(comp.data(), comp.size()), std::runtime_error);
}

// --------------------------------------------------------------------- bwt

TEST(Bwt, KnownTransform) {
  // Classic example: "banana" rotations sorted -> last column "nnbaaa",
  // primary index = row of the original rotation.
  const std::string s = "banana";
  auto r = bwt_forward(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  std::string last(r.last_column.begin(), r.last_column.end());
  EXPECT_EQ(last, "nnbaaa");
  auto back = bwt_inverse(r.last_column.data(), r.last_column.size(), r.primary_index);
  EXPECT_EQ(std::string(back.begin(), back.end()), s);
}

TEST(Bwt, RoundtripVariousInputs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (std::size_t n : {0u, 1u, 2u, 17u, 256u, 4096u}) {
      auto data = gen_text(n, seed);
      auto r = bwt_forward(data.data(), data.size());
      auto back = bwt_inverse(r.last_column.data(), r.last_column.size(),
                              r.primary_index);
      EXPECT_EQ(back, data) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(Bwt, PeriodicInputRoundtrip) {
  // Fully periodic inputs are the pathological case for rotation sorting.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>("ab"[i % 2]));
  auto r = bwt_forward(data.data(), data.size());
  auto back = bwt_inverse(r.last_column.data(), r.last_column.size(), r.primary_index);
  EXPECT_EQ(back, data);
  std::vector<std::uint8_t> same(512, 'z');
  auto r2 = bwt_forward(same.data(), same.size());
  auto back2 = bwt_inverse(r2.last_column.data(), r2.last_column.size(),
                           r2.primary_index);
  EXPECT_EQ(back2, same);
}

TEST(Bwt, MtfRoundtrip) {
  auto data = gen_text(5000, 77);
  auto enc = mtf_encode(data.data(), data.size());
  auto dec = mtf_decode(enc.data(), enc.size());
  EXPECT_EQ(dec, data);
}

TEST(Bwt, MtfAfterBwtSkewsTowardsZero) {
  auto data = gen_text(1 << 16, 13);
  auto r = bwt_forward(data.data(), data.size());
  auto enc = mtf_encode(r.last_column.data(), r.last_column.size());
  const std::size_t zeros =
      static_cast<std::size_t>(std::count(enc.begin(), enc.end(), 0));
  EXPECT_GT(zeros, enc.size() / 4) << "BWT+MTF must concentrate zeros";
}

TEST(Bwt, ZrleRoundtrip) {
  auto data = gen_text(10000, 3);
  auto r = bwt_forward(data.data(), data.size());
  auto mtf = mtf_encode(r.last_column.data(), r.last_column.size());
  auto rle = zrle_encode(mtf.data(), mtf.size());
  auto back = zrle_decode(rle.data(), rle.size());
  EXPECT_EQ(back, mtf);
  EXPECT_LT(rle.size(), mtf.size()) << "zero runs must shrink";
}

TEST(Bwt, ZrleLongRuns) {
  std::vector<std::uint8_t> data(1000, 0);
  auto rle = zrle_encode(data.data(), data.size());
  EXPECT_LE(rle.size(), 10u);
  EXPECT_EQ(zrle_decode(rle.data(), rle.size()), data);
}

// ----------------------------------------------------------------- huffman

TEST(Huffman, RoundtripText) {
  auto data = gen_text(60000, 4);
  auto enc = huffman_encode(data.data(), data.size());
  auto dec = huffman_decode(enc.data(), enc.size(), data.size());
  EXPECT_EQ(dec, data);
  EXPECT_LT(enc.size(), data.size());
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint8_t> data(5000, 'x');
  auto enc = huffman_encode(data.data(), data.size());
  auto dec = huffman_decode(enc.data(), enc.size(), data.size());
  EXPECT_EQ(dec, data);
}

TEST(Huffman, SkewedFrequenciesDepthLimited) {
  // Fibonacci-like frequencies force deep trees; the depth limiter must kick
  // in and the code must still round-trip.
  std::vector<std::uint8_t> data;
  std::uint64_t a = 1, b = 1;
  for (int s = 0; s < 40; ++s) {
    for (std::uint64_t i = 0; i < a && data.size() < 300000; ++i) {
      data.push_back(static_cast<std::uint8_t>(s));
    }
    const std::uint64_t c = a + b;
    a = b;
    b = c;
  }
  auto enc = huffman_encode(data.data(), data.size());
  auto dec = huffman_decode(enc.data(), enc.size(), data.size());
  EXPECT_EQ(dec, data);
}

TEST(Huffman, EmptyInput) {
  auto enc = huffman_encode(nullptr, 0);
  auto dec = huffman_decode(enc.data(), enc.size(), 0);
  EXPECT_TRUE(dec.empty());
}

TEST(Huffman, BitIoRoundtrip) {
  bit_writer bw;
  bw.put(0b101, 3);
  bw.put(0b1, 1);
  bw.put(0xABCD, 16);
  auto bytes = bw.finish();
  bit_reader br(bytes.data(), bytes.size());
  std::uint32_t v = 0;
  for (int i = 0; i < 20; ++i) v = (v << 1) | static_cast<std::uint32_t>(br.get());
  EXPECT_EQ(v, (0b101u << 17) | (0b1u << 16) | 0xABCDu);
}

// ------------------------------------------------------------------- mbzip

TEST(Mbzip, BlockRoundtrip) {
  auto data = gen_text(100000, 21);
  auto comp = mbzip_compress_block(data.data(), data.size());
  EXPECT_LT(comp.size(), data.size()) << "text must compress";
  EXPECT_EQ(mbzip_decompress_block(comp.data(), comp.size()), data);
}

TEST(Mbzip, StreamRoundtripMultipleBlocks) {
  auto data = gen_text(300000, 8);
  auto comp = mbzip_compress(data.data(), data.size(), 65536);
  EXPECT_EQ(mbzip_decompress(comp.data(), comp.size()), data);
}

TEST(Mbzip, CompressionBeatsLz77OnText) {
  auto data = gen_text(1 << 17, 15);
  auto bz = mbzip_compress(data.data(), data.size(), 1 << 16);
  auto lz = lz77_compress(data.data(), data.size());
  EXPECT_LT(bz.size(), lz.size()) << "BWT stack should beat greedy LZ on text";
}

TEST(Mbzip, EmptyAndTiny) {
  auto comp = mbzip_compress(nullptr, 0, 1024);
  EXPECT_TRUE(mbzip_decompress(comp.data(), comp.size()).empty());
  std::uint8_t b = 'q';
  auto c1 = mbzip_compress(&b, 1, 1024);
  auto d1 = mbzip_decompress(c1.data(), c1.size());
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_EQ(d1[0], 'q');
}

// ----------------------------------------------------------------- datagen

TEST(Datagen, Deterministic) {
  EXPECT_EQ(gen_text(1000, 5), gen_text(1000, 5));
  EXPECT_NE(gen_text(1000, 5), gen_text(1000, 6));
  EXPECT_EQ(gen_archive(10000, 0.3, 5), gen_archive(10000, 0.3, 5));
}

TEST(Datagen, ArchiveDupFractionControlsDuplicates) {
  auto with_dups = gen_archive(1 << 20, 0.5, 9);
  auto without = gen_archive(1 << 20, 0.0, 9);
  auto c_dups = lz77_compress(with_dups.data(), with_dups.size());
  auto c_none = lz77_compress(without.data(), without.size());
  EXPECT_LT(c_dups.size(), c_none.size())
      << "duplicated blocks must make the stream more compressible";
}

TEST(Datagen, ImageInRangeAndDeterministic) {
  auto img = gen_image(64, 48, 77);
  ASSERT_EQ(img.size(), 64u * 48u);
  for (float v : img) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
  EXPECT_EQ(img, gen_image(64, 48, 77));
}

TEST(Datagen, DirTreeCountsFiles) {
  auto tree = gen_dir_tree(500, 3);
  std::size_t count = 0;
  auto walk = [&](auto&& self, const dir_tree::dir_node& n) -> void {
    count += n.files.size();
    for (const auto& d : n.subdirs) self(self, d);
  };
  walk(walk, tree.root);
  EXPECT_EQ(count, 500u);
}

// ------------------------------------------------------------- stats/table

TEST(Stats, SummaryBasics) {
  auto s = summarize({1, 2, 3, 4, 100});
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_EQ(s.median, 3.0);
  EXPECT_EQ(s.q1, 2.0);
  EXPECT_EQ(s.q3, 4.0);
  EXPECT_EQ(s.n, 5u);

  // Even-sized sample: quantiles interpolate between order statistics at
  // rank p * (n - 1), so the median is the mean of the two middle values.
  auto e = summarize({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(e.q1, 1.75);
  EXPECT_DOUBLE_EQ(e.median, 2.5);
  EXPECT_DOUBLE_EQ(e.q3, 3.25);
  EXPECT_EQ(e.n, 4u);
}

TEST(Table, RendersAligned) {
  hq::util::table t({"stage", "time"});
  t.add_row({"input", hq::util::table::cell(1.5)});
  t.add_row({"rank", hq::util::table::cell(10.25)});
  const std::string out = t.str("demo");
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("stage"), std::string::npos);
  EXPECT_NE(out.find("10.250"), std::string::npos);
}

}  // namespace

// Integration tests for the three evaluation applications. Each app's
// declared graph (describe_pipeline) runs through pipe::execute; every
// parallel backend and the task-dataflow "objects" baseline must reproduce
// the serial elision's output (ferret: checksum; dedup / bzip2:
// byte-identical streams). The elision itself is checked against oracles
// that do not go through the pipeline: a plain loop over ferret's kernels,
// and reassembly / decompression of the compressed streams.
#include <gtest/gtest.h>

#include "apps/bzip2/bzip2.hpp"
#include "apps/dedup/dedup.hpp"
#include "apps/ferret/ferret.hpp"
#include "pipeline/runner.hpp"
#include "util/datagen.hpp"
#include "util/mbzip.hpp"

namespace {

namespace pipe = hq::pipe;
using pipe::backend;

class AppParam : public ::testing::TestWithParam<unsigned> {};

// ------------------------------------------------------------------ ferret

hq::apps::ferret::config small_ferret(unsigned threads) {
  hq::apps::ferret::config cfg;
  cfg.num_images = 48;
  cfg.image_wh = 16;
  cfg.db_entries = 256;
  cfg.dims = 32;
  cfg.topk = 8;
  cfg.threads = threads;
  return cfg;
}

std::uint64_t ferret_checksum(const hq::apps::ferret::config& cfg, backend b) {
  const auto db = hq::apps::ferret::build_db(cfg);
  std::uint64_t checksum = 0;
  pipe::graph g;
  hq::apps::ferret::describe_pipeline(cfg, db, &checksum, g);
  pipe::execute(g, b, {.workers = cfg.threads});
  return checksum;
}

TEST(FerretApp, SerialIsDeterministic) {
  auto cfg = small_ferret(1);
  const std::uint64_t c1 = ferret_checksum(cfg, backend::serial);
  EXPECT_EQ(c1, ferret_checksum(cfg, backend::serial));
  EXPECT_NE(c1, 0u);
}

TEST(FerretApp, ElisionMatchesKernelLoop) {
  // The public kernels applied in a plain loop, in traversal order: catches
  // a describe_pipeline that drops, repeats or reorders a kernel, which the
  // elision-vs-backend comparisons cannot see.
  namespace fr = hq::apps::ferret;
  auto cfg = small_ferret(1);
  const auto db = fr::build_db(cfg);
  const auto files = fr::traversal_order(cfg);
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    fr::item it;
    it.seq = i;
    it.path = files[i];
    it.seed = cfg.seed ^ (i * 0x9e3779b97f4a7c15ull);
    fr::k_load(cfg, &it);
    fr::k_segment(cfg, &it);
    fr::k_extract(cfg, &it);
    fr::k_vector(cfg, &it);
    fr::k_rank(cfg, db, &it);
    fr::k_output(&checksum, it);
  }
  EXPECT_EQ(ferret_checksum(cfg, backend::serial), checksum);
}

TEST_P(AppParam, FerretPthreadsMatchesSerial) {
  auto cfg = small_ferret(GetParam());
  EXPECT_EQ(ferret_checksum(cfg, backend::pthreads),
            ferret_checksum(cfg, backend::serial));
}

TEST_P(AppParam, FerretTbbMatchesSerial) {
  auto cfg = small_ferret(GetParam());
  EXPECT_EQ(ferret_checksum(cfg, backend::tbb),
            ferret_checksum(cfg, backend::serial));
}

TEST_P(AppParam, FerretObjectsMatchesSerial) {
  auto cfg = small_ferret(GetParam());
  EXPECT_EQ(hq::apps::ferret::run_objects(cfg).checksum,
            ferret_checksum(cfg, backend::serial));
}

TEST_P(AppParam, FerretHyperqueueMatchesSerial) {
  auto cfg = small_ferret(GetParam());
  EXPECT_EQ(ferret_checksum(cfg, backend::hyperqueue),
            ferret_checksum(cfg, backend::serial));
}

TEST(FerretApp, StageTimesCoverSixStages) {
  auto cfg = small_ferret(1);
  auto t = hq::apps::ferret::stage_times(cfg);
  ASSERT_EQ(t.size(), 6u);
  for (double s : t) EXPECT_GE(s, 0.0);
  // Ranking must dominate (Table 1 shape).
  EXPECT_GT(t[4], t[2]) << "rank must cost more than extract";
}

// ------------------------------------------------------------------- dedup

hq::apps::dedup::config small_dedup(unsigned threads) {
  hq::apps::dedup::config cfg;
  cfg.input_bytes = 1u << 20;
  cfg.coarse_bytes = 64u << 10;
  cfg.fine_avg_log2 = 11;
  cfg.fine_min = 256;
  cfg.fine_max = 8u << 10;
  cfg.threads = threads;
  return cfg;
}

hq::apps::dedup::result dedup_run(const hq::apps::dedup::config& cfg,
                                  const std::vector<std::uint8_t>& input,
                                  backend b) {
  hq::apps::dedup::result r;
  hq::apps::dedup::dedup_table table;
  pipe::graph g;
  hq::apps::dedup::describe_pipeline(cfg, input, &table, &r, g);
  pipe::execute(g, b, {.workers = cfg.threads});
  r.unique_chunks = table.unique_chunks();
  return r;
}

TEST(DedupApp, SerialRoundtrip) {
  auto cfg = small_dedup(1);
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto r = dedup_run(cfg, input, backend::serial);
  EXPECT_GT(r.total_chunks, 10u);
  EXPECT_LT(r.unique_chunks, r.total_chunks) << "duplicates must exist";
  EXPECT_LT(r.output.size(), input.size()) << "dedup+compress must shrink";
  auto back = hq::apps::dedup::reassemble(r.output.data(), r.output.size());
  EXPECT_EQ(back, input);
}

TEST_P(AppParam, DedupPthreadsMatchesSerial) {
  auto cfg = small_dedup(GetParam());
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto serial = dedup_run(cfg, input, backend::serial);
  auto par = dedup_run(cfg, input, backend::pthreads);
  EXPECT_EQ(par.output, serial.output);
  EXPECT_EQ(par.total_chunks, serial.total_chunks);
}

TEST_P(AppParam, DedupTbbMatchesSerial) {
  auto cfg = small_dedup(GetParam());
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  EXPECT_EQ(dedup_run(cfg, input, backend::tbb).output,
            dedup_run(cfg, input, backend::serial).output);
}

TEST_P(AppParam, DedupObjectsMatchesSerial) {
  auto cfg = small_dedup(GetParam());
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  EXPECT_EQ(hq::apps::dedup::run_objects(cfg, input).output,
            dedup_run(cfg, input, backend::serial).output);
}

TEST_P(AppParam, DedupHyperqueueMatchesSerial) {
  auto cfg = small_dedup(GetParam());
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto serial = dedup_run(cfg, input, backend::serial);
  auto par = dedup_run(cfg, input, backend::hyperqueue);
  EXPECT_EQ(par.output, serial.output);
  auto back = hq::apps::dedup::reassemble(par.output.data(), par.output.size());
  EXPECT_EQ(back, input);
}

TEST(DedupApp, CharacterizationCountsAreConsistent) {
  auto cfg = small_dedup(1);
  auto input = hq::util::gen_archive(cfg.input_bytes, cfg.dup_fraction, cfg.seed);
  auto ch = hq::apps::dedup::stage_times(cfg, input);
  EXPECT_EQ(ch.iterations[0], ch.iterations[1]) << "fragment/refine both per-coarse";
  EXPECT_GT(ch.iterations[2], ch.iterations[0]) << "refine amplifies";
  EXPECT_LT(ch.iterations[3], ch.iterations[2]) << "compression skips duplicates";
  EXPECT_EQ(ch.iterations[4], ch.iterations[2]) << "output sees all chunks";
}

TEST(DedupApp, HigherDupFractionShrinksOutput) {
  auto cfg = small_dedup(1);
  auto low = hq::util::gen_archive(cfg.input_bytes, 0.1, cfg.seed);
  auto high = hq::util::gen_archive(cfg.input_bytes, 0.7, cfg.seed);
  auto r_low = dedup_run(cfg, low, backend::serial);
  auto r_high = dedup_run(cfg, high, backend::serial);
  EXPECT_LT(r_high.output.size(), r_low.output.size());
}

// ------------------------------------------------------------------- bzip2

hq::apps::bzip2::config small_bzip(unsigned threads) {
  hq::apps::bzip2::config cfg;
  cfg.input_bytes = 512u << 10;
  cfg.block_bytes = 32u << 10;
  cfg.threads = threads;
  return cfg;
}

std::vector<std::uint8_t> bzip_output(const hq::apps::bzip2::config& cfg,
                                      const std::vector<std::uint8_t>& input,
                                      backend b) {
  hq::apps::bzip2::result r;
  pipe::graph g;
  hq::apps::bzip2::describe_pipeline(cfg, input, &r, g);
  pipe::execute(g, b, {.workers = cfg.threads});
  return r.output;
}

TEST(BzipApp, SerialRoundtrip) {
  auto cfg = small_bzip(1);
  auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);
  auto out = bzip_output(cfg, input, backend::serial);
  EXPECT_LT(out.size(), input.size());
  auto back = hq::util::mbzip_decompress(out.data(), out.size());
  EXPECT_EQ(back, input);
}

TEST_P(AppParam, BzipAllVariantsMatchSerial) {
  auto cfg = small_bzip(GetParam());
  auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);
  const auto serial = bzip_output(cfg, input, backend::serial);
  for (backend b : pipe::parallel_backends()) {
    EXPECT_EQ(bzip_output(cfg, input, b), serial) << pipe::to_string(b);
  }
  EXPECT_EQ(hq::apps::bzip2::run_objects(cfg, input).output, serial);
  EXPECT_EQ(hq::apps::bzip2::run_hyperqueue_split(cfg, input).output, serial);
}

TEST(BzipApp, LoopSplitBoundsQueueGrowth) {
  // Section 5.4: under serial execution (1 worker) the unsplit version
  // buffers every block, so its peak segment demand grows with the input;
  // the split version bounds the batches in flight (split_batch x
  // split_window) and its demand stays constant. Use many small blocks so
  // the difference is visible in whole segments.
  auto cfg = small_bzip(1);
  cfg.block_bytes = 4u << 10;  // 128 blocks
  cfg.split_batch = 4;
  cfg.split_window = 2;
  auto input = hq::util::gen_text(cfg.input_bytes, cfg.seed);
  hq::apps::bzip2::result unsplit;
  pipe::graph g;
  hq::apps::bzip2::describe_pipeline(cfg, input, &unsplit, g);
  const auto ex = pipe::execute(g, backend::hyperqueue, {.workers = 1});
  auto split = hq::apps::bzip2::run_hyperqueue_split(cfg, input);
  EXPECT_EQ(unsplit.output, split.output);
  EXPECT_LE(split.seg_high_water, ex.pool.high_water)
      << "loop split must not increase peak queue footprint";
  // The paper's point: the split footprint is a function of the knobs, not
  // of the input length — doubling the input must not move the high-water
  // mark, while the unsplit version keeps buffering more.
  auto cfg2 = cfg;
  cfg2.input_bytes *= 2;
  auto input2 = hq::util::gen_text(cfg2.input_bytes, cfg2.seed);
  auto split2 = hq::apps::bzip2::run_hyperqueue_split(cfg2, input2);
  EXPECT_LE(split2.seg_high_water, split.seg_high_water)
      << "split footprint must be independent of the input length";
  // Once warm the segment pool stops allocating: the doubled stream is
  // carried by recycled segments, not fresh ones.
  EXPECT_LE(split2.seg_allocated, split.seg_allocated + 2);
  EXPECT_GT(split2.seg_recycled, split.seg_recycled);
}

INSTANTIATE_TEST_SUITE_P(Workers, AppParam, ::testing::Values(1u, 2u, 4u),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

}  // namespace

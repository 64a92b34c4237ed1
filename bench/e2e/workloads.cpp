#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "apps/bzip2/bzip2.hpp"
#include "apps/dedup/dedup.hpp"
#include "apps/ferret/ferret.hpp"
#include "util/datagen.hpp"
#include "util/mbzip.hpp"
#include "util/rabin.hpp"
#include "util/rng.hpp"

namespace hq::e2e {

using pipe::stage_kind;

const std::vector<std::int64_t>& workload::due_ns() const {
  static const std::vector<std::int64_t> none;
  return none;
}

namespace {

/// ferret's per-image seed (make_item in apps/ferret/variants.cpp).
constexpr std::uint64_t kImageSeedMul = 0x9e3779b97f4a7c15ull;

/// source -> one middle stage -> sink, moving default tokens only.
template <typename T>
void describe_hollow3(pipe::graph& g, const std::vector<stage_info>& st,
                      const pipe::edge_opts& edge, std::size_t n, probe& pr) {
  auto src = g.source<T>(st[0].name, [n, &pr](pipe::emit<T> out) {
    for (std::size_t i = 0; i < n; ++i) {
      pr.emit(0, 0);
      out(T{});
    }
  });
  auto mid = g.stage<T, T>(st[1].name, st[1].kind,
                           [](T&& v, pipe::emit<T> out) { out(std::move(v)); });
  auto snk = g.sink<T>(st[2].name, st[2].kind, [&pr](T&&) { pr.retire(2, 0); });
  g.connect(src, mid, edge);
  g.connect(mid, snk, edge);
}

/// ferret's fused middle stage (process_middle in apps/ferret/variants.cpp).
void query_kernels(const apps::ferret::config& cfg,
                   const apps::ferret::feature_db& db, apps::ferret::item* it) {
  apps::ferret::k_segment(cfg, it);
  apps::ferret::k_extract(cfg, it);
  apps::ferret::k_vector(cfg, it);
  apps::ferret::k_rank(cfg, db, it);
}

apps::ferret::config query_config(std::uint64_t seed, std::size_t images) {
  apps::ferret::config cfg;
  cfg.num_images = images;
  cfg.image_wh = 16;
  cfg.db_entries = 1024;
  cfg.dims = 32;
  cfg.topk = 8;
  cfg.seed ^= seed;
  return cfg;
}

// ---- ferret-search ---------------------------------------------------------

class ferret_search final : public workload {
 public:
  ferret_search(std::uint64_t seed, bool quick)
      : cfg_(query_config(seed, quick ? 256 : 8192)),
        db_(apps::ferret::build_db(cfg_)) {
    empty_cfg_ = cfg_;
    empty_cfg_.num_images = 0;
  }

  const char* name() const override { return "ferret-search"; }
  const std::vector<stage_info>& stages() const override { return stages_; }
  std::size_t emitted() const override { return cfg_.num_images; }
  std::size_t retired() const override { return cfg_.num_images; }
  std::size_t edge_tokens() const override { return 2 * cfg_.num_images; }
  std::string digest() const override { return std::to_string(checksum_); }

  void describe(variant v, pipe::graph& g, probe& pr, bool) override {
    checksum_ = 0;
    switch (v) {
      case variant::real:
        apps::ferret::describe_pipeline(cfg_, db_, &checksum_, g);
        break;
      case variant::empty:
        apps::ferret::describe_pipeline(empty_cfg_, db_, &checksum_, g);
        break;
      case variant::twin:
        describe_twin(g, pr);
        break;
      case variant::hollow:
        describe_hollow3<item>(g, stages_, edge(), cfg_.num_images, pr);
        break;
    }
  }

 private:
  using item = apps::ferret::item;

  pipe::edge_opts edge() const {
    pipe::edge_opts opts;
    opts.capacity = 64;
    opts.slice_batch = cfg_.slice_batch;
    return opts;
  }

  void describe_twin(pipe::graph& g, probe& pr) {
    auto input = g.source<item>("input", [this, &pr](pipe::emit<item> out) {
      std::int64_t t0 = pr.begin();
      const auto files = apps::ferret::traversal_order(cfg_);
      for (std::size_t i = 0; i < files.size(); ++i) {
        item it;
        it.seq = i;
        it.path = files[i];
        it.seed = cfg_.seed ^ (i * kImageSeedMul);
        apps::ferret::k_load(cfg_, &it);
        pr.emit(0, t0);
        out(std::move(it));
        t0 = pr.begin();
      }
    });
    auto middle = g.stage<item, item>(
        "middle", stage_kind::parallel,
        [this, &pr](item&& it, pipe::emit<item> out) {
          const std::int64_t t0 = pr.begin();
          query_kernels(cfg_, db_, &it);
          pr.end(1, t0);
          out(std::move(it));
        });
    auto output = g.sink<item>("output", stage_kind::serial_in_order,
                               [this, &pr](item&& it) {
                                 const std::int64_t t0 = pr.begin();
                                 apps::ferret::k_output(&checksum_, it);
                                 pr.retire(2, t0);
                               });
    g.connect(input, middle, edge());
    g.connect(middle, output, edge());
  }

  apps::ferret::config cfg_;
  apps::ferret::config empty_cfg_;
  apps::ferret::feature_db db_;
  std::uint64_t checksum_ = 0;
  std::vector<stage_info> stages_ = {{"input", stage_kind::serial_in_order},
                                     {"middle", stage_kind::parallel},
                                     {"output", stage_kind::serial_in_order}};
};

// ---- dedup-fine ------------------------------------------------------------

/// The Fragment token (coarse_task in apps/dedup/variants.cpp).
struct coarse_task {
  std::uint64_t seq = 0;
  std::size_t off = 0;
  std::size_t len = 0;
};

class dedup_fine final : public workload {
 public:
  dedup_fine(std::uint64_t seed, bool quick) {
    cfg_.input_bytes = quick ? (256u << 10) : (4u << 20);
    cfg_.coarse_bytes = 32u << 10;
    cfg_.fine_avg_log2 = 6;
    cfg_.fine_min = 32;
    cfg_.fine_max = 512;
    cfg_.dup_fraction = 0.9;
    cfg_.seed ^= seed;
    input_ = util::gen_archive(cfg_.input_bytes, cfg_.dup_fraction, cfg_.seed);
    // The expand stage's fan-out, replayed by the hollow graph.
    for (const auto& [off, len] :
         apps::dedup::k_fragment(cfg_, input_.data(), input_.size())) {
      fanout_.push_back(util::chunk_stream(input_.data() + off, len,
                                           cfg_.fine_avg_log2, cfg_.fine_min,
                                           cfg_.fine_max)
                            .size());
      fine_ += fanout_.back();
    }
  }

  const char* name() const override { return "dedup-fine"; }
  const std::vector<stage_info>& stages() const override { return stages_; }
  std::size_t emitted() const override { return fanout_.size(); }
  std::size_t retired() const override { return fine_; }
  std::size_t edge_tokens() const override { return fanout_.size() + 2 * fine_; }
  std::string digest() const override {
    return {r_.output.begin(), r_.output.end()};
  }

  void describe(variant v, pipe::graph& g, probe& pr, bool) override {
    table_ = std::make_unique<apps::dedup::dedup_table>();
    r_ = apps::dedup::result{};
    switch (v) {
      case variant::real:
        apps::dedup::describe_pipeline(cfg_, input_, table_.get(), &r_, g);
        break;
      case variant::empty:
        apps::dedup::describe_pipeline(cfg_, no_input_, table_.get(), &r_, g);
        break;
      case variant::twin:
        describe_twin(g, pr);
        break;
      case variant::hollow:
        describe_hollow(g, pr);
        break;
    }
  }

 private:
  using chunk_rec = apps::dedup::chunk_rec;

  // Edge knobs of apps::dedup::describe_pipeline.
  pipe::edge_opts fragment_edge() const {
    pipe::edge_opts e;
    e.capacity = 32;
    e.slice_batch = cfg_.coarse_batch > 0 ? cfg_.coarse_batch : 1;
    return e;
  }
  pipe::edge_opts record_edge(std::size_t segment_length) const {
    pipe::edge_opts e;
    e.capacity = 256;
    e.slice_batch = cfg_.slice_batch;
    e.segment_length = segment_length;
    e.traffic = 8.0;
    return e;
  }
  void connect4(pipe::graph& g, pipe::stage_id a, pipe::stage_id b,
                pipe::stage_id c, pipe::stage_id d) const {
    g.connect(a, b, fragment_edge());
    g.connect(b, c, record_edge(64));
    g.connect(c, d, record_edge(256));
  }

  void describe_twin(pipe::graph& g, probe& pr) {
    auto fragment = g.source<coarse_task>(
        "fragment", [this, &pr](pipe::emit<coarse_task> out) {
          std::int64_t t0 = pr.begin();
          const auto coarse =
              apps::dedup::k_fragment(cfg_, input_.data(), input_.size());
          for (std::size_t i = 0; i < coarse.size(); ++i) {
            pr.emit(0, t0);
            out(coarse_task{i, coarse[i].first, coarse[i].second});
            t0 = pr.begin();
          }
        });
    auto refine = g.expand<coarse_task, chunk_rec>(
        "refine", stage_kind::parallel,
        [this, &pr](coarse_task&& t, pipe::emit<chunk_rec> out) {
          const std::int64_t t0 = pr.begin();
          auto chunks =
              apps::dedup::k_refine(cfg_, input_.data(), t.off, t.len, t.seq);
          pr.end(1, t0);
          for (auto& c : chunks) out(std::move(c));
        });
    auto dedup_compress = g.stage<chunk_rec, chunk_rec>(
        "dedup_compress", stage_kind::parallel,
        [this, &pr](chunk_rec&& c, pipe::emit<chunk_rec> out) {
          const std::int64_t t0 = pr.begin();
          apps::dedup::k_dedup(table_.get(), &c);
          if (c.owner) apps::dedup::k_compress(&c);
          pr.end(2, t0);
          out(std::move(c));
        });
    auto output = g.sink<chunk_rec>("output", stage_kind::serial_in_order,
                                    [this, &pr](chunk_rec&& c) {
                                      const std::int64_t t0 = pr.begin();
                                      apps::dedup::k_output(&r_.output, &c);
                                      ++r_.total_chunks;
                                      pr.retire(3, t0);
                                    });
    connect4(g, fragment, refine, dedup_compress, output);
  }

  void describe_hollow(pipe::graph& g, probe& pr) {
    auto fragment = g.source<coarse_task>(
        "fragment", [this, &pr](pipe::emit<coarse_task> out) {
          for (std::size_t i = 0; i < fanout_.size(); ++i) {
            pr.emit(0, 0);
            coarse_task t;
            t.seq = i;
            out(std::move(t));
          }
        });
    auto refine = g.expand<coarse_task, chunk_rec>(
        "refine", stage_kind::parallel,
        [this](coarse_task&& t, pipe::emit<chunk_rec> out) {
          for (std::size_t j = 0; j < fanout_[t.seq]; ++j) out(chunk_rec{});
        });
    auto dedup_compress = g.stage<chunk_rec, chunk_rec>(
        "dedup_compress", stage_kind::parallel,
        [](chunk_rec&& c, pipe::emit<chunk_rec> out) { out(std::move(c)); });
    auto output = g.sink<chunk_rec>("output", stage_kind::serial_in_order,
                                    [&pr](chunk_rec&&) { pr.retire(3, 0); });
    connect4(g, fragment, refine, dedup_compress, output);
  }

  apps::dedup::config cfg_;
  std::vector<std::uint8_t> input_;
  const std::vector<std::uint8_t> no_input_;
  std::vector<std::size_t> fanout_;
  std::size_t fine_ = 0;
  std::unique_ptr<apps::dedup::dedup_table> table_;
  apps::dedup::result r_;
  std::vector<stage_info> stages_ = {{"fragment", stage_kind::serial_in_order},
                                     {"refine", stage_kind::parallel},
                                     {"dedup_compress", stage_kind::parallel},
                                     {"output", stage_kind::serial_in_order}};
};

// ---- bzip2-blocks ----------------------------------------------------------

/// The bzip2 pipeline token (block in apps/bzip2/variants.cpp).
struct block {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> data;
};

/// mbzip stream framing (put_u32 in apps/bzip2/variants.cpp).
void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class bzip2_blocks final : public workload {
 public:
  bzip2_blocks(std::uint64_t seed, bool quick) {
    cfg_.input_bytes = quick ? (256u << 10) : (4u << 20);
    cfg_.block_bytes = 32u << 10;
    cfg_.seed ^= seed;
    input_ = util::gen_text(cfg_.input_bytes, cfg_.seed);
    blocks_ = (input_.size() + cfg_.block_bytes - 1) / cfg_.block_bytes;
  }

  const char* name() const override { return "bzip2-blocks"; }
  const std::vector<stage_info>& stages() const override { return stages_; }
  std::size_t emitted() const override { return blocks_; }
  std::size_t retired() const override { return blocks_; }
  std::size_t edge_tokens() const override { return 2 * blocks_; }
  std::string digest() const override {
    return {r_.output.begin(), r_.output.end()};
  }

  void describe(variant v, pipe::graph& g, probe& pr, bool) override {
    r_ = apps::bzip2::result{};
    switch (v) {
      case variant::real:
        apps::bzip2::describe_pipeline(cfg_, input_, &r_, g);
        break;
      case variant::empty:
        apps::bzip2::describe_pipeline(cfg_, no_input_, &r_, g);
        break;
      case variant::twin:
        describe_twin(g, pr);
        break;
      case variant::hollow:
        describe_hollow3<block>(g, stages_, edge(), blocks_, pr);
        break;
    }
  }

 private:
  pipe::edge_opts edge() const {
    pipe::edge_opts opts;
    opts.capacity = 32;
    opts.slice_batch = cfg_.slice_batch;
    return opts;
  }

  void describe_twin(pipe::graph& g, probe& pr) {
    auto read = g.source<block>("read", [this, &pr](pipe::emit<block> out) {
      std::int64_t t0 = pr.begin();
      std::vector<block> blocks(blocks_);
      for (std::size_t i = 0; i < blocks_; ++i) {
        const std::size_t off = i * cfg_.block_bytes;
        const std::size_t len = std::min(cfg_.block_bytes, input_.size() - off);
        blocks[i].seq = i;
        blocks[i].data.assign(
            input_.begin() + static_cast<std::ptrdiff_t>(off),
            input_.begin() + static_cast<std::ptrdiff_t>(off + len));
      }
      put_u32(&r_.output, static_cast<std::uint32_t>(blocks_));
      for (auto& b : blocks) {
        pr.emit(0, t0);
        out(std::move(b));
        t0 = pr.begin();
      }
    });
    auto compress = g.stage<block, block>(
        "compress", stage_kind::parallel,
        [&pr](block&& b, pipe::emit<block> out) {
          const std::int64_t t0 = pr.begin();
          b.data = util::mbzip_compress_block(b.data.data(), b.data.size());
          pr.end(1, t0);
          out(std::move(b));
        });
    auto write = g.sink<block>("write", stage_kind::serial_in_order,
                               [this, &pr](block&& b) {
                                 const std::int64_t t0 = pr.begin();
                                 put_u32(&r_.output,
                                         static_cast<std::uint32_t>(b.data.size()));
                                 r_.output.insert(r_.output.end(), b.data.begin(),
                                                  b.data.end());
                                 ++r_.blocks;
                                 pr.retire(2, t0);
                               });
    g.connect(read, compress, edge());
    g.connect(compress, write, edge());
  }

  apps::bzip2::config cfg_;
  std::vector<std::uint8_t> input_;
  const std::vector<std::uint8_t> no_input_;
  std::size_t blocks_ = 0;
  apps::bzip2::result r_;
  std::vector<stage_info> stages_ = {{"read", stage_kind::serial_in_order},
                                     {"compress", stage_kind::parallel},
                                     {"write", stage_kind::serial_in_order}};
};

// ---- stream-query ----------------------------------------------------------

/// Wait for an absolute steady-clock time: sleep while far, spin when near,
/// so the generator neither burns its worker between requests nor trusts the
/// OS to wake it to the microsecond.
void wait_until(std::int64_t t) {
  for (;;) {
    const std::int64_t left = t - now_ns();
    if (left <= 0) return;
    if (left > 200'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
  }
}

class stream_query final : public workload {
 public:
  static constexpr double kRate = 5000.0;  // requests per second

  stream_query(std::uint64_t seed, bool quick)
      : cfg_(query_config(seed, 0)), db_(apps::ferret::build_db(cfg_)) {
    // Poisson arrivals: exponential gaps at kRate, fixed by the seed. A run
    // is 1250 requests, 0.25 s paced: an unpaced hyperqueue@1 run of this
    // graph varies by about 13% from run to run on its own, so many short
    // runs give steadier medians than a few long ones.
    util::xoshiro256 rng(cfg_.seed ^ 0x5eedull);
    due_.resize(quick ? 500 : 1250);
    double t = 0;
    for (auto& d : due_) {
      t += -std::log1p(-rng.uniform()) / kRate * 1e9;
      d = static_cast<std::int64_t>(t);
    }
  }

  const char* name() const override { return "stream-query"; }
  bool open_loop() const override { return true; }
  const std::vector<stage_info>& stages() const override { return stages_; }
  std::size_t emitted() const override { return due_.size(); }
  std::size_t retired() const override { return due_.size(); }
  std::size_t edge_tokens() const override { return 2 * due_.size(); }
  std::string digest() const override {
    return std::to_string(checksum_) + "/" + std::to_string(retired_);
  }
  std::size_t misordered() const override { return misordered_; }
  const std::vector<std::int64_t>& due_ns() const override { return due_; }
  std::int64_t gen_start_ns() const override { return gen_start_; }

  void describe(variant v, pipe::graph& g, probe& pr, bool paced) override {
    checksum_ = 0;
    retired_ = 0;
    misordered_ = 0;
    switch (v) {
      case variant::real:
      case variant::twin:
        describe_stream(g, pr, paced, due_.size());
        break;
      case variant::empty:
        describe_stream(g, pr, false, 0);
        break;
      case variant::hollow:
        describe_hollow3<item>(g, stages_, edge(), due_.size(), pr);
        break;
    }
  }

 private:
  using item = apps::ferret::item;

  /// One request per slice: a latency-oriented edge, so the emitter never
  /// holds a request back waiting for a batch to fill.
  static pipe::edge_opts edge() {
    pipe::edge_opts opts;
    opts.capacity = 64;
    opts.slice_batch = 1;
    return opts;
  }

  void describe_stream(pipe::graph& g, probe& pr, bool paced, std::size_t n) {
    auto gen = g.source<item>("gen", [this, &pr, paced, n](pipe::emit<item> out) {
      gen_start_ = now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        if (paced) wait_until(gen_start_ + due_[i]);
        const std::int64_t t0 = pr.begin();
        item it;
        it.seq = i;
        it.seed = cfg_.seed ^ (i * kImageSeedMul);
        apps::ferret::k_load(cfg_, &it);
        pr.emit(0, t0);
        out(std::move(it));
      }
    });
    auto query = g.stage<item, item>(
        "query", stage_kind::parallel,
        [this, &pr](item&& it, pipe::emit<item> out) {
          const std::int64_t t0 = pr.begin();
          query_kernels(cfg_, db_, &it);
          pr.end(1, t0);
          out(std::move(it));
        });
    auto respond = g.sink<item>("respond", stage_kind::serial_in_order,
                                [this, &pr](item&& it) {
                                  const std::int64_t t0 = pr.begin();
                                  if (it.seq != retired_) ++misordered_;
                                  apps::ferret::k_output(&checksum_, it);
                                  ++retired_;
                                  pr.retire(2, t0);
                                });
    g.connect(gen, query, edge());
    g.connect(query, respond, edge());
  }

  apps::ferret::config cfg_;
  apps::ferret::feature_db db_;
  std::vector<std::int64_t> due_;
  std::int64_t gen_start_ = 0;
  std::uint64_t checksum_ = 0;
  std::size_t retired_ = 0;
  std::size_t misordered_ = 0;
  std::vector<stage_info> stages_ = {{"gen", stage_kind::serial_in_order},
                                     {"query", stage_kind::parallel},
                                     {"respond", stage_kind::serial_in_order}};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ferret-search", "dedup-fine", "bzip2-blocks", "stream-query"};
  return names;
}

std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool quick) {
  if (name == "ferret-search") return std::make_unique<ferret_search>(seed, quick);
  if (name == "dedup-fine") return std::make_unique<dedup_fine>(seed, quick);
  if (name == "bzip2-blocks") return std::make_unique<bzip2_blocks>(seed, quick);
  if (name == "stream-query") return std::make_unique<stream_query>(seed, quick);
  return nullptr;
}

}  // namespace hq::e2e

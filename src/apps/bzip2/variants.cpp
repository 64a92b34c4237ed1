// The bzip2 pipeline: the declared graph plus the two shapes the front-end
// does not model — the task-dataflow "objects" comparison and the Section
// 5.4/5.5 loop-split idiom, which exercises owner-push and selective sync.
// Output streams are byte-identical (mbzip whole-stream format), so
// equality against the serial elision's stream verifies in-order writes.
#include <algorithm>

#include "apps/bzip2/bzip2.hpp"
#include "hq.hpp"
#include "pipeline/builder.hpp"
#include "util/mbzip.hpp"
#include "util/stats.hpp"

namespace hq::apps::bzip2 {

namespace {

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

struct block {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> data;  // raw, then compressed
};

std::vector<block> slice_blocks(const config& cfg,
                                const std::vector<std::uint8_t>& input) {
  std::vector<block> blocks;
  std::uint64_t seq = 0;
  for (std::size_t off = 0; off < input.size(); off += cfg.block_bytes) {
    const std::size_t len = std::min(cfg.block_bytes, input.size() - off);
    block b;
    b.seq = seq++;
    b.data.assign(input.begin() + static_cast<std::ptrdiff_t>(off),
                  input.begin() + static_cast<std::ptrdiff_t>(off + len));
    blocks.push_back(std::move(b));
  }
  return blocks;
}

void write_header(result* r, std::size_t nblocks) {
  put_u32(&r->output, static_cast<std::uint32_t>(nblocks));
}

void write_block(result* r, const std::vector<std::uint8_t>& comp) {
  put_u32(&r->output, static_cast<std::uint32_t>(comp.size()));
  r->output.insert(r->output.end(), comp.begin(), comp.end());
  ++r->blocks;
}

}  // namespace

// ----------------------------------------------------- declarative pipeline

void describe_pipeline(const config& cfg, const std::vector<std::uint8_t>& input,
                       result* r, pipe::graph& g) {
  // The header write is ordered before the sink's first append on every
  // backend: the sink only touches r->output after receiving a block that
  // was emitted after the header write, and the inter-stage channel push
  // synchronizes-with its pop.
  auto read = g.source<block>("read", [&cfg, &input, r](pipe::emit<block> out) {
    auto blocks = slice_blocks(cfg, input);
    // One allocation for the stream, sized for the input plus framing: the
    // sink appends while raw blocks are still alive, so doubling growth
    // could not reuse its freed buffers and would raise the peak footprint.
    r->output.reserve(input.size() + 4 * (blocks.size() + 1));
    write_header(r, blocks.size());
    for (auto& b : blocks) out(std::move(b));
  });
  auto compress = g.stage<block, block>(
      "compress", pipe::stage_kind::parallel,
      [](block&& b, pipe::emit<block> out) {
        b.data = util::mbzip_compress_block(b.data.data(), b.data.size());
        out(std::move(b));
      });
  auto write = g.sink<block>("write", pipe::stage_kind::serial_in_order,
                             [r](block&& b) { write_block(r, b.data); });

  pipe::edge_opts opts;
  opts.capacity = 32;  // the PARSEC-style bound the pthreads variant used
  opts.slice_batch = cfg.slice_batch;
  g.connect(read, compress, opts);
  g.connect(compress, write, opts);
}

// ---------------------------------------------------------------- objects

result run_objects(const config& cfg, const std::vector<std::uint8_t>& input) {
  // Task dataflow structure of prior work [7] / Figure 1: per-block
  // versioned object, renamed by the (outdep) compressor, output serialized
  // on an inoutdep "file descriptor" token.
  util::stopwatch sw;
  result r;
  scheduler_lease sched(cfg.threads);
  sched->run([&] {
    auto blocks = slice_blocks(cfg, input);
    write_header(&r, blocks.size());
    versioned<int> fd(0);
    for (auto& b : blocks) {
      versioned<std::vector<std::uint8_t>> buf;
      spawn(
          [raw = std::move(b.data)](outdep<std::vector<std::uint8_t>> out) {
            *out = util::mbzip_compress_block(raw.data(), raw.size());
          },
          (outdep<std::vector<std::uint8_t>>)buf);
      spawn(
          [&r](indep<std::vector<std::uint8_t>> comp, inoutdep<int>) {
            write_block(&r, *comp);
          },
          (indep<std::vector<std::uint8_t>>)buf, (inoutdep<int>)fd);
    }
    sync();
  });
  r.seconds = sw.seconds();
  return r;
}

// ------------------------------------------------- hyperqueue (loop split)

namespace {

/// Record both queues' segment-pool counters into the result (called while
/// the queues are still alive, before teardown frees the pool).
void record_pool(result* r, const hyperqueue<block>& a,
                 const hyperqueue<block>& b) {
  const auto st = a.pool_stats() + b.pool_stats();
  r->seg_allocated = st.allocated;
  r->seg_recycled = st.recycled;
  r->seg_high_water = st.high_water;
  r->peak_segments = std::max<std::size_t>(
      r->peak_segments, std::max(a.pool_stats().live, b.pool_stats().live));
}

/// Compress one batch of blocks and stream them out through write slices.
void hq_compress_batch(std::vector<block> work, std::size_t batch,
                       pushdep<block> out) {
  for (auto& b : work) {
    b.data = util::mbzip_compress_block(b.data.data(), b.data.size());
  }
  push_slices(out, work.begin(), work.end(), batch);
}

void hq_writer(std::size_t batch, result* r, popdep<block> q) {
  for (;;) {
    auto rs = q.get_read_slice(batch);
    if (rs.empty()) break;
    for (const block& b : rs) write_block(r, b.data);
    rs.release();
  }
}

}  // namespace

result run_hyperqueue_split(const config& cfg,
                            const std::vector<std::uint8_t>& input) {
  // Section 5.4 loop split & interchange: the driver pushes blocks in
  // batches and spawns the consuming stages per batch, bounding queue
  // growth under serial execution. Under the help-first scheduler the
  // driver additionally paces itself with a selective sync (Section 5.5)
  // every `split_window` batches, so the number of batches in flight — and
  // with it the segment pool — stays bounded at any worker count.
  util::stopwatch sw;
  result r;
  const std::size_t nblocks = (input.size() + cfg.block_bytes - 1) / cfg.block_bytes;
  write_header(&r, nblocks);
  scheduler_lease sched(cfg.threads);
  sched->run([&] {
    hyperqueue<block> q_in(2 * cfg.slice_batch);
    hyperqueue<block> q_out(2 * cfg.slice_batch);
    auto blocks = slice_blocks(cfg, input);
    std::size_t produced = 0;
    std::size_t window = 0;
    while (produced < blocks.size()) {
      const std::size_t batch = std::min(cfg.split_batch, blocks.size() - produced);
      // The owner produces one batch (it holds push privileges), then spawns
      // the consuming stages for that batch — Figure 5's structure. Each
      // writer task observes exactly the compress tasks spawned before it.
      push_slices(q_in, blocks.begin() + static_cast<std::ptrdiff_t>(produced),
                  blocks.begin() + static_cast<std::ptrdiff_t>(produced + batch),
                  cfg.slice_batch);
      produced += batch;
      hq::spawn(
          [batch, slice = cfg.slice_batch](popdep<block> in, pushdep<block> out) {
            std::size_t done = 0;
            while (done < batch) {
              // Exactly `batch` values are owed to this task, so the slice
              // is never empty here.
              auto rs = in.get_read_slice(std::min(slice, batch - done));
              std::vector<block> work;
              work.reserve(rs.size());
              for (auto& b : rs) work.push_back(std::move(b));
              done += rs.size();
              rs.release();
              spawn(hq_compress_batch, std::move(work), slice, out);
            }
            sync();
          },
          (popdep<block>)q_in, (pushdep<block>)q_out);
      hq::spawn(hq_writer, cfg.slice_batch, &r, (popdep<block>)q_out);
      if (++window >= cfg.split_window) {
        q_out.sync_pop();  // paper: "sync (popdep<T>)queue;"
        window = 0;
        r.peak_segments = std::max<std::size_t>(
            r.peak_segments,
            std::max(q_in.pool_stats().live, q_out.pool_stats().live));
      }
    }
    sync();
    record_pool(&r, q_in, q_out);
  });
  r.seconds = sw.seconds();
  return r;
}

}  // namespace hq::apps::bzip2

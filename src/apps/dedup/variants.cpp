// dedup's declared pipeline and its task-dataflow "objects" baseline. The
// output stream is byte-identical across both and every backend
// (first-occurrence-in-output-order carries the payload), so equality
// against the serial elision's stream is the correctness test.
//
// describe_pipeline's expand stage carries the paper's variable-rate
// coarse->fine split.
#include "apps/dedup/dedup.hpp"
#include "hq.hpp"
#include "pipeline/builder.hpp"
#include "util/stats.hpp"

namespace hq::apps::dedup {

// ----------------------------------------------------- declarative pipeline

namespace {

/// One Fragment emission: a coarse chunk awaiting refinement.
struct coarse_task {
  std::uint64_t seq = 0;
  std::size_t off = 0;
  std::size_t len = 0;
};

}  // namespace

void describe_pipeline(const config& cfg, const std::vector<std::uint8_t>& input,
                       dedup_table* table, result* r, pipe::graph& g) {
  // Figure 9 as a declared chain: Fragment -> FragmentRefine (the
  // variable-rate expand) -> Deduplicate+Compress -> Output. A duplicate's
  // k_output may spin on its entry's `ready`; that wait always targets a
  // stage activation that is actively compressing (never one blocked on
  // channel capacity), because k_compress runs before the owner record is
  // forwarded — so every backend makes progress at any worker count.
  auto fragment =
      g.source<coarse_task>("fragment", [&cfg, &input](pipe::emit<coarse_task> out) {
        auto coarse = k_fragment(cfg, input.data(), input.size());
        for (std::size_t i = 0; i < coarse.size(); ++i)
          out(coarse_task{i, coarse[i].first, coarse[i].second});
      });
  auto refine = g.expand<coarse_task, chunk_rec>(
      "refine", pipe::stage_kind::parallel,
      [&cfg, &input](coarse_task&& t, pipe::emit<chunk_rec> out) {
        auto chunks = k_refine(cfg, input.data(), t.off, t.len, t.seq);
        for (auto& c : chunks) out(std::move(c));
      });
  auto dedup_compress = g.stage<chunk_rec, chunk_rec>(
      "dedup_compress", pipe::stage_kind::parallel,
      [table](chunk_rec&& c, pipe::emit<chunk_rec> out) {
        k_dedup(table, &c);
        if (c.owner) k_compress(&c);
        out(std::move(c));
      });
  auto output = g.sink<chunk_rec>("output", pipe::stage_kind::serial_in_order,
                                  [r](chunk_rec&& c) {
                                    k_output(&r->output, &c);
                                    ++r->total_chunks;
                                  });

  // Coarse tasks move in coarse_batch groups (the nested-pipeline batch of
  // the hand-rolled variant); record edges keep the PARSEC queue bounds and
  // the local-queue/write-queue segment sizes.
  pipe::edge_opts frag_edge;
  frag_edge.capacity = 32;
  frag_edge.slice_batch = cfg.coarse_batch > 0 ? cfg.coarse_batch : 1;
  g.connect(fragment, refine, frag_edge);

  pipe::edge_opts refine_edge;
  refine_edge.capacity = 256;
  refine_edge.slice_batch = cfg.slice_batch;
  refine_edge.segment_length = 64;
  g.connect(refine, dedup_compress, refine_edge);

  pipe::edge_opts out_edge;
  out_edge.capacity = 256;
  out_edge.slice_batch = cfg.slice_batch;
  out_edge.segment_length = 256;
  g.connect(dedup_compress, output, out_edge);
}

// ---------------------------------------------------------------- objects

result run_objects(const config& cfg, const std::vector<std::uint8_t>& input) {
  // Task dataflow over per-coarse-chunk lists (the nested-pipeline shape of
  // Figure 10a): dataflow cannot express the variable-rate streaming, so
  // each coarse chunk's list is produced wholesale and output waits for the
  // entire list.
  util::stopwatch sw;
  result r;
  dedup_table table;
  scheduler_lease sched(cfg.threads);
  sched->run([&] {
    auto coarse = k_fragment(cfg, input.data(), input.size());
    versioned<std::uint64_t> out_token(0);  // serializes output in spawn order
    for (std::size_t i = 0; i < coarse.size(); ++i) {
      versioned<std::vector<chunk_rec>> list;
      spawn(
          [&cfg, &input, i, off = coarse[i].first,
           len = coarse[i].second](outdep<std::vector<chunk_rec>> l) {
            *l = k_refine(cfg, input.data(), off, len, i);
          },
          (outdep<std::vector<chunk_rec>>)list);
      spawn(
          [&table](inoutdep<std::vector<chunk_rec>> l) {
            for (auto& c : *l) {
              k_dedup(&table, &c);
              if (c.owner) k_compress(&c);
            }
          },
          (inoutdep<std::vector<chunk_rec>>)list);
      spawn(
          [&r](inoutdep<std::vector<chunk_rec>> l, inoutdep<std::uint64_t>) {
            for (auto& c : *l) {
              k_output(&r.output, &c);
              ++r.total_chunks;
            }
          },
          (inoutdep<std::vector<chunk_rec>>)list,
          (inoutdep<std::uint64_t>)out_token);
    }
    sync();
  });
  r.unique_chunks = table.unique_chunks();
  r.seconds = sw.seconds();
  return r;
}

}  // namespace hq::apps::dedup

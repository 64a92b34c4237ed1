// ferret's declared pipeline and its task-dataflow "objects" baseline. Both
// must produce the serial elision's checksum: the output stage is
// order-sensitive, so this verifies in-order delivery.
//
// describe_pipeline fuses the four middle kernels into a single parallel
// stage. (The PARSEC pthreads build ran four separate pools; the fused
// stage gives the pthreads backend one pool of `threads` workers instead,
// see README.)
#include "apps/ferret/ferret.hpp"
#include "hq.hpp"
#include "pipeline/builder.hpp"
#include "util/stats.hpp"

namespace hq::apps::ferret {

namespace {

item make_item(const config& cfg, std::uint64_t seq, std::string path) {
  item it;
  it.seq = seq;
  it.path = std::move(path);
  it.seed = cfg.seed ^ (seq * 0x9e3779b97f4a7c15ull);
  return it;
}

void process_middle(const config& cfg, const feature_db& db, item* it) {
  k_segment(cfg, it);
  k_extract(cfg, it);
  k_vector(cfg, it);
  k_rank(cfg, db, it);
}

}  // namespace

// ----------------------------------------------------- declarative pipeline

void describe_pipeline(const config& cfg, const feature_db& db,
                       std::uint64_t* checksum, pipe::graph& g) {
  // Input stays push-style (directory traversal emitting images as
  // discovered — the programmability point of Section 6.1); the middle
  // four kernels run fused in one parallel stage; output folds the
  // checksum strictly in traversal order.
  auto input = g.source<item>("input", [&cfg](pipe::emit<item> out) {
    auto files = traversal_order(cfg);
    for (std::size_t i = 0; i < files.size(); ++i) {
      item it = make_item(cfg, i, files[i]);
      k_load(cfg, &it);
      out(std::move(it));
    }
  });
  auto middle = g.stage<item, item>(
      "middle", pipe::stage_kind::parallel,
      [&cfg, &db](item&& it, pipe::emit<item> out) {
        process_middle(cfg, db, &it);
        out(std::move(it));
      });
  auto output = g.sink<item>("output", pipe::stage_kind::serial_in_order,
                             [checksum](item&& it) { k_output(checksum, it); });

  pipe::edge_opts opts;
  opts.capacity = 64;  // the PARSEC-style bound the pthreads variant used
  opts.slice_batch = cfg.slice_batch;
  g.connect(input, middle, opts);
  g.connect(middle, output, opts);
}

// ---------------------------------------------------------------- objects

result run_objects(const config& cfg) {
  // Baseline task dataflow (Figure 1 style). As in the paper's evaluation,
  // the input stage is NOT restructured: the driver loads images serially
  // in the spawn loop, so input never overlaps the parallel stages — the
  // scalability ceiling visible in Figure 8.
  feature_db db = build_db(cfg);
  util::stopwatch sw;
  std::uint64_t checksum = 0;
  scheduler_lease sched(cfg.threads);
  sched->run([&] {
    auto files = traversal_order(cfg);
    versioned<std::uint64_t> out_token(0);  // serializes the output stage
    for (std::size_t i = 0; i < files.size(); ++i) {
      versioned<item> v(make_item(cfg, i, files[i]));
      k_load(cfg, &v.get());  // serial, not overlapped
      spawn(
          [&cfg, &db](inoutdep<item> it) { process_middle(cfg, db, &*it); },
          (inoutdep<item>)v);
      spawn(
          [&checksum](indep<item> it, inoutdep<std::uint64_t>) {
            k_output(&checksum, *it);
          },
          (indep<item>)v, (inoutdep<std::uint64_t>)out_token);
    }
    sync();
  });
  return {checksum, sw.seconds()};
}

}  // namespace hq::apps::ferret

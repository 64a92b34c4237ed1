#include "sim/models.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <map>

#include "util/rng.hpp"

// All model state and the mutually recursive callback std::functions live on
// the simulating function's stack: every callback runs inside eng.run(),
// which returns only when the event queues are empty, so reference captures
// of locals are safe and there is nothing to free afterwards. (The previous
// shared_ptr<std::function> formulation leaked every run through
// self-referential capture cycles.) Scalars like item/stage indices are
// captured by value — the variables they come from die before the callback
// fires.

namespace hq::sim {

namespace {

/// Deterministic multiplicative jitter in [1-j, 1+j].
double jittered(double mean, double j, util::xoshiro256* rng) {
  return mean * (1.0 + j * (2.0 * rng->uniform() - 1.0));
}

/// Per-item, per-stage cost matrix with jitter (shared by all models so the
/// comparison is apples-to-apples).
std::vector<std::vector<double>> flat_costs(const flat_spec& spec) {
  util::xoshiro256 rng(spec.seed);
  std::vector<std::vector<double>> c(spec.items,
                                     std::vector<double>(spec.stages.size()));
  for (std::size_t i = 0; i < spec.items; ++i) {
    for (std::size_t s = 0; s < spec.stages.size(); ++s) {
      c[i][s] = jittered(spec.stages[s].cost, spec.jitter, &rng);
    }
  }
  return c;
}

}  // namespace

double serial_time_flat(const flat_spec& spec) {
  auto costs = flat_costs(spec);
  double t = 0;
  for (const auto& row : costs) {
    for (double v : row) t += v;
  }
  return t;
}

// ----------------------------------------------------------- flat dataflow

namespace {

/// Shared DAG executor for the objects and hyperqueue models: stage chains
/// per item, serial stages additionally ordered across items. `first_stage`
/// allows skipping stage 0 (pre-executed input phase).
struct flat_dag {
  const flat_spec& spec;
  std::vector<std::vector<double>> costs;
  engine& eng;
  double per_task;
  // Hyperqueue serial stages are single long-running tasks that keep their
  // worker between items; objects/TBB re-enter the scheduler per item.
  bool serial_holds_core;

  // Per serial stage: next item admitted, and parked items ready to enter.
  std::vector<std::size_t> serial_next;
  std::vector<std::map<std::size_t, bool>> parked;

  flat_dag(const flat_spec& s, engine& e, double per_task_overhead,
           bool holds_core)
      : spec(s), costs(flat_costs(s)), eng(e), per_task(per_task_overhead),
        serial_holds_core(holds_core),
        serial_next(s.stages.size(), 0), parked(s.stages.size()) {}

  void arrive(std::size_t item, std::size_t stage) {
    if (stage >= spec.stages.size()) return;
    if (spec.stages[stage].serial) {
      if (item != serial_next[stage]) {
        parked[stage].emplace(item, true);
        return;
      }
      enter_serial(item, stage);
    } else {
      eng.submit(costs[item][stage] + per_task,
                 [this, item, stage] { arrive(item, stage + 1); });
    }
  }

  void enter_serial(std::size_t item, std::size_t stage) {
    enter_serial(item, stage, /*continuation=*/false);
  }

  void enter_serial(std::size_t item, std::size_t stage, bool continuation) {
    auto body = [this, item, stage] {
      serial_next[stage] = item + 1;
      arrive(item, stage + 1);
      auto it = parked[stage].find(item + 1);
      if (it != parked[stage].end()) {
        parked[stage].erase(it);
        // The consumer task continues with the next item without giving up
        // its worker when the model says so.
        enter_serial(item + 1, stage, serial_holds_core);
      }
    };
    if (continuation) {
      eng.submit_front(costs[item][stage] + per_task, std::move(body));
    } else {
      eng.submit(costs[item][stage] + per_task, std::move(body));
    }
  }
};

}  // namespace

double sim_flat_objects(const flat_spec& spec, const machine& m,
                        const overheads& ov, bool overlap_first_stage) {
  engine eng({m.cores, m.fpu_pairs, m.fpu_penalty});
  flat_dag dag(spec, eng, ov.task_spawn, /*serial_holds_core=*/false);
  double offset = 0;
  if (overlap_first_stage) {
    for (std::size_t i = 0; i < spec.items; ++i) dag.arrive(i, 0);
  } else {
    // Unrestructured input: the driver executes stage 0 for every item
    // before the pipeline tasks run (Section 6.1's "objects" ferret).
    for (std::size_t i = 0; i < spec.items; ++i) offset += dag.costs[i][0];
    dag.serial_next[0] = spec.items;
    for (std::size_t i = 0; i < spec.items; ++i) dag.arrive(i, 1);
  }
  return offset + eng.run();
}

double sim_flat_hyperqueue(const flat_spec& spec, const machine& m,
                           const overheads& ov) {
  engine eng({m.cores, m.fpu_pairs, m.fpu_penalty});
  // Queue hops between every stage pair cost one push+pop per item.
  const double per_task = ov.task_spawn + ov.hq_queue_op;
  flat_dag dag(spec, eng, per_task, /*serial_holds_core=*/true);
  for (std::size_t i = 0; i < spec.items; ++i) dag.arrive(i, 0);
  return eng.run();
}

// ----------------------------------------------------------------- flat tbb

double sim_flat_tbb(const flat_spec& spec, const machine& m, const overheads& ov,
                    std::size_t max_tokens) {
  engine eng({m.cores, m.fpu_pairs, m.fpu_penalty});
  const auto costs = flat_costs(spec);

  struct state_t {
    std::size_t next_token = 0;
    std::size_t in_flight = 0;
    std::vector<std::size_t> serial_next;
    std::vector<bool> serial_busy;
    std::vector<std::map<std::size_t, bool>> parked;
  };
  state_t st;
  st.serial_next.assign(spec.stages.size(), 0);
  st.serial_busy.assign(spec.stages.size(), false);
  st.parked.resize(spec.stages.size());

  // Mutually recursive: declared as std::function for shared callbacks.
  std::function<void(std::size_t, std::size_t)> advance;
  std::function<void()> pump;

  advance = [&](std::size_t item, std::size_t stage) {
    if (stage >= spec.stages.size()) {
      --st.in_flight;
      pump();
      return;
    }
    if (spec.stages[stage].serial) {
      if (st.serial_busy[stage] || item != st.serial_next[stage]) {
        st.parked[stage].emplace(item, true);
        return;
      }
      st.serial_busy[stage] = true;
      eng.submit(costs[item][stage] + ov.tbb_token, [&, item, stage] {
        st.serial_busy[stage] = false;
        st.serial_next[stage] = item + 1;
        auto it = st.parked[stage].find(item + 1);
        if (it != st.parked[stage].end()) {
          st.parked[stage].erase(it);
          advance(item + 1, stage);
        }
        advance(item, stage + 1);
      });
    } else {
      eng.submit(costs[item][stage] + ov.tbb_token,
                 [&, item, stage] { advance(item, stage + 1); });
    }
  };

  pump = [&]() {
    while (st.in_flight < max_tokens && st.next_token < spec.items) {
      const std::size_t item = st.next_token++;
      ++st.in_flight;
      advance(item, 0);  // stage 0 is serial: ordering enforced inside
    }
  };

  pump();
  const double t = eng.run();
  assert(st.in_flight == 0 && st.next_token == spec.items);
  return t;
}

// ------------------------------------------------------------ flat pthreads

double sim_flat_pthreads(const flat_spec& spec, const machine& m,
                         const overheads& ov, unsigned threads_per_stage) {
  engine eng({m.cores, m.fpu_pairs, m.fpu_penalty});
  const auto costs = flat_costs(spec);
  // Oversubscription locality stretch (see overheads::pth_oversub_penalty).
  std::size_t parallel_stages = 0;
  for (const auto& stg : spec.stages) parallel_stages += stg.serial ? 0 : 1;
  const double ratio = static_cast<double>(threads_per_stage) *
                       static_cast<double>(parallel_stages) /
                       static_cast<double>(m.cores);
  const double ramp = std::min(1.0, static_cast<double>(m.cores - 1) / 7.0);
  const double stretch = 1.0 + (ratio > 1.0 ? ov.pth_oversub_penalty * ramp : 0.0);

  // Per stage: a software thread pool of size T (1 for serial stages) pulls
  // from an unbounded queue; the DES core pool models the hardware.
  struct stage_state {
    std::deque<std::size_t> queue;       // items waiting (parallel stages)
    std::map<std::size_t, bool> reorder; // serial stages: by sequence
    std::size_t next_seq = 0;
    unsigned active = 0;
    unsigned limit = 1;
  };
  std::vector<stage_state> st(spec.stages.size());
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    st[s].limit = spec.stages[s].serial ? 1 : threads_per_stage;
  }

  std::function<void(std::size_t)> feed;
  std::function<void(std::size_t, std::size_t)> push_item;

  feed = [&](std::size_t s) {
    stage_state& ss = st[s];
    while (ss.active < ss.limit) {
      std::size_t item;
      if (spec.stages[s].serial) {
        auto it = ss.reorder.find(ss.next_seq);
        if (it == ss.reorder.end()) return;
        item = it->first;
        ss.reorder.erase(it);
        ++ss.next_seq;
      } else {
        if (ss.queue.empty()) return;
        item = ss.queue.front();
        ss.queue.pop_front();
      }
      ++ss.active;
      eng.submit(costs[item][s] * stretch + ov.pth_queue_op, [&, item, s] {
        --st[s].active;
        push_item(item, s + 1);
        feed(s);
      });
    }
  };

  push_item = [&](std::size_t item, std::size_t s) {
    if (s >= spec.stages.size()) return;
    if (spec.stages[s].serial) {
      st[s].reorder.emplace(item, true);
    } else {
      st[s].queue.push_back(item);
    }
    feed(s);
  };

  for (std::size_t i = 0; i < spec.items; ++i) push_item(i, 0);
  return eng.run();
}

// =================================================================== nested

namespace {

struct nested_costs {
  std::vector<std::size_t> fine_count;             // per coarse
  std::vector<std::vector<double>> dedup_c;        // per (coarse, fine)
  std::vector<std::vector<double>> compress_c;     // 0 for duplicates
  std::vector<std::vector<double>> output_c;
  std::vector<double> fragment_c, refine_c;        // per coarse
};

nested_costs make_nested_costs(const nested_spec& spec) {
  util::xoshiro256 rng(spec.seed);
  nested_costs nc;
  nc.fine_count.resize(spec.coarse);
  nc.dedup_c.resize(spec.coarse);
  nc.compress_c.resize(spec.coarse);
  nc.output_c.resize(spec.coarse);
  nc.fragment_c.resize(spec.coarse);
  nc.refine_c.resize(spec.coarse);
  for (std::size_t c = 0; c < spec.coarse; ++c) {
    const double f = 0.5 + rng.uniform();  // 0.5x..1.5x the mean
    nc.fine_count[c] = std::max<std::size_t>(
        1, static_cast<std::size_t>(f * static_cast<double>(spec.fine_per_coarse)));
    nc.fragment_c[c] = jittered(spec.fragment_cost, spec.jitter, &rng);
    nc.refine_c[c] = jittered(spec.refine_cost, spec.jitter, &rng);
    nc.dedup_c[c].resize(nc.fine_count[c]);
    nc.compress_c[c].resize(nc.fine_count[c]);
    nc.output_c[c].resize(nc.fine_count[c]);
    for (std::size_t i = 0; i < nc.fine_count[c]; ++i) {
      nc.dedup_c[c][i] = jittered(spec.dedup_cost, spec.jitter, &rng);
      const bool unique = rng.uniform() < spec.unique_fraction;
      nc.compress_c[c][i] =
          unique ? jittered(spec.compress_cost, spec.jitter, &rng) : 0.0;
      nc.output_c[c][i] = jittered(spec.output_cost, spec.jitter, &rng);
    }
  }
  return nc;
}

double nested_total(const nested_costs& nc) {
  double t = 0;
  for (std::size_t c = 0; c < nc.fine_count.size(); ++c) {
    t += nc.fragment_c[c] + nc.refine_c[c];
    for (std::size_t i = 0; i < nc.fine_count[c]; ++i) {
      t += nc.dedup_c[c][i] + nc.compress_c[c][i] + nc.output_c[c][i];
    }
  }
  return t;
}

/// Serial in-order sink over (coarse, fine) pairs, releasing runs as they
/// become ready. Shared by the nested models.
struct ordered_sink {
  engine& eng;
  const nested_costs& nc;
  double per_op;
  bool holds_core;  // dedicated thread / long-running task vs re-queue
  double cost_scale = 1.0;  // oversubscription stretch (pthreads model)
  std::size_t next_c = 0, next_f = 0;
  std::map<std::pair<std::size_t, std::size_t>, bool> ready;
  bool busy = false;

  ordered_sink(engine& e, const nested_costs& n, double op, bool holds)
      : eng(e), nc(n), per_op(op), holds_core(holds) {}

  void mark_ready(std::size_t c, std::size_t f) {
    ready.emplace(std::make_pair(c, f), true);
    pump(false);
  }

  void pump(bool continuation) {
    if (busy || next_c >= nc.fine_count.size()) return;
    auto it = ready.find({next_c, next_f});
    if (it == ready.end()) return;
    ready.erase(it);
    busy = true;
    const std::size_t c = next_c, f = next_f;
    auto body = [this, c, f] {
      busy = false;
      if (f + 1 == nc.fine_count[c]) {
        ++next_c;
        next_f = 0;
      } else {
        next_f = f + 1;
      }
      pump(holds_core);
    };
    if (continuation) {
      eng.submit_front(nc.output_c[c][f] * cost_scale + per_op, std::move(body));
    } else {
      eng.submit(nc.output_c[c][f] * cost_scale + per_op, std::move(body));
    }
  }
};

}  // namespace

double serial_time_nested(const nested_spec& spec) {
  return nested_total(make_nested_costs(spec));
}

double sim_nested_hyperqueue(const nested_spec& spec, const machine& m,
                             const overheads& ov) {
  engine eng({m.cores, m.fpu_pairs, m.fpu_penalty});
  const nested_costs nc = make_nested_costs(spec);
  ordered_sink sink(eng, nc, ov.hq_queue_op, /*holds_core=*/true);

  // Fragment chain (serial, overlapped); per coarse chunk: a refine task,
  // then a merged dedup+compress task that streams each fine chunk to the
  // sink as it finishes (Figure 10c). The merged task keeps its worker
  // between fine chunks (submit_front) — it is one task in the runtime.
  std::function<void(std::size_t, std::size_t)> dc_step;
  dc_step = [&](std::size_t c, std::size_t f) {
    if (f >= nc.fine_count[c]) return;
    auto body = [&, c, f] {
      sink.mark_ready(c, f);
      dc_step(c, f + 1);
    };
    const double cost = nc.dedup_c[c][f] + nc.compress_c[c][f] + ov.hq_queue_op;
    if (f == 0) {
      eng.submit(cost, std::move(body));
    } else {
      eng.submit_front(cost, std::move(body));
    }
  };

  std::function<void(std::size_t)> frag;
  frag = [&](std::size_t c) {
    if (c >= spec.coarse) return;
    eng.submit(nc.fragment_c[c] + 2 * ov.task_spawn, [&, c] {
      eng.submit(nc.refine_c[c] + ov.task_spawn, [&, c] { dc_step(c, 0); });
      frag(c + 1);
    });
  };
  frag(0);
  return eng.run();
}

double sim_nested_objects(const nested_spec& spec, const machine& m,
                          const overheads& ov) {
  engine eng({m.cores, m.fpu_pairs, m.fpu_penalty});
  const nested_costs nc = make_nested_costs(spec);

  // Per coarse chunk: refine -> one lumped dedup+compress task -> one lumped
  // output task serialized in coarse order (Figure 10a: the whole list must
  // complete before output).
  struct state_t {
    std::size_t out_next = 0;
    std::map<std::size_t, bool> out_ready;
    bool out_busy = false;
  };
  state_t st;

  std::function<void()> out_pump;
  out_pump = [&]() {
    if (st.out_busy) return;
    auto it = st.out_ready.find(st.out_next);
    if (it == st.out_ready.end()) return;
    st.out_ready.erase(it);
    st.out_busy = true;
    const std::size_t c = st.out_next;
    double cost = ov.task_spawn;
    for (double v : nc.output_c[c]) cost += v;
    eng.submit(cost, [&] {
      st.out_busy = false;
      ++st.out_next;
      out_pump();
    });
  };

  std::function<void(std::size_t)> frag;
  frag = [&](std::size_t c) {
    if (c >= spec.coarse) return;
    eng.submit(nc.fragment_c[c] + 3 * ov.task_spawn, [&, c] {
      eng.submit(nc.refine_c[c] + ov.task_spawn, [&, c] {
        double dc = ov.task_spawn;
        for (std::size_t i = 0; i < nc.fine_count[c]; ++i) {
          dc += nc.dedup_c[c][i] + nc.compress_c[c][i];
        }
        eng.submit(dc, [&, c] {
          st.out_ready.emplace(c, true);
          out_pump();
        });
      });
      frag(c + 1);
    });
  };
  frag(0);
  return eng.run();
}

double sim_nested_tbb(const nested_spec& spec, const machine& m,
                      const overheads& ov, std::size_t max_tokens) {
  engine eng({m.cores, m.fpu_pairs, m.fpu_penalty});
  const nested_costs nc = make_nested_costs(spec);

  struct state_t {
    std::size_t next_token = 0;
    std::size_t in_flight = 0;
    bool frag_busy = false;
    std::size_t out_next = 0;
    std::map<std::size_t, bool> out_ready;
    bool out_busy = false;
  };
  state_t st;
  std::function<void()> pump;

  std::function<void()> out_pump;
  out_pump = [&]() {
    if (st.out_busy) return;
    auto it = st.out_ready.find(st.out_next);
    if (it == st.out_ready.end()) return;
    st.out_ready.erase(it);
    st.out_busy = true;
    const std::size_t c = st.out_next;
    double cost = ov.tbb_token;
    for (double v : nc.output_c[c]) cost += v;
    eng.submit(cost, [&] {
      st.out_busy = false;
      ++st.out_next;
      --st.in_flight;
      out_pump();
      pump();
    });
  };

  pump = [&]() {
    while (!st.frag_busy && st.in_flight < max_tokens &&
           st.next_token < spec.coarse) {
      const std::size_t c = st.next_token++;
      ++st.in_flight;
      st.frag_busy = true;
      eng.submit(nc.fragment_c[c] + ov.tbb_token, [&, c] {
        st.frag_busy = false;
        eng.submit(nc.refine_c[c] + ov.tbb_token, [&, c] {
          double dc = ov.tbb_token;
          for (std::size_t i = 0; i < nc.fine_count[c]; ++i) {
            dc += nc.dedup_c[c][i] + nc.compress_c[c][i];
          }
          eng.submit(dc, [&, c] {
            st.out_ready.emplace(c, true);
            out_pump();
          });
        });
        pump();
      });
    }
  };
  pump();
  return eng.run();
}

double sim_nested_pthreads(const nested_spec& spec, const machine& m,
                           const overheads& ov, unsigned threads_per_stage) {
  engine eng({m.cores, m.fpu_pairs, m.fpu_penalty});
  // Locality stretch ramps with core count: more concurrently active stage
  // threads put more pressure on the shared cache (negligible at 1-2 cores,
  // saturated by ~8), and the 3x software-thread oversubscription is what
  // creates it in the first place.
  const double ratio = 3.0 * static_cast<double>(threads_per_stage) /
                       static_cast<double>(m.cores);
  const double ramp = std::min(1.0, static_cast<double>(m.cores - 1) / 7.0);
  const double stretch = 1.0 + (ratio > 1.0 ? ov.pth_oversub_penalty * ramp : 0.0);
  const nested_costs nc = make_nested_costs(spec);
  // The single output thread timeshares like every other stage thread.
  ordered_sink sink(eng, nc, ov.pth_queue_op, /*holds_core=*/true);
  sink.cost_scale = stretch;

  // Stage pools at fine granularity; refine amplifies coarse -> fine.
  struct pool {
    std::deque<std::pair<std::size_t, std::size_t>> queue;
    unsigned active = 0;
    unsigned limit;
    explicit pool(unsigned l) : limit(l) {}
  };
  pool refine_pool(threads_per_stage);
  pool dedup_pool(threads_per_stage);
  pool compress_pool(threads_per_stage);

  std::function<void()> feed_compress;
  feed_compress = [&]() {
    while (compress_pool.active < compress_pool.limit &&
           !compress_pool.queue.empty()) {
      auto [c, f] = compress_pool.queue.front();
      compress_pool.queue.pop_front();
      ++compress_pool.active;
      eng.submit(nc.compress_c[c][f] * stretch + ov.pth_queue_op,
                 [&, c = c, f = f] {
                   --compress_pool.active;
                   sink.mark_ready(c, f);
                   feed_compress();
                 });
    }
  };

  std::function<void()> feed_dedup;
  feed_dedup = [&]() {
    while (dedup_pool.active < dedup_pool.limit && !dedup_pool.queue.empty()) {
      auto [c, f] = dedup_pool.queue.front();
      dedup_pool.queue.pop_front();
      ++dedup_pool.active;
      eng.submit(nc.dedup_c[c][f] * stretch + ov.pth_queue_op, [&, c = c, f = f] {
        --dedup_pool.active;
        if (nc.compress_c[c][f] > 0) {
          compress_pool.queue.emplace_back(c, f);
          feed_compress();
        } else {
          sink.mark_ready(c, f);
        }
        feed_dedup();
      });
    }
  };

  std::function<void()> feed_refine;
  feed_refine = [&]() {
    while (refine_pool.active < refine_pool.limit &&
           !refine_pool.queue.empty()) {
      auto [c, unused] = refine_pool.queue.front();
      (void)unused;
      refine_pool.queue.pop_front();
      ++refine_pool.active;
      eng.submit(nc.refine_c[c] * stretch + ov.pth_queue_op, [&, c = c] {
        --refine_pool.active;
        for (std::size_t f = 0; f < nc.fine_count[c]; ++f) {
          dedup_pool.queue.emplace_back(c, f);
        }
        feed_dedup();
        feed_refine();
      });
    }
  };

  // Fragment: serial chain on the driver, feeding refine.
  std::function<void(std::size_t)> frag;
  frag = [&](std::size_t c) {
    if (c >= spec.coarse) return;
    eng.submit(nc.fragment_c[c] + ov.pth_queue_op, [&, c] {
      refine_pool.queue.emplace_back(c, 0);
      feed_refine();
      frag(c + 1);
    });
  };
  frag(0);
  return eng.run();
}

}  // namespace hq::sim

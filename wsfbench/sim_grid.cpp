// The sim-grid workload: a fixed experiment grid run through exp::run_sweep
// on one thread, and a checked re-run of every configuration.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "common.hpp"
#include "core/bounds.hpp"
#include "core/classify.hpp"
#include "core/deviation.hpp"
#include "core/layout.hpp"
#include "core/traversal.hpp"
#include "exp/sweep.hpp"
#include "sched/sequential.hpp"
#include "sched/simulator.hpp"

namespace wsfbench {
namespace {

using namespace wsf;

/// Totals of simulated runs, plus the host time of the simulator, deviation
/// and cache layers.
struct SimTally {
  std::uint64_t runs = 0;
  /// Node executions of the parallel runs (runs x nodes).
  std::uint64_t node_execs = 0;
  std::uint64_t deviations = 0;
  std::int64_t additional_misses = 0;
  std::uint64_t steps = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_attempts = 0;
  /// Cache accesses (nodes with a block) and misses of the parallel runs.
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t sim_ns = 0;
  std::uint64_t dev_ns = 0;
  std::uint64_t cache_ns = 0;
  std::uint64_t cache_ops = 0;
};

/// Misses of a fully associative LRU cache of `lines` lines over the blocks
/// `order` touches — a plain recency-stamp scan, independent of the
/// library's list-and-hash-map model.
std::uint64_t lru_misses(const core::Graph& g,
                         const std::vector<core::NodeId>& order,
                         std::size_t lines) {
  std::vector<std::pair<core::BlockId, std::uint64_t>> resident;
  std::uint64_t misses = 0;
  std::uint64_t clock = 0;
  for (core::NodeId v : order) {
    const core::BlockId b = g.block_of(v);
    if (b == core::kNoBlock) continue;
    ++clock;
    auto it = std::find_if(resident.begin(), resident.end(),
                           [b](const auto& e) { return e.first == b; });
    if (it != resident.end()) {
      it->second = clock;
      continue;
    }
    ++misses;
    if (resident.size() < lines) {
      resident.push_back({b, clock});
    } else {
      *std::min_element(resident.begin(), resident.end(),
                        [](const auto& a, const auto& c) {
                          return a.second < c.second;
                        }) = {b, clock};
    }
  }
  return misses;
}

/// True when `order` lists every node once and every edge (super-final
/// edges included) goes forward in it.
bool topological(const core::Graph& g, const std::vector<core::NodeId>& order,
                 std::vector<std::uint32_t>& pos) {
  const std::size_t n = g.num_nodes();
  if (order.size() != n) return false;
  pos.assign(n, ~std::uint32_t{0});
  for (std::uint32_t i = 0; i < n; ++i) {
    if (order[i] >= n || pos[order[i]] != ~std::uint32_t{0}) return false;
    pos[order[i]] = i;
  }
  for (core::NodeId v = 0; v < n; ++v) {
    const core::Node& node = g.node(v);
    for (std::uint8_t k = 0; k < node.out_count; ++k)
      if (pos[node.out[k].node] <= pos[v]) return false;
  }
  return true;
}

/// Runs the sequential baseline and `seeds` parallel simulations of `g`
/// (schedule seeds seed_base, seed_base + 1, ...) with the library's
/// Simulator and DeviationCounter, adds their totals to `tally`, and checks
/// every run against properties of the method:
///   * the global order is a topological order of the edge list;
///   * P = 1 runs have no deviations and no additional misses;
///   * structured future-first runs have at most P * span^2 deviations
///     (Theorem 8, core/bounds.hpp);
///   * additional misses <= C x deviations;
///   * the sequential miss count equals an LRU replay of the sequential
///     order written here, and the library's LRU model agrees with it.
void simulate_checked(const core::Graph& g, const sched::SimOptions& opts0,
                      std::uint64_t seed_base, std::uint64_t seeds,
                      bool structured, SimTally& tally, RunResult& res) {
  sched::SimOptions opts = opts0;
  opts.record_trace = true;
  opts.seed = seed_base;
  const std::size_t c = opts.cache_lines;
  const sched::SeqResult seq = sched::run_sequential(g, opts);
  std::uint64_t block_nodes = 0;
  for (core::NodeId v = 0; v < g.num_nodes(); ++v)
    block_nodes += g.block_of(v) != core::kNoBlock;

  if (c > 0 && opts.cache_policy == "lru") {
    const std::uint64_t mine = lru_misses(g, seq.order, c);
    res.check(seq.misses == mine, "sequential misses " + std::to_string(seq.misses) +
                                      " != LRU replay " + std::to_string(mine));
    auto lru = cache::make_lru(c);
    const std::uint64_t t0 = now_ns();
    for (core::NodeId v : seq.order)
      if (g.block_of(v) != core::kNoBlock) lru->access(g.block_of(v));
    tally.cache_ns += now_ns() - t0;
    tally.cache_ops += lru->accesses();
    res.check(lru->misses() == mine, "library LRU disagrees with the LRU replay");
  }

  const double bound = core::structured_deviation_bound(opts.procs, core::span(g));
  const bool thm8 = structured && opts.policy == core::ForkPolicy::FutureFirst;
  sched::Simulator sim(g, opts);
  core::DeviationCounter counter(g, seq.order);
  std::vector<std::uint32_t> pos;
  for (std::uint64_t k = 0; k < seeds; ++k) {
    if (k > 0) sim.reset(seed_base + k);
    const std::uint64_t t0 = now_ns();
    const sched::SimResult* par = &sim.run_in_place();
    const std::uint64_t t1 = now_ns();
    const std::size_t dev = counter.count(par->proc_orders).deviations;
    tally.sim_ns += t1 - t0;
    tally.dev_ns += now_ns() - t1;
    const auto add = static_cast<std::int64_t>(par->total_misses()) -
                     static_cast<std::int64_t>(seq.misses);

    const std::string where = " (P=" + std::to_string(opts.procs) +
                              " C=" + std::to_string(c) + " seed " +
                              std::to_string(seed_base + k) + ")";
    res.check(topological(g, par->global_order, pos),
              "global order is not a topological order" + where);
    if (opts.procs == 1)
      res.check(dev == 0 && add == 0, "P=1 run deviated or missed more" + where);
    if (thm8)
      res.check(static_cast<double>(dev) <= bound,
                "deviations " + std::to_string(dev) + " exceed P*span^2" + where);
    res.check(add <= static_cast<std::int64_t>(c * dev),
              "additional misses " + std::to_string(add) + " exceed C x deviations " +
                  std::to_string(dev) + where);

    ++tally.runs;
    tally.node_execs += g.num_nodes();
    tally.deviations += dev;
    tally.additional_misses += add;
    tally.steps += par->steps;
    tally.steals += par->steals;
    tally.steal_attempts += par->steal_attempts;
    if (c > 0) {
      tally.accesses += block_nodes;
      tally.misses += par->total_misses();
    }
  }
}

/// Adds the simulator/cache/deviation per-layer metrics of `t` to `m`.
void report_sim_layers(const SimTally& t, Report& m) {
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto execs = static_cast<double>(t.node_execs);
  m.set("simulator.ns_per_node", ratio(static_cast<double>(t.sim_ns), execs), "ns");
  m.set("simulator.steal_success_ratio",
        ratio(static_cast<double>(t.steals), static_cast<double>(t.steal_attempts)),
        "ratio");
  m.set("cache.access_ns",
        ratio(static_cast<double>(t.cache_ns), static_cast<double>(t.cache_ops)), "ns");
  m.set("cache.miss_ratio",
        ratio(static_cast<double>(t.misses), static_cast<double>(t.accesses)), "ratio");
  m.set("deviation.count_ns_per_node", ratio(static_cast<double>(t.dev_ns), execs),
        "ns");
}

/// The grid: structured families (random-single-touch, fig6a, fig2,
/// pipeline) and unstructured ones (fig3, unstructured-mix), both fork
/// policies, P in {1, 4, 16}, LRU caches of 8 and 64 lines, 8 schedule
/// seeds per configuration. The random families' DAG seeds and the
/// schedule seeds are fixed (derived from kGridSeed), so the grid's
/// simulated counts are exact constants of the program; the run seed only
/// shuffles the order of the graph list, which moves every configuration
/// to another place in the pass and leaves each one's counts unchanged
/// (every configuration runs the same schedule seeds).
exp::SweepSpec grid_spec(std::uint64_t seed) {
  exp::SweepSpec s;
  // Four independent DAGs per random family keep the grid's totals from
  // hanging on one draw.
  for (std::uint64_t i = 0; i < 4; ++i)
    s.graphs.push_back(
        {"random-single-touch",
         {.size = 25, .seed = derive_seed(kGridSeed, streams::kGridSingle + i)},
         {}});
  s.graphs.push_back({"fig6a", {.size = 16}, {}});
  s.graphs.push_back({"fig2", {.size = 32}, {}});
  s.graphs.push_back({"pipeline", {.size = 16, .size2 = 64}, {}});
  s.graphs.push_back({"fig3", {.size = 64}, {}});
  for (std::uint64_t i = 0; i < 4; ++i)
    s.graphs.push_back(
        {"unstructured-mix",
         {.size = 32, .size2 = 8, .seed = derive_seed(kGridSeed, streams::kGridMix + i)},
         {}});
  // Fisher-Yates with the benchmark's own seed streams, so the order does
  // not depend on the standard library's shuffle.
  for (std::size_t i = s.graphs.size() - 1; i > 0; --i)
    std::swap(s.graphs[i], s.graphs[derive_seed(seed, streams::kGridOrder + i) % (i + 1)]);
  s.procs = {1, 4, 16};
  s.policies = {core::ForkPolicy::FutureFirst, core::ForkPolicy::ParentFirst};
  s.cache_lines = {8, 64};
  s.seeds = 8;
  s.seed_base = derive_seed(kGridSeed, streams::kGridSchedule) % 1'000'000'007;
  s.stall_prob = 0.2;
  return s;
}

/// Inputs of the output checks, derived once per generated graph.
struct GraphInfo {
  bool structured = false;
  std::size_t nodes = 0;
};

struct Grid {
  std::vector<exp::SweepConfig> configs;
  std::vector<graphs::GeneratedDag> graphs;
  std::vector<GraphInfo> info;
};

/// Set-up of the grid: expand it, generate its graphs, build their layouts.
Grid setup_grid(const exp::SweepSpec& spec, Tracer& tracer) {
  Grid grid;
  {
    auto s = tracer.span("graphs.build");
    grid.configs = exp::expand_spec(spec);
    grid.graphs = exp::generate_graphs(spec);
  }
  auto s = tracer.span("layout.build");
  for (const auto& dag : grid.graphs) {
    const core::GraphLayout layout(dag.graph);
    grid.info.push_back({core::is_structured(dag.graph), layout.num_nodes()});
  }
  return grid;
}

/// One set-up takes ~11 ms, too short to time steadily on a shared host, so
/// a setup_s sample times kSetupReps set-ups in a row, each grid freed
/// before the next is built (the allocator then reuses the same pages
/// instead of faulting in new ones), and setup_s is the median of
/// kSetupSamples per-set-up averages.
constexpr int kSetupReps = 16;
constexpr int kSetupSamples = 7;

double setup_seconds(const exp::SweepSpec& spec, Tracer& tracer) {
  std::vector<double> samples;
  for (int k = 0; k < kSetupSamples; ++k) {
    const std::uint64_t t0 = now_ns();
    for (int r = 0; r < kSetupReps; ++r) setup_grid(spec, tracer);
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9 / kSetupReps);
  }
  return median(samples);
}

/// Sweep passes until `seconds` have elapsed (at least one); every pass must
/// reproduce the first pass's cells exactly. A pass over the grid is the
/// workload's job: what a user of the sweep waits for.
struct SweepPasses {
  std::uint64_t passes = 0;
  /// Pass time and simulated node executions, by window.
  Windows win{1, 1, false};
  std::vector<double> pass_us;
  exp::SweepResult first;
};

SweepPasses sweep_for(const exp::SweepSpec& spec, const Grid& grid, double seconds,
                      RunResult& res) {
  SweepPasses out;
  out.win = Windows(seconds, kWindows, false);
  std::uint64_t nodes = 0;
  for (const exp::SweepConfig& cfg : grid.configs)
    nodes += grid.info[cfg.graph_index].nodes * spec.seeds;
  exp::SweepRunOptions ro;
  ro.threads = 1;
  const auto end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    const std::uint64_t t0 = now_ns();
    exp::SweepResult r = exp::run_sweep(spec, ro);
    const double us = static_cast<double>(now_ns() - t0) * 1e-3;
    out.pass_us.push_back(us);
    out.win.add(us, nodes);
    out.win.tick();
    if (out.passes == 0) {
      out.first = std::move(r);
    } else {
      for (std::size_t i = 0; i < r.rows.size(); ++i) {
        const auto& a = r.rows[i].cell;
        const auto& b = out.first.rows[i].cell;
        res.check(a.deviations.sum() == b.deviations.sum() &&
                      a.additional_misses.sum() == b.additional_misses.sum() &&
                      a.steps.sum() == b.steps.sum(),
                  "sweep pass " + std::to_string(out.passes) +
                      " differs from the first at config " + std::to_string(i));
      }
    }
    ++out.passes;
  } while (now_ns() < end);
  out.win.finish();
  res.attempted += grid.configs.size() * out.passes;
  return out;
}

/// Re-runs every configuration through simulate_checked and compares its
/// totals with the sweep's cells.
SimTally check_grid(const exp::SweepSpec& spec, const Grid& grid,
                    const exp::SweepResult& sweep, RunResult& res) {
  SimTally total;
  for (std::size_t i = 0; i < grid.configs.size(); ++i) {
    const exp::SweepConfig& cfg = grid.configs[i];
    SimTally t;
    simulate_checked(grid.graphs[cfg.graph_index].graph, cfg.options,
                     spec.seed_base, spec.seeds,
                     grid.info[cfg.graph_index].structured, t, res);
    const exp::SweepCell& cell = sweep.rows[i].cell;
    res.check(static_cast<double>(t.deviations) == cell.deviations.sum() &&
                  static_cast<double>(t.additional_misses) ==
                      cell.additional_misses.sum() &&
                  static_cast<double>(t.steps) == cell.steps.sum(),
              "sweep cell " + std::to_string(i) + " (" + cfg.family +
                  ") disagrees with the checked re-run");
    total.runs += t.runs;
    total.node_execs += t.node_execs;
    total.deviations += t.deviations;
    total.additional_misses += t.additional_misses;
    total.steps += t.steps;
    total.steals += t.steals;
    total.steal_attempts += t.steal_attempts;
    total.accesses += t.accesses;
    total.misses += t.misses;
    total.sim_ns += t.sim_ns;
    total.dev_ns += t.dev_ns;
    total.cache_ns += t.cache_ns;
    total.cache_ops += t.cache_ops;
  }
  return total;
}

}  // namespace

void run_sim_grid(const Args& args, Tracer& tracer, RunResult& res) {
  const exp::SweepSpec spec = grid_spec(args.seed);
  Report& m = res.metrics;
  if (!args.trace) {
    // Peak RSS is read right after the measured phase, before the set-ups
    // timed for setup_s.
    const Grid grid = setup_grid(spec, tracer);
    const SweepPasses p = sweep_for(spec, grid, args.seconds, res);
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    const SimTally sim = check_grid(spec, grid, p.first, res);
    m.set("setup_s", setup_seconds(spec, tracer), "s");
    m.set("jobs_per_s", p.win.jobs_per_s(), "1/s");
    m.set("latency_p50_us", p.win.latency_p50_us(), "us");
    m.set("cpu_us_per_job", p.win.cpu_us_per_job(), "us");
    m.set("sim_nodes_per_s", p.win.nodes_per_s(), "1/s");
    m.set("sim_deviations", static_cast<double>(sim.deviations), "count");
    m.set("sim_additional_misses", static_cast<double>(sim.additional_misses), "count");
    m.set("sim_steps", static_cast<double>(sim.steps), "rounds");
    return;
  }

  // Traced run: one set-up with its spans, then half the time in sweep
  // passes. The passes carry no spans (the layer figures come from the
  // checked re-run below, timed directly), so tracing costs them nothing.
  const Grid grid = setup_grid(spec, tracer);
  const SweepPasses p = sweep_for(spec, grid, args.seconds / 2, res);

  // The sweep's own cost: a pass minus the same configurations run one by
  // one through exp::run_replicates (the per-configuration work the sweep
  // schedules).
  const std::uint64_t t0 = now_ns();
  for (const exp::SweepConfig& cfg : grid.configs)
    exp::run_replicates(grid.graphs[cfg.graph_index].graph, cfg.options,
                        spec.seed_base, spec.seeds);
  const double direct_us = static_cast<double>(now_ns() - t0) * 1e-3;
  const SimTally sim = check_grid(spec, grid, p.first, res);

  m.set("sweep.overhead_ms", (median(p.pass_us) - direct_us) * 1e-3, "ms");
  report_sim_layers(sim, m);
  m.set("graphs.build_ms", static_cast<double>(tracer.total_ns("graphs.build")) * 1e-6, "ms");
  m.set("layout.build_ms", static_cast<double>(tracer.total_ns("layout.build")) * 1e-6, "ms");
  m.set("ref.latency_p99_us", p.win.latency_p99_us(), "us");
  m.set("trace.overhead_pct", 0.0, "%");
  // The runtime pool, its replay layer and the open-loop generator are not
  // exercised by this workload.
  set_unused(m, {{"pool.admit_ns_per_job", "ns"},
                 {"pool.queue_p50_us", "us"},
                 {"pool.queue_p99_us", "us"},
                 {"pool.service_p50_us", "us"},
                 {"pool.fibers_created", "count"},
                 {"pool.steals_per_job", "count"},
                 {"pool.steal_attempts_per_job", "count"},
                 {"pool.steal_success_ratio", "ratio"},
                 {"pool.steal_backoffs_per_job", "count"},
                 {"pool.parked_touches_per_job", "count"},
                 {"pool.migrations_per_job", "count"},
                 {"replay.deviations_per_job", "count"},
                 {"generator.lag_p50_us", "us"},
                 {"generator.lag_p99_us", "us"}});
}

}  // namespace wsfbench

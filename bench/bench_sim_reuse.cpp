// Measures the Simulator reset/arena API: a counter-only replicate loop
// that recycles one simulator (reset per seed) versus constructing a fresh
// simulator per seed — the allocation traffic run_replicates used to pay
// on every sweep cell. Results must be identical; only the time differs.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "graphs/registry.hpp"
#include "sched/simulator.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace wsf;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "bench_sim_reuse — replicate-loop cost with and without the "
      "Simulator reset/arena API (counter-only runs, no traces)");
  auto& family = args.add_string("family", "forkjoin", "graph family");
  auto& size = args.add_int("size", 10, "primary size parameter");
  auto& size2 = args.add_int("size2", 6, "secondary size parameter");
  auto& procs = args.add_int("procs", 8, "simulated processors");
  auto& seeds = args.add_int("seeds", 200, "replicates per measurement");
  auto& stall = args.add_double("stall", 0.25, "stall probability");
  auto& format = args.add_string("format", "table", "table | csv | json");
  auto& out = args.add_string("out", "",
                              "write the rendered table to this file "
                              "instead of stdout");
  if (!args.parse(argc, argv)) return 0;
  WSF_REQUIRE(format.value == "table" || format.value == "csv" ||
                  format.value == "json",
              "unknown --format '" << format.value
                                   << "' (table | csv | json)");

  if (format.value == "table" && out.value.empty())
    bench::print_header(
        "bench_sim_reuse",
        "one sweep job recycles its simulator's pending/executed/deque "
        "allocations across seed replicates instead of reconstructing");

  graphs::RegistryParams params;
  params.size = static_cast<std::uint32_t>(size.value);
  params.size2 = static_cast<std::uint32_t>(size2.value);
  const auto gen = graphs::make_named(family.value, params);

  sched::SimOptions opts;
  opts.procs = static_cast<std::uint32_t>(procs.value);
  opts.stall_prob = stall.value;
  opts.record_trace = false;

  const auto n_seeds = static_cast<std::uint64_t>(seeds.value);

  // Fresh construction per seed (the pre-arena replicate loop).
  std::uint64_t fresh_steals = 0;
  const auto t_fresh = std::chrono::steady_clock::now();
  for (std::uint64_t seed = 1; seed <= n_seeds; ++seed) {
    sched::SimOptions per_seed = opts;
    per_seed.seed = seed;
    fresh_steals += sched::simulate(gen.graph, per_seed).steals;
  }
  const double fresh_ms = ms_since(t_fresh);

  // One simulator, reset per seed; run() still moves each result out.
  std::uint64_t warm_steals = 0;
  sched::SimOptions first = opts;
  first.seed = 1;
  const auto t_warm = std::chrono::steady_clock::now();
  {
    sched::Simulator sim(gen.graph, first);
    for (std::uint64_t seed = 1; seed <= n_seeds; ++seed) {
      if (seed != 1) sim.reset(seed);
      warm_steals += sim.run().steals;
    }
  }
  const double warm_ms = ms_since(t_warm);

  // The batched replicate loop run_replicates uses: one simulator, results
  // read in place, so even the per-run result vectors are recycled.
  std::uint64_t batch_steals = 0;
  const auto t_batch = std::chrono::steady_clock::now();
  {
    sched::Simulator sim(gen.graph, first);
    for (std::uint64_t seed = 1; seed <= n_seeds; ++seed) {
      if (seed != 1) sim.reset(seed);
      batch_steals += sim.run_in_place().steals;
    }
  }
  const double batch_ms = ms_since(t_batch);

  support::Table table({"variant", "nodes", "procs", "seeds", "total_ms",
                        "us_per_replicate", "total_steals"});
  const auto nodes = static_cast<std::uint64_t>(gen.graph.num_nodes());
  table.row()
      .add("construct-per-seed")
      .add(nodes)
      .add(static_cast<std::uint64_t>(opts.procs))
      .add(n_seeds)
      .add(fresh_ms)
      .add(fresh_ms * 1000.0 / static_cast<double>(n_seeds))
      .add(fresh_steals);
  table.row()
      .add("reset-arena")
      .add(nodes)
      .add(static_cast<std::uint64_t>(opts.procs))
      .add(n_seeds)
      .add(warm_ms)
      .add(warm_ms * 1000.0 / static_cast<double>(n_seeds))
      .add(warm_steals);
  table.row()
      .add("reset-arena+in-place")
      .add(nodes)
      .add(static_cast<std::uint64_t>(opts.procs))
      .add(n_seeds)
      .add(batch_ms)
      .add(batch_ms * 1000.0 / static_cast<double>(n_seeds))
      .add(batch_steals);
  if (format.value == "table" && out.value.empty()) {
    table.print("replicate-loop cost");
  } else {
    const std::string rendered = format.value == "csv"    ? table.to_csv()
                                 : format.value == "json" ? table.to_json()
                                                          : table.to_string();
    if (out.value.empty()) {
      std::fputs(rendered.c_str(), stdout);
    } else {
      std::ofstream file(out.value);
      WSF_REQUIRE(file.good(), "cannot open '" << out.value << "'");
      file << rendered;
      WSF_REQUIRE(file.good(), "write to '" << out.value << "' failed");
    }
  }

  const bool identical =
      warm_steals == fresh_steals && batch_steals == fresh_steals;
  if (format.value == "table" && out.value.empty())
    std::printf(
        "identical results: %s; arena speedup: %.2fx; batched speedup: "
        "%.2fx\n",
        identical ? "yes" : "NO (BUG)",
        warm_ms > 0 ? fresh_ms / warm_ms : 0.0,
        batch_ms > 0 ? fresh_ms / batch_ms : 0.0);
  return identical ? 0 : 1;
}

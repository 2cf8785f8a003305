// E9 — the Arora–Blumofe–Plaxton baseline the paper's proofs build on:
// parsimonious work stealing performs O(P·T∞) steals in expectation.
// The series is one declarative exp::SweepSpec; the per-family × per-P loop
// lives in the sweep runner, which executes the grid concurrently.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.hpp"
#include "core/bounds.hpp"
#include "exp/sweep.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace wsf;

int main(int argc, char** argv) {
  support::ArgParser args("bench_steal_scaling — steals = O(P·T∞)");
  auto& seeds = args.add_int("seeds", 10, "random schedules per row");
  auto& threads = args.add_int("threads", 0,
                               "sweep worker threads (0 = hardware)");
  auto& format = args.add_string("format", "table", "table | csv | json");
  auto& out = args.add_string("out", "",
                              "write the rendered table to this file "
                              "instead of stdout");
  auto& timing_out = args.add_string(
      "timing-out", "",
      "also write a wall-clock timing JSON (label, configs, seeds, "
      "elapsed_ms, configs_per_sec) to this file");
  auto& label = args.add_string("label", "current",
                                "label column for --timing-out rows");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "bench_steal_scaling: %s\n", e.what());
    return 2;
  }
  WSF_REQUIRE(format.value == "table" || format.value == "csv" ||
                  format.value == "json",
              "unknown --format '" << format.value
                                   << "' (table | csv | json)");

  if (format.value == "table" && out.value.empty())
    bench::print_header(
        "E9 — steal scaling (ABP baseline, Section 3)",
        "mean steals / (P·T∞) stays bounded as P and the DAG grow");

  exp::SweepSpec spec;
  spec.graphs = {
      {"forkjoin", {.size = 8, .size2 = 2}, {}},
      {"fib", {.size = 16}, {}},
      {"random-single-touch", {.size = 60}, {}},
      {"pipeline", {.size = 6, .size2 = 32}, {}},
  };
  spec.procs = {2, 4, 8, 16};
  spec.policies = {core::ForkPolicy::FutureFirst};
  spec.cache_lines = {0};
  spec.stall_prob = 0.1;
  spec.seeds = static_cast<std::uint64_t>(seeds.value);
  const auto t0 = std::chrono::steady_clock::now();
  const auto sweep =
      exp::run_sweep(spec, static_cast<unsigned>(threads.value));
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

  support::Table table({"family", "nodes", "T∞", "P", "mean steals",
                        "steals/(P*T)"});
  for (const auto& row : sweep.rows) {
    const auto procs = row.config.options.procs;
    const double steals = row.cell.steals.mean();
    table.row()
        .add(row.config.family)
        .add(static_cast<std::uint64_t>(row.cell.stats.nodes))
        .add(static_cast<std::uint64_t>(row.cell.stats.span))
        .add(static_cast<std::uint64_t>(procs))
        .add(steals)
        .add(steals / core::abp_steal_bound(procs, row.cell.stats.span));
  }
  // The timing side channel is separate from the result table on purpose:
  // the table is deterministic (diffed exactly across refactors), the
  // timing row is the machine-local perf trajectory the snapshot diff
  // tracks with a tolerance.
  if (!timing_out.value.empty()) {
    support::Table timing({"label", "configs", "seeds", "elapsed_ms",
                           "configs_per_sec"});
    const auto configs = static_cast<std::uint64_t>(sweep.rows.size());
    timing.row()
        .add(label.value)
        .add(configs)
        .add(static_cast<std::uint64_t>(seeds.value))
        .add(elapsed_ms)
        .add(elapsed_ms > 0
                 ? static_cast<double>(configs) * 1000.0 / elapsed_ms
                 : 0.0);
    std::ofstream tfile(timing_out.value);
    WSF_REQUIRE(tfile.good(), "cannot open '" << timing_out.value << "'");
    tfile << timing.to_json();
    WSF_REQUIRE(tfile.good(),
                "write to '" << timing_out.value << "' failed");
  }

  const std::string rendered = format.value == "csv"    ? table.to_csv()
                               : format.value == "json" ? table.to_json()
                                                        : table.to_string();
  if (out.value.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }
  std::ofstream file(out.value);
  WSF_REQUIRE(file.good(), "cannot open '" << out.value << "'");
  file << rendered;
  WSF_REQUIRE(file.good(), "write to '" << out.value << "' failed");
  return 0;
}

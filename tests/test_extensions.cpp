// Tests for the extension features: deviation chains (Theorem 8's proof
// object) and the structure ablation generator (Section 7).
#include <gtest/gtest.h>

#include "core/classify.hpp"
#include "core/deviation.hpp"
#include "core/traversal.hpp"
#include "graphs/fig6_controller.hpp"
#include "graphs/generators.hpp"
#include "sched/harness.hpp"

namespace wsf {
namespace {

using core::ForkPolicy;
using sched::SimOptions;

TEST(DeviationChains, Fig6aOneStealOneLongChain) {
  for (std::uint32_t m : {8u, 16u, 32u, 64u}) {
    auto gen = graphs::fig6a(m, 0);
    SimOptions opts;
    opts.procs = 2;
    opts.policy = ForkPolicy::FutureFirst;
    graphs::Fig6Controller ctrl;
    const auto r = sched::run_experiment(gen.graph, opts, &ctrl);
    ASSERT_EQ(r.par.steals, 1u) << "m=" << m;
    const auto chains =
        core::deviation_chains(gen.graph, r.deviations, r.par.stolen_nodes);
    ASSERT_EQ(chains.size(), 1u) << "m=" << m;
    // The chain walks the passing chain: x_1 … x_m (m touches).
    EXPECT_GE(chains[0].touches.size(), m - 2) << "m=" << m;
    EXPECT_LE(chains[0].touches.size(), m) << "m=" << m;
    // Chain touches must all be flagged deviations and form a path (each
    // deeper than the previous in topological position).
    for (core::NodeId x : chains[0].touches)
      EXPECT_TRUE(r.deviations.is_deviation[x]) << "m=" << m;
  }
}

TEST(DeviationChains, NoStealNoChains) {
  auto gen = graphs::fig6a(8, 0);
  SimOptions opts;
  opts.procs = 1;
  const auto r = sched::run_experiment(gen.graph, opts);
  const auto chains =
      core::deviation_chains(gen.graph, r.deviations, r.par.stolen_nodes);
  EXPECT_TRUE(chains.empty());
}

TEST(DeviationChains, BoundedBySpanOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    graphs::RandomDagParams gp;
    gp.seed = seed;
    gp.target_nodes = 800;
    const auto gen = graphs::random_single_touch(gp);
    const auto span = core::span(gen.graph);
    SimOptions opts;
    opts.procs = 4;
    opts.seed = seed;
    opts.stall_prob = 0.3;
    opts.policy = ForkPolicy::FutureFirst;
    const auto r = sched::run_experiment(gen.graph, opts);
    const auto chains =
        core::deviation_chains(gen.graph, r.deviations, r.par.stolen_nodes);
    EXPECT_EQ(chains.size(), r.par.steals) << "seed " << seed;
    for (const auto& c : chains)
      EXPECT_LE(c.touches.size(), span) << "seed " << seed;
  }
}

TEST(AblationMix, FullyStructuredIsSingleTouch) {
  const auto gen = graphs::unstructured_mix(12, 0.0, 8, 1);
  const auto rep = core::classify(gen.graph);
  EXPECT_TRUE(rep.structured);
  EXPECT_TRUE(rep.single_touch);
}

TEST(AblationMix, AnyEarlyConsumerBreaksStructure) {
  const auto check = [](std::uint32_t pairs, double frac,
                        std::uint32_t delay, std::uint64_t seed) {
    const auto gen = graphs::unstructured_mix(pairs, frac, delay, seed);
    const auto rep = core::classify(gen.graph);
    EXPECT_FALSE(rep.structured) << "frac=" << frac;
    EXPECT_FALSE(rep.single_touch) << "frac=" << frac;
    EXPECT_FALSE(rep.violations.empty()) << "frac=" << frac;
  };
  check(12, 1.0, 8, 1);
  // A quarter of the consumers forked early is already enough.
  for (double frac : {0.25, 0.5, 0.75}) check(24, frac, 16, 7);
}

TEST(AblationMix, PrematureTouchesTrackTheFraction) {
  // With frac = 0 no schedule produces premature checks; with frac = 1
  // thieving schedules do.
  std::uint64_t prem_structured = 0, prem_unstructured = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SimOptions opts;
    opts.procs = 4;
    opts.seed = seed;
    opts.stall_prob = 0.3;
    {
      const auto gen = graphs::unstructured_mix(16, 0.0, 16, 3);
      prem_structured +=
          sched::simulate(gen.graph, opts).premature_touches;
    }
    {
      const auto gen = graphs::unstructured_mix(16, 1.0, 16, 3);
      prem_unstructured +=
          sched::simulate(gen.graph, opts).premature_touches;
    }
  }
  EXPECT_EQ(prem_structured, 0u);
  EXPECT_GT(prem_unstructured, 0u);
}

TEST(AblationMix, ExecutesCompletelyUnderAnySchedule) {
  for (double frac : {0.0, 0.5, 1.0}) {
    const auto gen = graphs::unstructured_mix(10, frac, 6, 5);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SimOptions opts;
      opts.procs = 3;
      opts.seed = seed;
      opts.stall_prob = 0.2;
      const auto r = sched::simulate(gen.graph, opts);
      std::size_t total = 0;
      for (const auto& po : r.proc_orders) total += po.size();
      EXPECT_EQ(total, gen.graph.num_nodes());
    }
  }
}

TEST(StolenNodes, RecordedInStealOrder) {
  auto gen = graphs::binary_forkjoin_tree(6, 2);
  SimOptions opts;
  opts.procs = 8;
  opts.seed = 5;
  const auto r = sched::simulate(gen.graph, opts);
  EXPECT_EQ(r.stolen_nodes.size(), r.steals);
  // Every stolen node is a fork child (only fork children enter deques).
  for (core::NodeId v : r.stolen_nodes) {
    const auto& node = gen.graph.node(v);
    ASSERT_EQ(node.in_count, 1);
    EXPECT_TRUE(gen.graph.is_fork(node.in[0].node));
  }
}

}  // namespace
}  // namespace wsf

// Work-stealing simulator behaviour: determinism, work conservation, steal
// accounting, controllers, premature-touch detection (Figure 3 vs Figure 4).
#include <gtest/gtest.h>

#include "support/check.hpp"

#include "core/classify.hpp"
#include "graphs/generators.hpp"
#include "graphs/registry.hpp"
#include "sched/harness.hpp"
#include "sched/simulator.hpp"

namespace wsf {
namespace {

using core::ForkPolicy;
using sched::ScriptController;
using sched::SimOptions;
using sched::SimResult;

void expect_complete(const core::Graph& g, const SimResult& r) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::size_t total = 0;
  for (const auto& order : r.proc_orders) {
    for (core::NodeId v : order) {
      ASSERT_LT(v, g.num_nodes());
      EXPECT_FALSE(seen[v]) << "node " << v << " executed twice";
      seen[v] = 1;
      ++total;
    }
  }
  EXPECT_EQ(total, g.num_nodes());
  EXPECT_EQ(r.global_order.size(), g.num_nodes());
}

TEST(Simulator, ExecutesEveryNodeOnceAcrossProcs) {
  for (const auto& name : graphs::registry_names()) {
    graphs::RegistryParams p;
    p.size = 5;
    p.size2 = 3;
    const auto gen = graphs::make_named(name, p);
    SimOptions opts;
    opts.procs = 4;
    opts.seed = 11;
    opts.stall_prob = 0.2;
    const auto r = sched::simulate(gen.graph, opts);
    expect_complete(gen.graph, r);
  }
}

TEST(Simulator, ResetReproducesFreshConstruction) {
  const auto gen =
      graphs::make_named("fig6a", {.size = 5, .size2 = 3, .cache_lines = 4});
  SimOptions opts;
  opts.procs = 4;
  opts.cache_lines = 4;
  opts.stall_prob = 0.3;
  opts.seed = 3;
  // One reused simulator, reset per seed, must match a fresh construction
  // per seed bit for bit — run_replicates depends on this equivalence.
  sched::Simulator reused(gen.graph, opts);
  for (std::uint64_t seed = 3; seed < 8; ++seed) {
    if (seed != 3) reused.reset(seed);
    const SimResult warm = reused.run();
    opts.seed = seed;
    const SimResult fresh = sched::simulate(gen.graph, opts);
    EXPECT_EQ(warm.global_order, fresh.global_order);
    EXPECT_EQ(warm.proc_orders, fresh.proc_orders);
    EXPECT_EQ(warm.stolen_nodes, fresh.stolen_nodes);
    EXPECT_EQ(warm.steals, fresh.steals);
    EXPECT_EQ(warm.steal_attempts, fresh.steal_attempts);
    EXPECT_EQ(warm.failed_steals, fresh.failed_steals);
    EXPECT_EQ(warm.declined_steals, fresh.declined_steals);
    EXPECT_EQ(warm.idle_steps, fresh.idle_steps);
    EXPECT_EQ(warm.steps, fresh.steps);
    EXPECT_EQ(warm.misses_per_proc, fresh.misses_per_proc);
    EXPECT_EQ(warm.premature_touches, fresh.premature_touches);
  }
}

TEST(Simulator, ResetRequiresOwnedController) {
  const auto gen = graphs::fib_dag(6);
  SimOptions opts;
  opts.procs = 2;
  ScriptController script;
  sched::Simulator sim(gen.graph, opts, &script);
  // An external controller carries schedule state the simulator cannot
  // rewind, so reset must refuse rather than silently desynchronize.
  EXPECT_THROW(sim.reset(5), CheckError);
}

TEST(Simulator, DeterministicForSeed) {
  const auto gen = graphs::fib_dag(10);
  SimOptions opts;
  opts.procs = 4;
  opts.seed = 99;
  opts.stall_prob = 0.3;
  const auto a = sched::simulate(gen.graph, opts);
  const auto b = sched::simulate(gen.graph, opts);
  EXPECT_EQ(a.global_order, b.global_order);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.proc_orders, b.proc_orders);
}

TEST(Simulator, DifferentSeedsUsuallyDiffer) {
  const auto gen = graphs::fib_dag(10);
  SimOptions opts;
  opts.procs = 4;
  opts.stall_prob = 0.3;
  opts.seed = 1;
  const auto a = sched::simulate(gen.graph, opts);
  opts.seed = 2;
  const auto b = sched::simulate(gen.graph, opts);
  EXPECT_NE(a.global_order, b.global_order);
}

TEST(Simulator, StealAccountingConsistent) {
  const auto gen = graphs::binary_forkjoin_tree(6, 2);
  SimOptions opts;
  opts.procs = 8;
  opts.seed = 3;
  const auto r = sched::simulate(gen.graph, opts);
  EXPECT_EQ(r.steal_attempts, r.steals + r.failed_steals);
  EXPECT_GT(r.steals, 0u) << "8 procs on a tree should steal";
}

TEST(Simulator, RunTwiceRejected) {
  const auto gen = graphs::serial_chain(4);
  SimOptions opts;
  sched::Simulator sim(gen.graph, opts);
  (void)sim.run();
  EXPECT_THROW(sim.run(), CheckError);
}

TEST(Simulator, CacheMissesMatchSequentialWhenSerial) {
  const auto gen = graphs::fig6a(4, 4);
  SimOptions opts;
  opts.procs = 1;
  opts.cache_lines = 4;
  const auto seq = sched::run_sequential(gen.graph, opts);
  const auto par = sched::simulate(gen.graph, opts);
  EXPECT_EQ(par.total_misses(), seq.misses);
}

TEST(Simulator, MoreProcsStillComplete) {
  const auto gen = graphs::pipeline(3, 5, 0);
  for (std::uint32_t procs : {1u, 2u, 5u, 16u}) {
    SimOptions opts;
    opts.procs = procs;
    opts.seed = procs;
    const auto r = sched::simulate(gen.graph, opts);
    expect_complete(gen.graph, r);
  }
}

TEST(Simulator, TouchEnablePolicyChangesOrderOnPipelines) {
  // Under parent-first the consumer reaches its first touch before the
  // producer runs, so a producer node enables its continuation and the
  // waiting touch simultaneously — the case TouchEnable decides.
  const auto gen = graphs::pipeline(2, 4, 0);
  SimOptions a;
  a.policy = ForkPolicy::ParentFirst;
  a.touch_enable = sched::TouchEnable::TouchFirst;
  SimOptions b;
  b.policy = ForkPolicy::ParentFirst;
  b.touch_enable = sched::TouchEnable::ContinuationFirst;
  const auto ra = sched::run_sequential(gen.graph, a);
  const auto rb = sched::run_sequential(gen.graph, b);
  EXPECT_NE(ra.order, rb.order);
}

// ---------------------------------------------------------------------------
// Premature touches (Figure 3 vs Figure 4)
// ---------------------------------------------------------------------------

TEST(PrematureTouch, Fig3StolenConsumerChecksEarly) {
  const auto gen = graphs::fig3(8);
  SimOptions opts;
  opts.procs = 2;
  opts.policy = ForkPolicy::FutureFirst;
  ScriptController ctrl;
  ctrl.sleep_after("x", 1).prefer_victim(1, {0});
  const auto r = sched::simulate(gen.graph, opts, &ctrl);
  EXPECT_GT(r.premature_touches, 0u)
      << "the stolen consumer must check v1 before u1 spawns its future";
}

TEST(PrematureTouch, StructuredComputationsNeverCheckEarly) {
  for (const char* name : {"fig4", "fig5a", "fig5b", "fig6a", "fig6b",
                           "fig7a", "fig7b", "fig8", "forkjoin", "fib",
                           "pipeline", "future-chain",
                           "random-local-touch"}) {
    graphs::RegistryParams p;
    p.size = 4;
    p.size2 = 3;
    const auto gen = graphs::make_named(name, p);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SimOptions opts;
      opts.procs = 4;
      opts.seed = seed;
      opts.stall_prob = 0.25;
      const auto r = sched::simulate(gen.graph, opts);
      EXPECT_EQ(r.premature_touches, 0u) << name << " seed " << seed;
    }
  }
}

class RandomStructuredNoPremature : public ::testing::TestWithParam<int> {};

TEST_P(RandomStructuredNoPremature, Holds) {
  graphs::RandomDagParams p;
  p.seed = static_cast<std::uint64_t>(GetParam());
  p.target_nodes = 300;
  const auto gen = graphs::random_single_touch(p);
  SimOptions opts;
  opts.procs = 4;
  opts.seed = p.seed * 31 + 1;
  opts.stall_prob = 0.3;
  const auto r = sched::simulate(gen.graph, opts);
  EXPECT_EQ(r.premature_touches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStructuredNoPremature,
                         ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Round / steal accounting (regression tests for the counter semantics:
// every counted round is a full round, and declined steal attempts are
// separate from both sleep and real ABP attempts)
// ---------------------------------------------------------------------------

TEST(Accounting, SerialChainTakesExactlyOneRoundPerNode) {
  const std::size_t length = 5;
  const auto gen = graphs::serial_chain(length);
  SimOptions opts;
  opts.procs = 1;
  const auto r = sched::simulate(gen.graph, opts);
  EXPECT_EQ(r.steps, length);
  EXPECT_EQ(r.idle_steps, 0u);
  EXPECT_EQ(r.declined_steals, 0u);
  EXPECT_EQ(r.steal_attempts, 0u);
}

TEST(Accounting, TrailingProcessorsActInTheFinalRound) {
  // 3 processors on a serial chain: p0 executes one node per round while p1
  // and p2 each burn their turn on a declined steal attempt (ScriptController
  // declines when every other deque is empty) — in EVERY round, including
  // the final one. steps × (procs - 1) workless turns must all be counted.
  const std::size_t length = 5;
  const auto gen = graphs::serial_chain(length);
  SimOptions opts;
  opts.procs = 3;
  ScriptController ctrl;
  const auto r = sched::simulate(gen.graph, opts, &ctrl);
  EXPECT_EQ(r.steps, length);
  EXPECT_EQ(r.declined_steals, 2 * length);
  EXPECT_EQ(r.idle_steps, 0u);
  EXPECT_EQ(r.steal_attempts, 0u);
  EXPECT_EQ(r.failed_steals, 0u);
}

TEST(Accounting, AsleepRoundsCountAsIdleIncludingTheFinalRound) {
  const std::size_t length = 7;
  const auto gen = graphs::serial_chain(length);
  SimOptions opts;
  opts.procs = 2;
  ScriptController ctrl;
  ctrl.sleep_now(1);
  const auto r = sched::simulate(gen.graph, opts, &ctrl);
  EXPECT_EQ(r.steps, length);
  EXPECT_EQ(r.idle_steps, length);
  EXPECT_EQ(r.declined_steals, 0u);
}

TEST(Accounting, UniformVictimAttemptsOnEmptyDequesAreFailedSteals) {
  // Faithful ABP accounting: with steal_nonempty_only = false the random
  // controller always picks a real victim, so p1's workless turns are
  // steal *attempts* that fail, not declined rounds.
  const std::size_t length = 6;
  const auto gen = graphs::serial_chain(length);
  SimOptions opts;
  opts.procs = 2;
  opts.steal_nonempty_only = false;
  const auto r = sched::simulate(gen.graph, opts);
  EXPECT_EQ(r.steps, length);
  EXPECT_EQ(r.steal_attempts, length);
  EXPECT_EQ(r.failed_steals, length);
  EXPECT_EQ(r.steals, 0u);
  EXPECT_EQ(r.declined_steals, 0u);
  EXPECT_EQ(r.idle_steps, 0u);
}

TEST(Accounting, ProcessorRoundGridIsConsistent) {
  // Over any run, each processor takes exactly one action per round:
  // executions + pops-that-execute + steal attempts + declines + asleep
  // rounds == steps × procs. Executions and pops both end in execute(), so
  // nodes + attempts + declines + idle == steps × procs exactly.
  const auto gen = graphs::binary_forkjoin_tree(6, 2);
  for (const double stall : {0.0, 0.3}) {
    SimOptions opts;
    opts.procs = 8;
    opts.seed = 5;
    opts.stall_prob = stall;
    const auto r = sched::simulate(gen.graph, opts);
    EXPECT_EQ(gen.graph.num_nodes() + r.steal_attempts + r.declined_steals +
                  r.idle_steps,
              r.steps * opts.procs)
        << "stall=" << stall;
  }
}

TEST(Accounting, BitIdenticalResultForSameSeed) {
  const auto gen = graphs::make_named("fig6b", {.size = 3, .size2 = 4,
                                                .cache_lines = 4});
  SimOptions opts;
  opts.procs = 4;
  opts.seed = 1234;
  opts.stall_prob = 0.25;
  opts.cache_lines = 4;
  const auto a = sched::simulate(gen.graph, opts);
  const auto b = sched::simulate(gen.graph, opts);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.steal_attempts, b.steal_attempts);
  EXPECT_EQ(a.failed_steals, b.failed_steals);
  EXPECT_EQ(a.declined_steals, b.declined_steals);
  EXPECT_EQ(a.idle_steps, b.idle_steps);
  EXPECT_EQ(a.premature_touches, b.premature_touches);
  EXPECT_EQ(a.global_order, b.global_order);
  EXPECT_EQ(a.proc_orders, b.proc_orders);
  EXPECT_EQ(a.executed_by, b.executed_by);
  EXPECT_EQ(a.stolen_nodes, b.stolen_nodes);
  EXPECT_EQ(a.misses_per_proc, b.misses_per_proc);
}

TEST(Accounting, TraceRecordingOffKeepsCountersAndSkipsTraces) {
  const auto gen = graphs::fib_dag(12);
  SimOptions opts;
  opts.procs = 4;
  opts.seed = 77;
  opts.stall_prob = 0.2;
  const auto with = sched::simulate(gen.graph, opts);
  opts.record_trace = false;
  const auto without = sched::simulate(gen.graph, opts);

  EXPECT_TRUE(without.proc_orders.empty());
  EXPECT_TRUE(without.global_order.empty());
  EXPECT_TRUE(without.executed_by.empty());
  EXPECT_TRUE(without.stolen_nodes.empty());

  // Recording must not perturb the schedule: every counter matches.
  EXPECT_EQ(without.steps, with.steps);
  EXPECT_EQ(without.steals, with.steals);
  EXPECT_EQ(without.steal_attempts, with.steal_attempts);
  EXPECT_EQ(without.failed_steals, with.failed_steals);
  EXPECT_EQ(without.declined_steals, with.declined_steals);
  EXPECT_EQ(without.idle_steps, with.idle_steps);
  EXPECT_EQ(without.misses_per_proc, with.misses_per_proc);
}

// ---------------------------------------------------------------------------
// ScriptController behaviour
// ---------------------------------------------------------------------------

TEST(ScriptController, UnknownRoleRejected) {
  const auto gen = graphs::serial_chain(4);
  SimOptions opts;
  opts.procs = 2;
  ScriptController ctrl;
  ctrl.sleep_after("no-such-role", 1);
  EXPECT_THROW(sched::simulate(gen.graph, opts, &ctrl), CheckError);
}

TEST(ScriptController, SleepNowKeepsProcessorIdle) {
  const auto gen = graphs::binary_forkjoin_tree(4, 1);
  SimOptions opts;
  opts.procs = 2;
  ScriptController ctrl;
  ctrl.sleep_now(1);
  const auto r = sched::simulate(gen.graph, opts, &ctrl);
  EXPECT_TRUE(r.proc_orders[1].empty());
  EXPECT_EQ(r.proc_orders[0].size(), gen.graph.num_nodes());
}

TEST(ScriptController, VictimPreferenceHonored) {
  const auto gen = graphs::binary_forkjoin_tree(5, 2);
  SimOptions opts;
  opts.procs = 3;
  ScriptController ctrl;
  ctrl.prefer_victim(1, {0}).prefer_victim(2, {0});
  const auto r = sched::simulate(gen.graph, opts, &ctrl);
  EXPECT_GT(r.steals, 0u);
}

}  // namespace
}  // namespace wsf

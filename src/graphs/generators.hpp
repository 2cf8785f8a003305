// Parameterized generators for every DAG construction in the paper plus the
// generic families (fork-join trees, pipelines, random structured DAGs) used
// by tests and benches. Each generator documents its mapping to the paper's
// figure and the schedule that realizes the claimed behaviour.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graphs/generated.hpp"

namespace wsf::graphs {

// ---------------------------------------------------------------------------
// Generic families
// ---------------------------------------------------------------------------

/// Single-thread chain of `length` nodes (no futures at all). Sanity baseline.
GeneratedDag serial_chain(std::size_t length);

/// Perfect binary fork-join tree of the given depth; each leaf is a chain of
/// `leaf_work` nodes. Cilk-style (spawn left subtree, run right inline, then
/// join). Structured single-touch, local-touch, and fork-join.
GeneratedDag binary_forkjoin_tree(std::uint32_t depth,
                                  std::uint32_t leaf_work = 1);

/// The fib(n) recursion DAG (spawn fib(n-1), run fib(n-2) inline, join, add).
GeneratedDag fib_dag(std::uint32_t n);

/// Future-passing chain — the paper's Figure 5(b) pattern iterated m times,
/// and the engine of our Theorem 9 lower bound (see fig6a below): the main
/// thread forks threads t_1 … t_m; each t_j's future is touched inside
/// t_{j+1} (passed to the next thread), t_m's inside the main thread. With
/// `cache_lines` = C > 0 the nodes are annotated with the m1…m{C+1} block
/// pattern that makes one steal cost Θ(m·C) additional misses under
/// future-first; with C = 0 the graph is block-free and one steal costs
/// Θ(m) deviations. `rest_len` pads t_j bodies when C = 0.
///
/// Roles: "f[j]" (fork of t_j), "g" (main spacer), "x[j]" (touch of t_j),
/// "s[j]" (first node of t_j), "r[j]" (last node of t_j).
GeneratedDag future_chain(std::uint32_t m, std::uint32_t rest_len,
                          std::size_t cache_lines);

/// Local-touch pipeline (Definition 3; Blelloch & Reid-Miller style): stage
/// threads are nested (stage s forks stage s+1), stage s+1 produces `items`
/// futures that stage s touches in order. Multi-future producer threads with
/// interior future parents; structured local-touch but not single-touch.
/// With cache_lines = C > 0, item i of stage s accesses block
/// (s*items + i) mod (C+1) to create reuse across stages.
GeneratedDag pipeline(std::uint32_t stages, std::uint32_t items,
                      std::size_t cache_lines = 0);

// ---------------------------------------------------------------------------
// Random structured families (property tests, Theorem 8/12 expectations)
// ---------------------------------------------------------------------------

struct RandomDagParams {
  std::uint64_t seed = 1;
  /// Approximate number of nodes to generate.
  std::size_t target_nodes = 400;
  /// Maximum thread-nesting depth.
  std::uint32_t max_depth = 8;
  /// Probability that a thread step forks a future thread.
  double fork_prob = 0.25;
  /// Probability that an owned future is passed to the next spawned child
  /// instead of touched locally (exercises Figure 5(b) passing).
  double pass_prob = 0.3;
  /// When true, touches happen in random (non-LIFO) order — still
  /// single-touch but not fork-join (Figure 5(a)).
  bool shuffle_touch_order = true;
  /// Number of distinct memory blocks to scatter over nodes (0 = none).
  std::size_t blocks = 0;
  /// Fraction of threads left untouched so that finish_super() gives them
  /// the super final node as their only touch (Definition 13). 0 disables
  /// the super final node entirely.
  double side_effect_prob = 0.0;
};

/// Random structured single-touch computation (Definition 2), optionally
/// with a super final node (Definition 13) when side_effect_prob > 0.
GeneratedDag random_single_touch(const RandomDagParams& params);

/// Random structured local-touch computation (Definition 3): every future
/// thread is a (possibly multi-future) producer touched only by its parent.
GeneratedDag random_local_touch(const RandomDagParams& params);

// ---------------------------------------------------------------------------
// Paper constructions
// ---------------------------------------------------------------------------

/// Figure 2 / Figure 7(a): structured single-touch DAG where ONE touch (the
/// touch v of future thread {s}) costs Ω(C·T∞) additional misses under the
/// parent-first policy. Main thread: u1 (forks {s}) → u2 → u3 → u4 →
/// x_1…x_n (each forking a C-node block-scan thread Z_i) → v (touch of s) →
/// y_n … y_1 (touches of Z_n … Z_1). Blocks: x_i→m1, Z_i→m1…mC, y_i→m{C+1}.
/// Sequential parent-first: Z's run before v ⇒ O(C) misses. If a thief
/// steals s early (roles "s"), v unblocks before the Z's ⇒ the y_i/Z_i
/// alternation thrashes: n deviations and Ω(C·n) additional misses.
GeneratedDag fig7a(std::uint32_t n, std::size_t cache_lines);

/// Figure 7(b): parity chain of k stages in front of a fig7a tail. One steal
/// of s_1 at the very beginning flips the execution parity of every stage
/// (w_i vs s_i order) and arrives at the tail in the deviated state:
/// Ω(T∞) deviations and Ω(C·T∞) additional misses from a single steal.
/// k is rounded up to even (the paper's requirement).
GeneratedDag fig7b(std::uint32_t k, std::uint32_t n,
                   std::size_t cache_lines);

/// Figure 8: binary tree of parity stages of the given depth (t = Θ(2^depth)
/// touches), each leaf ending in a fig7a tail. One steal at the root makes
/// every leaf arrive deviated: Ω(t·T∞) deviations, Ω(C·t·T∞) additional
/// misses, while the sequential execution incurs O(C + t) misses.
GeneratedDag fig8(std::uint32_t depth, std::uint32_t n,
                  std::size_t cache_lines);

/// Figure 3: an *unstructured* computation where touches can be checked
/// before their future threads are spawned. The root forks a consumer
/// thread [x → v1 → v2] whose touches v1, v2 consume futures that the main
/// thread only forks after a delay chain of `delay` nodes. Violates
/// Definition 1 (the classifier reports it); a thief that steals x reaches
/// the touches prematurely (SimResult::premature_touches > 0).
GeneratedDag fig3(std::uint32_t delay);

/// Figure 4: the structured counterpart of fig3 — same two futures, but the
/// touches live in the main thread after both forks. `lifo_touch_order`
/// selects fork-join (touch v2 then v1) or the non-LIFO order (still
/// structured single-touch; not fork-join).
GeneratedDag fig4(std::uint32_t delay, bool lifo_touch_order);

/// Figure 5(a): a thread creates `count` futures and touches them in the
/// given order (a permutation of 0…count-1). Any order is structured
/// single-touch; only the reverse order is fork-join.
GeneratedDag fig5a(const std::vector<std::uint32_t>& touch_order);

/// Figure 5(b): MethodB/MethodC — a future is created by the main thread and
/// passed to a second future thread, which touches it. Structured
/// single-touch, not local-touch, not fork-join.
GeneratedDag fig5b(std::uint32_t body_len);

/// Figure 6(a)-equivalent: one future_chain gadget with cache annotations.
/// Under future-first, ONE steal yields Θ(m) deviations and Θ(m·C)
/// additional misses while the sequential execution incurs O(m + C) misses.
/// (See DESIGN.md for the mapping between the paper's drawing and this
/// certified-single-touch realization.)
GeneratedDag fig6a(std::uint32_t m, std::size_t cache_lines);

/// Figure 6(b): a spine of k fig6a gadget threads. k gadget dances (3
/// processors, self-organizing via Fig6Controller) give Θ(k·m) deviations
/// with span Θ(k + m·C'): with m = k this is Θ(T∞²) deviations for constant
/// P — the paper's Figure 6(b).
GeneratedDag fig6b(std::uint32_t k, std::uint32_t m,
                   std::size_t cache_lines);

/// Figure 6(c): a binary fork tree spawning `groups` fig6b spines evaluated
/// in parallel by 3·groups processors: Θ(groups·k·m) = Ω(P·T∞²) deviations.
GeneratedDag fig6c(std::uint32_t groups, std::uint32_t k, std::uint32_t m,
                   std::size_t cache_lines);

// ---------------------------------------------------------------------------
// Ablation (Section 7 — "how far can these restrictions be weakened?")
// ---------------------------------------------------------------------------

/// Interpolates between Figure 4 (structured) and Figure 3 (unstructured):
/// `pairs` producer/consumer pairs of which a seeded random fraction
/// `unstructured_frac` has the consumer forked *before* its producer
/// (so its touch can be checked before the future thread is spawned).
/// With frac = 0 the DAG is structured single-touch; any early consumer
/// makes the classifier reject it and premature touches appear under
/// thieving schedules (test_extensions AblationMix.* checks fractions
/// from 0 to 1).
GeneratedDag unstructured_mix(std::uint32_t pairs, double unstructured_frac,
                              std::uint32_t delay, std::uint64_t seed);

}  // namespace wsf::graphs

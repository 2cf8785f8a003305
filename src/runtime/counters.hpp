// Software performance counters for the runtime — the "perf counters" side
// of the reproduction: they surface the schedule-structure quantities the
// paper reasons about (steals, parked touches, continuation migrations)
// without requiring hardware PMUs.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wsf::runtime {

/// A relaxed-atomic event counter. Each cell is written by exactly one
/// worker — its owner — and only ever *read* from other threads
/// (Scheduler::counters / reset_counters snapshot it; they never write the
/// live cell), so plain uint64_t would be a data race on the read side;
/// relaxed atomics make the cross-thread snapshot well-defined without
/// ordering cost on the hot increment paths. The increments are
/// deliberately not RMW (see below), so the single-writer invariant is
/// load-bearing: a second writer would lose updates. Copyable (unlike
/// std::atomic) so counter structs can be snapshotted into a
/// CountersReport by value.
class RelaxedCounter {
 public:
  RelaxedCounter() noexcept = default;
  RelaxedCounter(const RelaxedCounter& o) noexcept : v_(o.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    // relaxed: counters are statistics — snapshots tolerate skew between
    // cells; exactness holds at quiescence (see the class comment).
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(std::uint64_t v) noexcept {
    // relaxed: same statistics contract as above.
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  std::uint64_t load() const noexcept {
    // relaxed: atomicity (no torn reads) is all a cross-thread snapshot
    // needs; no payload is published through a counter value.
    return v_.load(std::memory_order_relaxed);
  }
  operator std::uint64_t() const noexcept { return load(); }
  // Increments are load+store, not fetch_add: each cell has a single
  // writer (its worker), so the RMW's atomicity is never needed and these
  // compile to a plain add — the counters sit on scheduling hot paths the
  // benchmarks measure. Cross-thread reads/resets stay well-defined.
  RelaxedCounter& operator++() noexcept { return *this += 1; }
  std::uint64_t operator++(int) noexcept {
    const std::uint64_t old = load();
    // relaxed: single-writer (see above), so load+store cannot lose an
    // update and needs no ordering.
    v_.store(old + 1, std::memory_order_relaxed);
    return old;
  }
  RelaxedCounter& operator+=(std::uint64_t d) noexcept {
    // relaxed: single-writer load+store, as above.
    v_.store(load() + d, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Per-worker counters, cache-line padded; aggregated by Counters::total().
///
/// The work-acquisition counters reconcile exactly at quiescence (each cell
/// written by its single owner, every job consumed):
///   * every deque/inbox-sourced job was obtained exactly one way:
///       local_pops + inbox_takes + steals
///         == (tasks_run - inline_children) + resumes
///     (`steals` counts steal *operations*, each yielding the one job the
///     thief runs directly; under StealPolicy::Half the extra
///     `batch_stolen_items` go onto the thief's own deque uncounted —
///     like take_injected's admission batching — and are later acquired
///     as local_pops, so the identity closes unchanged. Jobs moved out of
///     other workers' deques total steals + batch_stolen_items.)
///   * every Resume job that was created was executed:
///       resumes == continuations_pushed + wakes_pushed
///   * every park is resolved by exactly one wake:
///       parked_touches == handoff_runs + wakes_pushed
///   * every fiber activation has one source:
///       fiber_resumes == tasks_run + resumes + handoff_runs
/// tests/test_runtime.cpp (Accounting suite) asserts all four.
///
/// `shed` (jobs dropped past their deadline at inbox take-time) touches
/// none of the acquisition counters — a shed job is popped from the inbox
/// but never counted as an inbox_take and never runs — so the identities
/// above close unchanged, and the admission-level identity
///   admitted == completed + shed
/// closes against Scheduler::admission() at quiescence. The submit-side
/// admission counters (rejected, timed_out, blocked_us) live on the
/// Scheduler as true RMW atomics, NOT here: they are written by arbitrary
/// submitter threads, which would break this struct's single-writer
/// load+store contract.
struct alignas(64) WorkerCounters {
  RelaxedCounter spawns;
  RelaxedCounter tasks_run;
  RelaxedCounter steals;
  RelaxedCounter steal_attempts;
  RelaxedCounter touches;
  /// Touches that found the future unresolved and parked the consumer — a
  /// deviation-producing event in the paper's model.
  RelaxedCounter parked_touches;
  /// Producer finished with a parked consumer and switched to it directly
  /// (the TouchFirst/eager-resume rule).
  RelaxedCounter direct_handoffs;
  /// Continuations resumed on a different worker than the one that
  /// suspended them (migrations — the locality hazard).
  RelaxedCounter migrations;
  RelaxedCounter fibers_created;
  RelaxedCounter stacks_reused;
  /// Jobs obtained by popping the bottom of the worker's own deque.
  RelaxedCounter local_pops;
  /// Jobs taken from the scheduler inbox (one per Scheduler::run call).
  RelaxedCounter inbox_takes;
  /// Resume jobs executed (suspended fibers continued from a deque).
  RelaxedCounter resumes;
  /// Future-first children run directly, without ever entering a deque.
  RelaxedCounter inline_children;
  /// Fibers run directly from a handoff: a parked consumer woken by its
  /// producer, or the immediate wake after a lost park race.
  RelaxedCounter handoff_runs;
  /// Resume jobs created for suspended continuations (future-first spawns
  /// and touch-first yields).
  RelaxedCounter continuations_pushed;
  /// Parked fibers woken by pushing a Resume job instead of a handoff
  /// (continuation-first wakes and lost-park fallbacks).
  RelaxedCounter wakes_pushed;
  /// Context switches into a fiber (the replay layer's "fiber switches"
  /// measure).
  RelaxedCounter fiber_resumes;
  /// Jobs this worker shed at inbox take-time because their deadline had
  /// expired before they started (they never ran; see the class comment
  /// for how this reconciles with the acquisition identities).
  RelaxedCounter shed;
  /// Steal operations that claimed two or more items (StealPolicy::Half
  /// batches; a batch that got exactly one item is just a steal).
  RelaxedCounter batch_steals;
  /// Items claimed *beyond the first* across all batch steals. The first
  /// item of every successful steal op is counted in `steals`; these
  /// extras land on the thief's deque and reconcile as later local_pops
  /// (see the class comment).
  RelaxedCounter batch_stolen_items;
  /// Parks of a worker that has victims (num_workers() > 1): a failed
  /// steal streak outlasted the idle spin and the worker blocked on the
  /// scheduler's work epoch. Always zero in a 1-worker pool.
  RelaxedCounter steal_backoffs;

  WorkerCounters& operator+=(const WorkerCounters& o);
  /// Field-wise saturating difference, for reporting counts since a
  /// baseline snapshot. Saturation (rather than wrap) bounds the damage if
  /// a snapshot races a concurrent rebaseline.
  WorkerCounters& operator-=(const WorkerCounters& o);
};

// ---- false-sharing audit (compile-time) ----
// Each worker's counter block must start on its own cache line and occupy
// whole lines, so one worker's single-writer increments never invalidate a
// neighbour's counters (the blocks sit contiguously in Scheduler::baseline_
// and CountersReport::per_worker). The increments compile to plain adds
// (see RelaxedCounter); these asserts keep the layout half of that bargain.
static_assert(sizeof(RelaxedCounter) == sizeof(std::uint64_t),
              "RelaxedCounter must stay a bare counter word");
static_assert(alignof(WorkerCounters) == 64,
              "WorkerCounters must be cache-line aligned");
static_assert(sizeof(WorkerCounters) % 64 == 0,
              "WorkerCounters must occupy whole cache lines");

/// live − baseline, field-wise saturating — the delta of one measurement
/// window (a job, a bench phase) against a snapshot taken at its start.
/// The per-job counter reports the scheduler attaches to JobHandles are
/// built from this, one call per worker.
WorkerCounters counters_since(const WorkerCounters& live,
                              const WorkerCounters& baseline);

/// Aggregates and pretty-prints a set of worker counters.
struct CountersReport {
  std::vector<WorkerCounters> per_worker;
  WorkerCounters total() const;
  std::string to_string() const;
};

}  // namespace wsf::runtime

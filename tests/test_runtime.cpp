// End-to-end tests of the fiber-based work-stealing futures runtime, under
// both spawn policies.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "runtime/pool.hpp"
#include "support/check.hpp"

namespace wsf::runtime {
namespace {

std::uint64_t fib_seq(std::uint64_t n) {
  return n < 2 ? n : fib_seq(n - 1) + fib_seq(n - 2);
}

std::uint64_t fib_par(std::uint64_t n) {
  if (n < 10) return fib_seq(n);
  auto left = spawn([n] { return fib_par(n - 1); });
  const std::uint64_t right = fib_par(n - 2);
  return left.touch() + right;
}

class RuntimeBothPolicies : public ::testing::TestWithParam<SpawnPolicy> {};

TEST_P(RuntimeBothPolicies, FibIsCorrect) {
  RuntimeOptions opts;
  opts.workers = 4;
  opts.policy = GetParam();
  Scheduler sched(opts);
  EXPECT_EQ(sched.run([] { return fib_par(20); }), 6765u);
}

TEST_P(RuntimeBothPolicies, NestedSpawnsDeep) {
  RuntimeOptions opts;
  opts.workers = 3;
  opts.policy = GetParam();
  Scheduler sched(opts);
  // A chain of 300 nested spawns; each level touches its child.
  std::function<int(int)> deep = [&deep](int depth) -> int {
    if (depth == 0) return 1;
    auto f = spawn([&deep, depth] { return deep(depth - 1); });
    return f.touch() + 1;
  };
  EXPECT_EQ(sched.run([&] { return deep(300); }), 301);
}

TEST_P(RuntimeBothPolicies, ManyIndependentFutures) {
  RuntimeOptions opts;
  opts.workers = 4;
  opts.policy = GetParam();
  Scheduler sched(opts);
  const int result = sched.run([] {
    std::vector<Future<int>> futures;
    for (int i = 0; i < 200; ++i)
      futures.push_back(spawn([i] { return i; }));
    int sum = 0;
    for (auto& f : futures) sum += f.touch();
    return sum;
  });
  EXPECT_EQ(result, 199 * 200 / 2);
}

TEST_P(RuntimeBothPolicies, OutOfOrderTouches) {
  // Figure 5(a): touch futures in priority (non-LIFO) order.
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = GetParam();
  Scheduler sched(opts);
  const std::string result = sched.run([] {
    auto a = spawn([] { return std::string("a"); });
    auto b = spawn([] { return std::string("b"); });
    auto c = spawn([] { return std::string("c"); });
    return c.touch() + a.touch() + b.touch();
  });
  EXPECT_EQ(result, "cab");
}

TEST_P(RuntimeBothPolicies, FuturePassing) {
  // Figure 5(b): a future is passed into another spawned task, which
  // touches it.
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = GetParam();
  Scheduler sched(opts);
  const int result = sched.run([] {
    auto x = spawn([] { return 21; });
    auto y = spawn([x = std::move(x)]() mutable { return x.touch() * 2; });
    return y.touch();
  });
  EXPECT_EQ(result, 42);
}

TEST_P(RuntimeBothPolicies, VoidFutures) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = GetParam();
  Scheduler sched(opts);
  std::atomic<int> hits{0};
  sched.run([&] {
    auto f = spawn([&] { hits.fetch_add(1); });
    f.touch();
  });
  EXPECT_EQ(hits.load(), 1);
}

TEST_P(RuntimeBothPolicies, SideEffectTasksFinishBeforeRunReturns) {
  // Futures never touched — the runtime analogue of super-final-node
  // computations (Definition 13): run() waits for quiescence.
  RuntimeOptions opts;
  opts.workers = 4;
  opts.policy = GetParam();
  Scheduler sched(opts);
  std::atomic<int> done{0};
  sched.run([&] {
    for (int i = 0; i < 50; ++i)
      (void)spawn([&done] { done.fetch_add(1); });
  });
  EXPECT_EQ(done.load(), 50);
}

TEST_P(RuntimeBothPolicies, ExceptionsPropagateThroughTouch) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = GetParam();
  Scheduler sched(opts);
  EXPECT_THROW(sched.run([] {
    auto f = spawn([]() -> int { throw std::runtime_error("boom"); });
    return f.touch();
  }),
               std::runtime_error);
}

TEST_P(RuntimeBothPolicies, RunCanBeCalledRepeatedly) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = GetParam();
  Scheduler sched(opts);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(sched.run([round] {
      auto f = spawn([round] { return round * 2; });
      return f.touch();
    }),
              round * 2);
  }
}

TEST_P(RuntimeBothPolicies, MoveOnlyResults) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = GetParam();
  Scheduler sched(opts);
  auto result = sched.run([] {
    auto f = spawn([] { return std::make_unique<int>(7); });
    return f.touch();
  });
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(*result, 7);
}

INSTANTIATE_TEST_SUITE_P(Policies, RuntimeBothPolicies,
                         ::testing::Values(SpawnPolicy::FutureFirst,
                                           SpawnPolicy::ParentFirst),
                         [](const auto& param_info) {
                           return param_info.param == SpawnPolicy::FutureFirst
                                      ? "FutureFirst"
                                      : "ParentFirst";
                         });

TEST(Runtime, DoubleTouchRejected) {
  Scheduler sched({.workers = 2});
  EXPECT_THROW(sched.run([] {
    auto f = spawn([] { return 1; });
    (void)f.touch();
    return f.touch();  // single-touch violation
  }),
               CheckError);
}

TEST(Runtime, TouchOfEmptyHandleRejected) {
  Scheduler sched({.workers = 2});
  EXPECT_THROW(sched.run([] {
    Future<int> f;
    return f.touch();
  }),
               CheckError);
}

TEST(Runtime, SpawnOutsidePoolRejected) {
  EXPECT_THROW((void)spawn([] { return 1; }), CheckError);
}

TEST(Runtime, SingleWorkerStillCorrect) {
  Scheduler sched({.workers = 1});
  EXPECT_EQ(sched.run([] { return fib_par(16); }), 987u);
}

TEST(Runtime, CountersAccumulate) {
  RuntimeOptions opts;
  opts.workers = 4;
  Scheduler sched(opts);
  sched.reset_counters();
  (void)sched.run([] { return fib_par(18); });
  const auto total = sched.counters().total();
  EXPECT_GT(total.spawns, 0u);
  EXPECT_EQ(total.tasks_run, total.spawns + 1);  // + the root task
  EXPECT_GT(total.touches, 0u);
  EXPECT_GE(total.fibers_created + total.stacks_reused, total.tasks_run);
}

TEST(Runtime, FutureFirstRunsChildInline) {
  // Under future-first with one worker and no thief, the child must run to
  // completion before the parent resumes: the touch never parks.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.policy = SpawnPolicy::FutureFirst;
  Scheduler sched(opts);
  sched.reset_counters();
  sched.run([] {
    for (int i = 0; i < 32; ++i) {
      auto f = spawn([i] { return i; });
      WSF_CHECK(f.ready(), "future-first child must be done at touch time");
      (void)f.touch();
    }
  });
  EXPECT_EQ(sched.counters().total().parked_touches, 0u);
}

TEST(Runtime, ParentFirstParksOnSingleWorker) {
  // Under parent-first with one worker, the child sits in the deque when
  // the parent touches: every touch parks once.
  RuntimeOptions opts;
  opts.workers = 1;
  opts.policy = SpawnPolicy::ParentFirst;
  Scheduler sched(opts);
  sched.reset_counters();
  sched.run([] {
    for (int i = 0; i < 32; ++i) {
      auto f = spawn([i] { return i; });
      (void)f.touch();
    }
  });
  EXPECT_EQ(sched.counters().total().parked_touches, 32u);
  EXPECT_EQ(sched.counters().total().direct_handoffs, 32u);
}

// Mirror of the PR 2 simulator Accounting suite for the runtime's
// WorkerCounters: the work-acquisition and park/wake counters must
// reconcile exactly with the tasks that ran, at quiescence, under both
// policies and various worker counts (see counters.hpp for the
// identities).
class Accounting : public ::testing::TestWithParam<SpawnPolicy> {
 protected:
  static void expect_reconciled(const WorkerCounters& t,
                                std::uint64_t runs) {
    // Every closure that ran was either spawned or injected by run().
    EXPECT_EQ(t.tasks_run, t.spawns + runs);
    EXPECT_EQ(t.inbox_takes, runs);
    // Every deque/inbox-sourced job was obtained exactly one way: pop of
    // the own deque bottom, inbox take, or steal — and those jobs are
    // exactly the non-inline fresh tasks plus the executed Resume jobs.
    EXPECT_EQ(t.local_pops + t.inbox_takes + t.steals,
              (t.tasks_run - t.inline_children) + t.resumes);
    // Every Resume job that was created was executed.
    EXPECT_EQ(t.resumes, t.continuations_pushed + t.wakes_pushed);
    // Every park resolves through exactly one handoff or one deque wake.
    EXPECT_EQ(t.parked_touches, t.handoff_runs + t.wakes_pushed);
    // Every fiber activation has one source: a fresh task, a Resume job,
    // or a handoff.
    EXPECT_EQ(t.fiber_resumes, t.tasks_run + t.resumes + t.handoff_runs);
  }
};

TEST_P(Accounting, ReconcilesOnFib) {
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    RuntimeOptions opts;
    opts.workers = workers;
    opts.policy = GetParam();
    Scheduler sched(opts);
    sched.reset_counters();
    (void)sched.run([] { return fib_par(18); });
    expect_reconciled(sched.counters().total(), 1);
  }
}

TEST_P(Accounting, ReconcilesAcrossRepeatedRuns) {
  RuntimeOptions opts;
  opts.workers = 3;
  opts.policy = GetParam();
  Scheduler sched(opts);
  sched.reset_counters();
  constexpr std::uint64_t kRuns = 6;
  for (std::uint64_t round = 0; round < kRuns; ++round) {
    (void)sched.run([] {
      std::vector<Future<int>> futures;
      for (int i = 0; i < 50; ++i) futures.push_back(spawn([i] { return i; }));
      int sum = 0;
      for (auto& f : futures) sum += f.touch();
      return sum;
    });
  }
  expect_reconciled(sched.counters().total(), kRuns);
}

TEST_P(Accounting, SingleWorkerHasNoSteals) {
  RuntimeOptions opts;
  opts.workers = 1;
  opts.policy = GetParam();
  Scheduler sched(opts);
  sched.reset_counters();
  (void)sched.run([] { return fib_par(16); });
  const auto t = sched.counters().total();
  EXPECT_EQ(t.steals, 0u);
  // The n==1 guard must bail before victim selection even starts: no
  // attempts, hence no RNG draws, no batch claims, and no parks counted
  // in steal_backoffs (a worker without victims parks uncounted).
  EXPECT_EQ(t.steal_attempts, 0u);
  EXPECT_EQ(t.batch_steals, 0u);
  EXPECT_EQ(t.batch_stolen_items, 0u);
  EXPECT_EQ(t.steal_backoffs, 0u);
  EXPECT_EQ(t.migrations, 0u);
  expect_reconciled(t, 1);
}

INSTANTIATE_TEST_SUITE_P(Policies, Accounting,
                         ::testing::Values(SpawnPolicy::FutureFirst,
                                           SpawnPolicy::ParentFirst),
                         [](const auto& param_info) {
                           return param_info.param == SpawnPolicy::FutureFirst
                                      ? "FutureFirst"
                                      : "ParentFirst";
                         });

TEST(Runtime, StressManySmallTasks) {
  RuntimeOptions opts;
  opts.workers = 4;
  Scheduler sched(opts);
  const std::uint64_t result = sched.run([] {
    std::vector<Future<std::uint64_t>> fs;
    fs.reserve(2000);
    for (std::uint64_t i = 0; i < 2000; ++i)
      fs.push_back(spawn([i] { return i * i; }));
    std::uint64_t sum = 0;
    for (auto& f : fs) sum += f.touch();
    return sum;
  });
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) expected += i * i;
  EXPECT_EQ(result, expected);
}

TEST(Runtime, ParallelReduceTree) {
  Scheduler sched({.workers = 4});
  std::vector<int> data(1 << 14);
  std::iota(data.begin(), data.end(), 0);
  std::function<long(int, int)> reduce = [&](int lo, int hi) -> long {
    if (hi - lo <= 256)
      return std::accumulate(data.begin() + lo, data.begin() + hi, 0L);
    const int mid = lo + (hi - lo) / 2;
    auto left = spawn([&, lo, mid] { return reduce(lo, mid); });
    const long right = reduce(mid, hi);
    return left.touch() + right;
  };
  const long total =
      sched.run([&] { return reduce(0, static_cast<int>(data.size())); });
  EXPECT_EQ(total, static_cast<long>(data.size()) *
                       (static_cast<long>(data.size()) - 1) / 2);
}

}  // namespace
}  // namespace wsf::runtime

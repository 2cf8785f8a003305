// Layer micro-runs of the traced run: each runtime layer timed in isolation
// through its public header, before any of them is replaced — the layer
// cost model the end-to-end workloads are read against.
//
// Every figure is the median over repetitions of a timed loop.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "runtime/chase_lev.hpp"
#include "runtime/fiber.hpp"
#include "runtime/future.hpp"
#include "runtime/pool.hpp"

namespace wsfbench {
namespace {

using namespace wsf;

constexpr int kReps = 15;

/// Median over kReps of `body()`'s duration divided by `ops`, in ns.
template <typename F>
double per_op_ns(double ops, F&& body) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    v.push_back(static_cast<double>(now_ns() - t0) / ops);
  }
  return median(v);
}

void deque_layer(Report& out, RunResult& res) {
  constexpr int kItems = 256;
  constexpr int kRounds = 200;
  runtime::ChaseLevDeque<int*> dq;
  std::vector<int> cells(kItems);
  std::vector<int*> buf;
  std::uint64_t got = 0;

  // Owner push then pop of the same item: the spawn/continuation pattern.
  out.set("chase_lev.push_pop_ns",
          per_op_ns(kItems * kRounds, [&] {
            for (int r = 0; r < kRounds; ++r)
              for (int i = 0; i < kItems; ++i) {
                dq.push_bottom(&cells[i]);
                got += dq.pop_bottom() == &cells[i];
              }
          }),
          "ns");
  res.check(got == std::uint64_t{kItems} * kRounds * kReps,
            "chase_lev pop_bottom lost an item");

  // Uncontended steal_top; the pushes that refill the deque are untimed.
  std::vector<double> steal, batch;
  for (int r = 0; r < kReps; ++r) {
    for (int i = 0; i < kItems; ++i) dq.push_bottom(&cells[i]);
    std::uint64_t t0 = now_ns();
    int stolen = 0;
    while (dq.steal_top() != nullptr) ++stolen;
    steal.push_back(static_cast<double>(now_ns() - t0) / kItems);
    res.check(stolen == kItems, "steal_top did not drain the deque");

    for (int i = 0; i < kItems; ++i) dq.push_bottom(&cells[i]);
    std::size_t items = 0;
    t0 = now_ns();
    for (std::size_t n; (n = dq.steal_batch(buf, 16)) > 0;) {
      items += n;
      buf.clear();
    }
    batch.push_back(static_cast<double>(now_ns() - t0) / kItems);
    res.check(items == kItems, "steal_batch did not drain the deque");
  }
  out.set("chase_lev.steal_ns", median(steal), "ns");
  out.set("chase_lev.steal_batch_ns_per_item", median(batch), "ns");
}

void fiber_layer(Report& out, RunResult& res) {
  constexpr int kSwitches = 20000;
  ucontext_t main_ctx{};
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    runtime::Fiber f(
        [](runtime::Fiber& self) {
          for (int i = 0; i < kSwitches; ++i) self.suspend();
        },
        64 * 1024);
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kSwitches; ++i) f.resume(&main_ctx);
    v.push_back(static_cast<double>(now_ns() - t0) / kSwitches);
    f.resume(&main_ctx);
    res.check(f.finished(), "fiber did not finish after its last resume");
  }
  out.set("fiber.switch_ns", median(v), "ns");
}

/// spawn + touch inside a Scheduler::run job on one worker. Future-first
/// runs the child before the parent touches (a ready future);
/// parent-first leaves the child on the deque, so the touch parks.
double spawn_touch_ns(runtime::SpawnPolicy policy, const char* name,
                      std::uint64_t expect_parked, RunResult& res) {
  constexpr int kPairs = 2000;
  runtime::Scheduler sched({.workers = 1, .policy = policy});
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t parked0 = sched.counters().total().parked_touches;
    const std::uint64_t ns = sched.run([] {
      const std::uint64_t t0 = now_ns();
      int sum = 0;
      for (int i = 0; i < kPairs; ++i) sum += runtime::spawn([] { return 1; }).touch();
      const std::uint64_t t1 = now_ns();
      return sum == kPairs ? t1 - t0 : 0;
    });
    res.check(ns > 0, std::string(name) + ": a touch returned the wrong value");
    v.push_back(static_cast<double>(ns) / kPairs);
    const std::uint64_t parked = sched.counters().total().parked_touches - parked0;
    res.check(parked == expect_parked * kPairs,
              std::string(name) + ": " + std::to_string(parked) + " parked touches");
  }
  return median(v);
}

void pool_layer(Report& out, RunResult& res) {
  constexpr int kBatch = 1024;
  {
    // Inbox admit + take: one Batch of empty jobs into a 1-worker pool,
    // submit → drained, per job (each job also runs one empty fiber).
    runtime::Scheduler sched({.workers = 1});
    std::vector<double> v;
    for (int r = 0; r < kReps; ++r) {
      runtime::Batch batch(sched);
      for (int i = 0; i < kBatch; ++i) batch.add([] {});
      const std::uint64_t t0 = now_ns();
      sched.submit(std::move(batch));
      sched.drain();
      v.push_back(static_cast<double>(now_ns() - t0) / kBatch);
    }
    out.set("pool.admit_take_ns_per_job", median(v), "ns");
  }

  // Park → wake: after 1 ms without work every worker of the 2-worker pool
  // is idle; the job's start minus its submission is the wake-up latency,
  // its completion minus submission the empty-job round trip.
  constexpr int kSamples = 200;
  runtime::Scheduler sched({.workers = 2});
  std::vector<double> wake, done;
  for (int i = 0; i < kSamples; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::atomic<std::uint64_t> started{0};
    const std::uint64_t t0 = now_ns();
    auto h = sched.submit([&started] {
      // relaxed: the handle's wait() synchronizes with the job's completion.
      started.store(now_ns(), std::memory_order_relaxed);
    });
    h.wait();
    const std::uint64_t t1 = now_ns();
    // relaxed: ordered by wait() above.
    const std::uint64_t ts = started.load(std::memory_order_relaxed);
    res.check(ts >= t0, "park/wake job did not run after its submission");
    wake.push_back(static_cast<double>(ts - t0) * 1e-3);
    done.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  out.set("pool.park_wake_us", median(wake), "us");
  out.set("pool.empty_job_us", median(done), "us");
}

}  // namespace

void run_layer_micro(Report& out, RunResult& res) {
  deque_layer(out, res);
  fiber_layer(out, res);
  out.set("future.spawn_touch_ready_ns",
          spawn_touch_ns(runtime::SpawnPolicy::FutureFirst, "future.spawn_touch_ready",
                         0, res),
          "ns");
  out.set("future.spawn_touch_parked_ns",
          spawn_touch_ns(runtime::SpawnPolicy::ParentFirst, "future.spawn_touch_parked",
                         1, res),
          "ns");
  pool_layer(out, res);
}

}  // namespace wsfbench

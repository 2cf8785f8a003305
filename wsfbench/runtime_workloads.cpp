// The three runtime workloads: dag-replay (closed loop, one big stolen DAG
// in flight), stream-closed (closed loop, 128 small jobs in flight, refilled
// in batches) and stream-open (open loop, single jobs on a fixed schedule
// into an idle pool). All three replay DAGs through runtime::GraphReplayer
// on a 2-worker runtime::Scheduler; the benchmark's own thread is the
// submitter, so no run uses more than 3 threads.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/deviation.hpp"
#include "graphs/registry.hpp"
#include "runtime/pool.hpp"
#include "runtime/replay.hpp"
#include "sched/sequential.hpp"

namespace wsfbench {
namespace {

using namespace wsf;

/// Workers of every runtime workload. Two, not three: on the 4-vCPU VM the
/// benchmark was tuned on, a third busy worker (plus the submitter) added
/// no dag-replay throughput, raised the hypervisor's steal time 2-3x and
/// widened the run-to-run range of jobs_per_s from 4% to 23% (README).
constexpr std::uint32_t kWorkers = 2;
/// Jobs in flight in stream-closed, and how many are refilled per Batch.
/// The window is deep enough (~6 ms of work) that a submitter descheduled
/// for a few milliseconds does not starve the workers, and refills are
/// small so the window stays nearly full.
constexpr std::size_t kInFlight = 128;
constexpr std::size_t kRefill = 8;
/// stream-open's offered rate, jobs per second (well below capacity).
constexpr double kOpenRate = 3000.0;
/// Replayer arenas stream-open cycles through; a slot is collected just
/// before reuse, kRing periods (~21 ms) after its job was due.
constexpr std::size_t kRing = 64;
/// Fiber stacks provisioned before the warm-up (Scheduler::prewarm). Every
/// workload's warm-up settled at 10-22 stacks; without prewarming, the
/// rounds until the pool stopped growing varied, and set-up time with them.
constexpr std::size_t kPrewarmStacks = 64;
/// setup_s is the median of kSetupSamples set-ups: the first is the one
/// measured, the others come after the measured phase. (Set-ups taken
/// before the phase would raise its peak RSS: a freed rig's heap is not
/// all reused by the next one.)
constexpr std::size_t kSetupSamples = 11;
/// Jobs in one stream-closed warm-up round. A round starts from idle
/// workers, whose wake-up on a busy host can take milliseconds; with one
/// unrefilled window (128 jobs, ~6 ms) a set-up ranged from 13 to 33 ms
/// within one run, so a round refills the window up to this many jobs.
constexpr std::size_t kClosedWarmupJobs = 8 * kInFlight;

enum class Kind { DagReplay, StreamClosed, StreamOpen };

/// dag-replay cycles through kDagInputs random-single-touch DAGs of ~20k
/// nodes and ~3k futures each, drawn from the seed (one draw varies enough
/// in span and futures to move the figures by ~10%; sixteen average that
/// out); the streams replay the depth-5 fork-join tree with 3-node leaves
/// (wsf-load's `uniform` job).
constexpr std::size_t kDagInputs = 16;

std::vector<core::Graph> make_inputs(Kind kind, std::uint64_t seed) {
  std::vector<core::Graph> out;
  if (kind == Kind::DagReplay) {
    for (std::size_t i = 0; i < kDagInputs; ++i)
      out.push_back(graphs::make_named(
                        "random-single-touch",
                        {.size = 400, .seed = derive_seed(seed, streams::kReplayDag + i)})
                        .graph);
  } else {
    out.push_back(graphs::make_named("forkjoin", {.size = 5, .size2 = 3}).graph);
  }
  return out;
}

/// Everything a run sets up before measuring: the input DAGs, one replayer
/// arena per job slot, and the warmed-up scheduler.
struct Rig {
  std::vector<core::Graph> graphs;
  std::vector<GraphFacts> facts;
  std::vector<std::unique_ptr<runtime::GraphReplayer>> replayers;
  /// Index into graphs of each replayer slot.
  std::vector<std::size_t> graph_of;
  std::unique_ptr<runtime::Scheduler> sched;
};

/// One measured pass over the workload's loop.
struct Pass {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  /// Completed jobs' latency, nodes and CPU, by time window.
  Windows win{1, 1, false};
  std::vector<double> queue_us;
  std::vector<double> service_us;
  std::vector<double> lag_us;
  std::vector<double> deviations;
  runtime::WorkerCounters counters;
  /// Traced passes: span time spent staging and submitting jobs.
  std::uint64_t admit_ns = 0;
};

class Workload {
 public:
  Workload(Kind kind, const Args& args, Tracer& tracer, RunResult& res)
      : kind_(kind), args_(args), tracer_(tracer), res_(res) {
    opts_.job_counters = kind == Kind::DagReplay;
  }

  /// Builds the input and the scheduler and warms the fiber-stack pool
  /// until a round of jobs creates no new stack. Returns seconds taken.
  double setup() {
    rig_.reset();  // the previous set-up's scheduler stops outside the timing
    const std::uint64_t t0 = now_ns();
    rig_ = std::make_unique<Rig>();
    {
      auto s = tracer_.span("graphs.build");
      rig_->graphs = make_inputs(kind_, args_.seed);
    }
    std::size_t max_nodes = 0;
    for (const core::Graph& g : rig_->graphs) {
      rig_->facts.push_back(graph_facts(g));
      max_nodes = std::max(max_nodes, g.num_nodes());
    }
    stamp_.assign(max_nodes, 0);
    {
      auto s = tracer_.span("layout.build");
      const std::size_t slots = kind_ == Kind::DagReplay ? kDagInputs
                                : kind_ == Kind::StreamClosed ? kInFlight
                                                              : kRing;
      for (std::size_t i = 0; i < slots; ++i) {
        const std::size_t gi = i % rig_->graphs.size();
        rig_->replayers.push_back(
            std::make_unique<runtime::GraphReplayer>(rig_->graphs[gi]));
        rig_->graph_of.push_back(gi);
      }
    }
    rig_->sched = std::make_unique<runtime::Scheduler>(runtime::RuntimeOptions{
        .workers = kWorkers, .seed = derive_seed(args_.seed, streams::kVictims)});
    rig_->sched->prewarm(kPrewarmStacks);
    // Until two rounds in a row create no stack (with the prewarmed pool,
    // normally the first two).
    std::uint64_t quiet_rounds = 0;
    for (int round = 0; round < 200 && quiet_rounds < 2; ++round) {
      const std::uint64_t before = rig_->sched->counters().total().fibers_created;
      Pass p;
      if (kind_ == Kind::DagReplay) {
        for (std::size_t i = 0; i < kDagInputs; ++i) closed_one(p, false);
      } else if (kind_ == Kind::StreamClosed) {
        closed_batches(p, ~std::uint64_t{0}, kClosedWarmupJobs, false);
      } else {
        // One pass over the replayer ring at the offered rate.
        const std::uint64_t t0 = now_ns();
        open_loop(p, t0, t0 + static_cast<std::uint64_t>(kRing * 1e9 / kOpenRate),
                  false);
      }
      const std::uint64_t after = rig_->sched->counters().total().fibers_created;
      quiet_rounds = after == before ? quiet_rounds + 1 : 0;
    }
    res_.check(quiet_rounds >= 2, "warm-up never stopped creating fiber stacks");
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  /// Runs the workload for `seconds`; with `traced`, spans wrap the calls
  /// into the runtime and every 4th job's worker orders are compared with
  /// the sequential order (replay.deviations_per_job).
  Pass measure(double seconds, bool traced) {
    Pass p;
    tracer_.set_enabled(traced);
    const std::uint64_t admit0 =
        tracer_.total_ns("pool.stage") + tracer_.total_ns("pool.submit");
    const runtime::WorkerCounters c0 = rig_->sched->counters().total();
    // The open-loop generator spin-waits for due times; that is load
    // generation, not the system under test, so its thread's CPU time is
    // left out of cpu_us_per_job.
    p.win = Windows(seconds, kWindows, kind_ == Kind::StreamOpen);
    const std::uint64_t t0 = now_ns();
    const auto end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    if (kind_ == Kind::DagReplay) {
      while (now_ns() < end) closed_one(p, traced);
    } else if (kind_ == Kind::StreamClosed) {
      closed_batches(p, end, ~std::uint64_t{0}, traced);
    } else {
      open_loop(p, t0, end, traced);
    }
    p.win.finish();
    p.counters = runtime::counters_since(rig_->sched->counters().total(), c0);
    p.admit_ns =
        tracer_.total_ns("pool.stage") + tracer_.total_ns("pool.submit") - admit0;
    tracer_.set_enabled(args_.trace);

    res_.attempted += p.attempted;
    res_.failed += p.attempted - p.completed;
    if (kind_ != Kind::DagReplay) {
      // Per-job counter deltas would blur across the jobs in flight, so the
      // stream workloads check spawns over the whole (quiescent) pass.
      const std::uint64_t want = p.completed * rig_->facts[0].futures;
      res_.check(p.counters.spawns == want,
                 "stream spawns " + std::to_string(p.counters.spawns) +
                     " != jobs x futures " + std::to_string(want));
    }
    return p;
  }

 private:
  /// Checks one completed replay and records its latency split.
  void record(std::size_t slot, const runtime::ReplayResult& out,
              double latency_us, Pass& p, bool traced) {
    runtime::GraphReplayer& r = *rig_->replayers[slot];
    const std::size_t gi = rig_->graph_of[slot];
    const GraphFacts& facts = rig_->facts[gi];
    ++p.attempted;
    const bool ok = out.outcome == runtime::JobOutcome::Completed;
    if (ok) {
      ++p.completed;
      p.win.add(latency_us, facts.nodes);
      p.win.tick();
    }
    res_.check(ok, std::string("job ended ") + runtime::to_string(out.outcome));
    res_.check(covers_once(r.worker_orders(), facts.nodes, stamp_, ++epoch_),
               "worker orders do not cover every node exactly once");
    res_.check(out.premature_touches == 0,
               "premature touch in a structured computation");
    if (opts_.job_counters) {
      const runtime::WorkerCounters c = out.counters.total();
      res_.check(c.spawns == facts.futures,
                 "job spawned " + std::to_string(c.spawns) + " futures, graph has " +
                     std::to_string(facts.futures));
    }
    if (!traced) return;
    p.queue_us.push_back(static_cast<double>(out.queue_us));
    p.service_us.push_back(static_cast<double>(out.service_us));
    if (p.attempted % 4 == 1) {
      if (dev_counters_.empty()) {
        // Reserved: each DeviationCounter keeps a reference to its order.
        seq_orders_.reserve(rig_->graphs.size());
        for (const core::Graph& g : rig_->graphs) {
          seq_orders_.push_back(sched::run_sequential(g, {}).order);
          dev_counters_.push_back(
              std::make_unique<core::DeviationCounter>(g, seq_orders_.back()));
        }
      }
      p.deviations.push_back(static_cast<double>(
          dev_counters_[gi]->count(r.worker_orders()).deviations));
    }
  }

  /// dag-replay: one job, submitted and waited for; the input DAGs take
  /// turns.
  void closed_one(Pass& p, bool traced) {
    const std::size_t slot = next_dag_++ % kDagInputs;
    runtime::GraphReplayer& r = *rig_->replayers[slot];
    const std::uint64_t t0 = now_ns();
    {
      auto s = tracer_.span("pool.submit");
      r.submit(*rig_->sched, opts_);
    }
    const runtime::ReplayResult out = r.collect();
    record(slot, out, static_cast<double>(now_ns() - t0) * 1e-3, p, traced);
  }

  /// stream-closed: keeps kInFlight jobs admitted, collecting them oldest
  /// first and refilling kRefill at a time through one runtime::Batch, until
  /// `end` or until `max_jobs` have been admitted; then drains the window.
  void closed_batches(Pass& p, std::uint64_t end, std::uint64_t max_jobs,
                      bool traced) {
    auto& reps = rig_->replayers;
    const auto admit = [&](std::size_t first, std::size_t n) {
      runtime::Batch batch(*rig_->sched);
      {
        auto s = tracer_.span("pool.stage");
        for (std::size_t k = 0; k < n; ++k)
          reps[(first + k) % kInFlight]->stage(batch, opts_);
      }
      auto s = tracer_.span("pool.submit");
      rig_->sched->submit(std::move(batch));
    };
    admit(0, kInFlight);
    std::uint64_t admitted = kInFlight;
    std::size_t next = 0;
    bool refill = true;
    for (std::size_t left = kInFlight; left > 0;) {
      for (std::size_t k = 0; k < kRefill; ++k) {
        const std::size_t slot = (next + k) % kInFlight;
        const runtime::ReplayResult out = reps[slot]->collect();
        record(slot, out, static_cast<double>(out.wall_us), p, traced);
      }
      refill = refill && admitted < max_jobs && now_ns() < end;
      if (refill) {
        admit(next, kRefill);
        admitted += kRefill;
      } else {
        left -= kRefill;
      }
      next += kRefill;
    }
  }

  /// stream-open: job i is due at t0 + i / kOpenRate and is submitted then,
  /// whether or not earlier jobs finished. Latency runs from the due time.
  void open_loop(Pass& p, std::uint64_t t0, std::uint64_t end, bool traced) {
    auto& reps = rig_->replayers;
    const double period_ns = 1e9 / kOpenRate;
    std::vector<std::uint64_t> submitted_lag_ns(kRing, 0);
    const auto collect = [&](std::size_t slot) {
      const runtime::ReplayResult out = reps[slot]->collect();
      record(slot, out,
             static_cast<double>(submitted_lag_ns[slot]) * 1e-3 +
                 static_cast<double>(out.wall_us),
             p, traced);
    };
    std::uint64_t i = 0;
    for (;; ++i) {
      const auto due = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
      if (due >= end) break;
      const std::size_t slot = i % kRing;
      if (i >= kRing) collect(slot);
      // The generator spins to each due time. sleep_for(2 us) sleeps ~59 us
      // here, and a sleeping vCPU of a busy VM host can take milliseconds
      // to run again: with sleeps the generator ran 7.5 ms late at p99,
      // spinning it runs 0.3 ms late.
      std::uint64_t ts = now_ns();
      while (ts < due) ts = now_ns();
      if (traced) p.lag_us.push_back(static_cast<double>(ts - due) * 1e-3);
      submitted_lag_ns[slot] = ts - due;
      auto s = tracer_.span("pool.submit");
      reps[slot]->submit(*rig_->sched, opts_);
    }
    for (std::uint64_t j = i > kRing ? i - kRing : 0; j < i; ++j) collect(j % kRing);
  }

  Kind kind_;
  const Args& args_;
  Tracer& tracer_;
  RunResult& res_;
  runtime::ReplayOptions opts_;
  std::unique_ptr<Rig> rig_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::size_t next_dag_ = 0;
  std::vector<std::vector<core::NodeId>> seq_orders_;
  std::vector<std::unique_ptr<core::DeviationCounter>> dev_counters_;
};

void run(Kind kind, const Args& args, Tracer& tracer, RunResult& res) {
  Workload w(kind, args, tracer, res);
  Report& m = res.metrics;
  if (!args.trace) {
    std::vector<double> setups = {w.setup()};
    const Pass p = w.measure(args.seconds, false);
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    while (setups.size() < kSetupSamples) setups.push_back(w.setup());
    m.set("setup_s", median(setups), "s");
    m.set("jobs_per_s", p.win.jobs_per_s(), "1/s");
    m.set("latency_p50_us", p.win.latency_p50_us(), "us");
    m.set("cpu_us_per_job", p.win.cpu_us_per_job(), "us");
    m.set("sim_nodes_per_s", p.win.nodes_per_s(), "1/s");
    // The simulator's exact counts are sim-grid's. A runtime workload runs
    // no simulation and reports them as the fixed value 1 (not 0, so that
    // the relative spread and change of every metric stay defined).
    m.set("sim_deviations", 1.0, "count");
    m.set("sim_additional_misses", 1.0, "count");
    m.set("sim_steps", 1.0, "rounds");
    return;
  }

  // Traced run: the same loop untraced, traced, traced, untraced, a quarter
  // of the time each, so a linear drift of the host falls on both sides
  // alike. The per-layer figures come from the second traced quarter.
  w.setup();
  const Pass plain1 = w.measure(args.seconds / 4, false);
  const Pass traced1 = w.measure(args.seconds / 4, true);
  const Pass p = w.measure(args.seconds / 4, true);
  const Pass plain = w.measure(args.seconds / 4, false);
  const double ratio = (traced1.win.latency_p50_us() + p.win.latency_p50_us()) /
                       (plain1.win.latency_p50_us() + plain.win.latency_p50_us());
  const double jobs = static_cast<double>(std::max<std::uint64_t>(p.completed, 1));
  const runtime::WorkerCounters& c = p.counters;
  const auto per_job = [&](std::uint64_t v) { return static_cast<double>(v) / jobs; };
  m.set("pool.admit_ns_per_job", static_cast<double>(p.admit_ns) / jobs, "ns");
  m.set("pool.queue_p50_us", percentile(p.queue_us, 0.50), "us");
  m.set("pool.queue_p99_us", percentile(p.queue_us, 0.99), "us");
  m.set("pool.service_p50_us", percentile(p.service_us, 0.50), "us");
  m.set("pool.fibers_created", static_cast<double>(c.fibers_created), "count");
  m.set("pool.steals_per_job", per_job(c.steals), "count");
  m.set("pool.steal_attempts_per_job", per_job(c.steal_attempts), "count");
  m.set("pool.steal_success_ratio",
        c.steal_attempts ? static_cast<double>(c.steals) /
                               static_cast<double>(c.steal_attempts)
                         : 0.0,
        "ratio");
  m.set("pool.steal_backoffs_per_job", per_job(c.steal_backoffs), "count");
  m.set("pool.parked_touches_per_job", per_job(c.parked_touches), "count");
  m.set("pool.migrations_per_job", per_job(c.migrations), "count");
  double dev = 0;
  for (double d : p.deviations) dev += d;
  m.set("replay.deviations_per_job",
        p.deviations.empty() ? 0.0 : dev / static_cast<double>(p.deviations.size()),
        "count");
  m.set("generator.lag_p50_us", percentile(p.lag_us, 0.50), "us");
  m.set("generator.lag_p99_us", percentile(p.lag_us, 0.99), "us");
  // The simulator, cache, deviation and sweep layers are sim-grid's.
  set_unused(m, {{"simulator.ns_per_node", "ns"},
                 {"simulator.steal_success_ratio", "ratio"},
                 {"cache.access_ns", "ns"},
                 {"cache.miss_ratio", "ratio"},
                 {"deviation.count_ns_per_node", "ns"},
                 {"sweep.overhead_ms", "ms"}});
  // Not gated: the tail moved by 50-170% between runs of identical code
  // on a shared VM host (README, "Host noise").
  m.set("ref.latency_p99_us", plain.win.latency_p99_us(), "us");
  m.set("trace.overhead_pct", (ratio - 1.0) * 100.0, "%");
  m.set("graphs.build_ms", static_cast<double>(tracer.total_ns("graphs.build")) * 1e-6, "ms");
  m.set("layout.build_ms", static_cast<double>(tracer.total_ns("layout.build")) * 1e-6, "ms");
}

}  // namespace

void run_dag_replay(const Args& args, Tracer& tracer, RunResult& res) {
  run(Kind::DagReplay, args, tracer, res);
}
void run_stream_closed(const Args& args, Tracer& tracer, RunResult& res) {
  run(Kind::StreamClosed, args, tracer, res);
}
void run_stream_open(const Args& args, Tracer& tracer, RunResult& res) {
  run(Kind::StreamOpen, args, tracer, res);
}

}  // namespace wsfbench

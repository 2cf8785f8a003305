// Shared pieces of the wsfbench program: clocks, resource usage, the metric
// report, run outcome bookkeeping, and the span tracer used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/graph.hpp"

namespace wsfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// CPU seconds consumed by the whole process / by the calling thread.
double process_cpu_s();
double thread_cpu_s();
/// Peak resident set size of the process so far, in MB.
double peak_rss_mb();

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Derives an independent 64-bit seed for input `stream` from a seed
/// (SplitMix64 finalizer), so DAG shapes, victim selection and schedule seeds
/// never share a random stream. Each use has its own range of streams. The
/// runtime workloads derive from the run seed; sim-grid derives its DAGs and
/// schedules from the fixed kGridSeed (its simulated counts are exact
/// constants) and only the order of its graph list from the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);
namespace streams {
inline constexpr std::uint64_t kVictims = 1;        // runtime victim selection
inline constexpr std::uint64_t kReplayDag = 100;    // + i: dag-replay DAG i
inline constexpr std::uint64_t kGridSingle = 300;   // + i: sim-grid random-single-touch i
inline constexpr std::uint64_t kGridMix = 400;      // + i: sim-grid unstructured-mix i
inline constexpr std::uint64_t kGridSchedule = 500; // sim-grid schedule seed base
inline constexpr std::uint64_t kGridOrder = 600;    // sim-grid order of its graph list
}  // namespace streams
/// The fixed seed sim-grid derives its DAG and schedule seeds from.
inline constexpr std::uint64_t kGridSeed = 1;

/// Nearest-rank percentile (q in [0,1]) of a copy of the samples; 0 for an
/// empty set.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Time windows of a measured phase (see Windows).
constexpr int kWindows = 20;

/// A measured phase split into equal time windows. Each end-to-end figure
/// is the median over the windows of that figure within one window, so a
/// disturbance of the host that hits a minority of windows does not move
/// it.
class Windows {
 public:
  /// `exclude_thread_cpu`: leave the calling thread's CPU time out of
  /// cpu_us_per_job (a load generator that spin-waits for due times).
  Windows(double seconds, int count, bool exclude_thread_cpu);
  /// Records one completed job (or sim-grid configuration).
  void add(double latency_us, std::uint64_t nodes);
  /// Closes the current window once its time is up; the last window also
  /// takes whatever completes until finish().
  void tick();
  void finish();

  double jobs_per_s() const;
  double nodes_per_s() const;
  double cpu_us_per_job() const;
  /// Median over windows of the windows' nearest-rank p50 / p99 latency.
  double latency_p50_us() const;
  double latency_p99_us() const;

 private:
  /// A closed window keeps its percentiles, not its samples, so the
  /// benchmark's own memory stays flat however long it runs.
  struct Window {
    std::uint64_t jobs = 0;
    std::uint64_t nodes = 0;
    double wall_s = 0;
    double cpu_s = 0;
    double p50_us = 0;
    double p99_us = 0;
  };
  double cpu_now() const;
  void close(std::uint64_t now);
  template <typename F>
  double median_of(F&& f) const;

  int count_;
  bool exclude_thread_cpu_;
  std::uint64_t length_ns_;
  std::uint64_t start_ns_;
  double start_cpu_;
  std::vector<Window> done_;
  Window cur_;
  std::vector<double> latency_us_;
};

/// Ordered name → (value, unit) map printed as the run's "metrics" object.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Outcome of one run: operations attempted/failed, the output checks, and
/// the metrics of the requested kind (end-to-end or per-layer).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  Report metrics;

  /// Records a failed output check (correct becomes false; the first few
  /// messages go to stderr at the end of the run).
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Summed durations of named spans, recorded by the benchmark's own thread
/// around calls into the program's layers. A disabled tracer never reads
/// the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Pauses or resumes recording (a traced run's untraced comparison pass).
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name)
        : t_(t), name_(name), start_ns_(t ? now_ns() : 0) {}
    ~Scope() {
      if (t_) t_->add(name_, now_ns() - start_ns_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    const char* name_;
    std::uint64_t start_ns_;
  };
  /// Opens a span that is added to `name`'s total when the scope ends.
  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  /// Summed duration (ns) of all spans named `name`.
  std::uint64_t total_ns(std::string_view name) const;

 private:
  void add(std::string_view name, std::uint64_t ns);

  bool enabled_;
  std::vector<std::pair<std::string_view, std::uint64_t>> totals_;
};

/// Independent structure facts the output checks compare against, computed
/// from the node/edge arrays rather than from the graph's own indexes.
struct GraphFacts {
  std::size_t nodes = 0;
  /// Forks, i.e. spawned future threads: each fork node has exactly one
  /// outgoing future edge.
  std::size_t futures = 0;
};
GraphFacts graph_facts(const wsf::core::Graph& g);

/// Sets each named metric to 0: the per-layer metrics of layers a workload
/// does not exercise.
void set_unused(Report& m,
                std::initializer_list<std::pair<const char*, const char*>> names);

/// True when every node appears exactly once across the per-worker orders.
/// `stamp` is a caller-owned buffer sized to the node count; `epoch` must
/// differ between calls that share it.
bool covers_once(const std::vector<std::vector<wsf::core::NodeId>>& orders,
                 std::size_t nodes, std::vector<std::uint32_t>& stamp,
                 std::uint32_t epoch);

// ---- workloads and the layer micro-runs ----
// Each fills `res` with attempted/failed, the output checks, and the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
void run_dag_replay(const Args& args, Tracer& tracer, RunResult& res);
void run_stream_closed(const Args& args, Tracer& tracer, RunResult& res);
void run_stream_open(const Args& args, Tracer& tracer, RunResult& res);
void run_sim_grid(const Args& args, Tracer& tracer, RunResult& res);

/// Times each runtime layer in isolation through its public header and adds
/// the results to `out` (per-layer metrics; traced runs only). Checks the
/// micro-runs' own invariants into `res`.
void run_layer_micro(Report& out, RunResult& res);

}  // namespace wsfbench

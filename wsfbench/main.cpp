// wsfbench — the end-to-end benchmark of both engines.
//
//   wsfbench --workload <dag-replay|stream-closed|stream-open|sim-grid>
//            --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) measures the workload for --seconds and prints
// the end-to-end metrics; a traced run (--trace 1) first times each runtime
// layer in isolation, then runs the workload (a runtime workload untraced,
// traced, traced and untraced, a quarter of --seconds each) and prints the
// per-layer metrics, including what the tracing cost. Every run checks the
// workload's outputs. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See wsfbench/README.md for the workloads, metrics and seeds.
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace wsfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // includes the launching process's image (~14 MB for run.py's Python).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

Windows::Windows(double seconds, int count, bool exclude_thread_cpu)
    : count_(count),
      exclude_thread_cpu_(exclude_thread_cpu),
      length_ns_(static_cast<std::uint64_t>(seconds * 1e9 / count)),
      start_ns_(now_ns()),
      start_cpu_(cpu_now()) {}

double Windows::cpu_now() const {
  return process_cpu_s() - (exclude_thread_cpu_ ? thread_cpu_s() : 0.0);
}

void Windows::add(double latency_us, std::uint64_t nodes) {
  ++cur_.jobs;
  cur_.nodes += nodes;
  latency_us_.push_back(latency_us);
}

void Windows::close(std::uint64_t now) {
  const double cpu = cpu_now();
  cur_.wall_s = static_cast<double>(now - start_ns_) * 1e-9;
  cur_.cpu_s = cpu - start_cpu_;
  cur_.p50_us = percentile(latency_us_, 0.50);
  cur_.p99_us = percentile(latency_us_, 0.99);
  done_.push_back(cur_);
  cur_ = Window{};
  latency_us_.clear();
  start_ns_ = now;
  start_cpu_ = cpu;
}

void Windows::tick() {
  if (static_cast<int>(done_.size()) + 1 >= count_) return;
  const std::uint64_t now = now_ns();
  if (now - start_ns_ >= length_ns_) close(now);
}

void Windows::finish() { close(now_ns()); }

template <typename F>
double Windows::median_of(F&& f) const {
  std::vector<double> v;
  for (const Window& w : done_) v.push_back(f(w));
  return median(std::move(v));
}

double Windows::jobs_per_s() const {
  return median_of([](const Window& w) { return static_cast<double>(w.jobs) / w.wall_s; });
}

double Windows::nodes_per_s() const {
  return median_of([](const Window& w) { return static_cast<double>(w.nodes) / w.wall_s; });
}

double Windows::cpu_us_per_job() const {
  return median_of([](const Window& w) {
    return w.jobs ? w.cpu_s * 1e6 / static_cast<double>(w.jobs) : 0.0;
  });
}

double Windows::latency_p50_us() const {
  return median_of([](const Window& w) { return w.p50_us; });
}

double Windows::latency_p99_us() const {
  return median_of([](const Window& w) { return w.p99_us; });
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& e : entries_) {
    if (e.first == name) {
      e.second = {value, unit};
      return;
    }
  }
  entries_.push_back({name, {value, unit}});
}

void Tracer::add(std::string_view name, std::uint64_t ns) {
  for (auto& e : totals_) {
    if (e.first == name) {
      e.second += ns;
      return;
    }
  }
  totals_.push_back({name, ns});
}

std::uint64_t Tracer::total_ns(std::string_view name) const {
  for (const auto& e : totals_)
    if (e.first == name) return e.second;
  return 0;
}

void set_unused(Report& m,
                std::initializer_list<std::pair<const char*, const char*>> names) {
  for (const auto& [name, unit] : names) m.set(name, 0.0, unit);
}

GraphFacts graph_facts(const wsf::core::Graph& g) {
  GraphFacts f;
  f.nodes = g.num_nodes();
  for (wsf::core::NodeId v = 0; v < g.num_nodes(); ++v) {
    const wsf::core::Node& n = g.node(v);
    for (std::uint8_t k = 0; k < n.out_count; ++k)
      if (n.out[k].kind == wsf::core::EdgeKind::Future) ++f.futures;
  }
  return f;
}

bool covers_once(const std::vector<std::vector<wsf::core::NodeId>>& orders,
                 std::size_t nodes, std::vector<std::uint32_t>& stamp,
                 std::uint32_t epoch) {
  std::size_t seen = 0;
  for (const auto& order : orders) {
    for (wsf::core::NodeId v : order) {
      if (v >= nodes || stamp[v] == epoch) return false;
      stamp[v] = epoch;
      ++seen;
    }
  }
  return seen == nodes;
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "wsfbench: %s\nusage: wsfbench --workload "
               "<dag-replay|stream-closed|stream-open|sim-grid> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + k);
    }
  }
  if (!(a.seconds >= 1 && a.seconds <= 120)) usage("--seconds must be in [1, 120]");
  return a;
}

}  // namespace
}  // namespace wsfbench

int main(int argc, char** argv) {
  using namespace wsfbench;
  const Args args = parse(argc, argv);
  void (*workload)(const Args&, Tracer&, RunResult&) = nullptr;
  if (args.workload == "dag-replay") workload = run_dag_replay;
  if (args.workload == "stream-closed") workload = run_stream_closed;
  if (args.workload == "stream-open") workload = run_stream_open;
  if (args.workload == "sim-grid") workload = run_sim_grid;
  if (!workload) usage("unknown workload '" + args.workload + "'");

  Tracer tracer(args.trace);
  RunResult res;
  try {
    if (args.trace) run_layer_micro(res.metrics, res);
    workload(args, tracer, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& e : res.metrics.entries())
    res.check(std::isfinite(e.second.first), "metric " + e.first + " is not finite");
  for (const std::string& e : res.errors)
    std::fprintf(stderr, "wsfbench: check failed: %s\n", e.c_str());

  std::string out = std::string("{\"correct\": ") +
                    (res.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(res.attempted) +
                    ", \"failed\": " + std::to_string(res.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& e : res.metrics.entries()) {
    const double v = std::isfinite(e.second.first) ? e.second.first : 0.0;
    out += (first ? "" : ", ") + std::string("\"") + e.first +
           "\": {\"value\": " + json_number(v) + ", \"unit\": \"" +
           e.second.second + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

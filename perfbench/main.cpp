// perfbench — the repository's pipeline benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//             [--trace-out FILE]
//
// Runs one workload (analyze_paper, serve_whatif, etree_uq, mc_rare) of
// the shipped library in this process, checks every operation's output
// and prints one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics (and writes the spans as
// Chrome trace_event JSON to --trace-out). perfbench/run.py builds this
// binary and is the command BENCHMARK.json names; see perfbench/README.md
// for the workloads and the metric map.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/json_writer.hpp"

namespace perfbench {

namespace {

const clock::time_point process_origin = clock::now();

}  // namespace

double now_s() { return seconds_between(process_origin, clock::now()); }

void run_result::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void run_result::metric(const std::string& name, double value,
                        const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

std::string run_result::to_json() const {
  bool finite = true;
  sdft::json::writer w;
  w.begin_object();
  w.key("metrics").begin_object();
  for (const auto& [name, vu] : metrics_) {
    finite = finite && std::isfinite(vu.first);
    w.key(name).begin_object();
    w.key("value").number(vu.first);
    w.key("unit").string(vu.second);
    w.end_object();
  }
  w.end_object();
  w.key("correct").boolean(failed_ == 0 && attempted_ > 0 && finite);
  w.key("attempted").integer(attempted_);
  w.key("failed").integer(failed_);
  w.end_object();
  return w.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_percentile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double q = 1.0;
  for (const double candidate : {0.999, 0.99, 0.95, 0.90, 0.50}) {
    if (n * (1.0 - candidate) >= 10.0) {
      q = candidate;
      break;
    }
  }
  const auto index = std::min<std::size_t>(
      v.size() - 1, static_cast<std::size_t>(std::ceil(q * n)) - 1);
  return v[index];
}

void emit_end_to_end(run_result& out, double setup_s,
                     const std::vector<double>& op_seconds, double window_s) {
  out.metric("setup_s", setup_s, "s");
  out.metric("op_p50_ms", median(op_seconds) * 1e3, "ms");
  out.metric("ops_per_s",
             window_s > 0.0 ? static_cast<double>(op_seconds.size()) / window_s
                            : 0.0,
             "1/s");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  // SplitMix64 finaliser over (seed, index).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + index + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------- tracer

namespace {

unsigned thread_number() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned mine = next.fetch_add(1);
  return mine;
}

}  // namespace

std::uint64_t tracer::begin(const std::string& name, std::uint64_t parent,
                            long request) {
  const double start = now_s();
  std::lock_guard lock(mutex_);
  span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = parent;
  s.start = start;
  s.end = start;
  s.request = request;
  s.tid = thread_number();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void tracer::end(std::uint64_t id) {
  const double end = now_s();
  std::lock_guard lock(mutex_);
  // Ids are dense and spans are appended in id order.
  spans_[id - 1].end = end;
}

std::uint64_t tracer::add(const std::string& name, std::uint64_t parent,
                          double start, double end, long request,
                          unsigned tid) {
  std::lock_guard lock(mutex_);
  span s;
  s.name = name;
  s.id = next_id_++;
  s.parent = parent;
  s.start = start;
  s.end = std::max(start, end);
  s.request = request;
  s.tid = tid;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<span> tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

namespace {

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to it), indexed by id - 1.
std::vector<double> span_self_times(const std::vector<span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const span& s : spans) {
    if (s.parent != 0) children[s.parent - 1].push_back({s.start, s.end});
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    auto& cs = children[i];
    std::sort(cs.begin(), cs.end());
    double covered = 0.0;
    double cursor = s.start;
    for (const auto& [a, b] : cs) {
      const double lo = std::max(a, cursor);
      const double hi = std::min(b, s.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

}  // namespace

std::map<std::string, std::vector<double>> tracer::self_times() const {
  const std::vector<span> all = spans();
  const std::vector<double> self = span_self_times(all);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[all[i].name].push_back(self[i]);
  }
  return out;
}

double tracer::layer_share() const {
  const std::vector<span> all = spans();
  const std::vector<double> self = span_self_times(all);
  double root_wall = 0.0;
  double root_self = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent != 0) continue;
    root_wall += all[i].end - all[i].start;
    root_self += self[i];
  }
  return root_wall > 0.0 ? 1.0 - root_self / root_wall : 0.0;
}

bool tracer::write_chrome_json(const std::string& path) const {
  const std::vector<span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const span& s : all) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << sdft::json::escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << sdft::json::number(s.start * 1e6)
        << ",\"dur\":" << sdft::json::number((s.end - s.start) * 1e6)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
    if (s.request >= 0) out << ",\"request\":" << s.request;
    out << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"sdft.translate_s", "s"},
      {"prep.s", "s"},
      {"prep.nodes_after", "count"},
      {"prep.modules", "count"},
      {"mcs.generate_s", "s"},
      {"mcs.partials", "count"},
      {"mcs.cutsets", "count"},
      {"mcs.subset_tests", "count"},
      {"mcs.yield", "ratio"},
      {"quant.busy_s", "s"},
      {"quant.chain_calls", "count"},
      {"quant.chain_states_mean", "count"},
      {"quant.cache_hit_ratio", "ratio"},
      {"engine.sum_s", "s"},
      {"thread_pool.occupancy", "ratio"},
      {"thread_pool.speedup", "ratio"},
      {"prep.peak_rss_mb", "MB"},
      {"mcs.peak_rss_mb", "MB"},
      {"quant.peak_rss_mb", "MB"},
      {"serve.handle_ms", "ms"},
      {"serve.transport_ms", "ms"},
      {"serve.request_tail_ms", "ms"},
      {"struct_cache.hit_ratio", "ratio"},
      {"sweep.points_per_s", "1/s"},
      {"scenario.compile_s", "s"},
      {"scenario.run_s", "s"},
      {"uq.s", "s"},
      {"uq.samples_per_s", "1/s"},
      {"scenario.bdd_nodes", "count"},
      {"scenario.prefix_hits", "count"},
      {"ccf.events_added", "count"},
      {"mc.campaign_s", "s"},
      {"mc.trajectories_per_s", "1/s"},
      {"mc.forcing_rel_err", "ratio"},
      {"mc.splitting_rel_err", "ratio"},
      {"mc.forcing_failures", "count"},
      {"mc.splitting_failures", "count"},
      {"mc.levels", "count"},
      {"mc.forcing_tta_s", "s"},
      {"mc.splitting_tta_s", "s"},
      {"trace.overhead_ms", "ms"},
      {"trace.layer_share", "ratio"},
      {"fail_ratio", "ratio"},
  };
  return units;
}

void emit_layer_metrics(run_result& out, const layer_map& measured) {
  const auto& units = layer_metric_units();
  for (const auto& entry : measured) {
    const bool known = std::any_of(units.begin(), units.end(), [&](const auto& u) {
      return u.first == entry.first;
    });
    if (!known) {
      std::fprintf(stderr, "perfbench: unlisted layer metric '%s'\n",
                   entry.first.c_str());
      std::abort();
    }
  }
  for (const auto& [name, unit] : units) {
    const auto it = measured.find(name);
    out.metric(name, it != measured.end() ? it->second : 0.0, unit);
  }
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  run_config cfg;
  cfg.threads = std::max<std::size_t>(1, online_cpus() - 1);
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value after " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = value();
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      cfg.trace_path = value();
    } else if (arg == "--tiny") {
      cfg.tiny = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.workload.empty() || !have_trace || !(cfg.seconds > 0.0)) {
    usage("--workload, --trace and a positive --seconds are required");
  }

  const std::map<std::string, std::function<void(const run_config&,
                                                 run_result&, layer_map&)>>
      workloads = {{"analyze_paper", run_analyze_paper},
                   {"serve_whatif", run_serve_whatif},
                   {"etree_uq", run_etree_uq},
                   {"mc_rare", run_mc_rare}};
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end()) usage("unknown workload");

  std::fprintf(stderr,
               "perfbench: workload %s seed %llu seconds %g trace %d%s; "
               "%zu worker threads, %s build\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.seconds, cfg.trace ? 1 : 0, cfg.tiny ? " (tiny)" : "",
               cfg.threads, PERFBENCH_BUILD_TYPE);
  run_result out;
  layer_map layers;
  try {
    it->second(cfg, out, layers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }
  if (cfg.trace) {
    layers["fail_ratio"] = static_cast<double>(out.failed()) /
                           static_cast<double>(std::max<std::size_t>(1, out.attempted()));
    emit_layer_metrics(out, layers);
  } else {
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::printf("%s\n", out.to_json().c_str());
  return 0;
}

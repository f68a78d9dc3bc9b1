#pragma once

// Shared pieces of the pipeline benchmark: run configuration, the result
// record every workload fills, timing statistics, peak-memory probes and
// the benchmark's own span tracer (Chrome trace_event export and per-layer
// self times).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gen/industrial.hpp"

namespace perfbench {

using clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide origin (steady clock).
double now_s();

/// Seconds between two steady-clock points.
inline double seconds_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small models and budgets: the smoke check, not a measurement.
  bool tiny = false;
  /// Worker threads of the analyses: the online CPUs (what `nproc`
  /// prints) less one, left to the benchmark's own threads and the system.
  /// With every CPU busy, one preempted worker stalls the whole parallel
  /// stage, and the run-to-run spread of the timings doubled on a 4-CPU
  /// machine.
  std::size_t threads = 1;
  /// Where the traced run writes its Chrome trace (empty = nowhere).
  std::string trace_path;
};

/// What one run reports: operations attempted/failed and named metrics.
class run_result {
 public:
  /// Records one operation; a failed one is logged with `what`.
  void op(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  /// The final JSON line (correct, attempted, failed, metrics).
  std::string to_json() const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

double median(std::vector<double> v);

/// The highest of the p99.9/p99/p95/p90/p50 percentiles that has at least
/// ten samples beyond it (the maximum when there are fewer than 20
/// samples).
double tail_percentile(std::vector<double> v);

/// Set-up repetitions whose median is reported as setup_s.
inline constexpr int setup_reps = 3;

/// Calls `make` setup_reps times and stores the median wall time in
/// `setup_s`; returns the last result.
template <class Make>
auto timed_setup(Make&& make, double& setup_s) {
  std::vector<double> times;
  double t0 = now_s();
  auto value = make();
  times.push_back(now_s() - t0);
  for (int i = 1; i < setup_reps; ++i) {
    t0 = now_s();
    value = make();
    times.push_back(now_s() - t0);
  }
  setup_s = median(times);
  return value;
}

/// The end-to-end metrics every untraced run reports besides peak_rss_mb:
/// setup_s, op_p50_ms (median operation latency) and ops_per_s
/// (operations completed over the measured window's wall time).
void emit_end_to_end(run_result& out, double setup_s,
                     const std::vector<double>& op_seconds, double window_s);

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb();

/// Resets VmHWM to the current resident set (/proc/self/clear_refs).
void reset_peak_rss();

/// A deterministic 64-bit mix of the workload seed and an index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

// ---------------------------------------------------------------- tracing

struct span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  double start = 0;          ///< now_s() seconds
  double end = 0;
  long request = -1;         ///< request id on serve_whatif, else -1
  unsigned tid = 0;          ///< recording thread (trace display only)
};

/// In-memory span store of the traced run. Thread-safe.
class tracer {
 public:
  /// Opens a span now; returns its id.
  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0,
                      long request = -1);
  void end(std::uint64_t id);

  /// Adds a finished span with explicit times; returns its id.
  std::uint64_t add(const std::string& name, std::uint64_t parent, double start,
                    double end, long request = -1, unsigned tid = 0);

  std::vector<span> spans() const;

  /// Per span name: the self time (duration minus the union of its
  /// children's intervals) of each span of that name, in seconds.
  std::map<std::string, std::vector<double>> self_times() const;

  /// Share of the root spans' wall time covered by their descendants
  /// (1 - summed root self time / summed root duration).
  double layer_share() const;

  /// Writes the spans as Chrome trace_event JSON. Returns false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span on a tracer; a no-op when the tracer is null (untraced run).
class scoped_span {
 public:
  scoped_span(tracer* t, const std::string& name, std::uint64_t parent = 0,
              long request = -1)
      : tracer_(t), id_(t != nullptr ? t->begin(name, parent, request) : 0) {}
  ~scoped_span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  tracer* tracer_;
  std::uint64_t id_;
};

/// Every per-layer metric name with its unit, in BENCHMARK.json order. A
/// traced run emits all of them; layers a workload does not reach read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Per-layer metric values of a traced run, by name.
using layer_map = std::map<std::string, double>;

/// Emits every layer metric: the values in `measured`, 0 for the rest.
/// A name missing from layer_metric_units() is a programming error.
void emit_layer_metrics(run_result& out, const layer_map& measured);

// ---------------------------------------------------------- shared inputs

/// Synthetic industrial model 1 of the paper benches (generator seed 1),
/// at full (paper-order) size or at bench size.
sdft::industrial_options model1_options(bool full);

/// Basic events of `model` by decreasing Fussell-Vesely importance, ranked
/// on the canonical cutset list of the engine's static run (t = 24 h,
/// cutoff 1e-15).
std::vector<sdft::node_index> fv_ranking(const sdft::industrial_model& model,
                                         std::size_t threads);

// -------------------------------------------------------------- workloads

// Each workload sets up, measures for cfg.seconds and records its
// operations in `out`: the end-to-end metrics on an untraced run, the
// per-layer values in `layers` on a traced run.
void run_analyze_paper(const run_config& cfg, run_result& out,
                       layer_map& layers);
void run_serve_whatif(const run_config& cfg, run_result& out,
                      layer_map& layers);
void run_etree_uq(const run_config& cfg, run_result& out, layer_map& layers);
void run_mc_rare(const run_config& cfg, run_result& out, layer_map& layers);

}  // namespace perfbench

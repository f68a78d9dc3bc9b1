#pragma once

// Lightweight observability layer: thread-safe span tracing plus a named
// metrics registry, shared by the analysis engine, the MOCUS driver, the
// quantifier and the CLI (exported as Chrome trace_event JSON and a flat
// metrics JSON).
//
// Two switches control the cost:
//   * compile time — build with -DSDFT_OBS=0 and every recording call
//     compiles to nothing (span_scope is an empty struct, counters are
//     no-ops);
//   * run time — obs::set_enabled(false) (the default) turns every
//     recording call into a single relaxed atomic load and branch, so
//     instrumented hot paths stay within noise of uninstrumented builds.
//
// Span taxonomy and metric names are documented in DESIGN.md §11.

#ifndef SDFT_OBS
#define SDFT_OBS 1
#endif

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace sdft::obs {

// ---------------------------------------------------------------------------
// Runtime switch

#if SDFT_OBS
/// True when recording is both compiled in and enabled at run time.
bool enabled();
/// Turns recording on or off process-wide (spans and live counters).
void set_enabled(bool on);
#else
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#endif

/// True when the layer is compiled in at all (SDFT_OBS != 0).
constexpr bool compiled_in() { return SDFT_OBS != 0; }

// ---------------------------------------------------------------------------
// Spans

/// Small fixed set of numeric key/value annotations on a span. Keys must
/// be string literals (or otherwise outlive the trace recorder snapshot).
struct span_args {
  static constexpr std::size_t capacity = 6;
  std::array<const char*, capacity> keys{};
  std::array<double, capacity> values{};
  std::size_t count = 0;

  void add(const char* key, double value) {
    if (count < capacity) {
      keys[count] = key;
      values[count] = value;
      ++count;
    }
  }
};

/// One finished span as held by the trace recorder.
struct span_record {
  const char* name = "";      ///< static-lifetime span name
  const char* category = "";  ///< static-lifetime category ("engine", ...)
  std::uint64_t id = 0;       ///< unique, process-wide, never 0
  std::uint64_t parent = 0;   ///< enclosing span id; 0 for roots
  std::uint64_t start_ns = 0; ///< monotonic, relative to the recorder epoch
  std::uint64_t duration_ns = 0;
  std::uint32_t tid = 0;      ///< small per-thread id (see thread_label)
  span_args args;
};

#if SDFT_OBS

/// RAII span: records one span_record from construction to destruction on
/// the calling thread's buffer. When recording is disabled the constructor
/// reduces to one relaxed atomic load.
class span_scope {
 public:
  explicit span_scope(const char* name, const char* category = "engine");
  /// Span with an explicit parent id (for cross-thread parentage when the
  /// ambient parent is not enough).
  span_scope(const char* name, const char* category, std::uint64_t parent);
  ~span_scope();

  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

  /// Attaches a numeric annotation; ignored when the span is inactive.
  void arg(const char* key, double value) {
    if (active_) rec_.args.add(key, value);
  }

  /// Id of this span (0 when recording is off).
  std::uint64_t id() const { return active_ ? rec_.id : 0; }
  bool active() const { return active_; }

 private:
  bool active_ = false;
  span_record rec_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t saved_current_ = 0;
};

/// Sets the cross-thread fallback parent: spans started on threads with no
/// enclosing span (e.g. pool workers) attach to the ambient span. Nests.
class ambient_parent_scope {
 public:
  explicit ambient_parent_scope(std::uint64_t parent);
  ~ambient_parent_scope();
  ambient_parent_scope(const ambient_parent_scope&) = delete;
  ambient_parent_scope& operator=(const ambient_parent_scope&) = delete;

 private:
  std::uint64_t saved_;
};

/// Names the calling thread in trace exports (e.g. "pool-worker-3").
void set_thread_label(const std::string& label);

/// Process-wide sink of finished spans. Each thread appends to its own
/// registered buffer (uncontended mutex), so recording never serialises
/// the workers; snapshot() and clear() walk all buffers.
class trace_recorder {
 public:
  static trace_recorder& instance();

  /// Drops all recorded spans and restarts the time epoch.
  void clear();

  /// All finished spans so far, ordered by start time.
  std::vector<span_record> snapshot() const;

  /// Labels assigned via set_thread_label, keyed by small thread id.
  std::vector<std::pair<std::uint32_t, std::string>> thread_labels() const;

  /// Writes the Chrome trace_event JSON ("traceEvents" array of complete
  /// "X" events plus thread_name metadata), loadable in chrome://tracing
  /// and Perfetto.
  void write_chrome_json(std::ostream& out) const;

  std::size_t size() const;
};

#else  // SDFT_OBS == 0: every recording construct is a no-op.

class span_scope {
 public:
  explicit span_scope(const char*, const char* = "engine") {}
  span_scope(const char*, const char*, std::uint64_t) {}
  void arg(const char*, double) {}
  std::uint64_t id() const { return 0; }
  bool active() const { return false; }
};

class ambient_parent_scope {
 public:
  explicit ambient_parent_scope(std::uint64_t) {}
};

inline void set_thread_label(const std::string&) {}

class trace_recorder {
 public:
  static trace_recorder& instance() {
    static trace_recorder r;
    return r;
  }
  void clear() {}
  std::vector<span_record> snapshot() const { return {}; }
  std::vector<std::pair<std::uint32_t, std::string>> thread_labels() const {
    return {};
  }
  void write_chrome_json(std::ostream& out) const;
  std::size_t size() const { return 0; }
};

#endif  // SDFT_OBS

// ---------------------------------------------------------------------------
// Metrics

/// Monotonic (between resets) event counter.
class counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins numeric observation (occupancy, seconds, sizes).
class gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Streaming histogram over non-negative samples: count, sum, min, max
/// plus power-of-two magnitude buckets (bucket i counts samples in
/// [2^(i-1), 2^i), bucket 0 counts samples < 1).
class histogram {
 public:
  static constexpr std::size_t num_buckets = 48;

  void observe(double v);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;
  double max() const;
  double mean() const;
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::array<std::atomic<std::uint64_t>, num_buckets> buckets_{};
};

/// Named counters, gauges, histograms and string labels. Lookup returns a
/// stable reference (instruments are never removed, reset() only zeroes
/// them), so hot paths resolve a name once and keep the handle:
///
///   static obs::counter& c =
///       obs::metrics_registry::global().get_counter("engine.cutsets");
///   c.add(1);
class metrics_registry {
 public:
  static metrics_registry& global();

  counter& get_counter(const std::string& name);
  gauge& get_gauge(const std::string& name);
  histogram& get_histogram(const std::string& name);

  /// Convenience setters (resolve + write in one call; not for hot paths).
  void set_gauge(const std::string& name, double v) { get_gauge(name).set(v); }
  void set_counter(const std::string& name, std::uint64_t v) {
    get_counter(name).set(v);
  }
  void set_label(const std::string& name, const std::string& value);
  std::string label(const std::string& name) const;

  /// Zeroes every instrument and drops labels; registrations (and thus
  /// previously returned references) stay valid.
  void reset();

  /// Flat machine-readable dump: one JSON object whose keys are metric
  /// names; counters are integers, gauges doubles, labels strings and
  /// histograms objects with count/sum/min/max/mean.
  std::string to_json() const;

  /// Sorted names of all registered instruments (all four kinds).
  std::vector<std::string> names() const;

  metrics_registry();
  ~metrics_registry();
  metrics_registry(const metrics_registry&) = delete;
  metrics_registry& operator=(const metrics_registry&) = delete;

 private:
  struct impl;
  impl* impl_;
};

}  // namespace sdft::obs

#include "engine/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// Total grid-size guard: a mistyped axis should fail loudly, not OOM.
constexpr std::size_t max_grid_points = 1 << 20;

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// The `i`-th of `count` values between lo and hi (inclusive ends).
double axis_value(const sweep_description::range& r, std::size_t i) {
  if (r.count == 1) return r.lo;
  const double t =
      static_cast<double>(i) / static_cast<double>(r.count - 1);
  if (r.log_scale) return r.lo * std::pow(r.hi / r.lo, t);
  return r.lo + (r.hi - r.lo) * t;
}

}  // namespace

sweep_description parse_sweep_ranges(const std::vector<std::string>& args) {
  sweep_description out;
  for (const std::string& arg : args) {
    const auto fail = [&](const std::string& what) {
      throw error("sweep range '" + arg + "': " + what +
                  " (expected NAME=lo:hi:N[:log|:linear])");
    };
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) fail("missing NAME=");
    sweep_description::range r;
    r.event = arg.substr(0, eq);
    std::vector<std::string> parts;
    std::size_t start = eq + 1;
    while (start <= arg.size()) {
      const std::size_t colon = arg.find(':', start);
      parts.push_back(arg.substr(start, colon == std::string::npos
                                            ? std::string::npos
                                            : colon - start));
      if (colon == std::string::npos) break;
      start = colon + 1;
    }
    if (parts.size() < 3 || parts.size() > 4) fail("need lo:hi:N");
    try {
      std::size_t used = 0;
      r.lo = std::stod(parts[0], &used);
      if (used != parts[0].size()) fail("malformed lo");
      r.hi = std::stod(parts[1], &used);
      if (used != parts[1].size()) fail("malformed hi");
      const long long n = std::stoll(parts[2], &used);
      if (used != parts[2].size() || n < 1) fail("N must be >= 1");
      r.count = static_cast<std::size_t>(n);
    } catch (const error&) {
      throw;
    } catch (const std::exception&) {
      fail("malformed number");
    }
    if (parts.size() == 4) {
      if (parts[3] == "log") {
        r.log_scale = true;
      } else if (parts[3] == "linear") {
        r.log_scale = false;
      } else {
        fail("scale must be 'log' or 'linear'");
      }
    }
    out.ranges.push_back(std::move(r));
  }
  return out;
}

sweep_description parse_sweep_json(const std::string& text) {
  return parse_sweep_value(json::parse(text));
}

sweep_description parse_sweep_value(const json::value& root) {
  if (!root.is_object()) throw error("sweep spec: top level must be an object");
  sweep_description out;
  if (root.contains("points")) {
    for (const json::value& p : root.at("points").as_array()) {
      sweep_description::named_point point;
      if (p.contains("overrides")) {
        for (const auto& [name, v] : p.at("overrides").as_object()) {
          point.overrides.emplace_back(name, v.as_number());
        }
      }
      if (p.contains("horizon")) point.horizon = p.at("horizon").as_number();
      if (p.contains("label")) point.label = p.at("label").as_string();
      out.points.push_back(std::move(point));
    }
  }
  if (root.contains("params")) {
    if (!out.points.empty()) {
      throw error("sweep spec: give either 'points' or 'params', not both");
    }
    for (const json::value& p : root.at("params").as_array()) {
      sweep_description::range r;
      r.event = p.at("name").as_string();
      r.lo = p.at("lo").as_number();
      r.hi = p.at("hi").as_number();
      const std::optional<std::size_t> n = p.at("n").as_count();
      if (!n || *n < 1) {
        throw error("sweep spec: 'n' must be >= 1 (an integer below 2^64)");
      }
      r.count = *n;
      if (p.contains("scale")) {
        const std::string& scale = p.at("scale").as_string();
        if (scale == "log") {
          r.log_scale = true;
        } else if (scale == "linear") {
          r.log_scale = false;
        } else {
          throw error("sweep spec: scale must be 'log' or 'linear'");
        }
      }
      out.ranges.push_back(std::move(r));
    }
  }
  if (out.empty()) {
    throw error("sweep spec: needs a 'points' or 'params' array");
  }
  return out;
}

sweep_spec resolve_sweep(const sweep_description& description,
                         const sd_fault_tree& tree) {
  require_model(!description.empty(), "sweep: no points or ranges given");
  const auto resolve_event = [&](const std::string& name) {
    const node_index e = tree.structure().find(name);
    require_model(e != fault_tree::npos, "sweep: unknown event '" + name + "'");
    require_model(
        tree.is_static(e),
        "sweep: event '" + name +
            "' is not a static basic event (dynamic parameters live in "
            "their chains and cannot be swept)");
    return e;
  };
  const auto check_probability = [](const std::string& name, double p) {
    require_model(p >= 0.0 && p <= 1.0, "sweep: probability " +
                                            format_value(p) + " for '" +
                                            name + "' outside [0, 1]");
  };

  sweep_spec spec;
  if (!description.points.empty()) {
    spec.points.reserve(description.points.size());
    for (const auto& p : description.points) {
      sweep_point point;
      point.horizon = p.horizon;
      point.label = p.label;
      std::string label;
      for (const auto& [name, value] : p.overrides) {
        check_probability(name, value);
        point.overrides.emplace_back(resolve_event(name), value);
        label += (label.empty() ? "" : ",") + name + "=" + format_value(value);
      }
      if (point.label.empty()) point.label = std::move(label);
      spec.points.push_back(std::move(point));
    }
    return spec;
  }

  // Cartesian grid over the range axes.
  std::vector<node_index> events;
  std::size_t total = 1;
  for (const auto& r : description.ranges) {
    const node_index e = resolve_event(r.event);
    require_model(std::find(events.begin(), events.end(), e) == events.end(),
                  "sweep: duplicate axis for event '" + r.event + "'");
    if (r.log_scale) {
      require_model(r.lo > 0.0 && r.hi > 0.0,
                    "sweep: log axis for '" + r.event +
                        "' needs positive bounds");
    }
    check_probability(r.event, r.lo);
    check_probability(r.event, r.hi);
    events.push_back(e);
    require_model(total <= max_grid_points / r.count,
                  "sweep: grid larger than " +
                      std::to_string(max_grid_points) + " points");
    total *= r.count;
  }
  spec.points.reserve(total);
  std::vector<std::size_t> idx(description.ranges.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    sweep_point point;
    std::string label;
    for (std::size_t a = 0; a < description.ranges.size(); ++a) {
      const auto& r = description.ranges[a];
      const double v = axis_value(r, idx[a]);
      check_probability(r.event, v);
      point.overrides.emplace_back(events[a], v);
      label += (label.empty() ? "" : ",") + r.event + "=" + format_value(v);
    }
    point.label = std::move(label);
    spec.points.push_back(std::move(point));
    for (std::size_t a = description.ranges.size(); a-- > 0;) {
      if (++idx[a] < description.ranges[a].count) break;
      idx[a] = 0;
    }
  }
  return spec;
}

sweep_result run_sweep(analysis_engine& engine, const sd_fault_tree& base,
                       const sweep_spec& spec) {
  return run_sweep(engine, base, spec, engine.options());
}

sweep_result run_sweep(analysis_engine& engine, const sd_fault_tree& base,
                       const sweep_spec& spec,
                       const analysis_options& base_options) {
  require_model(!spec.points.empty(), "sweep: empty point list");
  const stopwatch total_timer;
  obs::span_scope span("engine.sweep");
  span.arg("points", static_cast<double>(spec.points.size()));
  const analysis_options& base_opts = base_options;
  sweep_result out;

  // Prime the structure cache with the envelope: per-event maximum
  // probability over the base tree and every point, at the maximum
  // horizon. Every point is then pointwise dominated, so its analysis
  // replays stages 1b–2 from the cache (reachability probabilities are
  // nondecreasing in the horizon, so the max-horizon FT-bar probabilities
  // bound every point's).
  // (The mc backend generates no cutsets, so there is no structure to
  // prime — every point is an independent trajectory campaign.)
  if (base_opts.backend != cutset_backend::mc) {
    const stopwatch prime_timer;
    sd_fault_tree envelope = base;
    double max_horizon = base_opts.horizon;
    for (const sweep_point& p : spec.points) {
      for (const auto& [e, prob] : p.overrides) {
        envelope.structure().set_probability(
            e, std::max(envelope.structure().node(e).probability, prob));
      }
      if (p.horizon > 0) max_horizon = std::max(max_horizon, p.horizon);
    }
    analysis_options prime_opts = base_opts;
    prime_opts.horizon = max_horizon;
    engine.prime(envelope, prime_opts);
    out.prime_seconds = prime_timer.seconds();
  }

  // Fan the points out over the engine pool; each analysis runs inline on
  // its worker, sharing the engine's structure and quantification caches.
  thread_pool* const pool = engine.pool(base_opts);
  out.threads = pool != nullptr ? pool->size() : 1;
  out.points.resize(spec.points.size());
  std::atomic<std::size_t> struct_hits{0};
  parallel_for(pool, spec.points.size(), [&](std::size_t i) {
    const sweep_point& pt = spec.points[i];
    sd_fault_tree point_tree = base;
    for (const auto& [e, prob] : pt.overrides) {
      point_tree.structure().set_probability(e, prob);
    }
    analysis_options opts = base_opts;
    if (pt.horizon > 0) opts.horizon = pt.horizon;
    opts.inline_execution = true;
    opts.publish_metrics = false;
    analysis_result r = engine.run(point_tree, opts);
    struct_hits.fetch_add(r.stats.struct_cache_hits,
                          std::memory_order_relaxed);
    out.points[i] = std::move(r);
  });
  out.struct_cache_hits = struct_hits.load(std::memory_order_relaxed);
  for (const analysis_result& r : out.points) {
    out.aggregate.accumulate(r.stats);
  }
  out.aggregate.pool_threads = out.threads;
  out.total_seconds = total_timer.seconds();

  // One aggregate snapshot for the registry instead of N stomping
  // per-point publishes, plus the sweep's own counters.
  auto& registry = obs::metrics_registry::global();
  out.aggregate.publish(registry);
  registry.set_counter("sweep.points", out.points.size());
  registry.set_counter("sweep.struct_cache_hits", out.struct_cache_hits);
  registry.set_gauge("sweep.prime_seconds", out.prime_seconds);
  registry.set_gauge("sweep.total_seconds", out.total_seconds);
  span.arg("struct_cache_hits", static_cast<double>(out.struct_cache_hits));
  return out;
}

}  // namespace sdft

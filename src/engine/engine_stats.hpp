#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace sdft {

/// Instrumentation of one analysis_engine run: per-stage wall times,
/// backend counters and quantification-cache behaviour. Carried inside
/// analysis_result, printed by `sdft analyze --stats`, and published into
/// the obs::metrics_registry under the canonical names returned by
/// metrics() (the same keys `sdft analyze --metrics-json` and the BENCH_*
/// exports carry; see DESIGN.md §11).
struct engine_stats {
  /// How accumulate() folds a later run's field into a batch total.
  enum class aggregation { sum, max, latest };

  // The fields, declared from the vocabulary table (engine_stats.def).
#define SDFT_ENGINE_STAT(type, member, name, agg) type member{};
#include "engine/engine_stats.def"

  /// Calls `f(registry_name, aggregation, &engine_stats::member)` once per
  /// field, in table order. Everything that walks the vocabulary —
  /// accumulate(), metrics(), publish(), `obs_check metrics` — loops here.
  template <class F>
  static void for_each_field(F&& f) {
#define SDFT_ENGINE_STAT(type, member, name, agg) \
  f(name, aggregation::agg, &engine_stats::member);
#include "engine/engine_stats.def"
  }

  /// Field-wise accumulation for batched runs (the sweep aggregate), by
  /// each field's declared aggregation.
  void accumulate(const engine_stats& o) {
    for_each_field([&](const char*, aggregation agg, auto member) {
      auto& mine = this->*member;
      switch (agg) {
        case aggregation::sum: mine += o.*member; break;
        case aggregation::max: mine = std::max(mine, o.*member); break;
        case aggregation::latest: mine = o.*member; break;
      }
    });
  }

  /// Hits / (hits + misses); 0 when no dynamic cutset was quantified.
  double cache_hit_rate() const {
    const std::size_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }

  /// Every numeric field under its registry name, plus the derived
  /// `quant.cache_hit_rate`: the metric vocabulary that `--metrics-json`
  /// dumps and the benches attach to their BENCH_* rows.
  std::vector<std::pair<std::string, double>> metrics() const {
    std::vector<std::pair<std::string, double>> out;
    for_each_field([&](const char* name, aggregation, auto member) {
      if constexpr (!is_label<decltype(member)>) {
        out.emplace_back(name, static_cast<double>(this->*member));
      }
    });
    out.emplace_back("quant.cache_hit_rate", cache_hit_rate());
    return out;
  }

  /// Writes every field into `registry`, its kind following its type:
  /// double fields become gauges, counts counters, strings labels.
  void publish(obs::metrics_registry& registry) const {
    for_each_field([&](const char* name, aggregation, auto member) {
      const auto& value = this->*member;
      if constexpr (is_label<decltype(member)>) {
        registry.set_label(name, value);
      } else if constexpr (std::is_same_v<decltype(member),
                                          double engine_stats::*>) {
        registry.set_gauge(name, value);
      } else {
        registry.set_counter(name, value);
      }
    });
    registry.set_gauge("quant.cache_hit_rate", cache_hit_rate());
  }

  /// True for pointers to the string (label) fields.
  template <class Member>
  static constexpr bool is_label =
      std::is_same_v<Member, std::string engine_stats::*>;
};

}  // namespace sdft

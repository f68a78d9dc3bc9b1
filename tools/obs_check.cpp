// obs_check — validates the observability artifacts of an `sdft analyze`
// run. Used by the CI smoke job (and handy interactively) to catch schema
// drift before a trace stops loading in Chrome/Perfetto or a bench loses a
// metric key.
//
//   obs_check trace <trace.json>          validate a --trace-json file
//   obs_check metrics <metrics.json>      validate a --metrics-json file
//   obs_check bench-serve <BENCH.json>    validate a bench_serve artifact
//   obs_check bench-etree <BENCH.json>    validate a bench_etree artifact
//   obs_check bench-mc <BENCH_mc.json>    validate a bench_mc artifact
//
// Trace checks: well-formed JSON, a traceEvents array whose "X" events have
// non-negative ts/dur, unique span ids, parent ids that resolve (or 0), and
// one span for each of the five engine stages parented to engine.run.
// Metrics checks: a flat JSON object carrying every canonical engine_stats
// key (DESIGN.md §11) with numeric values.
// Bench-serve checks: the ISSUE acceptance thresholds — the batched sweep
// bit-identical to its one-shots and at least 5x faster, with every point a
// structure-cache hit.
// Bench-etree checks: the one-pass scenario engine bit-identical to
// per-sequence one-shots and across thread counts, >= 3x faster, with the
// shared compilation covering every functional-event gate.
// Bench-mc checks: crude MC empty at the shared budget while forcing and
// splitting both bracket the exact-static answer with a >= 10x relative
// error improvement over crude.
//
// Exit code 0 when valid; 1 with a message on stderr otherwise.

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using sdft::json::value;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw sdft::error("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void check(bool cond, const std::string& what) {
  if (!cond) throw sdft::error(what);
}

int check_trace(const std::string& path) {
  const value doc = sdft::json::parse(slurp(path));
  const value& events = doc.at("traceEvents");
  check(events.is_array(), "traceEvents is not an array");

  std::set<double> ids;
  std::size_t complete = 0;
  for (const value& e : events.as_array()) {
    const std::string& ph = e.at("ph").as_string();
    if (ph != "X") continue;  // metadata events etc.
    ++complete;
    check(e.at("ts").as_number() >= 0.0, "negative ts");
    check(e.at("dur").as_number() >= 0.0, "negative dur");
    check(e.at("pid").as_number() == 1.0, "unexpected pid");
    e.at("tid").as_number();
    const double id = e.at("args").at("span_id").as_number();
    check(ids.insert(id).second, "duplicate span id");
  }
  // Parents must either be a recorded span or 0 (no parent).
  std::set<std::string> stages;
  double run_id = 0.0;
  for (const value& e : events.as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    const double parent = e.at("args").at("parent_id").as_number();
    check(parent == 0.0 || ids.count(parent) > 0,
          "parent id does not resolve: " + e.at("name").as_string());
    if (e.at("name").as_string() == "engine.run") {
      run_id = e.at("args").at("span_id").as_number();
    }
  }
  for (const value& e : events.as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    const std::string& name = e.at("name").as_string();
    if (name == "engine.translate" || name == "engine.prep" ||
        name == "engine.generate" || name == "engine.quantify" ||
        name == "engine.sum") {
      check(e.at("args").at("parent_id").as_number() == run_id,
            "stage span '" + name + "' not parented to engine.run");
      stages.insert(name);
    }
  }
  check(stages.size() == 5, "missing engine stage spans (found " +
                                std::to_string(stages.size()) + "/5)");
  std::printf("trace ok: %zu spans, 5 engine stages\n", complete);
  return 0;
}

int check_metrics(const std::string& path) {
  const value doc = sdft::json::parse(slurp(path));
  check(doc.is_object(), "metrics file is not a JSON object");
  // The canonical engine_stats vocabulary (engine_stats::metrics()).
  const char* required[] = {
      "prep.seconds",             "prep.nodes_before",
      "prep.nodes_after",         "prep.nodes_eliminated",
      "prep.atleast_lowered",     "prep.constants_folded",
      "prep.gates_coalesced",     "prep.duplicates_merged",
      "prep.common_args_merged",  "prep.absorptions",
      "prep.passes",              "prep.modules",
      "prep.module_cutsets",
      "engine.translate_seconds", "engine.generate_seconds",
      "engine.quantify_seconds",  "engine.sum_seconds",
      "engine.total_seconds",     "engine.cutsets",
      "mocus.partials_expanded",  "mocus.cutoff_discarded",
      "bdd.nodes",                "quant.static_cutsets",
      "quant.dynamic_cutsets",    "quant.failed",
      "quant.lumped_orbits",      "quant.lumped_cutsets",
      "quant.packed_key_chains",  "quant.vector_key_chains",
      "transient.steps_saved",    "quant.cache_hit",
      "quant.cache_miss",         "quant.cache_entries",
      "quant.cache_hit_rate",     "quant.cache_evictions",
      "struct_cache.hits",        "struct_cache.misses",
      "struct_cache.evictions",   "struct_cache.entries",
      "pool.threads",
      "mocus.threads",            "mocus.tasks",
      "mocus.steals",             "mocus.occupancy",
      "quant.tasks",              "quant.steals",
      "pool.occupancy",
      "scenario.compile_seconds", "scenario.quantify_seconds",
      "scenario.cutset_seconds",  "scenario.total_seconds",
      "scenario.sequences",       "scenario.end_states",
      "scenario.functional_events", "scenario.bdd_nodes",
      "scenario.plan_nodes",
      "scenario.gates_compiled",  "scenario.prefix_hits",
      "scenario.sequence_cutsets",
      "ccf.groups",               "ccf.events_added",
      "ccf.members_expanded",
      "uq.seconds",               "uq.samples",
      "uq.parameters",
      "mc.seconds",               "mc.trajectories",
      "mc.failures",              "mc.levels",
      "mc.replications",          "mc.estimate",
      "mc.std_error",             "mc.ci_half_width",
      "mc.relative_error",
  };
  for (const char* key : required) {
    check(doc.contains(key), std::string("missing metric '") + key + "'");
    check(doc.at(key).is_number(),
          std::string("metric '") + key + "' is not numeric");
  }
  check(doc.contains("engine.backend"), "missing engine.backend label");
  std::printf("metrics ok: %zu entries, all canonical keys present\n",
              doc.as_object().size());
  return 0;
}

int check_bench_serve(const std::string& path) {
  const value doc = sdft::json::parse(slurp(path));
  const value& sweep = doc.at("sweep");
  check(sweep.at("bit_identical").as_bool(),
        "sweep results are not bit-identical to one-shots");
  const double points = sweep.at("points").as_number();
  check(points >= 32.0, "sweep has fewer than 32 points");
  check(sweep.at("struct_cache_hits").as_number() == points,
        "not every sweep point was a structure-cache hit");
  const double speedup = sweep.at("speedup").as_number();
  check(speedup >= 5.0, "sweep speedup " + std::to_string(speedup) +
                            "x is below the 5x acceptance threshold");
  doc.at("serve").at("cold_seconds").as_number();
  doc.at("serve").at("warm_mean_seconds").as_number();
  std::printf("bench-serve ok: %.0f points, %.1fx speedup, bit-identical\n",
              points, speedup);
  return 0;
}

int check_bench_etree(const std::string& path) {
  const value doc = sdft::json::parse(slurp(path));
  check(doc.at("bit_identical").as_bool(),
        "one-pass sequence probabilities are not bit-identical to "
        "per-sequence one-shots");
  check(doc.at("thread_identical").as_bool(),
        "one-pass results differ across thread counts");
  check(doc.at("uq").at("thread_identical").as_bool(),
        "UQ bands differ across thread counts");
  const double sequences = doc.at("etree").at("sequences").as_number();
  check(sequences >= 16.0, "event tree has fewer than 16 sequences");
  const double compiled = doc.at("etree").at("gates_compiled").as_number();
  const double functional =
      doc.at("etree").at("functional_events").as_number();
  check(compiled >= functional,
        "shared compilation did not cover every functional-event gate");
  const double speedup = doc.at("speedup").as_number();
  check(speedup >= 3.0, "one-pass speedup " + std::to_string(speedup) +
                            "x is below the 3x acceptance threshold");
  std::printf(
      "bench-etree ok: %.0f sequences, %.1fx speedup, bit-identical\n",
      sequences, speedup);
  return 0;
}

int check_bench_mc(const std::string& path) {
  const value doc = sdft::json::parse(slurp(path));
  check(doc.at("budget").as_number() >= 1.0, "missing trajectory budget");

  // Two rare-event cases: forcing on a static industrial variant
  // (reference: exact-static BDD) and splitting on a dynamic redundant
  // group (reference: product CTMC). Splitting is structurally inert on
  // purely static models — the importance function cannot rise without
  // dynamics — which is why each variance-reduction method gets its own
  // demonstration model.
  const value& cases = doc.at("cases");
  check(cases.as_array().size() >= 2, "expected at least two bench cases");
  bool saw_forcing = false;
  bool saw_splitting = false;
  for (const value& c : cases.as_array()) {
    const std::string name = c.at("name").as_string();
    const double exact = c.at("exact").as_number();
    check(exact > 0.0,
          name + ": exact reference probability is not positive");
    check(c.at("budget").as_number() >= 1.0, name + ": missing budget");

    // Crude MC at the shared budget must demonstrate the rare-event
    // problem: zero observed failures, i.e. an empty confidence interval.
    check(c.at("crude").at("empty").as_bool(),
          name + ": crude MC observed failures at this budget; the model "
                 "is not a rare-event demonstration");

    // The variance-reduction method must bracket the exact answer.
    const value& rare = c.at("rare");
    const std::string method = rare.at("method").as_string();
    saw_forcing = saw_forcing || method == "forcing";
    saw_splitting = saw_splitting || method == "splitting";
    const double lo = rare.at("ci_low").as_number();
    const double hi = rare.at("ci_high").as_number();
    check(lo <= exact && exact <= hi,
          name + ": " + method + " CI [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "] does not bracket exact " +
              std::to_string(exact));
    const double rel = rare.at("relative_error").as_number();
    check(rel > 0.0, name + ": relative error is not positive");

    // The acceptance threshold: >= 10x lower relative error than crude MC
    // at the same trajectory budget. With zero crude hits the bench scores
    // crude by its rule-of-three upper bound, so the ratio stays finite.
    const double improvement = c.at("improvement").as_number();
    check(improvement >= 10.0,
          name + ": improvement " + std::to_string(improvement) +
              "x is below the 10x acceptance threshold");
    std::printf("bench-mc case %s: exact %.3g bracketed by %s, rel err "
                "%.3g, %.0fx better than crude\n",
                name.c_str(), exact, method.c_str(), rel, improvement);
  }
  check(saw_forcing, "no case demonstrates failure forcing");
  check(saw_splitting, "no case demonstrates importance splitting");

  // Relative-error-vs-time curve entries must be well-formed.
  const value& curve = doc.at("curve");
  check(!curve.as_array().empty(), "missing relative-error-vs-time curve");
  for (const value& p : curve.as_array()) {
    p.at("case").as_string();
    check(p.at("trajectories").as_number() >= 1.0,
          "curve point without trajectories");
    check(p.at("seconds").as_number() >= 0.0, "curve point without timing");
    p.at("relative_error").as_number();
  }
  std::printf("bench-mc ok: %zu cases, %zu curve points\n",
              cases.as_array().size(), curve.as_array().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(
        stderr,
        "usage: obs_check <trace|metrics|bench-serve|bench-etree|bench-mc> "
        "<file>\n");
    return 2;
  }
  try {
    const std::string mode = argv[1];
    if (mode == "trace") return check_trace(argv[2]);
    if (mode == "metrics") return check_metrics(argv[2]);
    if (mode == "bench-serve") return check_bench_serve(argv[2]);
    if (mode == "bench-etree") return check_bench_etree(argv[2]);
    if (mode == "bench-mc") return check_bench_mc(argv[2]);
    std::fprintf(stderr, "obs_check: unknown mode '%s'\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obs_check: %s\n", e.what());
    return 1;
  }
}

// bench_etree — A/B benchmark of the one-pass event-tree scenario engine
// against per-sequence one-shot compilations.
//
//   bench_etree [--full] [--threads N] [--systems K] [--out FILE]
//
// Builds an industrial-family static study (gen/industrial), raises an
// event tree over K front-line system gates (full binary expansion: 2^K
// sequences, every functional event demanded in every sequence), then
// measures:
//
//   A  one pass: scenario_engine compiles every gate once into one shared
//      multi-root BDD and batch-quantifies all sequences and end states
//      (construction + run(), cutset column off — both sides BDD-exact).
//   B  one-shot: sequence_probability_exact per sequence, each call
//      compiling its own event_tree_bdd from scratch — the workload a
//      per-sequence analysis loop pays today.
//
// Asserts per-sequence bit-identity A == B (BDD operations are canonical,
// so sharing the compilation must not move a single bit) and
// A(threads=1) == A(threads=N) (index-ordered reduction). A UQ row then
// times 1000 Monte-Carlo samples (lognormal EF 3 on the IE and on every
// train's first demand failure; one sweep of the frozen plan per sample)
// and asserts the bands are bit-identical at 1 and N threads. Writes the
// measurements as JSON (default BENCH_etree.json) for CI archival;
// `obs_check bench-etree` asserts the >= 3x acceptance threshold on it.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/scenario.hpp"
#include "etree/event_tree.hpp"
#include "etree/scenario.hpp"
#include "gen/industrial.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace sdft;

const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

/// The scenario over the generated study: IE0 initiates, the first K
/// front-line system gates are the functional events, and every F/S
/// combination is a sequence (end state CD when two or more systems
/// fail, OK otherwise — the usual "redundant mitigation" reading).
scenario_description make_scenario(const fault_tree& ft, int systems) {
  scenario_description sc;
  sc.name = "BENCH";
  sc.initiating_event = "IE0";
  require_model(ft.find("IE0") != fault_tree::npos,
                "bench_etree: generated model has no IE0");
  for (int k = 0; k < systems; ++k) {
    const std::string gate = "SYS" + std::to_string(k) + "_F";
    require_model(ft.find(gate) != fault_tree::npos,
                  "bench_etree: generated model has no " + gate);
    sc.functional.push_back({"F" + std::to_string(k), gate});
  }
  const std::size_t num_seq = std::size_t{1} << systems;
  for (std::size_t mask = 0; mask < num_seq; ++mask) {
    scenario_description::sequence s;
    int failures = 0;
    for (int k = 0; k < systems; ++k) {
      const bool failed = (mask >> k) & 1u;
      failures += failed ? 1 : 0;
      s.outcomes.push_back(failed ? branch_outcome::failure
                                  : branch_outcome::success);
    }
    s.end_state = failures >= 2 ? "CD" : "OK";
    sc.sequences.push_back(std::move(s));
  }
  return sc;
}

/// Lognormal (EF 3) on the IE and on the first demand failure of every
/// train of the functional systems — the UQ row's parameters.
void add_distributions(scenario_description& sc, const fault_tree& ft,
                       int systems) {
  std::vector<std::string> events{"IE0"};
  for (int k = 0; k < systems; ++k) {
    for (int train = 0; train < 3; ++train) {
      events.push_back("SYS" + std::to_string(k) + "_T" +
                       std::to_string(train) + "_C0_FTS");
    }
  }
  for (const auto& e : events) {
    if (ft.find(e) == fault_tree::npos) continue;
    parameter_distribution d;
    d.event = e;
    d.model = parameter_distribution::kind::lognormal;
    d.error_factor = 3.0;
    sc.distributions.push_back(d);
  }
}

std::vector<double> uq_bands(const scenario_result& r) {
  std::vector<double> v;
  for (const auto& s : r.sequences) {
    v.insert(v.end(), {s.uq.mean, s.uq.p05, s.uq.p50, s.uq.p95});
  }
  for (const auto& e : r.end_states) {
    v.insert(v.end(), {e.uq.mean, e.uq.p05, e.uq.p50, e.uq.p95});
  }
  return v;
}

std::vector<double> sequence_probabilities(const scenario_result& r) {
  std::vector<double> p;
  p.reserve(r.sequences.size());
  for (const auto& s : r.sequences) p.push_back(s.probability);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  const char* threads_arg = arg_value(argc, argv, "--threads");
  const char* systems_arg = arg_value(argc, argv, "--systems");
  const char* out_arg = arg_value(argc, argv, "--out");
  const int threads = threads_arg != nullptr ? std::atoi(threads_arg) : 8;
  // 9 systems / 512 sequences: enough prefix reuse for the speedup to
  // dominate the fixed costs, while the bench stays CI-sized (seconds).
  const int systems = systems_arg != nullptr ? std::atoi(systems_arg) : 9;
  const std::string out_path =
      out_arg != nullptr ? out_arg : "BENCH_etree.json";

  try {
    const industrial_model study =
        generate_industrial(bench::model1_options(full));
    const fault_tree& ft = study.ft;
    scenario_description sc = make_scenario(ft, systems);
    add_distributions(sc, ft, systems);
    const std::size_t num_seq = sc.sequences.size();
    std::printf("model: %zu basic events, %zu gates; etree: %d functional "
                "events, %zu sequences\n",
                ft.num_basic_events(), ft.num_gates(), systems, num_seq);

    // A: the one-pass engine (compile counted — that IS the shared cost).
    scenario_options a_opts;
    a_opts.analysis.threads = threads;
    a_opts.analysis.publish_metrics = false;
    a_opts.quantify_cutsets = false;
    stopwatch a_timer;
    scenario_engine engine({sd_fault_tree(ft), sc}, a_opts);
    const scenario_result a = engine.run();
    const double one_pass_seconds = a_timer.seconds();
    const std::vector<double> a_probs = sequence_probabilities(a);

    // Thread-identity: the same pass serialized must not move a bit.
    scenario_options serial_opts = a_opts;
    serial_opts.analysis.threads = 1;
    serial_opts.analysis.inline_execution = true;
    const scenario_result a1 =
        run_scenario({sd_fault_tree(ft), sc}, serial_opts);
    const bool thread_identical = a_probs == sequence_probabilities(a1);

    // B: per-sequence one-shots, each compiling its own BDD.
    event_tree et(ft, ft.find("IE0"), sc.name);
    for (const auto& f : sc.functional) {
      et.add_functional_event(f.name, ft.find(f.gate));
    }
    for (const auto& s : sc.sequences) et.add_sequence(s.outcomes, s.end_state);
    stopwatch b_timer;
    std::vector<double> b_probs(num_seq, 0.0);
    for (std::size_t s = 0; s < num_seq; ++s) {
      b_probs[s] = sequence_probability_exact(et, s);
    }
    const double one_shot_seconds = b_timer.seconds();

    // UQ row: 1000 samples off the already compiled engine, against the
    // same samples on a serial engine.
    constexpr std::size_t uq_samples = 1000;
    constexpr std::uint64_t uq_seed = 1;
    const scenario_result uq = engine.run(uq_samples, uq_seed);
    scenario_engine serial_engine({sd_fault_tree(ft), sc}, serial_opts);
    const bool uq_thread_identical =
        uq_bands(uq) == uq_bands(serial_engine.run(uq_samples, uq_seed));
    const double uq_samples_per_s =
        uq.stats.uq_seconds > 0.0
            ? static_cast<double>(uq_samples) / uq.stats.uq_seconds
            : 0.0;
    std::printf("uq: %zu samples x %zu parameters in %.4fs (%.0f samples/s, "
                "%zu plan nodes per sweep), %s\n",
                uq_samples, uq.stats.uq_parameters, uq.stats.uq_seconds,
                uq_samples_per_s, uq.stats.scenario_plan_nodes,
                uq_thread_identical ? "thread-identical" : "THREAD MISMATCH");

    const bool bit_identical = a_probs == b_probs;
    const double speedup =
        one_pass_seconds > 0.0 ? one_shot_seconds / one_pass_seconds : 0.0;
    std::printf("one pass %.4fs (%zu gates compiled, %zu prefix hits, %zu "
                "BDD nodes), one-shots %.4fs, speedup %.1fx, %s, %s\n",
                one_pass_seconds, a.stats.scenario_gates_compiled,
                a.stats.scenario_prefix_hits, a.stats.scenario_bdd_nodes,
                one_shot_seconds, speedup,
                bit_identical ? "bit-identical" : "MISMATCH",
                thread_identical ? "thread-identical" : "THREAD MISMATCH");

    json::writer w;
    w.begin_object();
    w.key("model").begin_object();
    w.key("basic_events").integer(ft.num_basic_events());
    w.key("gates").integer(ft.num_gates());
    w.key("full").boolean(full);
    w.end_object();
    w.key("etree").begin_object();
    w.key("functional_events").integer(systems);
    w.key("sequences").integer(num_seq);
    w.key("end_states").integer(a.end_states.size());
    w.key("gates_compiled").integer(a.stats.scenario_gates_compiled);
    w.key("prefix_hits").integer(a.stats.scenario_prefix_hits);
    w.key("bdd_nodes").integer(a.stats.scenario_bdd_nodes);
    w.key("plan_nodes").integer(a.stats.scenario_plan_nodes);
    w.end_object();
    w.key("uq").begin_object();
    w.key("samples").integer(uq_samples);
    w.key("parameters").integer(uq.stats.uq_parameters);
    w.key("seconds").number(uq.stats.uq_seconds);
    w.key("samples_per_s").number(uq_samples_per_s);
    w.key("thread_identical").boolean(uq_thread_identical);
    w.end_object();
    w.key("one_pass_seconds").number(one_pass_seconds);
    w.key("one_shot_seconds").number(one_shot_seconds);
    w.key("speedup").number(speedup);
    w.key("bit_identical").boolean(bit_identical);
    w.key("thread_identical").boolean(thread_identical);
    w.key("threads").integer(threads);
    w.end_object();
    std::ofstream out(out_path);
    out << w.str() << "\n";
    std::printf("wrote %s\n", out_path.c_str());
    return bit_identical && thread_identical && uq_thread_identical ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_etree: %s\n", e.what());
    return 1;
  }
}

// sdft — command-line front end to the SD fault tree analysis library.
//
//   sdft static <file>                 exact + rare-event static analysis
//   sdft mcs <file> [options]          minimal cutsets (on FT-bar for SD)
//   sdft analyze <file> [options]      the paper's SD pipeline (§V)
//   sdft exact <file> [options]        exact product-CTMC semantics (§III)
//   sdft importance <file> [options]   Fussell-Vesely ranking
//   sdft classify <file>               trigger-gate classification (§V-A)
//   sdft convert <file>                echo the normalised model text
//   sdft sweep <file> [options]        batched parameter sweep over one
//                                      cached structure (--sweep-param /
//                                      --sweep-spec)
//   sdft etree <file> [options]        one-pass event-tree scenario
//                                      quantification (sequences, end
//                                      states, CCF, --uq-samples bands;
//                                      --sweep-* re-evaluates points off
//                                      the compiled scenario)
//   sdft serve [<file>] [options]      resident NDJSON analysis service
//                                      (--stdio default, or --port N;
//                                      preload models with --model)
//
// Options: --horizon H (hours, default 24), --cutoff C (default 0),
//          --threads N, --mode exact|under|over, --top K (rows to print),
//          --details (per-cutset breakdown),
//          --backend mocus|mc (MOCUS cutsets, or Monte-Carlo
//          estimation; mc reports a confidence interval and composes with
//          --mc-method crude|forcing|splitting, --mc-trajectories N,
//          --mc-batch N, --mc-levels N, --mc-replications N, --seed S),
//          --exact-static (exact static FT-bar probability via one BDD,
//          compiled once in DFS order and frozen to a plan),
//          --no-prep (mandatory normalisation only),
//          --stats (engine instrumentation: stage times, backend
//          counters, quantification-cache hits/misses, pool occupancy),
//          --struct-cache-entries N / --quant-cache-entries N (LRU bounds),
//          --sweep-param NAME=lo:hi:N[:log|:linear] (repeatable; the grid
//          is the cartesian product), --sweep-spec FILE (JSON spec),
//          --uq-samples N (etree parameter-uncertainty samples; seeded by
//          --seed, bit-identical at any thread count),
//          --port N / --stdio / --model name=path (serve transports),
//          --trace-json FILE (Chrome trace_event spans of the run),
//          --metrics-json FILE (obs metric registry dump; see DESIGN.md §11).
//
// Exit codes: 0 success, 1 model/numeric error (sdft::error), 2 usage or
// unexpected internal error.
//
// Files use the SD fault tree text format (sdft/parser.hpp); purely static
// models are ordinary SD files without dyn/trigger lines.

#include <cstdio>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <iostream>

#include "engine/engine.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep.hpp"
#include "etree/scenario.hpp"
#include "serve/service.hpp"
#include "serve/transport.hpp"
#include "core/risk_measures.hpp"
#include "mcs/importance.hpp"
#include "obs/obs.hpp"
#include "product/product_ctmc.hpp"
#include "sdft/classify.hpp"
#include "sdft/parser.hpp"
#include "ft/openpsa.hpp"
#include "sdft/translate.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sdft;

struct cli_options {
  std::string command;
  std::string file;
  double horizon = 24.0;
  double cutoff = 0.0;
  std::size_t threads = 0;
  approx_mode mode = approx_mode::as_classified;
  std::size_t top = 20;
  bool details = false;
  bool stats = false;
  cutset_backend backend = cutset_backend::mocus;
  bool exact_static = false;
  prep_options prep;
  std::size_t runs = 100'000;
  std::uint64_t seed = 1;

  // Monte-Carlo backend (--backend mc) campaign knobs; seed comes from
  // --seed, everything else from its mc_options default when not given.
  sim::mc_options mc;
  std::string trace_json;    ///< Chrome trace_event output path (empty: off)
  std::string metrics_json;  ///< metric registry dump path (empty: off)

  // Entry bounds of the structure and quantification caches.
  std::size_t struct_cache_entries = structure_cache::default_capacity;
  std::size_t quant_cache_entries = quantification_cache::default_capacity;

  // sweep command inputs (also accepted by etree: points re-evaluated
  // off the compiled scenario).
  std::vector<std::string> sweep_params;  ///< NAME=lo:hi:N[:scale] axes
  std::string sweep_spec;                 ///< JSON spec file

  // etree command inputs.
  std::size_t uq_samples = 0;  ///< parameter-uncertainty samples (0: off)

  // serve command transports.
  int port = -1;          ///< TCP port (-1: not requested; 0: ephemeral)
  bool use_stdio = false;
  std::vector<std::pair<std::string, std::string>> models;  ///< name=path
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: sdft <static|simulate|export|import|mcs|analyze|exact|importance|classify|convert|sweep|etree|serve> "
      "<file>\n"
      "            [--horizon H] [--cutoff C] [--threads N]\n"
      "            [--mode exact|under|over] [--top K] [--details]\n"
      "            [--backend mocus|mc] [--stats]\n"
      "            [--mc-method crude|forcing|splitting] "
      "[--mc-trajectories N]\n"
      "            [--mc-batch N] [--mc-levels N] [--mc-replications N]\n"
      "            [--exact-static] [--no-prep]\n"
      "            [--struct-cache-entries N] [--quant-cache-entries N]\n"
      "            [--sweep-param NAME=lo:hi:N[:log|:linear]] "
      "[--sweep-spec FILE]\n"
      "            [--uq-samples N]\n"
      "            [--port N | --stdio] [--model name=path]\n"
      "            [--trace-json FILE] [--metrics-json FILE]\n");
  std::exit(2);
}

/// Usage errors with a specific complaint: message, then the usage block
/// (exit 2, distinct from model/numeric errors' exit 1).
[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "sdft: %s\n", what.c_str());
  usage();
}

/// A count or seed flag value: decimal digits only, fitting 64 bits —
/// the same rule the serve grammar applies to its count fields. (stoul
/// alone accepts "-1" and wraps it to 2^64 - 1.)
std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  const bool digits =
      !text.empty() && std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  if (digits) {
    try {
      return std::stoull(text);
    } catch (const std::out_of_range&) {
    }
  }
  usage_error(flag + " needs a non-negative integer below 2^64, got '" +
              text + "'");
}

cli_options parse_args(int argc, char** argv) {
  if (argc < 2) usage();
  cli_options opt;
  opt.command = argv[1];
  int start = 2;
  // The model file is optional for serve (models can arrive via --model
  // or the protocol's load op); every other command requires it.
  if (start < argc && argv[start][0] != '-') opt.file = argv[start++];
  if (opt.file.empty() && opt.command != "serve") usage();
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--horizon") {
      opt.horizon = std::stod(next());
    } else if (arg == "--cutoff") {
      opt.cutoff = std::stod(next());
    } else if (arg == "--threads") {
      opt.threads = parse_count(arg, next());
    } else if (arg == "--top") {
      opt.top = parse_count(arg, next());
    } else if (arg == "--details") {
      opt.details = true;
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg == "--no-prep") {
      opt.prep.enabled = false;
    } else if (arg == "--backend") {
      const std::string name = next();
      if (!parse_cutset_backend(name, opt.backend)) {
        usage_error("unknown backend '" + name + "' (mocus or mc)");
      }
    } else if (arg == "--mc-method") {
      if (!sim::parse_mc_method(next(), opt.mc.method)) usage();
    } else if (arg == "--mc-trajectories") {
      opt.mc.trajectories = parse_count(arg, next());
    } else if (arg == "--mc-batch") {
      opt.mc.batch = parse_count(arg, next());
    } else if (arg == "--mc-levels") {
      opt.mc.levels = parse_count(arg, next());
    } else if (arg == "--mc-replications") {
      opt.mc.replications = parse_count(arg, next());
    } else if (arg == "--exact-static") {
      opt.exact_static = true;
    } else if (arg == "--runs") {
      opt.runs = parse_count(arg, next());
    } else if (arg == "--seed") {
      opt.seed = parse_count(arg, next());
    } else if (arg == "--trace-json") {
      opt.trace_json = next();
    } else if (arg == "--metrics-json") {
      opt.metrics_json = next();
    } else if (arg == "--struct-cache-entries") {
      opt.struct_cache_entries = parse_count(arg, next());
    } else if (arg == "--quant-cache-entries") {
      opt.quant_cache_entries = parse_count(arg, next());
    } else if (arg == "--sweep-param") {
      opt.sweep_params.push_back(next());
    } else if (arg == "--sweep-spec") {
      opt.sweep_spec = next();
    } else if (arg == "--uq-samples") {
      opt.uq_samples = parse_count(arg, next());
    } else if (arg == "--port") {
      opt.port = std::stoi(next());
      if (opt.port < 0 || opt.port > 65535) {
        usage_error("--port must be in [0, 65535] (0 picks a free port)");
      }
    } else if (arg == "--stdio") {
      opt.use_stdio = true;
    } else if (arg == "--model") {
      const std::string m = next();
      const std::size_t eq = m.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == m.size()) {
        usage_error("--model needs name=path");
      }
      opt.models.emplace_back(m.substr(0, eq), m.substr(eq + 1));
    } else if (arg == "--mode") {
      const std::string mode = next();
      if (mode == "exact") {
        opt.mode = approx_mode::as_classified;
      } else if (mode == "under") {
        opt.mode = approx_mode::under_approximate;
      } else if (mode == "over") {
        opt.mode = approx_mode::over_approximate;
      } else {
        usage();
      }
    } else {
      usage();
    }
  }

  // Cross-flag conflicts (usage errors, exit 2): sweep and serve flags
  // only compose with their own commands; transports are exclusive.
  const bool sweep_flags =
      !opt.sweep_params.empty() || !opt.sweep_spec.empty();
  if (sweep_flags && opt.command != "sweep" && opt.command != "etree") {
    usage_error(
        "--sweep-param/--sweep-spec apply to the 'sweep' and 'etree' "
        "commands");
  }
  if (opt.command == "sweep" || sweep_flags) {
    if (!opt.sweep_params.empty() && !opt.sweep_spec.empty()) {
      usage_error(
          "give either --sweep-param axes or one --sweep-spec file, "
          "not both");
    }
  }
  if (opt.command == "sweep" && !sweep_flags) {
    usage_error("sweep needs --sweep-param axes or a --sweep-spec file");
  }
  if (opt.uq_samples > 0 && opt.command != "etree") {
    usage_error("--uq-samples applies to the 'etree' command");
  }
  const bool serve_flags =
      opt.port >= 0 || opt.use_stdio || !opt.models.empty();
  if (serve_flags && opt.command != "serve") {
    usage_error("--port/--stdio/--model apply to the 'serve' command");
  }
  if (opt.port >= 0 && opt.use_stdio) {
    usage_error("--port and --stdio are mutually exclusive");
  }
  return opt;
}

sd_fault_tree load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw error("cannot open '" + path + "'");
  return parse_sd_fault_tree(in);
}

/// The engine options every pipeline command (analyze, static, mcs,
/// importance, uncertainty, sweep, serve) derives from the shared CLI flags.
analysis_options make_analysis_options(const cli_options& opt) {
  analysis_options aopts;
  aopts.horizon = opt.horizon;
  aopts.cutoff = opt.cutoff;
  aopts.threads = opt.threads;
  aopts.mode = opt.mode;
  aopts.backend = opt.backend;
  aopts.exact_static = opt.exact_static;
  aopts.prep = opt.prep;
  aopts.structure_cache_entries = opt.struct_cache_entries;
  aopts.quant_cache_entries = opt.quant_cache_entries;
  aopts.mc = opt.mc;
  aopts.mc.seed = opt.seed;
  return aopts;
}

/// The engine run behind every command that prints or ranks cutsets:
/// static, mcs, importance and uncertainty.
analysis_result cutset_analysis(const sd_fault_tree& tree,
                                const cli_options& opt) {
  require_model(opt.backend != cutset_backend::mc,
                opt.command + " needs a cutset list; --backend mc gives none");
  return analyze(tree, make_analysis_options(opt));
}

std::string cutset_names(const fault_tree& ft, const cutset& c) {
  std::string out = "{";
  for (std::size_t i = 0; i < c.size(); ++i) {
    out += (i ? ", " : "") + ft.node(c[i]).name;
  }
  return out + "}";
}

int cmd_static(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  require_model(tree.dynamic_events().empty(),
                "static analysis requires a purely static model; use "
                "'analyze' for SD models");
  const fault_tree& ft = tree.structure();
  cli_options exact = opt;
  exact.exact_static = true;
  analysis_result result = cutset_analysis(tree, exact);
  std::vector<cutset> cutsets;
  for (cutset_result& c : result.cutsets) {
    cutsets.push_back(std::move(c.events));
  }
  std::printf("basic events:     %zu\n", ft.num_basic_events());
  std::printf("gates:            %zu\n", ft.num_gates());
  std::printf("modules:          %zu\n", result.stats.prep_modules);
  std::printf("minimal cutsets:  %zu (cutoff %s)\n", cutsets.size(),
              sci(opt.cutoff).c_str());
  std::printf("rare-event:       %s\n",
              sci(rare_event_probability(ft, cutsets)).c_str());
  std::printf("min-cut bound:    %s\n",
              sci(min_cut_upper_bound(ft, cutsets)).c_str());
  std::printf("exact (BDD):      %s\n",
              sci(result.exact_static_probability).c_str());
  return 0;
}

int cmd_mcs(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  const static_translation tr =
      translate_to_static(tree, opt.horizon, 1e-10);
  analysis_result result = cutset_analysis(sd_fault_tree(tr.ft_bar), opt);
  std::vector<cutset_result>& ranked = result.cutsets;
  std::printf("# %zu minimal cutsets (top %zu by probability)\n",
              ranked.size(), opt.top);
  // By FT-bar probability; equal probabilities keep the canonical order.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const cutset_result& a, const cutset_result& b) {
                     return a.probability > b.probability;
                   });
  text_table table({"p (FT-bar)", "cutset"});
  for (std::size_t i = 0; i < ranked.size() && i < opt.top; ++i) {
    table.add_row({sci(ranked[i].probability),
                   cutset_names(tr.ft_bar, ranked[i].events)});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

void print_engine_stats(const engine_stats& s) {
  text_table table({"stage / counter", "value"});
  // The exact-static BDD's rows, on either backend (its node count is
  // never 0 once it was compiled: the manager holds both terminals).
  const auto add_exact_static_rows = [&] {
    if (s.bdd_nodes == 0) return;
    table.add_row({"exact static", duration_str(s.exact_static_seconds)});
    table.add_row({"bdd nodes", std::to_string(s.bdd_nodes)});
  };
  table.add_row({"backend", s.backend});
  if (s.backend == "mc") {
    table.add_row({"mc method", s.mc_method});
    table.add_row({"mc trajectories", std::to_string(s.mc_trajectories)});
    table.add_row({"mc failures", std::to_string(s.mc_failures)});
    if (s.mc_levels > 0) {
      table.add_row({"mc levels x replications",
                     std::to_string(s.mc_levels) + " x " +
                         std::to_string(s.mc_replications)});
    }
    table.add_row({"mc estimate", sci(s.mc_estimate)});
    table.add_row({"mc std error", sci(s.mc_std_error)});
    table.add_row({"mc CI half-width", sci(s.mc_ci_half_width)});
    char rel[32];
    std::snprintf(rel, sizeof rel, "%.3g", s.mc_relative_error);
    table.add_row({"mc relative error", rel});
    table.add_row({"mc campaign", duration_str(s.mc_seconds)});
    table.add_row({"translate", duration_str(s.translate_seconds)});
    table.add_row({"prep", duration_str(s.prep_seconds)});
    add_exact_static_rows();
    table.add_row({"total", duration_str(s.total_seconds)});
    table.add_row({"pool threads", std::to_string(s.pool_threads)});
    std::printf("%s", table.str().c_str());
    return;
  }
  table.add_row({"translate", duration_str(s.translate_seconds)});
  table.add_row({"prep", duration_str(s.prep_seconds)});
  table.add_row({"generate cutsets", duration_str(s.generate_seconds)});
  table.add_row({"quantify", duration_str(s.quantify_seconds)});
  table.add_row({"sum + statistics", duration_str(s.sum_seconds)});
  table.add_row({"total", duration_str(s.total_seconds)});
  table.add_row({"cutsets", std::to_string(s.num_cutsets) + " (" +
                                std::to_string(s.dynamic_cutsets) +
                                " dynamic, " +
                                std::to_string(s.static_cutsets) +
                                " static)"});
  table.add_row({"prep nodes", std::to_string(s.prep_nodes_before) + " -> " +
                                   std::to_string(s.prep_nodes_after) + " (" +
                                   std::to_string(s.prep_nodes_eliminated) +
                                   " eliminated)"});
  table.add_row({"prep rewrites",
                 "atleast " + std::to_string(s.prep_atleast_lowered) +
                     ", fold " + std::to_string(s.prep_constants_folded) +
                     ", coalesce " + std::to_string(s.prep_gates_coalesced) +
                     ", dup " + std::to_string(s.prep_duplicates_merged) +
                     ", factor " + std::to_string(s.prep_common_args_merged) +
                     ", absorb " + std::to_string(s.prep_absorptions) + " (" +
                     std::to_string(s.prep_passes) + " passes)"});
  table.add_row({"prep modules", std::to_string(s.prep_modules) + " (" +
                                     std::to_string(s.prep_module_cutsets) +
                                     " module cutsets)"});
  table.add_row({"mocus partials", std::to_string(s.source_partials)});
  table.add_row({"mocus subset tests",
                 std::to_string(s.subset_tests) + " (" +
                     std::to_string(s.bitset_words) + "-word subset masks)"});
  table.add_row({"cutoff discarded", std::to_string(s.source_discarded)});
  table.add_row({"look-ahead pruned", std::to_string(s.lookahead_pruned)});
  add_exact_static_rows();
  table.add_row(
      {"failed quantifications", std::to_string(s.failed_quantifications)});
  table.add_row({"lumped orbits",
                 std::to_string(s.lumped_orbits) + " (" +
                     std::to_string(s.lumped_cutsets) + " cutsets)"});
  table.add_row({"state keys packed / vector",
                 std::to_string(s.packed_key_chains) + " / " +
                     std::to_string(s.vector_key_chains)});
  table.add_row({"uniformisation steps saved",
                 std::to_string(s.uniformisation_steps_saved)});
  char rate[32];
  std::snprintf(rate, sizeof rate, "%.1f%%", 100.0 * s.cache_hit_rate());
  table.add_row({"cache hits / misses", std::to_string(s.cache_hits) + " / " +
                                            std::to_string(s.cache_misses) +
                                            " (" + rate + " hit rate)"});
  table.add_row({"cache chain reuses", std::to_string(s.cache_chain_reuses)});
  table.add_row({"cache entries", std::to_string(s.cache_entries)});
  table.add_row({"trigger-set hits / misses",
                 std::to_string(s.trigger_set_hits) + " / " +
                     std::to_string(s.trigger_set_misses)});
  table.add_row({"FT_C plan hits / misses",
                 std::to_string(s.ftc_plan_hits) + " / " +
                     std::to_string(s.ftc_plan_misses)});
  table.add_row({"pool threads", std::to_string(s.pool_threads)});
  char occupancy[32];
  std::snprintf(occupancy, sizeof occupancy, "%.1f%%",
                100.0 * s.mocus_occupancy);
  table.add_row({"generate threads", std::to_string(s.mocus_threads) +
                                         " (" + occupancy + " occupancy)"});
  std::printf("%s", table.str().c_str());
}

int cmd_analyze(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  analysis_engine engine(make_analysis_options(opt));
  const analysis_result result = engine.run(tree);
  if (opt.backend == cutset_backend::mc) {
    const sim::mc_result& mc = result.mc;
    std::printf("failure probability (MC %s): %s  [horizon %gh]\n",
                sim::to_string(mc.method).c_str(), sci(mc.estimate).c_str(),
                opt.horizon);
    std::printf("95%% CI: [%s, %s]  half-width %s, relative error %.3g\n",
                sci(mc.ci_low).c_str(), sci(mc.ci_high).c_str(),
                sci(mc.ci_half_width).c_str(), mc.relative_error);
    std::printf("trajectories: %zu (%zu hits%s)\n", mc.trajectories,
                mc.failures, mc.empty() ? ", empty CI" : "");
    if (mc.levels_used > 0) {
      std::printf("splitting: %zu levels x %zu replications\n",
                  mc.levels_used, mc.replications);
    }
  } else {
    std::printf("failure probability (p_rea): %s  [horizon %gh]\n",
                sci(result.failure_probability).c_str(), opt.horizon);
    std::printf(
        "cutsets: %zu (%zu dynamic), mean dyn events %.2f (%.2f added)\n",
        result.num_cutsets, result.num_dynamic_cutsets,
        result.mean_dynamic_events, result.mean_added_dynamic_events);
  }
  if (opt.exact_static) {
    std::printf("exact static probability (BDD): %s\n",
                sci(result.exact_static_probability).c_str());
  }
  if (opt.backend != cutset_backend::mc) {
    std::printf("times: translate %s, MCS %s, quantify %s\n",
                duration_str(result.stats.translate_seconds).c_str(),
                duration_str(result.stats.generate_seconds).c_str(),
                duration_str(result.stats.quantify_seconds).c_str());
  }
  if (opt.stats) print_engine_stats(result.stats);
  if (opt.details) {
    auto sorted = result.cutsets;
    std::sort(sorted.begin(), sorted.end(),
              [](const cutset_result& a, const cutset_result& b) {
                return a.probability > b.probability;
              });
    text_table table({"p-tilde", "dyn", "chain", "cutset"});
    for (std::size_t i = 0; i < sorted.size() && i < opt.top; ++i) {
      table.add_row({sci(sorted[i].probability),
                     std::to_string(sorted[i].num_dynamic +
                                    sorted[i].num_added_dynamic),
                     std::to_string(sorted[i].chain_states),
                     cutset_names(tree.structure(), sorted[i].events)});
    }
    std::printf("%s", table.str().c_str());
  }
  return 0;
}

int cmd_exact(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  const product_ctmc product = build_product_ctmc(tree);
  std::printf("product chain: %zu consistent states\n", product.num_states());
  std::printf("exact failure probability: %s  [horizon %gh]\n",
              sci(exact_failure_probability(tree, opt.horizon)).c_str(),
              opt.horizon);
  return 0;
}

int cmd_importance(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  const analysis_result result = cutset_analysis(tree, opt);
  const auto fv = fussell_vesely_sd(tree, result);
  std::vector<std::pair<double, node_index>> ranked;
  for (const auto& [event, value] : fv) ranked.emplace_back(value, event);
  std::sort(ranked.rbegin(), ranked.rend());
  text_table table({"FV", "event", "kind"});
  for (std::size_t i = 0; i < ranked.size() && i < opt.top; ++i) {
    const node_index b = ranked[i].second;
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.4f", ranked[i].first);
    table.add_row({buf, tree.structure().node(b).name,
                   tree.is_dynamic(b) ? "dynamic" : "static"});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

int cmd_classify(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  const trigger_report report = analyze_triggers(tree);
  if (report.gates.empty()) {
    std::printf("no triggering gates\n");
    return 0;
  }
  text_table table({"trigger gate", "class", "uniform", "events"});
  for (const auto& entry : report.gates) {
    std::string events;
    for (node_index e : tree.triggered_events(entry.gate)) {
      events += (events.empty() ? "" : ", ") + tree.structure().node(e).name;
    }
    table.add_row({tree.structure().node(entry.gate).name,
                   to_string(entry.cls),
                   entry.uniform_triggering ? "yes" : "no", events});
  }
  std::printf("%s", table.str().c_str());
  std::printf("efficient per paper §V-C: %s\n",
              report.efficient ? "yes" : "no (general / non-uniform joins)");
  return 0;
}

int cmd_convert(const cli_options& opt) {
  std::printf("%s", write_sd_fault_tree(load(opt.file)).c_str());
  return 0;
}

int cmd_simulate(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  simulation_options sopts;
  sopts.runs = opt.runs;
  sopts.seed = opt.seed;
  // The same pool the engine builds from --threads (none at 1 thread).
  std::optional<thread_pool> pool;
  if (opt.threads != 1) pool.emplace(opt.threads);
  const simulation_result r = simulate_failure_probability(
      tree, opt.horizon, sopts, pool ? &*pool : nullptr);
  std::printf("simulated failure probability: %s  [horizon %gh]\n",
              sci(r.estimate).c_str(), opt.horizon);
  std::printf("95%% CI: [%s, %s]  (%zu failures in %zu runs)\n",
              sci(r.ci_low).c_str(), sci(r.ci_high).c_str(), r.failures,
              r.runs);
  return 0;
}

int cmd_export(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  require_model(tree.dynamic_events().empty(),
                "Open-PSA MEF export covers static models only");
  std::printf("%s", write_openpsa(tree.structure()).c_str());
  return 0;
}

int cmd_uncertainty(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  const analysis_result result = cutset_analysis(tree, opt);
  uncertainty_options uopts;
  uopts.samples = opt.runs;
  uopts.seed = opt.seed;
  const uncertainty_result u = uncertainty_analysis(result, uopts);
  std::printf("point estimate: %s\n", sci(u.point_estimate).c_str());
  std::printf("mean:           %s\n", sci(u.mean).c_str());
  std::printf("median:         %s\n", sci(u.median).c_str());
  std::printf("90%% band:       [%s, %s]  (%zu samples, EF %.1f)\n",
              sci(u.p05).c_str(), sci(u.p95).c_str(), u.samples.size(),
              uopts.error_factor);
  return 0;
}

int cmd_import(const cli_options& opt) {
  std::ifstream in(opt.file);
  if (!in) throw error("cannot open '" + opt.file + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const fault_tree ft = parse_openpsa(text.str());
  const sd_fault_tree tree(ft);
  std::printf("%s", write_sd_fault_tree(tree).c_str());
  return 0;
}

/// The --sweep-spec file or the --sweep-param axes. Pure syntax errors are
/// usage errors (exit 2); model errors pass through (exit 1).
sweep_description read_sweep_description(const cli_options& opt) {
  try {
    if (opt.sweep_spec.empty()) return parse_sweep_ranges(opt.sweep_params);
    std::ifstream in(opt.sweep_spec);
    if (!in) usage_error("cannot open sweep spec '" + opt.sweep_spec + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return parse_sweep_json(text.str());
  } catch (const model_error&) {
    throw;
  } catch (const error& e) {
    usage_error(e.what());
  }
}

int cmd_sweep(const cli_options& opt) {
  const sd_fault_tree tree = load(opt.file);
  // Resolving against the model rejects unknown or non-static events.
  const sweep_spec spec = resolve_sweep(read_sweep_description(opt), tree);

  analysis_engine engine(make_analysis_options(opt));
  const sweep_result result = run_sweep(engine, tree, spec);

  if (opt.backend == cutset_backend::mc) {
    // MC sweeps carry a per-point confidence interval, not a point value.
    text_table table({"estimate", "ci_low", "ci_high", "rel_err", "point"});
    for (std::size_t i = 0; i < result.points.size() && i < opt.top; ++i) {
      const sim::mc_result& mc = result.points[i].mc;
      char rel[32];
      std::snprintf(rel, sizeof rel, "%.3g", mc.relative_error);
      table.add_row({sci(mc.estimate), sci(mc.ci_low), sci(mc.ci_high), rel,
                     spec.points[i].label});
    }
    std::printf("%s", table.str().c_str());
  } else {
    text_table table({"p (p_rea)", "point"});
    for (std::size_t i = 0; i < result.points.size() && i < opt.top; ++i) {
      table.add_row({sci(result.points[i].failure_probability),
                     spec.points[i].label});
    }
    std::printf("%s", table.str().c_str());
  }
  if (result.points.size() > opt.top) {
    std::printf("... %zu more points (--top to widen)\n",
                result.points.size() - opt.top);
  }
  std::printf(
      "sweep: %zu points on %zu threads in %.2fs "
      "(prime %.2fs, %zu structure-cache hits)\n",
      result.points.size(), result.threads, result.total_seconds,
      result.prime_seconds, result.struct_cache_hits);
  if (opt.stats) print_engine_stats(result.aggregate);
  return 0;
}

void print_scenario_stats(const engine_stats& s) {
  text_table table({"stage / counter", "value"});
  table.add_row(
      {"compile (CCF + BDD)", duration_str(s.scenario_compile_seconds)});
  table.add_row({"quantify", duration_str(s.scenario_quantify_seconds)});
  table.add_row({"cutsets", duration_str(s.scenario_cutset_seconds)});
  if (s.uq_samples > 0) table.add_row({"uq", duration_str(s.uq_seconds)});
  table.add_row({"total", duration_str(s.scenario_total_seconds)});
  table.add_row({"sequences / end states",
                 std::to_string(s.scenario_sequences) + " / " +
                     std::to_string(s.scenario_end_states)});
  table.add_row(
      {"functional events", std::to_string(s.scenario_functional_events)});
  table.add_row(
      {"bdd nodes (all jobs)", std::to_string(s.scenario_bdd_nodes)});
  table.add_row({"bdd nodes per sweep", std::to_string(s.scenario_plan_nodes)});
  table.add_row({"gates compiled / suffix hits",
                 std::to_string(s.scenario_gates_compiled) + " / " +
                     std::to_string(s.scenario_prefix_hits)});
  table.add_row({"ccf groups",
                 std::to_string(s.ccf_groups) + " (" +
                     std::to_string(s.ccf_events_added) + " events added, " +
                     std::to_string(s.ccf_members_expanded) +
                     " members expanded)"});
  table.add_row({"sequence cutsets",
                 std::to_string(s.scenario_sequence_cutsets) + " (" +
                     std::to_string(s.scenario_cutset_prefixes) +
                     " prefixes, " +
                     std::to_string(s.scenario_cutset_candidates) +
                     " candidates)"});
  if (s.uq_samples > 0) {
    table.add_row({"uq samples x parameters",
                   std::to_string(s.uq_samples) + " x " +
                       std::to_string(s.uq_parameters)});
  }
  std::printf("%s", table.str().c_str());
}

int cmd_etree(const cli_options& opt) {
  std::ifstream in(opt.file);
  if (!in) throw error("cannot open '" + opt.file + "'");
  scenario_model model = parse_scenario(in);

  scenario_options sopts;
  sopts.analysis = make_analysis_options(opt);
  sopts.uq_samples = opt.uq_samples;
  sopts.uq_seed = opt.seed;

  scenario_engine engine(std::move(model), sopts);
  const scenario_result result = engine.run();
  const scenario_description& sc = engine.model().scenario;
  const bool with_mcs = sopts.quantify_cutsets &&
                        opt.backend != cutset_backend::mc;
  const bool with_uq = opt.uq_samples > 0;

  std::printf(
      "event tree '%s': %zu functional events, %zu sequences, "
      "%zu end states\n",
      sc.name.c_str(), sc.functional.size(), result.sequences.size(),
      result.end_states.size());
  std::printf("initiating event %s: p = %s\n", sc.initiating_event.c_str(),
              sci(result.initiating_probability).c_str());

  std::vector<std::string> seq_header{"sequence", "end state", "p (exact)"};
  if (with_mcs) {
    seq_header.push_back("p (MCS)");
    seq_header.push_back("cutsets");
  }
  if (with_uq) {
    seq_header.push_back("p05");
    seq_header.push_back("p50");
    seq_header.push_back("p95");
  }
  text_table seq_table(seq_header);
  for (const auto& s : result.sequences) {
    std::vector<std::string> row{s.label, s.end_state, sci(s.probability)};
    if (with_mcs) {
      row.push_back(sci(s.mcs_probability));
      row.push_back(std::to_string(s.num_cutsets));
    }
    if (with_uq) {
      row.push_back(sci(s.uq.p05));
      row.push_back(sci(s.uq.p50));
      row.push_back(sci(s.uq.p95));
    }
    seq_table.add_row(row);
  }
  std::printf("%s", seq_table.str().c_str());

  std::vector<std::string> es_header{"end state", "sequences", "p (exact)"};
  if (with_mcs) {
    es_header.push_back("p (MCS)");
    es_header.push_back("cutsets");
  }
  if (with_uq) {
    es_header.push_back("p05");
    es_header.push_back("p50");
    es_header.push_back("p95");
  }
  text_table es_table(es_header);
  for (const auto& e : result.end_states) {
    std::vector<std::string> row{e.name, std::to_string(e.num_sequences),
                                 sci(e.probability)};
    if (with_mcs) {
      row.push_back(sci(e.mcs_probability));
      row.push_back(std::to_string(e.num_cutsets));
    }
    if (with_uq) {
      row.push_back(sci(e.uq.p05));
      row.push_back(sci(e.uq.p50));
      row.push_back(sci(e.uq.p95));
    }
    es_table.add_row(row);
  }
  std::printf("%s", es_table.str().c_str());
  if (with_uq) {
    std::printf("uq: %zu samples over %zu parameters (seed %llu)\n",
                result.stats.uq_samples, result.stats.uq_parameters,
                static_cast<unsigned long long>(opt.seed));
  }

  // Parameter points: re-evaluated off the compiled scenario, one row per
  // point with the exact end-state probabilities.
  if (!opt.sweep_params.empty() || !opt.sweep_spec.empty()) {
    const auto points = engine.evaluate_points(read_sweep_description(opt));
    std::vector<std::string> header{"point"};
    for (const auto& es : engine.end_state_names()) header.push_back(es);
    text_table point_table(header);
    for (std::size_t i = 0; i < points.size() && i < opt.top; ++i) {
      std::vector<std::string> row{points[i].label};
      for (const double p : points[i].end_state_probabilities) {
        row.push_back(sci(p));
      }
      point_table.add_row(row);
    }
    std::printf("%s", point_table.str().c_str());
    if (points.size() > opt.top) {
      std::printf("... %zu more points (--top to widen)\n",
                  points.size() - opt.top);
    }
  }

  if (opt.stats) {
    print_scenario_stats(result.stats);
    if (with_mcs) print_engine_stats(result.stats);
  }
  return 0;
}

int cmd_serve(const cli_options& opt) {
  serve::analysis_service service(make_analysis_options(opt));
  if (!opt.file.empty()) service.load_file("default", opt.file);
  for (const auto& [name, path] : opt.models) {
    service.load_file(name, path);
  }
  if (opt.port >= 0) {
    serve::serve_tcp(service, static_cast<unsigned short>(opt.port),
                     std::cerr);
  } else {
    // Default transport: newline-delimited JSON over stdin/stdout.
    serve::serve_stdio(service, std::cin, std::cout);
  }
  std::fprintf(stderr,
               "sdft serve: %zu requests handled (%zu errors), %zu models\n",
               service.requests(), service.errors(), service.num_models());
  return 0;
}

int dispatch(const cli_options& opt) {
  if (opt.command == "static") return cmd_static(opt);
  if (opt.command == "mcs") return cmd_mcs(opt);
  if (opt.command == "analyze") return cmd_analyze(opt);
  if (opt.command == "exact") return cmd_exact(opt);
  if (opt.command == "importance") return cmd_importance(opt);
  if (opt.command == "classify") return cmd_classify(opt);
  if (opt.command == "convert") return cmd_convert(opt);
  if (opt.command == "simulate") return cmd_simulate(opt);
  if (opt.command == "export") return cmd_export(opt);
  if (opt.command == "import") return cmd_import(opt);
  if (opt.command == "uncertainty") return cmd_uncertainty(opt);
  if (opt.command == "sweep") return cmd_sweep(opt);
  if (opt.command == "etree") return cmd_etree(opt);
  if (opt.command == "serve") return cmd_serve(opt);
  usage();
}

void write_observability(const cli_options& opt) {
  if (!opt.trace_json.empty()) {
    std::ofstream out(opt.trace_json);
    if (!out) throw error("cannot write '" + opt.trace_json + "'");
    obs::trace_recorder::instance().write_chrome_json(out);
  }
  if (!opt.metrics_json.empty()) {
    std::ofstream out(opt.metrics_json);
    if (!out) throw error("cannot write '" + opt.metrics_json + "'");
    out << obs::metrics_registry::global().to_json() << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli_options opt = parse_args(argc, argv);
    const bool observe = !opt.trace_json.empty() || !opt.metrics_json.empty();
    if (observe) {
      obs::set_enabled(true);
      obs::trace_recorder::instance().clear();
      obs::metrics_registry::global().reset();
      obs::set_thread_label("main");
    }
    const int rc = dispatch(opt);
    if (observe) write_observability(opt);
    return rc;
  } catch (const sdft::error& e) {
    // Model or numeric errors: the input (or its analysis) is at fault.
    std::fprintf(stderr, "sdft: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Anything else escaping main is an internal error, not bad input.
    std::fprintf(stderr, "sdft: internal error: %s\n", e.what());
    return 2;
  }
}

#include "engine/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcs/cutset.hpp"
#include "obs/obs.hpp"
#include "sim/stream_rng.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// sigma = ln(EF) / z_0.95 — the PSA lognormal convention (EF = p95 /
/// median), shared with core/risk_measures.cpp.
constexpr double z95 = 1.6448536269514722;
constexpr double two_pi = 6.283185307179586;

/// Recombination guard: an extension whose pruned product grows past this
/// many sets before it is minimised is rejected with a pointer at the cutoff.
constexpr std::size_t max_recombined_cutsets = std::size_t{1} << 20;

std::vector<ccf_group> resolve_ccf_groups(
    const std::vector<ccf_group_description>& groups, const fault_tree& ft) {
  std::vector<ccf_group> resolved;
  resolved.reserve(groups.size());
  for (const auto& d : groups) {
    ccf_group g;
    g.name = d.name;
    g.model = d.model;
    g.beta = d.beta;
    g.alpha = d.alpha;
    g.members.reserve(d.members.size());
    for (const auto& member : d.members) {
      const node_index e = ft.find(member);
      require_model(e != fault_tree::npos,
                    "scenario: CCF group '" + d.name + "' member '" + member +
                        "' is not a node of the tree");
      g.members.push_back(e);
    }
    resolved.push_back(std::move(g));
  }
  return resolved;
}

double clamp_probability(double p) {
  return std::min(std::max(p, 0.0), 1.0);
}

/// A trie node's list: minimal sets with their canonical probabilities.
struct priced_cutsets {
  std::vector<cutset> sets;
  std::vector<double> p;  ///< cutset_probability() of each set
};

priced_cutsets price(const fault_tree& ft, std::vector<cutset> sets) {
  priced_cutsets out;
  out.p.reserve(sets.size());
  for (const cutset& c : sets) out.p.push_back(cutset_probability(ft, c));
  out.sets = std::move(sets);
  return out;
}

bool disjoint(const cutset& a, const cutset& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

/// One walk of the failed-branch prefix trie (recombine_sequence_cutsets).
/// A node is the set of sequences agreeing on which of the first `depth`
/// functional events failed; its list depends only on those failures.
/// Every node is extended exactly once, so the lists, the counters and the
/// reported guard trip are the same on any schedule.
class recombination_walk {
 public:
  recombination_walk(const event_tree& et, const gate_cutset_lists& gates,
                     double cutoff, sequence_cutsets& out)
      : et_(et),
        ie_(et.initiating_event()),
        cutoff_(cutoff),
        priced_(cutoff >= min_priced_cutoff),
        reject_below_(cutoff * (1.0 - pricing_slack)),
        out_(out) {
    const std::size_t num_fe = et.num_functional_events();
    gate_lists_.resize(num_fe);
    for (std::size_t i = 0; i < num_fe; ++i) {
      bool demanded = false;
      for (std::size_t s = 0; s < et.num_sequences() && !demanded; ++s) {
        demanded = et.sequence_outcomes(s)[i] == branch_outcome::failure;
      }
      if (!demanded) continue;
      const node_index gate = et.functional_gate(i);
      const auto it = gates.find(gate);
      require_model(it != gates.end(),
                    "scenario: no cutset list for functional event '" +
                        et.functional_name(i) + "'");
      if (priced_gates_.find(gate) == priced_gates_.end()) {
        priced_gates_.emplace(gate, price(et.ft(), it->second));
      }
      gate_lists_[i] = &priced_gates_.at(gate);
    }
  }

  void run(thread_pool* pool) {
    std::vector<std::size_t> all(et_.num_sequences());
    for (std::size_t s = 0; s < all.size(); ++s) all[s] = s;
    out_.lists.assign(all.size(), {});
    if (all.empty()) return;
    std::vector<trie_node> level;
    level.push_back({0,
                     std::make_shared<const priced_cutsets>(price(
                         et_.ft(), {cutset{et_.initiating_event()}})),
                     std::move(all)});
    // On a pool the trie is expanded level by level, one parallel_for per
    // level (at most 1, 2, 4 and 8 nodes), then one more walks the
    // frontier's subtrees: up to 16, fixed by the tree rather than by the
    // schedule.
    const std::size_t split_depth =
        pool != nullptr ? std::min<std::size_t>(et_.num_functional_events(), 4)
                        : 0;
    for (std::size_t depth = 0; depth < split_depth; ++depth) {
      std::vector<std::vector<trie_node>> children(level.size());
      parallel_for(pool, level.size(), [&](std::size_t i) {
        children[i] = expand(std::move(level[i]));
      });
      level.clear();
      for (auto& c : children) {
        std::move(c.begin(), c.end(), std::back_inserter(level));
      }
    }
    parallel_for(pool, level.size(),
                 [&](std::size_t i) { walk(std::move(level[i])); });
    out_.prefixes = prefixes_.load();
    out_.candidates = candidates_.load();
    if (const std::size_t s = tripped_.load(); s != none) {
      throw model_error("scenario: sequence " + std::to_string(s) +
                        " recombines to more than " +
                        std::to_string(max_recombined_cutsets) +
                        " cutsets; set a relevance cutoff");
    }
  }

 private:
  static constexpr std::size_t none = static_cast<std::size_t>(-1);
  using list_ref = std::shared_ptr<const priced_cutsets>;

  /// The sequences `seqs` (ascending) share the node at `depth`, whose list
  /// is `list`.
  struct trie_node {
    std::size_t depth;
    list_ref list;
    std::vector<std::size_t> seqs;
  };

  /// Writes the lists of every sequence below `node`, serially.
  void walk(trie_node node) {
    if (node.depth == et_.num_functional_events()) {
      if (node.seqs.front() > tripped_.load()) return;
      for (std::size_t s : node.seqs) out_.lists[s] = node.list->sets;
      return;
    }
    for (trie_node& child : expand(std::move(node))) walk(std::move(child));
  }

  /// The children of an inner node, failure child first. A child whose
  /// extension trips the guard, or that holds no sequence, is dropped, and
  /// so are both when the node cannot report a trip below one recorded.
  std::vector<trie_node> expand(trie_node node) {
    // A subtree can only report a trip at or above its lowest sequence.
    if (node.seqs.front() > tripped_.load()) return {};
    const std::size_t depth = node.depth;
    std::vector<std::size_t> failed;
    std::vector<std::size_t> other;
    for (std::size_t s : node.seqs) {
      (et_.sequence_outcomes(s)[depth] == branch_outcome::failure ? failed
                                                                 : other)
          .push_back(s);
    }
    std::vector<trie_node> children;
    if (!failed.empty()) {
      list_ref child = extend(*node.list, *gate_lists_[depth], failed.front());
      if (child != nullptr) {
        children.push_back({depth + 1, std::move(child), std::move(failed)});
      }
    }
    if (!other.empty()) {
      children.push_back({depth + 1, std::move(node.list), std::move(other)});
    }
    return children;
  }

  /// minimize(prune(base x add)), or null when the pruned product outgrows
  /// the guard (recorded against `first_seq`). Each pair is priced before
  /// it is built: a disjoint pair whose product is clearly below the
  /// cutoff cannot survive; every other pair is merged and decided by its
  /// canonical probability.
  list_ref extend(const priced_cutsets& base, const priced_cutsets& add,
                  std::size_t first_seq) {
    prefixes_.fetch_add(1);
    candidates_.fetch_add(base.sets.size() * add.sets.size());
    const fault_tree& ft = et_.ft();
    std::vector<cutset> next;
    cutset merged;
    for (std::size_t i = 0; i < base.sets.size(); ++i) {
      const cutset& b = base.sets[i];
      for (std::size_t j = 0; j < add.sets.size(); ++j) {
        const cutset& a = add.sets[j];
        if (priced_ && base.p[i] * add.p[j] < reject_below_ && disjoint(b, a)) {
          continue;
        }
        merged.clear();
        std::set_union(b.begin(), b.end(), a.begin(), a.end(),
                       std::back_inserter(merged));
        if (cutoff_ > 0.0 && cutset_probability(ft, merged) < cutoff_) {
          continue;
        }
        // Every set holds the IE. It decides no subsumption, and when it is
        // the smallest member (an IE declared first) it would put every set
        // in one shard of minimize_cutsets(), so it sits out minimisation.
        merged.erase(std::lower_bound(merged.begin(), merged.end(), ie_));
        next.push_back(merged);
      }
      if (next.size() > max_recombined_cutsets) {
        std::size_t seen = tripped_.load();
        while (first_seq < seen &&
               !tripped_.compare_exchange_weak(seen, first_seq)) {
        }
        return nullptr;
      }
    }
    // Dropping a member common to every set keeps minimize_cutsets()'s
    // (size, content) order, so putting it back yields the same list.
    std::vector<cutset> kept = minimize_cutsets(std::move(next));
    for (cutset& c : kept) {
      c.insert(std::lower_bound(c.begin(), c.end(), ie_), ie_);
    }
    return std::make_shared<const priced_cutsets>(price(ft, std::move(kept)));
  }

  const event_tree& et_;
  const node_index ie_;
  const double cutoff_;
  const bool priced_;
  const double reject_below_;
  sequence_cutsets& out_;
  std::unordered_map<node_index, priced_cutsets> priced_gates_;
  std::vector<const priced_cutsets*> gate_lists_;  ///< per functional event
  std::atomic<std::size_t> prefixes_{0};
  std::atomic<std::size_t> candidates_{0};
  std::atomic<std::size_t> tripped_{none};  ///< lowest tripping sequence
};

}  // namespace

sequence_cutsets recombine_sequence_cutsets(const event_tree& et,
                                            const gate_cutset_lists& gates,
                                            double cutoff, thread_pool* pool) {
  sequence_cutsets out;
  recombination_walk(et, gates, cutoff, out).run(pool);
  return out;
}

scenario_engine::scenario_engine(scenario_model model, scenario_options options)
    : model_(std::move(model)),
      options_(std::move(options)),
      engine_(options_.analysis) {
  obs::span_scope span("scenario.compile", "scenario");
  stopwatch timer;
  const scenario_description& sc = model_.scenario;

  const auto dynamic = model_.tree.dynamic_events();
  require_model(dynamic.empty(),
                "scenario: the scenario engine requires a static fault tree (" +
                    std::to_string(dynamic.size()) +
                    " dynamic events present)");
  const fault_tree& original = model_.tree.structure();

  // CCF groups expand before anything else sees the tree, so the event
  // tree, the BDD and the per-gate cutset lists all work on the expanded
  // model — CCF events show up in cutsets like any other basic event.
  expanded_ = expand_ccf_traced(original, resolve_ccf_groups(sc.ccf, original));

  const node_index ie = expanded_.tree.find(sc.initiating_event);
  require_model(ie != fault_tree::npos,
                "scenario: unknown initiating event '" + sc.initiating_event +
                    (original.find(sc.initiating_event) != fault_tree::npos
                         ? "' (CCF group members cannot initiate)"
                         : "'"));
  et_.emplace(expanded_.tree, ie, sc.name);
  for (const auto& f : sc.functional) {
    const node_index gate = expanded_.tree.find(f.gate);
    require_model(gate != fault_tree::npos,
                  "scenario: functional event '" + f.name +
                      "' references unknown gate '" + f.gate + "'");
    et_->add_functional_event(f.name, gate);
  }
  for (const auto& s : sc.sequences) et_->add_sequence(s.outcomes, s.end_state);
  et_->validate();

  // Every sequence and end-state root, compiled in independent jobs on the
  // pool (suffix partitions plus one end-state job) into one evaluation
  // plan that run()/evaluate_points() only read. Each job frees its
  // manager's hash tables before building its plan, so the plans never
  // add to a job's memory peak.
  for (std::size_t s = 0; s < et_->num_sequences(); ++s) {
    const std::string& es = et_->end_state(s);
    if (std::find(es_names_.begin(), es_names_.end(), es) == es_names_.end()) {
      es_names_.push_back(es);
    }
  }
  {
    event_tree_compilation compiled =
        compile_event_tree(*et_, es_names_, engine_.pool(options_.analysis));
    bdd_nodes_ = compiled.bdd_nodes;
    gates_compiled_ = compiled.gates_compiled;
    suffix_hits_ = compiled.suffix_hits;
    plan_ = std::move(compiled.plan);
  }

  base_expanded_probs_ = expanded_probs(original_probs());

  dists_.reserve(sc.distributions.size());
  for (const auto& d : sc.distributions) {
    const node_index e = original.find(d.event);
    require_model(e != fault_tree::npos && original.is_basic(e),
                  "scenario: distribution over unknown basic event '" +
                      d.event + "'");
    dists_.emplace_back(e, d);
  }
  compile_seconds_ = timer.seconds();
}

std::vector<double> scenario_engine::original_probs() const {
  const fault_tree& ft = model_.tree.structure();
  std::vector<double> probs(ft.size(), 0.0);
  for (node_index i = 0; i < ft.size(); ++i) {
    if (ft.is_basic(i)) probs[i] = ft.node(i).probability;
  }
  return probs;
}

std::vector<double> scenario_engine::expanded_probs(
    const std::vector<double>& original) const {
  std::vector<double> probs(expanded_.tree.size(), 0.0);
  for (node_index e = 0; e < expanded_.tree.size(); ++e) {
    if (!expanded_.tree.is_basic(e)) continue;
    const ccf_trace_entry& t = expanded_.trace[e];
    probs[e] = t.source == fault_tree::npos
                   ? expanded_.tree.node(e).probability
                   : clamp_probability(t.scale * original[t.source]);
  }
  return probs;
}

scenario_result scenario_engine::run() {
  return run(options_.uq_samples, options_.uq_seed);
}

scenario_result scenario_engine::run(std::size_t uq_samples,
                                     std::uint64_t uq_seed) {
  obs::span_scope span("scenario.run", "scenario");
  stopwatch total;
  scenario_result out;
  engine_stats& stats = out.stats;

  const std::size_t num_seq = et_->num_sequences();
  const std::size_t num_es = es_names_.size();
  out.sequences.resize(num_seq);
  out.end_states.resize(num_es);
  out.initiating_probability = base_expanded_probs_[et_->initiating_event()];
  for (std::size_t s = 0; s < num_seq; ++s) {
    out.sequences[s].label = "SEQ" + std::to_string(s);
    out.sequences[s].end_state = et_->end_state(s);
  }
  for (std::size_t e = 0; e < num_es; ++e) {
    out.end_states[e].name = es_names_[e];
    for (std::size_t s = 0; s < num_seq; ++s) {
      if (et_->end_state(s) == es_names_[e]) ++out.end_states[e].num_sequences;
    }
  }

  {
    // Exact quantification of every root in one sweep of the frozen plan —
    // bit-identical to one-shot compilations (BDD canonicity).
    obs::span_scope quantify_span("scenario.quantify", "scenario");
    stopwatch timer;
    std::vector<double> values;
    plan_.evaluate(base_expanded_probs_, values);
    for (std::size_t s = 0; s < num_seq; ++s) {
      out.sequences[s].probability = values[s];
    }
    for (std::size_t e = 0; e < num_es; ++e) {
      out.end_states[e].probability = values[num_seq + e];
    }
    stats.scenario_quantify_seconds = timer.seconds();
  }

  if (options_.quantify_cutsets &&
      options_.analysis.backend != cutset_backend::mc) {
    quantify_cutsets(out);
  }
  if (uq_samples > 0) propagate_uncertainty(out, uq_samples, uq_seed);

  stats.scenario_compile_seconds = compile_seconds_;
  stats.scenario_sequences = num_seq;
  stats.scenario_end_states = num_es;
  stats.scenario_functional_events = et_->num_functional_events();
  stats.scenario_bdd_nodes = bdd_nodes_;
  stats.scenario_plan_nodes = plan_.nodes();
  stats.scenario_gates_compiled = gates_compiled_;
  stats.scenario_prefix_hits = suffix_hits_;
  stats.ccf_groups = model_.scenario.ccf.size();
  stats.ccf_events_added = expanded_.events_added;
  stats.ccf_members_expanded = expanded_.members_expanded;
  if (stats.backend.empty()) stats.backend = "bdd";  // the multi-root path
  stats.scenario_total_seconds = total.seconds();
  if (options_.analysis.publish_metrics) {
    stats.publish(obs::metrics_registry::global());
  }
  return out;
}

void scenario_engine::quantify_cutsets(scenario_result& out) {
  obs::span_scope span("scenario.cutsets", "scenario");
  stopwatch timer;
  engine_stats& stats = out.stats;
  const std::size_t num_seq = et_->num_sequences();

  // Per-gate minimal-cutset lists: each distinct gate demanded as a
  // failure anywhere in the tree is analysed exactly once through the
  // engine — and thus through the structure cache across run() calls.
  analysis_options gate_options = options_.analysis;
  gate_options.keep_cutset_details = true;
  gate_options.exact_static = false;
  gate_options.publish_metrics = false;
  gate_cutset_lists gate_cutsets;
  for (std::size_t i = 0; i < et_->num_functional_events(); ++i) {
    const node_index gate = et_->functional_gate(i);
    if (gate_cutsets.find(gate) != gate_cutsets.end()) continue;
    bool demanded = false;
    for (std::size_t s = 0; s < num_seq && !demanded; ++s) {
      demanded = et_->sequence_outcomes(s)[i] == branch_outcome::failure;
    }
    if (!demanded) continue;
    fault_tree sub = expanded_.tree;
    sub.set_top(gate);
    const sd_fault_tree sub_tree(std::move(sub));
    const analysis_result r = engine_.run(sub_tree, gate_options);
    std::vector<cutset> list;
    list.reserve(r.cutsets.size());
    for (const auto& c : r.cutsets) list.push_back(c.events);
    stats.accumulate(r.stats);
    gate_cutsets.emplace(gate, std::move(list));
  }

  const sequence_cutsets recombined =
      recombine_sequence_cutsets(*et_, gate_cutsets, options_.analysis.cutoff,
                                 engine_.pool(options_.analysis));
  const std::vector<std::vector<cutset>>& seq_cutsets = recombined.lists;
  stats.scenario_cutset_prefixes = recombined.prefixes;
  stats.scenario_cutset_candidates = recombined.candidates;

  for (std::size_t s = 0; s < num_seq; ++s) {
    out.sequences[s].num_cutsets = seq_cutsets[s].size();
    out.sequences[s].mcs_probability =
        rare_event_probability(expanded_.tree, seq_cutsets[s]);
    stats.scenario_sequence_cutsets += seq_cutsets[s].size();
  }
  for (std::size_t e = 0; e < es_names_.size(); ++e) {
    std::vector<cutset> merged;
    for (std::size_t s = 0; s < num_seq; ++s) {
      if (et_->end_state(s) != es_names_[e]) continue;
      merged.insert(merged.end(), seq_cutsets[s].begin(),
                    seq_cutsets[s].end());
    }
    merged = minimize_cutsets(std::move(merged));
    out.end_states[e].num_cutsets = merged.size();
    out.end_states[e].mcs_probability =
        rare_event_probability(expanded_.tree, merged);
  }
  stats.scenario_cutset_seconds = timer.seconds();
}

void scenario_engine::propagate_uncertainty(scenario_result& out,
                                            std::size_t samples,
                                            std::uint64_t seed) {
  obs::span_scope span("scenario.uq", "scenario");
  stopwatch timer;
  const std::size_t num_seq = et_->num_sequences();
  const std::size_t num_roots = num_seq + es_names_.size();
  const std::vector<double> base = original_probs();

  // One row per sample (sequences, then end states). Every draw comes from
  // the substream keyed by (seed, sample, parameter) — independent of
  // scheduling, so the matrix (and every band below) is bit-identical at
  // any thread count.
  std::vector<double> matrix(samples * num_roots);
  parallel_for(engine_.pool(options_.analysis), samples,
               [&](std::size_t k) {
    std::vector<double> drawn = base;
    for (std::size_t p = 0; p < dists_.size(); ++p) {
      const auto& [node, dist] = dists_[p];
      rng stream = sim::substream(seed, k, p);
      switch (dist.model) {
        case parameter_distribution::kind::point:
          break;
        case parameter_distribution::kind::lognormal: {
          // Median = the tree's base probability; Box-Muller as in
          // core/risk_measures.cpp so both UQ layers agree draw-for-draw.
          const double sigma = std::log(dist.error_factor) / z95;
          const double u1 = stream.uniform();
          const double u2 = stream.uniform();
          const double z =
              std::sqrt(-2.0 * std::log(1.0 - u1)) * std::cos(two_pi * u2);
          drawn[node] = clamp_probability(drawn[node] * std::exp(sigma * z));
          break;
        }
        case parameter_distribution::kind::uniform:
          drawn[node] = stream.uniform(dist.lo, dist.hi);
          break;
      }
    }
    std::vector<double> row;
    plan_.evaluate(expanded_probs(drawn), row);
    std::copy(row.begin(), row.end(), matrix.begin() + k * num_roots);
  });

  const auto band = [samples](std::vector<double> column) {
    uncertainty_band b;
    double sum = 0.0;
    for (double v : column) sum += v;
    b.mean = sum / static_cast<double>(samples);
    std::sort(column.begin(), column.end());
    const auto at = [&](double q) {
      // floor(q * (n - 1)): the percentile convention of
      // core/risk_measures.hpp.
      return column[static_cast<std::size_t>(
          q * static_cast<double>(samples - 1))];
    };
    b.p05 = at(0.05);
    b.p50 = at(0.50);
    b.p95 = at(0.95);
    return b;
  };
  std::vector<double> column(samples);
  for (std::size_t r = 0; r < num_roots; ++r) {
    for (std::size_t k = 0; k < samples; ++k) {
      column[k] = matrix[k * num_roots + r];
    }
    (r < num_seq ? out.sequences[r].uq : out.end_states[r - num_seq].uq) =
        band(column);
  }
  out.stats.uq_seconds = timer.seconds();
  out.stats.uq_samples = samples;
  out.stats.uq_parameters = dists_.size();
}

std::vector<scenario_point_result> scenario_engine::evaluate_points(
    const sweep_description& points) {
  obs::span_scope span("scenario.points", "scenario");
  const sweep_spec spec = resolve_sweep(points, model_.tree);
  const std::vector<double> base = original_probs();
  const auto num_seq = static_cast<std::ptrdiff_t>(et_->num_sequences());
  std::vector<scenario_point_result> out(spec.points.size());
  parallel_for(engine_.pool(options_.analysis), spec.points.size(),
               [&](std::size_t i) {
    const sweep_point& point = spec.points[i];
    std::vector<double> drawn = base;
    for (const auto& [node, p] : point.overrides) drawn[node] = p;
    // Overrides address the ORIGINAL tree: a perturbed CCF member flows
    // through the expansion trace, rescaling every derived CCF event.
    std::vector<double> values;
    plan_.evaluate(expanded_probs(drawn), values);
    scenario_point_result& r = out[i];
    r.label = point.label;
    r.sequence_probabilities.assign(values.begin(), values.begin() + num_seq);
    r.end_state_probabilities.assign(values.begin() + num_seq, values.end());
  });
  return out;
}

scenario_result run_scenario(scenario_model model,
                             const scenario_options& options) {
  scenario_engine engine(std::move(model), options);
  return engine.run();
}

}  // namespace sdft

#include "etree/event_tree.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

event_tree::event_tree(const fault_tree& ft, node_index initiating_event,
                       std::string name)
    : ft_(ft), initiating_(initiating_event), name_(std::move(name)) {
  require_model(initiating_ < ft_.size() && ft_.is_basic(initiating_),
                "event_tree: initiating event must be a basic event");
}

std::size_t event_tree::add_functional_event(std::string name,
                                             node_index gate) {
  require_model(gate < ft_.size() && ft_.is_gate(gate),
                "event_tree: functional event must be backed by a gate");
  functional_.push_back({std::move(name), gate});
  return functional_.size() - 1;
}

std::size_t event_tree::add_sequence(std::vector<branch_outcome> outcomes,
                                     std::string end_state) {
  require_model(outcomes.size() == functional_.size(),
                "event_tree: sequence must cover every functional event");
  sequences_.push_back({std::move(outcomes), std::move(end_state)});
  return sequences_.size() - 1;
}

namespace {
/// Variable order: basic-event discovery order over a DFS of the IE and
/// then each functional gate — a pure function of the event tree, so every
/// compilation of the same tree agrees variable for variable.
std::vector<node_index> variable_order(const event_tree& et) {
  std::vector<node_index> roots{et.initiating_event()};
  for (std::size_t i = 0; i < et.num_functional_events(); ++i) {
    roots.push_back(et.functional_gate(i));
  }
  return dfs_leaves(et.ft(), roots);
}

/// Sequence indices sorted by outcome vector after validate()'s checks: the
/// sequences below a trie node (sharing an outcome prefix) form one range.
std::vector<std::size_t> sequence_trie_order(const event_tree& et) {
  require_model(et.num_functional_events() > 0,
                "event_tree: no functional events");
  require_model(et.num_sequences() > 0, "event_tree: no sequences");
  std::vector<std::size_t> order(et.num_sequences());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&et](std::size_t a, std::size_t b) {
    return et.sequence_outcomes(a) < et.sequence_outcomes(b);
  });
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& outcomes = et.sequence_outcomes(order[k]);
    require_model(outcomes.size() == et.num_functional_events(),
                  "event_tree: sequence must cover every functional event");
    require_model(k == 0 || outcomes != et.sequence_outcomes(order[k - 1]),
                  "event_tree: duplicate sequence outcomes");
  }
  return order;
}
}  // namespace

void event_tree::validate() const { sequence_trie_order(*this); }

event_tree_bdd::event_tree_bdd(const event_tree& et)
    : et_(et),
      var_to_event_(variable_order(et)),
      compiler_(et.ft(), manager_, var_to_event_) {}

bdd_ref event_tree_bdd::sequence(std::size_t s) {
  require_model(s < et_.num_sequences(), "event_tree: sequence out of range");
  const auto& outcomes = et_.sequence_outcomes(s);
  bdd_ref f = manager_.one();
  for (std::size_t i = outcomes.size(); i-- > 0;) {
    if (outcomes[i] == branch_outcome::bypass) continue;
    // Suffix-product cache: sequences sharing (suffix product, demanded
    // event, outcome) reuse the product instead of re-running the BDD
    // apply. Key packs (ref, event index, outcome) into 64 bits.
    const std::uint64_t key = static_cast<std::uint64_t>(f) |
                              (static_cast<std::uint64_t>(i) << 32) |
                              (static_cast<std::uint64_t>(outcomes[i]) << 56);
    auto it = suffix_.find(key);
    if (it != suffix_.end()) {
      ++suffix_hits_;
      f = it->second;
      continue;
    }
    const bdd_ref gate = compiler_.compile(et_.functional_gate(i));
    const bdd_ref next =
        manager_.bdd_and(outcomes[i] == branch_outcome::failure
                             ? gate
                             : manager_.bdd_not(gate),
                         f);
    suffix_.emplace(key, next);
    f = next;
  }
  return manager_.bdd_and(compiler_.compile(et_.initiating_event()), f);
}

bdd_ref event_tree_bdd::end_state(const std::string& end_state) {
  trie_order_ = sequence_trie_order(et_);
  return manager_.bdd_and(compiler_.compile(et_.initiating_event()),
                          end_state_below(0, trie_order_.size(), 0, end_state));
}

bdd_ref event_tree_bdd::end_state_below(std::size_t lo, std::size_t hi,
                                        std::size_t depth,
                                        const std::string& end_state) {
  if (depth == et_.num_functional_events()) {  // a leaf: one sequence
    return et_.end_state(trie_order_[lo]) == end_state ? manager_.one()
                                                       : manager_.zero();
  }
  // E = E_bypass ∨ (G ∧ E_failure) ∨ (¬G ∧ E_success) over the children
  // present, which are consecutive ranges (failure, success, bypass).
  bdd_ref any = manager_.zero();
  for (std::size_t end = lo; lo < hi; lo = end) {
    const branch_outcome o = et_.sequence_outcomes(trie_order_[lo])[depth];
    while (end < hi && et_.sequence_outcomes(trie_order_[end])[depth] == o) {
      ++end;
    }
    bdd_ref below = end_state_below(lo, end, depth + 1, end_state);
    if (below != manager_.zero() && o != branch_outcome::bypass) {
      const bdd_ref gate = compiler_.compile(et_.functional_gate(depth));
      below = manager_.bdd_and(
          o == branch_outcome::failure ? gate : manager_.bdd_not(gate), below);
    }
    any = manager_.bdd_or(any, below);
  }
  return any;
}

double event_tree_bdd::probability(bdd_ref f) const {
  std::vector<double> probs(var_to_event_.size());
  for (std::size_t v = 0; v < var_to_event_.size(); ++v) {
    probs[v] = et_.ft().node(var_to_event_[v]).probability;
  }
  return manager_.probability(f, probs);
}

bdd_plan event_tree_bdd::freeze(const std::vector<bdd_ref>& roots) && {
  suffix_ = {};
  return std::move(manager_).freeze(roots);
}

void event_tree_plan::evaluate(const std::vector<double>& node_probs,
                               std::vector<double>& out) const {
  std::vector<double> probs(var_to_event_.size());
  for (std::size_t v = 0; v < var_to_event_.size(); ++v) {
    const node_index n = var_to_event_[v];
    require_model(n < node_probs.size(),
                  "event_tree: probability vector does not cover the tree");
    probs[v] = node_probs[n];
  }
  out.resize(num_roots_);
  std::vector<double> values;
  for (const part& p : parts_) {
    p.plan.evaluate(probs, values);
    for (std::size_t r = 0; r < values.size(); ++r) out[p.slots[r]] = values[r];
  }
}

std::size_t event_tree_plan::nodes() const {
  std::size_t n = 0;
  for (const part& p : parts_) n += p.plan.size();
  return n;
}

namespace {
/// The split into jobs is fixed by the tree, never by the pool. Every job
/// lowers its own copy of the gates, so a tree is split only into groups
/// of this many sequences or more (2^d groups need 2^d times as many):
/// below 128 sequences it compiles as one job.
constexpr std::size_t min_sequences_per_job = 64;
/// Deepest split: 2^3 groups.
constexpr std::size_t max_split_depth = 3;

/// Sequence indices grouped by the outcomes of their last d functional
/// events, d the largest depth <= min(#FE, max_split_depth) with
/// 2^d * min_sequences_per_job <= #sequences; groups in lexicographic
/// order of those outcomes, each group ascending. Every suffix product
/// starts with those outcomes, so two groups never look up the same memo
/// entry.
std::vector<std::vector<std::size_t>> suffix_partitions(const event_tree& et) {
  std::size_t depth = 0;
  while (depth < std::min(et.num_functional_events(), max_split_depth) &&
         (std::size_t{2} << depth) * min_sequences_per_job <=
             et.num_sequences()) {
    ++depth;
  }
  std::map<std::vector<branch_outcome>, std::vector<std::size_t>> groups;
  for (std::size_t s = 0; s < et.num_sequences(); ++s) {
    const auto& outcomes = et.sequence_outcomes(s);
    groups[{outcomes.end() - static_cast<std::ptrdiff_t>(depth),
            outcomes.end()}]
        .push_back(s);
  }
  std::vector<std::vector<std::size_t>> out;
  out.reserve(groups.size());
  for (auto& [tail, seqs] : groups) out.push_back(std::move(seqs));
  return out;
}

/// Gates under the functional events some sequence demands: what one
/// shared ft_compiler lowers for every sequence root (end states lower a
/// subset), however many jobs each lower their own copy.
std::size_t demanded_gates(const event_tree& et) {
  const fault_tree& ft = et.ft();
  std::vector<bool> seen(ft.size(), false);
  std::vector<node_index> stack;
  for (std::size_t i = 0; i < et.num_functional_events(); ++i) {
    for (std::size_t s = 0; s < et.num_sequences(); ++s) {
      if (et.sequence_outcomes(s)[i] != branch_outcome::bypass) {
        stack.push_back(et.functional_gate(i));
        break;
      }
    }
  }
  std::size_t gates = 0;
  while (!stack.empty()) {
    const node_index n = stack.back();
    stack.pop_back();
    if (seen[n] || ft.is_basic(n)) continue;
    seen[n] = true;
    ++gates;
    for (node_index child : ft.node(n).inputs) stack.push_back(child);
  }
  return gates;
}
}  // namespace

event_tree_compilation compile_event_tree(
    const event_tree& et, const std::vector<std::string>& end_states,
    thread_pool* pool) {
  et.validate();
  event_tree_compilation out;
  const std::vector<std::vector<std::size_t>> partitions =
      suffix_partitions(et);
  // The end states get a job of their own beside a split; a tree compiled
  // as one partition keeps them in that job's manager.
  const std::size_t end_state_job =
      partitions.size() > 1 ? partitions.size() : 0;
  const std::size_t jobs =
      end_states.empty() ? partitions.size()
                         : std::max(partitions.size(), end_state_job + 1);
  struct job_result {
    std::size_t nodes = 0;
    std::size_t suffix_hits = 0;
  };
  std::vector<job_result> results(jobs);
  std::vector<event_tree_plan::part> parts(jobs);
  // Each job compiles in its own manager and freezes its plan before it
  // returns, so at most one manager per worker is resident at a time.
  parallel_for(pool, jobs, [&](std::size_t j) {
    event_tree_bdd compiled(et);
    std::vector<bdd_ref> roots;
    std::vector<std::size_t>& slots = parts[j].slots;
    if (j < partitions.size()) {
      for (std::size_t s : partitions[j]) {
        roots.push_back(compiled.sequence(s));
        slots.push_back(s);
      }
    }
    if (j == end_state_job) {
      for (std::size_t e = 0; e < end_states.size(); ++e) {
        roots.push_back(compiled.end_state(end_states[e]));
        slots.push_back(et.num_sequences() + e);
      }
    }
    results[j] = {compiled.nodes(), compiled.suffix_hits()};
    parts[j].plan = std::move(compiled).freeze(roots);
  });
  for (const job_result& r : results) {
    out.bdd_nodes += r.nodes;
    out.suffix_hits += r.suffix_hits;
  }
  out.gates_compiled = demanded_gates(et);
  out.plan.parts_ = std::move(parts);
  out.plan.var_to_event_ = variable_order(et);
  out.plan.num_roots_ = et.num_sequences() + end_states.size();
  return out;
}

double sequence_probability_exact(const event_tree& et, std::size_t s) {
  et.validate();
  require_model(s < et.num_sequences(), "event_tree: sequence out of range");
  event_tree_bdd compiled(et);
  return compiled.probability(compiled.sequence(s));
}

double end_state_probability_exact(const event_tree& et,
                                   const std::string& end_state) {
  event_tree_bdd compiled(et);
  return compiled.probability(compiled.end_state(end_state));
}

fault_tree end_state_fault_tree(const event_tree& et,
                                const std::string& end_state) {
  et.validate();
  fault_tree out;
  std::unordered_map<node_index, node_index> copied;
  const std::function<node_index(node_index)> copy =
      [&](node_index n) -> node_index {
    auto it = copied.find(n);
    if (it != copied.end()) return it->second;
    const auto& node = et.ft().node(n);
    node_index mapped;
    if (et.ft().is_basic(n)) {
      mapped = out.add_basic_event(node.name, node.probability);
    } else {
      std::vector<node_index> inputs;
      inputs.reserve(node.inputs.size());
      for (node_index child : node.inputs) inputs.push_back(copy(child));
      mapped = node.type == gate_type::atleast_gate
                   ? out.add_atleast_gate(node.name, node.k, std::move(inputs))
                   : out.add_gate(node.name, node.type, std::move(inputs));
    }
    copied.emplace(n, mapped);
    return mapped;
  };

  // Copy every referenced subtree first, then synthesize the sequence and
  // top gates: the synthesized names are deduplicated against everything
  // already in `out`, so a model that happens to contain a node named
  // "<et>::SEQ0" (or the end state itself) cannot collide — in either
  // direction — with the gates we make up here.
  struct sequence_plan {
    std::size_t s;
    std::vector<node_index> inputs;
  };
  std::vector<sequence_plan> plans;
  for (std::size_t s = 0; s < et.num_sequences(); ++s) {
    if (et.end_state(s) != end_state) continue;
    std::vector<node_index> inputs{copy(et.initiating_event())};
    const auto& outcomes = et.sequence_outcomes(s);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      // Success branches are dropped: the coherent, conservative
      // approximation used for MCS generation in PSA practice.
      if (outcomes[i] == branch_outcome::failure) {
        inputs.push_back(copy(et.functional_gate(i)));
      }
    }
    plans.push_back({s, std::move(inputs)});
  }
  require_model(!plans.empty(),
                "event_tree: no sequence has end state '" + end_state + "'");

  const auto unique_name = [&out](std::string base) {
    if (out.find(base) == fault_tree::npos) return base;
    for (int suffix = 2;; ++suffix) {
      std::string candidate = base + "#" + std::to_string(suffix);
      if (out.find(candidate) == fault_tree::npos) return candidate;
    }
  };
  std::vector<node_index> sequence_gates;
  sequence_gates.reserve(plans.size());
  for (auto& plan : plans) {
    sequence_gates.push_back(out.add_gate(
        unique_name(et.name() + "::SEQ" + std::to_string(plan.s)),
        gate_type::and_gate, std::move(plan.inputs)));
  }
  out.set_top(out.add_gate(unique_name(et.name() + "::" + end_state),
                           gate_type::or_gate, sequence_gates));
  out.validate();
  return out;
}

std::vector<trigger_suggestion> suggest_demand_triggers(
    const event_tree& et, const sd_fault_tree& tree) {
  std::vector<trigger_suggestion> out;
  for (std::size_t i = 0; i + 1 < et.num_functional_events(); ++i) {
    trigger_suggestion suggestion;
    suggestion.trigger_gate = et.functional_gate(i);
    const node_index next = et.functional_gate(i + 1);
    for (node_index n : tree.structure().descendants(next)) {
      if (tree.structure().is_basic(n) && tree.is_dynamic(n) &&
          tree.trigger_gate_of(n) == fault_tree::npos) {
        suggestion.events.push_back(n);
      }
    }
    // Events also living under the triggering gate would deadlock; the
    // acyclicity check of set_trigger would reject them, so filter here.
    const auto under_trigger =
        tree.structure().descendants(suggestion.trigger_gate);
    std::erase_if(suggestion.events, [&](node_index e) {
      return std::find(under_trigger.begin(), under_trigger.end(), e) !=
             under_trigger.end();
    });
    if (!suggestion.events.empty()) out.push_back(suggestion);
  }
  return out;
}

}  // namespace sdft

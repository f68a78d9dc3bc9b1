#include "etree/event_tree.hpp"

#include <algorithm>
#include <functional>

#include "bdd/bdd.hpp"
#include "util/error.hpp"

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

void event_tree::validate() const {
  require_model(!functional_.empty(), "event_tree: no functional events");
  require_model(!sequences_.empty(), "event_tree: no sequences");
  for (std::size_t a = 0; a < sequences_.size(); ++a) {
    for (std::size_t b = a + 1; b < sequences_.size(); ++b) {
      require_model(sequences_[a].outcomes != sequences_[b].outcomes,
                    "event_tree: duplicate sequence outcomes");
    }
  }
}

event_tree_bdd::event_tree_bdd(const event_tree& et) : et_(et) {
  // Variable order: basic-event discovery order over a DFS of the IE and
  // then each functional gate — a pure function of the event tree, so
  // every compilation of the same tree agrees variable for variable.
  const std::function<void(node_index)> visit = [&](node_index n) {
    if (et_.ft().is_basic(n)) {
      if (event_to_var_.emplace(n, var_to_event_.size()).second) {
        var_to_event_.push_back(n);
      }
      return;
    }
    for (node_index child : et_.ft().node(n).inputs) visit(child);
  };
  visit(et_.initiating_event());
  for (std::size_t i = 0; i < et_.num_functional_events(); ++i) {
    visit(et_.functional_gate(i));
  }
}

bdd_ref event_tree_bdd::compile(node_index n) {
  auto it = memo_.find(n);
  if (it != memo_.end()) return it->second;
  bdd_ref ref;
  if (et_.ft().is_basic(n)) {
    ref = manager_.var(event_to_var_.at(n));
  } else {
    const auto& gate = et_.ft().node(n);
    ++gates_compiled_;
    if (gate.type == gate_type::atleast_gate) {
      // Threshold DP over the inputs, exactly as bdd/ft_bdd.cpp lowers
      // voting gates: at_least[j] after i children is "at least j of the
      // first i are failed". Polynomial in k * N, no C(N, k) expansion.
      // (Treating the gate as an OR here used to corrupt every exact
      // sequence probability under a k-of-n functional event.)
      std::vector<bdd_ref> at_least(gate.k + 1, manager_.zero());
      at_least[0] = manager_.one();
      for (node_index child : gate.inputs) {
        const bdd_ref c = compile(child);
        for (std::uint32_t j = gate.k; j >= 1; --j) {
          at_least[j] = manager_.bdd_or(
              at_least[j], manager_.bdd_and(c, at_least[j - 1]));
        }
      }
      ref = at_least[gate.k];
    } else {
      const bool is_and = gate.type == gate_type::and_gate;
      ref = is_and ? manager_.one() : manager_.zero();
      for (node_index child : gate.inputs) {
        const bdd_ref c = compile(child);
        ref = is_and ? manager_.bdd_and(ref, c) : manager_.bdd_or(ref, c);
      }
    }
  }
  memo_.emplace(n, ref);
  return ref;
}

bdd_ref event_tree_bdd::sequence(std::size_t s) {
  require_model(s < et_.num_sequences(), "event_tree: sequence out of range");
  bdd_ref f = compile(et_.initiating_event());
  const auto& outcomes = et_.sequence_outcomes(s);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i] == branch_outcome::bypass) continue;
    // Prefix-product cache: sequences sharing (partial product, demanded
    // event, outcome) reuse the product instead of re-running the BDD
    // apply. Key packs (ref, event index, outcome) into 64 bits.
    const std::uint64_t key = static_cast<std::uint64_t>(f) |
                              (static_cast<std::uint64_t>(i) << 32) |
                              (static_cast<std::uint64_t>(outcomes[i]) << 56);
    auto it = prefix_.find(key);
    if (it != prefix_.end()) {
      ++prefix_hits_;
      f = it->second;
      continue;
    }
    const bdd_ref gate = compile(et_.functional_gate(i));
    const bdd_ref next =
        manager_.bdd_and(f, outcomes[i] == branch_outcome::failure
                                ? gate
                                : manager_.bdd_not(gate));
    prefix_.emplace(key, next);
    f = next;
  }
  return f;
}

bdd_ref event_tree_bdd::end_state(const std::string& end_state) {
  bdd_ref any = manager_.zero();
  for (std::size_t s = 0; s < et_.num_sequences(); ++s) {
    if (et_.end_state(s) == end_state) {
      any = manager_.bdd_or(any, sequence(s));
    }
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

event_tree_plan event_tree_bdd::freeze(const std::vector<bdd_ref>& roots) && {
  memo_ = {};
  prefix_ = {};
  event_to_var_ = {};
  event_tree_plan out;
  out.plan_ = std::move(manager_).freeze(roots);
  out.var_to_event_ = std::move(var_to_event_);
  return out;
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
  plan_.evaluate(probs, out);
}

double sequence_probability_exact(const event_tree& et, std::size_t s) {
  et.validate();
  require_model(s < et.num_sequences(), "event_tree: sequence out of range");
  event_tree_bdd compiled(et);
  return compiled.probability(compiled.sequence(s));
}

double end_state_probability_exact(const event_tree& et,
                                   const std::string& end_state) {
  et.validate();
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

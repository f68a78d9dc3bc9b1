#include "core/mcs_model.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "ctmc/transient.hpp"
#include "mcs/mocus.hpp"
#include "product/product_ctmc.hpp"
#include "util/error.hpp"
#include "util/sorted_set.hpp"

namespace sdft {

namespace {

/// The trigger_set_memo key of one mocus_from(gate) run: fixed-width
/// indices with the failed list's length up front, so distinct inputs
/// never encode alike.
std::string trigger_set_key(node_index gate,
                            const std::vector<node_index>& assume_failed,
                            const std::vector<node_index>& assume_working) {
  std::vector<node_index> words;
  words.reserve(2 + assume_failed.size() + assume_working.size());
  words.push_back(gate);
  words.push_back(static_cast<node_index>(assume_failed.size()));
  words.insert(words.end(), assume_failed.begin(), assume_failed.end());
  words.insert(words.end(), assume_working.begin(), assume_working.end());
  std::string key(words.size() * sizeof(node_index), '\0');
  std::memcpy(key.data(), words.data(), key.size());
  return key;
}

/// Incremental FT_C construction state.
class ftc_builder {
 public:
  ftc_builder(const sd_fault_tree& source, const cutset& c, approx_mode mode,
              const trigger_set_memo* memo)
      : source_(source), mode_(mode), memo_(memo) {
    for (node_index b : c) {
      require_model(source_.structure().is_basic(b),
                    "mcs_model: cutset contains a non-basic node");
      if (source_.is_dynamic(b)) {
        in_cutset_.insert(b);
        result_.cutset_dynamic.push_back(b);
      } else {
        in_cutset_.insert(b);
        cutset_static_.push_back(b);
        result_.static_factor *= source_.structure().node(b).probability;
      }
    }
    require_model(!result_.cutset_dynamic.empty(),
                  "mcs_model: cutset has no dynamic events");
  }

  mcs_model build() {
    // Step 1: top AND over the cutset's dynamic events.
    std::vector<node_index> top_inputs;
    for (node_index e : result_.cutset_dynamic) {
      top_inputs.push_back(add_event(e));
    }
    const node_index top =
        result_.tree.add_gate("MCS_TOP", gate_type::and_gate, top_inputs);
    result_.tree.set_top(top);

    // Steps 2-3: model triggering logic, breadth-first so cutset events
    // (enqueued first) are processed before recursion-added ones.
    while (!pending_.empty()) {
      const node_index event = pending_.front();
      pending_.pop_front();
      model_trigger_of(event);
    }
    result_.tree.validate();
    return std::move(result_);
  }

 private:
  /// Maps a source basic event into FT_C, creating it on first use. Newly
  /// added triggered events are queued for trigger modelling.
  node_index add_event(node_index b) {
    auto it = event_map_.find(b);
    if (it != event_map_.end()) return it->second;
    const auto& node = source_.structure().node(b);
    node_index idx;
    if (source_.is_dynamic(b)) {
      const dynamic_model& model = source_.model_of(b);
      if (std::holds_alternative<triggered_ctmc>(model)) {
        idx = result_.tree.add_dynamic_event(node.name,
                                             std::get<triggered_ctmc>(model));
        pending_.push_back(b);
      } else {
        idx = result_.tree.add_dynamic_event(node.name, std::get<ctmc>(model));
      }
      if (!in_cutset_.count(b)) result_.added_dynamic.push_back(b);
    } else {
      idx = result_.tree.add_static_event(node.name, node.probability);
      result_.added_static.push_back(b);
    }
    event_map_.emplace(b, idx);
    return idx;
  }

  /// Models the triggering gate of `event` (a triggered dynamic event
  /// already present in FT_C) per paper §V-C step 2, or reuses an
  /// already-modelled gate (step 3).
  void model_trigger_of(node_index event) {
    const node_index gate = source_.trigger_gate_of(event);
    auto it = gate_map_.find(gate);
    if (it != gate_map_.end()) {
      result_.tree.set_trigger(it->second, event_map_.at(event));
      return;
    }

    // Determine the modelling class. Cutset events use the class their
    // gate satisfies; recursion-added events fall back to the general case
    // (paper §V-C step 3). The approximation modes override this.
    trigger_class cls;
    if (mode_ == approx_mode::under_approximate) {
      cls = trigger_class::static_branching;
    } else if (in_cutset_.count(event)) {
      cls = classify_trigger_gate(source_, gate);
    } else {
      cls = trigger_class::general;
    }
    if (mode_ == approx_mode::over_approximate &&
        cls == trigger_class::general) {
      cls = trigger_class::static_joins;
    }
    result_.used_classes.push_back(cls);

    // Partition the subtree's basic events.
    std::vector<node_index> sub_static;
    std::vector<node_index> sub_dynamic;
    for (node_index n : source_.structure().descendants(gate)) {
      if (!source_.structure().is_basic(n)) continue;
      (source_.is_dynamic(n) ? sub_dynamic : sub_static).push_back(n);
    }

    // Rel_a and the boolean assumptions (paper §V-C step 2).
    std::vector<node_index> rel;
    std::vector<node_index> assumed_failed;
    for (node_index s : sub_static) {
      if (in_cutset_.count(s)) {
        assumed_failed.push_back(s);
      } else if (cls == trigger_class::general) {
        rel.push_back(s);
      } else if (mode_ == approx_mode::over_approximate) {
        // Interference "irrespective of static basic events": guards are
        // assumed failed so triggers fire at least as early as exactly.
        assumed_failed.push_back(s);
      }
    }
    for (node_index d : sub_dynamic) {
      if (cls == trigger_class::static_branching) {
        if (in_cutset_.count(d)) rel.push_back(d);
      } else {
        rel.push_back(d);
      }
    }

    std::vector<node_index> assumed_working;
    {
      std::vector<node_index> all = sub_static;
      all.insert(all.end(), sub_dynamic.begin(), sub_dynamic.end());
      sorted_set::normalize(all);
      std::vector<node_index> keep = rel;
      keep.insert(keep.end(), assumed_failed.begin(), assumed_failed.end());
      sorted_set::normalize(keep);
      assumed_working = sorted_set::set_difference(all, keep);
    }

    // Minimal trigger sets A_1..A_k over Rel_a.
    const trigger_set_memo::sets sets =
        trigger_sets(gate, std::move(assumed_failed),
                     std::move(assumed_working));

    // Build the trigger model: OR of ANDs (constants via zero-input gates).
    const std::string base = "trig::" + source_.structure().node(gate).name;
    node_index model_gate;
    if (sets->size() == 1 && sets->front().empty()) {
      // Already failed under the static assumptions: constant TRUE, the
      // event is switched on from time 0.
      model_gate = result_.tree.add_gate(base, gate_type::and_gate);
    } else {
      model_gate = result_.tree.add_gate(base, gate_type::or_gate);
      std::size_t i = 0;
      for (const cutset& a : *sets) {
        if (a.size() == 1) {
          result_.tree.add_input(model_gate, add_event(a.front()));
        } else {
          const node_index conj = result_.tree.add_gate(
              base + "::" + std::to_string(i), gate_type::and_gate);
          for (node_index b : a) {
            result_.tree.add_input(conj, add_event(b));
          }
          result_.tree.add_input(model_gate, conj);
        }
        ++i;
      }
      // An empty OR (no trigger set) is constant FALSE: the trigger can
      // never fire, so the event stays off. This cannot arise for cutsets
      // produced from FT-bar but is well-defined for hand-built cutsets.
    }
    gate_map_.emplace(gate, model_gate);
    result_.tree.set_trigger(model_gate, event_map_.at(event));
  }

  /// The minimal trigger sets of `gate` under the given assumptions, from
  /// the memo when it holds them, otherwise solved by MOCUS (and stored).
  /// No cutoff and no order bound: the result is purely structural, the
  /// precondition for sharing it across parameter points.
  trigger_set_memo::sets trigger_sets(node_index gate,
                                      std::vector<node_index> assumed_failed,
                                      std::vector<node_index> assumed_working) {
    std::string key;
    if (memo_ != nullptr) {
      key = trigger_set_key(gate, assumed_failed, assumed_working);
      if (trigger_set_memo::sets hit = memo_->find(key)) {
        ++result_.trigger_set_hits;
        return hit;
      }
    }
    mocus_options opts;
    opts.assume_failed = std::move(assumed_failed);
    opts.assume_working = std::move(assumed_working);
    auto solved = std::make_shared<const std::vector<cutset>>(
        mocus_from(source_.structure(), gate, opts).cutsets);
    ++result_.trigger_sets_solved;
    if (memo_ == nullptr) return solved;
    return memo_->insert(std::move(key), std::move(solved));
  }

  const sd_fault_tree& source_;
  const approx_mode mode_;
  const trigger_set_memo* memo_;  // nullptr: every gate runs MOCUS
  mcs_model result_;
  std::vector<node_index> cutset_static_;
  std::unordered_set<node_index> in_cutset_;
  std::unordered_map<node_index, node_index> event_map_;  // source -> FT_C
  std::unordered_map<node_index, node_index> gate_map_;   // source -> FT_C
  std::deque<node_index> pending_;  // triggered events awaiting modelling
};

}  // namespace

trigger_set_memo::sets trigger_set_memo::find(const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second;
}

trigger_set_memo::sets trigger_set_memo::insert(std::string key,
                                                sets value) const {
  std::lock_guard lock(mutex_);
  return map_.try_emplace(std::move(key), std::move(value)).first->second;
}

std::size_t trigger_set_memo::size() const {
  std::lock_guard lock(mutex_);
  return map_.size();
}

mcs_model build_mcs_model(const sd_fault_tree& tree, const cutset& c,
                          approx_mode mode,
                          const trigger_set_memo* trigger_sets) {
  return ftc_builder(tree, c, mode, trigger_sets).build();
}

double quantify_mcs_model(const mcs_model& model, double t, double epsilon,
                          std::size_t max_product_states,
                          std::size_t* chain_states) {
  product_options opts;
  opts.max_states = max_product_states;
  const product_ctmc product = build_product_ctmc(model.tree, opts);
  if (chain_states != nullptr) *chain_states = product.num_states();
  return reach_failed_probability(product.chain, t, epsilon) *
         model.static_factor;
}

}  // namespace sdft

#include "core/mcs_model.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
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

/// Incremental FT_C planning state.
class ftc_builder {
 public:
  ftc_builder(const sd_fault_tree& source, const cutset& c, approx_mode mode,
              const trigger_set_memo* memo)
      : source_(source), cutset_(c), mode_(mode), memo_(memo) {
    for (node_index b : c) {
      require_model(source_.structure().is_basic(b),
                    "mcs_model: cutset contains a non-basic node");
    }
  }

  ftc_plan build(std::size_t* trigger_sets_solved) {
    // Step 1: top AND over the cutset's dynamic events, which take FT_C
    // indices 0..d-1.
    for (node_index b : cutset_) {
      if (source_.is_dynamic(b)) add_event(b);
    }
    const std::size_t d = plan_.nodes.size();
    require_model(d > 0, "mcs_model: cutset has no dynamic events");
    plan_.top = add_gate(ftc_plan::kind::and_gate, d);
    for (std::size_t i = 0; i < d; ++i) {
      set_input(plan_.top, i, static_cast<node_index>(i));
    }

    // Steps 2-3: model triggering logic, breadth-first so cutset events
    // (queued first) are processed before recursion-added ones.
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      model_trigger_of(pending_[i]);
    }
    if (trigger_sets_solved != nullptr) *trigger_sets_solved = solved_;
    return std::move(plan_);
  }

 private:
  bool in_cutset(node_index b) const {
    return std::find(cutset_.begin(), cutset_.end(), b) != cutset_.end();
  }

  /// Maps a source basic event into FT_C, creating it on first use. Newly
  /// added triggered events are queued for trigger modelling.
  node_index add_event(node_index b) {
    for (node_index n = 0; n < plan_.nodes.size(); ++n) {
      const ftc_plan::node& node = plan_.nodes[n];
      if (node.ref == b && (node.what == ftc_plan::kind::static_event ||
                            node.what == ftc_plan::kind::dynamic_event)) {
        return n;
      }
    }
    const auto idx = static_cast<node_index>(plan_.nodes.size());
    if (source_.is_dynamic(b)) {
      plan_.nodes.push_back(
          {ftc_plan::kind::dynamic_event, b, fault_tree::npos});
      if (source_.has_triggered_model(b)) pending_.push_back(idx);
    } else {
      plan_.nodes.push_back({ftc_plan::kind::static_event, b, 0});
    }
    return idx;
  }

  /// Adds a gate whose `arity` input slots set_input() fills.
  node_index add_gate(ftc_plan::kind what, std::size_t arity) {
    const auto idx = static_cast<node_index>(plan_.nodes.size());
    plan_.nodes.push_back({what, static_cast<node_index>(plan_.inputs.size()),
                           static_cast<node_index>(arity)});
    plan_.inputs.resize(plan_.inputs.size() + arity);
    return idx;
  }

  void set_input(node_index gate, std::size_t slot, node_index input) {
    plan_.inputs[plan_.nodes[gate].ref + slot] = input;
  }

  /// Models the triggering gate of `event` (a triggered dynamic event
  /// already present in FT_C) per paper §V-C step 2, or reuses an
  /// already-modelled gate (step 3).
  void model_trigger_of(node_index event) {
    const node_index source_event = plan_.nodes[event].ref;
    const node_index gate = source_.trigger_gate_of(source_event);
    for (const auto& [modelled, model_gate] : gate_map_) {
      if (modelled == gate) {
        plan_.nodes[event].aux = model_gate;
        return;
      }
    }

    // Determine the modelling class. Cutset events use the class their
    // gate satisfies; recursion-added events fall back to the general case
    // (paper §V-C step 3). The approximation modes override this.
    trigger_class cls;
    if (mode_ == approx_mode::under_approximate) {
      cls = trigger_class::static_branching;
    } else if (in_cutset(source_event)) {
      cls = classify_trigger_gate(source_, gate);
    } else {
      cls = trigger_class::general;
    }
    if (mode_ == approx_mode::over_approximate &&
        cls == trigger_class::general) {
      cls = trigger_class::static_joins;
    }
    plan_.used_classes.push_back(cls);

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
      if (in_cutset(s)) {
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
        if (in_cutset(d)) rel.push_back(d);
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

    // The trigger model: OR of ANDs (constants via zero-input gates).
    node_index model_gate;
    if (sets->size() == 1 && sets->front().empty()) {
      // Already failed under the static assumptions: constant TRUE, the
      // event is switched on from time 0.
      model_gate = add_gate(ftc_plan::kind::and_gate, 0);
    } else {
      // An empty OR (no trigger set) is constant FALSE: the trigger can
      // never fire, so the event stays off. This cannot arise for cutsets
      // produced from FT-bar but is well-defined for hand-built cutsets.
      model_gate = add_gate(ftc_plan::kind::or_gate, sets->size());
      std::size_t i = 0;
      for (const cutset& a : *sets) {
        if (a.size() == 1) {
          set_input(model_gate, i, add_event(a.front()));
        } else {
          const node_index conj =
              add_gate(ftc_plan::kind::and_gate, a.size());
          std::size_t j = 0;
          for (node_index b : a) set_input(conj, j++, add_event(b));
          set_input(model_gate, i, conj);
        }
        ++i;
      }
    }
    gate_map_.emplace_back(gate, model_gate);
    plan_.nodes[event].aux = model_gate;
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
      if (trigger_set_memo::sets hit = memo_->find(key)) return hit;
    }
    mocus_options opts;
    opts.assume_failed = std::move(assumed_failed);
    opts.assume_working = std::move(assumed_working);
    auto solved = std::make_shared<const std::vector<cutset>>(
        mocus_from(source_.structure(), gate, opts).cutsets);
    ++solved_;
    if (memo_ == nullptr) return solved;
    return memo_->insert(std::move(key), std::move(solved));
  }

  const sd_fault_tree& source_;
  const cutset& cutset_;
  const approx_mode mode_;
  const trigger_set_memo* memo_;  // nullptr: every gate runs MOCUS
  ftc_plan plan_;
  std::size_t solved_ = 0;
  // Modelled source triggering gates and their FT_C model gates.
  std::vector<std::pair<node_index, node_index>> gate_map_;
  // Triggered FT_C events awaiting modelling, in FT_C index order.
  std::vector<node_index> pending_;
};

/// The ftc_plan_memo key: the mode, then the cutset's fixed-width indices.
std::string plan_key(approx_mode mode, const cutset& c) {
  std::string key(1 + c.size() * sizeof(node_index), '\0');
  key[0] = static_cast<char>(mode);
  if (!c.empty()) {
    std::memcpy(key.data() + 1, c.data(), c.size() * sizeof(node_index));
  }
  return key;
}

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

std::vector<node_index> ftc_plan::cutset_dynamic() const {
  std::vector<node_index> out;
  for (node_index n = 0; n < top; ++n) out.push_back(nodes[n].ref);
  return out;
}

std::vector<node_index> ftc_plan::added_dynamic() const {
  std::vector<node_index> out;
  for (node_index n = top + 1; n < nodes.size(); ++n) {
    if (nodes[n].what == kind::dynamic_event) out.push_back(nodes[n].ref);
  }
  return out;
}

std::vector<node_index> ftc_plan::added_static() const {
  std::vector<node_index> out;
  for (const node& n : nodes) {
    if (n.what == kind::static_event) out.push_back(n.ref);
  }
  return out;
}

ftc_plan_memo::~ftc_plan_memo() { delete stripes_.load(); }

ftc_plan_memo::stripe& ftc_plan_memo::stripe_of(stripe_array& all,
                                                const std::string& key) {
  // The map hashes the key again; taking the stripe from the top bits of
  // a remixed hash keeps the two choices independent.
  static_assert(stripes == 64, "the stripe is the top 6 bits of the mix");
  const std::uint64_t h = std::hash<std::string>{}(key);
  return all[(h * 0x9E3779B97F4A7C15ULL) >> 58];
}

const ftc_plan* ftc_plan_memo::find(approx_mode mode, const cutset& c) const {
  stripe_array* const all = stripes_.load(std::memory_order_acquire);
  if (all == nullptr) return nullptr;
  const std::string key = plan_key(mode, c);
  stripe& s = stripe_of(*all, key);
  std::shared_lock lock(s.mutex);
  const auto it = s.map.find(key);
  return it == s.map.end() ? nullptr : &it->second;
}

const ftc_plan* ftc_plan_memo::insert(approx_mode mode, const cutset& c,
                                      ftc_plan plan) const {
  stripe_array* all = stripes_.load(std::memory_order_acquire);
  if (all == nullptr) {
    // Racing first inserts each build stripes; one publishes, the others
    // free theirs and use it.
    auto fresh = std::make_unique<stripe_array>();
    if (stripes_.compare_exchange_strong(all, fresh.get(),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      all = fresh.release();
    }
  }
  std::string key = plan_key(mode, c);
  stripe& s = stripe_of(*all, key);
  std::lock_guard lock(s.mutex);
  return &s.map.try_emplace(std::move(key), std::move(plan)).first->second;
}

std::size_t ftc_plan_memo::size() const {
  stripe_array* const all = stripes_.load(std::memory_order_acquire);
  if (all == nullptr) return 0;
  std::size_t n = 0;
  for (stripe& s : *all) {
    std::shared_lock lock(s.mutex);
    n += s.map.size();
  }
  return n;
}

ftc_plan build_ftc_plan(const sd_fault_tree& tree, const cutset& c,
                        approx_mode mode, const trigger_set_memo* trigger_sets,
                        std::size_t* trigger_sets_solved) {
  return ftc_builder(tree, c, mode, trigger_sets).build(trigger_sets_solved);
}

sd_fault_tree materialise_ftc(const ftc_plan& plan, const sd_fault_tree& tree) {
  const fault_tree& source = tree.structure();
  using kind = ftc_plan::kind;
  const auto is_gate = [&](node_index n) {
    return plan.nodes[n].what == kind::and_gate ||
           plan.nodes[n].what == kind::or_gate;
  };

  // Gate names: the top, then each trigger model after its source gate
  // and each of its conjunctions after its trigger-set position.
  std::vector<std::string> gate_names(plan.nodes.size());
  gate_names[plan.top] = "MCS_TOP";
  for (const ftc_plan::node& node : plan.nodes) {
    if (node.what != kind::dynamic_event || node.aux == fault_tree::npos ||
        !gate_names[node.aux].empty()) {
      continue;
    }
    const std::string base =
        "trig::" + source.node(tree.trigger_gate_of(node.ref)).name;
    const ftc_plan::node& model = plan.nodes[node.aux];
    for (node_index i = 0; i < model.aux; ++i) {
      const node_index input = plan.inputs[model.ref + i];
      if (is_gate(input)) gate_names[input] = base + "::" + std::to_string(i);
    }
    gate_names[node.aux] = base;
  }

  // Nodes in plan order; gate inputs once every node exists, since a
  // trigger model precedes its conjunctions.
  sd_fault_tree ftc;
  for (node_index n = 0; n < plan.nodes.size(); ++n) {
    const ftc_plan::node& node = plan.nodes[n];
    switch (node.what) {
      case kind::and_gate:
      case kind::or_gate:
        ftc.add_gate(std::move(gate_names[n]), node.what == kind::and_gate
                                                   ? gate_type::and_gate
                                                   : gate_type::or_gate);
        break;
      case kind::static_event:
        ftc.add_static_event(source.node(node.ref).name,
                             source.node(node.ref).probability);
        break;
      case kind::dynamic_event:
        std::visit(
            [&](const auto& model) {
              ftc.add_dynamic_event(source.node(node.ref).name, model);
            },
            tree.model_of(node.ref));
        break;
    }
  }
  for (node_index n = 0; n < plan.nodes.size(); ++n) {
    if (!is_gate(n)) continue;
    const ftc_plan::node& gate = plan.nodes[n];
    for (node_index i = 0; i < gate.aux; ++i) {
      ftc.add_input(n, plan.inputs[gate.ref + i]);
    }
  }
  ftc.set_top(plan.top);
  // Trigger edges in FT_C index order, the order the events were queued
  // for trigger modelling.
  for (node_index n = 0; n < plan.nodes.size(); ++n) {
    const ftc_plan::node& node = plan.nodes[n];
    if (node.what == kind::dynamic_event && node.aux != fault_tree::npos) {
      ftc.set_trigger(node.aux, n);
    }
  }
  ftc.validate();
  return ftc;
}

double ftc_static_factor(const sd_fault_tree& tree, const cutset& c) {
  double factor = 1.0;
  for (node_index b : c) {
    if (!tree.is_dynamic(b)) factor *= tree.structure().node(b).probability;
  }
  return factor;
}

mcs_model build_mcs_model(const sd_fault_tree& tree, const cutset& c,
                          approx_mode mode,
                          const trigger_set_memo* trigger_sets) {
  mcs_model model;
  ftc_plan plan = build_ftc_plan(tree, c, mode, trigger_sets,
                                 &model.trigger_sets_solved);
  model.trigger_set_hits = plan.trigger_gates() - model.trigger_sets_solved;
  model.tree = materialise_ftc(plan, tree);
  model.static_factor = ftc_static_factor(tree, c);
  model.cutset_dynamic = plan.cutset_dynamic();
  model.added_dynamic = plan.added_dynamic();
  model.added_static = plan.added_static();
  model.used_classes = std::move(plan.used_classes);
  return model;
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

#include "sim/trajectory.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <variant>

#include "util/error.hpp"

namespace sdft::sim {

namespace {

constexpr std::uint32_t kNone = 0xffffffffU;

}  // namespace

trajectory_model::trajectory_model(const sd_fault_tree& tree,
                                   std::size_t max_update_sweeps)
    : tree_(tree),
      max_update_sweeps_(max_update_sweeps),
      top_(tree.structure().top()) {
  const fault_tree& ft = tree_.structure();
  const std::size_t n = ft.size();

  for (node_index b : ft.basic_events()) {
    component comp;
    comp.event = b;
    const auto index = static_cast<std::uint32_t>(components_.size());
    static_draw nominal;
    if (tree_.is_dynamic(b)) {
      const dynamic_model& model = tree_.model_of(b);
      if (const auto* trig = std::get_if<triggered_ctmc>(&model)) {
        comp.chain = &trig->chain;
        comp.trigger_gate = tree_.trigger_gate_of(b);
        comp.trigger = trig;
        triggered_.push_back(index);
      } else {
        comp.chain = &std::get<ctmc>(model);
      }
      comp.first_state = static_cast<std::uint32_t>(states_.size());
      for (state_index st = 0; st < comp.chain->num_states(); ++st) {
        states_.push_back(state_info{comp.chain->exit_rate(st),
                                     comp.chain->initial(st),
                                     comp.chain->failed(st)});
      }
      dynamic_.push_back(index);
    } else {
      nominal.q = ft.node(b).probability;
    }
    components_.push_back(comp);
    nominal_law_.push_back(nominal);
  }

  // Parent lists (CSR) and thresholds: AND needs every input, OR one,
  // atleast k. A zero-input AND has threshold 0 and is constantly failed.
  std::vector<std::uint32_t> num_parents(n, 0);
  threshold_.assign(n, 0);
  for (node_index g = 0; g < n; ++g) {
    const ft_node& node = ft.node(g);
    if (node.kind != node_kind::gate) continue;
    for (node_index child : node.inputs) ++num_parents[child];
    threshold_[g] =
        node.type == gate_type::and_gate
            ? static_cast<std::uint32_t>(node.inputs.size())
            : node.type == gate_type::or_gate ? 1U : node.k;
  }
  parent_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    parent_begin_[i + 1] = parent_begin_[i] + num_parents[i];
  }
  parents_.resize(parent_begin_[n]);
  std::vector<std::uint32_t> fill(parent_begin_.begin(),
                                  parent_begin_.end() - 1);
  for (node_index g = 0; g < n; ++g) {
    for (node_index child : ft.node(g).inputs) parents_[fill[child]++] = g;
  }

  // The all-working state: only constant gates (and gates they fail) are
  // failed. Counters follow from the flags.
  base_failed_ = ft.evaluate(std::vector<char>(n, 0));
  base_inputs_.assign(n, 0);
  for (node_index g = 0; g < n; ++g) {
    for (node_index child : ft.node(g).inputs) {
      base_inputs_[g] += base_failed_[child] != 0 ? 1U : 0U;
    }
  }

  // Importance plan: the top gate's sub-DAG in topological order, and the
  // longest leaf-to-top path over the same order.
  std::vector<char> needed(n, 0);
  for (node_index v : ft.descendants(top_)) needed[v] = 1;
  std::vector<std::size_t> depth(n, 0);
  for (node_index v : ft.topo_order()) {
    if (!needed[v]) continue;
    const ft_node& node = ft.node(v);
    phi_step step;
    step.node = v;
    step.gate = node.kind == node_kind::gate;
    step.type = node.type;
    step.k = node.k;
    step.begin = static_cast<std::uint32_t>(phi_inputs_.size());
    for (node_index child : node.inputs) {
      phi_inputs_.push_back(child);
      depth[v] = std::max(depth[v], depth[child] + 1);
    }
    step.end = static_cast<std::uint32_t>(phi_inputs_.size());
    phi_plan_.push_back(step);
  }
  depth_ = depth[top_];
}

trajectory_model::static_law trajectory_model::make_static_law(
    const std::vector<double>* bias) const {
  static_law law = nominal_law_;
  if (bias == nullptr) return law;
  const fault_tree& ft = tree_.structure();
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].chain != nullptr) continue;
    const node_index e = components_[i].event;
    const double p = ft.node(e).probability;
    const double q = (*bias)[e];
    law[i].q = q;
    if (q != p) {
      law[i].fail_weight = p / q;
      law[i].ok_weight = (1.0 - p) / (1.0 - q);
    }
  }
  return law;
}

void trajectory_model::set_leaf(trajectory_state& s, node_index leaf,
                                bool failed) const {
  char* flags = s.node_failed.data();
  if ((flags[leaf] != 0) == failed) return;
  flags[leaf] = failed ? 1 : 0;
  // Depth-first over the nodes whose status changed. One leaf flip moves
  // every affected gate in the same direction, so each gate changes at
  // most once and the stack never holds more than ft.size() entries.
  std::uint32_t* counts = s.failed_inputs.data();
  node_index* stack = s.pending.data();
  std::size_t depth = 0;
  stack[depth++] = leaf;
  while (depth > 0) {
    const node_index v = stack[--depth];
    const bool up = flags[v] != 0;
    for (std::uint32_t i = parent_begin_[v]; i < parent_begin_[v + 1]; ++i) {
      const node_index p = parents_[i];
      counts[p] = up ? counts[p] + 1 : counts[p] - 1;
      const char now_failed = counts[p] >= threshold_[p] ? 1 : 0;
      if (now_failed != flags[p]) {
        flags[p] = now_failed;
        stack[depth++] = p;
      }
    }
  }
}

bool trajectory_model::init(trajectory_state& s, rng& random,
                            const static_law* law) const {
  const static_draw* draws =
      law != nullptr ? law->data() : nominal_law_.data();
  s.now = 0.0;
  s.locals.assign(components_.size(), 0);
  s.node_failed = base_failed_;
  s.failed_inputs = base_inputs_;
  s.pending.resize(base_failed_.size());

  // The generator and the weight live in locals for the whole loop and
  // are written back once: the draws then stay in registers.
  rng r = random;
  double weight = 1.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const component& comp = components_[i];
    if (comp.chain == nullptr) {
      const static_draw& d = draws[i];
      if (r.uniform() < d.q) {
        weight *= d.fail_weight;
        set_leaf(s, comp.event, true);
      } else {
        weight *= d.ok_weight;
      }
      continue;
    }
    const state_info* states = states_.data() + comp.first_state;
    double u = r.uniform();
    state_index local = 0;
    for (state_index st = 0; st < comp.chain->num_states(); ++st) {
      u -= states[st].initial;
      if (u <= 0.0) {
        local = st;
        break;
      }
    }
    s.locals[i] = local;
    if (states[local].failed) set_leaf(s, comp.event, true);
  }
  random = r;
  s.weight = weight;
  return settle(s);
}

advance_outcome trajectory_model::advance(trajectory_state& s, double horizon,
                                          rng& random,
                                          double phi_threshold) const {
  const bool watch_phi = phi_threshold <= 1.0;
  rng r = random;
  double now = s.now;
  advance_outcome outcome = advance_outcome::survived;
  for (;;) {
    // Sample the next jump over all active components (memorylessness lets
    // us resample after every state change).
    double best_time = horizon;
    std::uint32_t jumper = kNone;
    for (std::uint32_t i : dynamic_) {
      const double exit =
          states_[components_[i].first_state + s.locals[i]].exit_rate;
      if (exit <= 0.0) continue;
      const double dt = -std::log(1.0 - r.uniform()) / exit;
      if (now + dt < best_time) {
        best_time = now + dt;
        jumper = i;
      }
    }
    if (jumper == kNone || best_time >= horizon) {
      now = horizon;
      break;
    }
    now = best_time;

    // Choose the target proportionally to the transition rates.
    const component& comp = components_[jumper];
    const state_index from = s.locals[jumper];
    const auto& transitions = comp.chain->transitions_from(from);
    double u = r.uniform() * states_[comp.first_state + from].exit_rate;
    state_index target = transitions.back().first;
    for (const auto& [to, rate] : transitions) {
      u -= rate;
      if (u <= 0.0) {
        target = to;
        break;
      }
    }
    s.locals[jumper] = target;
    set_leaf(s, comp.event, states_[comp.first_state + target].failed);
    if (settle(s)) {
      outcome = advance_outcome::failed;
      break;
    }
    if (watch_phi && importance(s) >= phi_threshold) {
      outcome = advance_outcome::crossed;
      break;
    }
  }
  s.now = now;
  random = r;
  return outcome;
}

double trajectory_model::importance(trajectory_state& s) const {
  s.phi.resize(base_failed_.size());
  double* phi = s.phi.data();
  const char* flags = s.node_failed.data();
  for (const phi_step& step : phi_plan_) {
    const node_index* first = phi_inputs_.data() + step.begin;
    const node_index* last = phi_inputs_.data() + step.end;
    double value = 0.0;
    if (!step.gate) {
      value = flags[step.node] != 0 ? 1.0 : 0.0;
    } else if (first == last) {
      // Constant gates: empty AND is TRUE, empty OR is FALSE.
      value = step.type == gate_type::and_gate ? 1.0 : 0.0;
    } else if (step.type == gate_type::or_gate) {
      for (const node_index* c = first; c != last; ++c) {
        value = std::max(value, phi[*c]);
      }
    } else if (step.type == gate_type::and_gate) {
      double sum = 0.0;
      for (const node_index* c = first; c != last; ++c) sum += phi[*c];
      value = sum / static_cast<double>(last - first);
    } else {
      // atleast(k): mean of the k largest children — 1 exactly when k
      // children are failed, monotone below that.
      std::vector<double>& scratch = s.phi_sort;
      scratch.clear();
      for (const node_index* c = first; c != last; ++c) {
        scratch.push_back(phi[*c]);
      }
      const std::size_t k = step.k;
      std::partial_sort(scratch.begin(), scratch.begin() + k, scratch.end(),
                        std::greater<double>());
      double sum = 0.0;
      for (std::size_t i = 0; i < k; ++i) sum += scratch[i];
      value = sum / static_cast<double>(k);
    }
    phi[step.node] = value;
  }
  return phi[top_];
}

bool trajectory_model::settle(trajectory_state& s) const {
  // Every sweep decides all trigger switches against the same gate
  // states, then applies them; only triggered components are visited.
  for (std::size_t sweep = 0; sweep <= max_update_sweeps_; ++sweep) {
    s.switched.clear();
    for (std::uint32_t i : triggered_) {
      const component& comp = components_[i];
      const bool demanded = s.node_failed[comp.trigger_gate] != 0;
      const state_index local = s.locals[i];
      const bool on = comp.trigger->on_state[local] != 0;
      if (demanded && !on) {
        s.locals[i] = comp.trigger->to_on[local];
        s.switched.push_back(i);
      } else if (!demanded && on) {
        s.locals[i] = comp.trigger->to_off[local];
        s.switched.push_back(i);
      }
    }
    if (s.switched.empty()) return s.node_failed[top_] != 0;
    for (std::uint32_t i : s.switched) {
      const component& comp = components_[i];
      set_leaf(s, comp.event,
               states_[comp.first_state + s.locals[i]].failed);
    }
  }
  throw model_error("simulator: trigger updates did not stabilise");
}

}  // namespace sdft::sim

#include "product/product_ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>

#include "ctmc/transient.hpp"
#include "ft/evaluator.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/fox_glynn.hpp"
#include "util/rng.hpp"

namespace sdft {

namespace {

using local_state = std::uint16_t;
using product_state = std::vector<local_state>;

/// Attribution sinks carry this in every arena slot; local chains are
/// capped at 0xffff states, so no real local state reaches it.
constexpr local_state sink_sentinel = 0xffff;

struct product_state_hash {
  std::size_t operator()(const product_state& s) const {
    std::size_t h = 0xcbf29ce484222325ULL;
    for (local_state v : s) {
      h ^= v;
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

/// splitmix64 finaliser: the packed key concentrates its entropy in the
/// low bits of each component field, so mix before bucketing.
struct packed_key_hash {
  std::size_t operator()(std::uint64_t x) const {
    return static_cast<std::size_t>(mix64(x));
  }
};

// Byte serialisation for the exchangeability signature (mirrors the
// quantification-cache encoding: equal bytes <=> equal stochastic model).
void put_u32(std::string& out, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void put_f64(std::string& out, double v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void put_chain(std::string& out, const ctmc& chain) {
  put_u32(out, static_cast<std::uint32_t>(chain.num_states()));
  for (state_index s = 0; s < chain.num_states(); ++s) {
    put_f64(out, chain.initial(s));
    out.push_back(chain.failed(s) ? 'F' : '.');
    const auto& row = chain.transitions_from(s);
    put_u32(out, static_cast<std::uint32_t>(row.size()));
    for (const auto& [target, rate] : row) {
      put_u32(out, target);
      put_f64(out, rate);
    }
  }
}

/// Per-component view used during exploration. Static events own a local
/// two-state chain; dynamic events reference their model inside the tree.
struct component {
  node_index event;
  const ctmc* chain;
  // Trigger data; trigger_gate == npos for untriggered components.
  node_index trigger_gate = fault_tree::npos;
  const std::vector<char>* on_state = nullptr;
  const std::vector<state_index>* to_on = nullptr;
  const std::vector<state_index>* to_off = nullptr;
};

constexpr std::size_t no_orbit = static_cast<std::size_t>(-1);

class builder {
 public:
  /// With `attribute` set, failed states reached by a transition are
  /// replaced by one absorbing sink per causing component (and failed
  /// states are never expanded), enabling first-failure attribution.
  builder(const sd_fault_tree& tree, const product_options& options,
          bool attribute = false)
      : tree_(tree), options_(options), attribute_(attribute) {
    const fault_tree& ft = tree_.structure();
    for (node_index b : ft.basic_events()) {
      component comp;
      comp.event = b;
      if (tree_.is_dynamic(b)) {
        const dynamic_model& model = tree_.model_of(b);
        if (const auto* trig = std::get_if<triggered_ctmc>(&model)) {
          comp.chain = &trig->chain;
          comp.trigger_gate = tree_.trigger_gate_of(b);
          comp.on_state = &trig->on_state;
          comp.to_on = &trig->to_on;
          comp.to_off = &trig->to_off;
        } else {
          comp.chain = &std::get<ctmc>(model);
        }
      } else {
        static_chains_.push_back(make_static_event(ft.node(b).probability));
      }
      components_.push_back(comp);
    }
    // Vector growth above invalidates pointers; bind static chains now.
    std::size_t next_static = 0;
    for (auto& comp : components_) {
      if (!tree_.is_dynamic(comp.event)) {
        comp.chain = &static_chains_[next_static++];
      }
      require_model(comp.chain->num_states() <= 0xffff,
                    "product: component chain exceeds 65535 states");
    }
    failed_basic_.assign(ft.size(), 0);
    node_failed_.assign(ft.size(), 0);

    // settle() only needs the sub-DAG feeding the trigger gates and
    // is_failed() only the one feeding the top gate; everything else of
    // the tree never influences either answer.
    std::vector<node_index> trigger_targets;
    for (const auto& comp : components_) {
      if (comp.trigger_gate != fault_tree::npos) {
        trigger_targets.push_back(comp.trigger_gate);
      }
    }
    has_triggers_ = !trigger_targets.empty();
    trigger_eval_.emplace(ft, trigger_targets);
    top_eval_.emplace(ft, std::vector<node_index>{ft.top()});

    detect_orbits();
    setup_state_codec();
  }

  product_ctmc build() {
    seed_initial();
    if (attribute_) {
      // One absorbing failed sink per component; regular product states
      // keep their failed flag off so only sinks (and initially failed
      // states) carry failure mass.
      sinks_.resize(components_.size());
      for (std::size_t i = 0; i < components_.size(); ++i) {
        sinks_[i] = result_.chain.add_state();
        result_.chain.set_failed(sinks_[i]);
        result_.locals.insert(result_.locals.end(), result_.stride,
                              sink_sentinel);
      }
    }
    // BFS over consistent (canonical) states; chain rows grow as states
    // intern. The arena grows too, so each state is copied out first.
    const std::size_t stride = result_.stride;
    for (std::size_t s = 0; s < result_.num_states(); ++s) {
      if (attribute_ &&
          (is_sink_slot(s) ||
           result_.chain.failed(static_cast<state_index>(s)))) {
        continue;  // sinks and initially-failed states are absorbing
      }
      current_.assign(result_.locals.begin() + s * stride,
                      result_.locals.begin() + (s + 1) * stride);
      for (std::size_t i = 0; i < components_.size(); ++i) {
        // Orbit members holding the same local state are exchangeable:
        // the first of each equal-value run moves on behalf of all of
        // them (rate times the run length); the others are skipped.
        double multiplicity = 1.0;
        if (comp_orbit_[i] != no_orbit) {
          const auto& members = orbits_[comp_orbit_[i]];
          const std::size_t pos = comp_orbit_pos_[i];
          if (pos > 0 && current_[members[pos - 1]] == current_[i]) {
            continue;
          }
          for (std::size_t j = pos + 1; j < members.size() &&
                                        current_[members[j]] == current_[i];
               ++j) {
            multiplicity += 1.0;
          }
        }
        for (const auto& [target, rate] :
             components_[i].chain->transitions_from(current_[i])) {
          next_.assign(current_.begin(), current_.end());
          next_[i] = static_cast<local_state>(target);
          settle(next_);
          canonicalize(next_);
          if (attribute_ && is_failed(next_)) {
            result_.chain.add_rate(static_cast<state_index>(s), sinks_[i],
                                   rate);
            continue;
          }
          const state_index to = intern(next_);
          if (to != s) {
            result_.chain.add_rate(static_cast<state_index>(s), to,
                                   rate * multiplicity);
          }
        }
      }
    }
    return std::move(result_);
  }

  /// Sink state of component position i (attribution mode only).
  state_index sink(std::size_t i) const { return sinks_[i]; }

 private:
  /// Groups components into orbits of exchangeable positions: identical
  /// local chains (byte-equal, including switching maps), the same
  /// trigger gate (or both untriggered), and the same parent-gate
  /// multiset. Swapping two such components is an automorphism of the SD
  /// tree, so the product chain is lumpable by per-orbit state counts —
  /// realised here by exploring only canonical representatives (orbit
  /// slots sorted ascending).
  void detect_orbits() {
    comp_orbit_.assign(components_.size(), no_orbit);
    comp_orbit_pos_.assign(components_.size(), 0);
    if (!options_.lump_symmetry || attribute_) return;
    const fault_tree& ft = tree_.structure();

    std::unordered_map<node_index, std::vector<node_index>> parents;
    for (node_index n = 0; n < ft.size(); ++n) {
      const ft_node& node = ft.node(n);
      if (node.kind != node_kind::gate) continue;
      for (node_index child : node.inputs) {
        if (ft.is_basic(child)) parents[child].push_back(n);
      }
    }

    std::unordered_map<std::string, std::size_t> groups;
    std::vector<std::vector<std::size_t>> raw;
    for (std::size_t i = 0; i < components_.size(); ++i) {
      const component& comp = components_[i];
      std::string sig;
      put_chain(sig, *comp.chain);
      if (comp.trigger_gate != fault_tree::npos) {
        sig.push_back('T');
        put_u32(sig, comp.trigger_gate);
        for (char on : *comp.on_state) sig.push_back(on ? '1' : '0');
        for (state_index s : *comp.to_on) put_u32(sig, s);
        for (state_index s : *comp.to_off) put_u32(sig, s);
      }
      sig.push_back('P');
      if (auto it = parents.find(comp.event); it != parents.end()) {
        std::vector<node_index> ps = it->second;
        std::sort(ps.begin(), ps.end());
        for (node_index p : ps) put_u32(sig, p);
      }
      const auto [it, inserted] = groups.emplace(sig, raw.size());
      if (inserted) raw.emplace_back();
      raw[it->second].push_back(i);
    }

    for (const auto& members : raw) {
      if (members.size() < 2) continue;
      for (std::size_t m = 0; m < members.size(); ++m) {
        comp_orbit_[members[m]] = orbits_.size();
        comp_orbit_pos_[members[m]] = m;
      }
      orbits_.push_back(members);
      result_.lumped_components += members.size();
    }
    result_.lumped_orbits = orbits_.size();
  }

  /// Chooses between the packed 64-bit key and the vector key: each
  /// component claims bit_width(num_states - 1) bits of the word.
  void setup_state_codec() {
    std::size_t total_bits = 0;
    bits_.resize(components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i) {
      const std::size_t ns = components_[i].chain->num_states();
      unsigned b = 1;
      while ((std::size_t{1} << b) < ns) ++b;
      bits_[i] = b;
      total_bits += b;
    }
    packed_ = options_.packed_state_keys && total_bits <= 64;
    result_.packed_keys = packed_;
  }

  std::uint64_t encode(const product_state& s) const {
    std::uint64_t key = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      key = (key << bits_[i]) | s[i];
    }
    return key;
  }

  /// Sorts each orbit's slots ascending: the canonical representative of
  /// the state's symmetry class. No-op without orbits.
  void canonicalize(product_state& s) {
    for (const auto& members : orbits_) {
      orbit_vals_.clear();
      for (std::size_t m : members) orbit_vals_.push_back(s[m]);
      std::sort(orbit_vals_.begin(), orbit_vals_.end());
      for (std::size_t j = 0; j < members.size(); ++j) {
        s[members[j]] = orbit_vals_[j];
      }
    }
  }

  bool is_sink_slot(std::size_t s) const {
    return result_.stride > 0 &&
           result_.locals[s * result_.stride] == sink_sentinel;
  }

  /// Applies trigger updates until the state is consistent (paper §III-C1b).
  /// Acyclic triggering bounds the number of sweeps by the trigger depth.
  void settle(product_state& s) {
    if (!has_triggers_) return;
    const std::size_t limit = components_.size() + 2;
    for (std::size_t round = 0; round <= limit; ++round) {
      for (std::size_t i = 0; i < components_.size(); ++i) {
        failed_basic_[components_[i].event] =
            components_[i].chain->failed(s[i]) ? 1 : 0;
      }
      trigger_eval_->evaluate(failed_basic_, node_failed_);
      bool changed = false;
      for (std::size_t i = 0; i < components_.size(); ++i) {
        const component& comp = components_[i];
        if (comp.trigger_gate == fault_tree::npos) continue;
        const bool demanded = node_failed_[comp.trigger_gate] != 0;
        const bool on = (*comp.on_state)[s[i]] != 0;
        if (demanded && !on) {
          s[i] = static_cast<local_state>((*comp.to_on)[s[i]]);
          changed = true;
        } else if (!demanded && on) {
          s[i] = static_cast<local_state>((*comp.to_off)[s[i]]);
          changed = true;
        }
      }
      if (!changed) return;
    }
    throw model_error("product: trigger updates did not stabilise");
  }

  /// Whether a (consistent) product state fails the top gate.
  bool is_failed(const product_state& s) {
    for (std::size_t i = 0; i < components_.size(); ++i) {
      failed_basic_[components_[i].event] =
          components_[i].chain->failed(s[i]) ? 1 : 0;
    }
    top_eval_->evaluate(failed_basic_, node_failed_);
    return node_failed_[tree_.structure().top()] != 0;
  }

  /// Index of a canonical consistent state, interning it (arena slot,
  /// chain state and failure flag) on first sight.
  state_index intern(const product_state& s) {
    if (packed_) {
      const std::uint64_t key = encode(s);
      if (const auto it = packed_index_.find(key);
          it != packed_index_.end()) {
        return it->second;
      }
      const state_index idx = intern_new(s);
      packed_index_.emplace(key, idx);
      return idx;
    }
    if (const auto it = vector_index_.find(s); it != vector_index_.end()) {
      return it->second;
    }
    const state_index idx = intern_new(s);
    vector_index_.emplace(s, idx);
    return idx;
  }

  state_index intern_new(const product_state& s) {
    if (result_.num_states() >= options_.max_states) {
      throw numeric_error("product: state-space limit exceeded");
    }
    const auto idx = static_cast<state_index>(result_.num_states());
    result_.locals.insert(result_.locals.end(), s.begin(), s.end());
    result_.chain.add_state();
    result_.chain.set_failed(idx, is_failed(s));
    return idx;
  }

  /// Number of distinct orderings collapsing onto the (orbit-sorted)
  /// assignment `s`: the product of per-orbit multinomials k!/prod c!.
  double orbit_multiplicity(const product_state& s) const {
    double log_m = 0.0;
    for (const auto& members : orbits_) {
      log_m += log_factorial(members.size());
      std::size_t run = 1;
      for (std::size_t j = 1; j <= members.size(); ++j) {
        if (j < members.size() && s[members[j]] == s[members[j - 1]]) {
          ++run;
          continue;
        }
        log_m -= log_factorial(run);
        run = 1;
      }
    }
    if (log_m == 0.0) return 1.0;
    const double m = std::exp(log_m);
    // Multinomials are integers; recover exactness lost in log space.
    return m < 9e15 ? std::round(m) : m;
  }

  /// Enumerates the product of the per-component initial supports,
  /// normalising each combination to its consistent canonical state
  /// (paper §III-C1). Inside an orbit only non-decreasing assignments are
  /// enumerated; the collapsed orderings return via the multinomial
  /// multiplicity, so k identical events cost C(k+m-1, m-1) combinations
  /// instead of m^k.
  void seed_initial() {
    for (const auto& comp : components_) {
      result_.events.push_back(comp.event);
    }
    result_.stride = components_.size();
    product_state partial(components_.size(), 0);
    std::size_t combos = 0;
    const std::function<void(std::size_t, double)> expand =
        [&](std::size_t i, double p) {
          if (i == components_.size()) {
            if (++combos > options_.max_initial_support) {
              throw numeric_error("product: initial support limit exceeded");
            }
            const double multiplicity = orbit_multiplicity(partial);
            next_.assign(partial.begin(), partial.end());
            settle(next_);
            canonicalize(next_);
            const state_index idx = intern(next_);
            result_.chain.set_initial(
                idx, result_.chain.initial(idx) + p * multiplicity);
            return;
          }
          const ctmc& chain = *components_[i].chain;
          state_index first = 0;
          if (comp_orbit_[i] != no_orbit && comp_orbit_pos_[i] > 0) {
            const auto& members = orbits_[comp_orbit_[i]];
            first = partial[members[comp_orbit_pos_[i] - 1]];
          }
          for (state_index l = first; l < chain.num_states(); ++l) {
            const double pl = chain.initial(l);
            if (pl == 0.0) continue;
            partial[i] = static_cast<local_state>(l);
            expand(i + 1, p * pl);
          }
        };
    expand(0, 1.0);
  }

  const sd_fault_tree& tree_;
  const product_options options_;
  const bool attribute_ = false;
  std::vector<state_index> sinks_;
  std::vector<component> components_;
  std::vector<ctmc> static_chains_;

  bool has_triggers_ = false;
  std::optional<subtree_evaluator> trigger_eval_;
  std::optional<subtree_evaluator> top_eval_;
  std::vector<char> failed_basic_;
  std::vector<char> node_failed_;

  std::vector<std::vector<std::size_t>> orbits_;  ///< member positions
  std::vector<std::size_t> comp_orbit_;      ///< component -> orbit/no_orbit
  std::vector<std::size_t> comp_orbit_pos_;  ///< index within the orbit
  std::vector<local_state> orbit_vals_;      ///< canonicalize scratch

  std::vector<unsigned> bits_;  ///< packed-key bit width per component
  bool packed_ = false;
  std::unordered_map<std::uint64_t, state_index, packed_key_hash>
      packed_index_;
  std::unordered_map<product_state, state_index, product_state_hash>
      vector_index_;

  product_state current_;  ///< BFS scratch (arena grows during expansion)
  product_state next_;     ///< transition-target scratch

  product_ctmc result_;
};

}  // namespace

product_ctmc build_product_ctmc(const sd_fault_tree& tree,
                                const product_options& options) {
  obs::span_scope span("product.build", "product");
  tree.validate();
  product_ctmc out = builder(tree, options).build();
  span.arg("states", static_cast<double>(out.num_states()));
  span.arg("lumped_orbits", static_cast<double>(out.lumped_orbits));
  span.arg("packed", out.packed_keys ? 1.0 : 0.0);
  return out;
}

double exact_failure_probability(const sd_fault_tree& tree, double t,
                                 double epsilon,
                                 const product_options& options) {
  const product_ctmc product = build_product_ctmc(tree, options);
  return reach_failed_probability(product.chain, t, epsilon);
}

attribution_result failure_attribution(const sd_fault_tree& tree, double t,
                                       double epsilon,
                                       const product_options& options) {
  tree.validate();
  builder b(tree, options, /*attribute=*/true);
  const product_ctmc product = b.build();

  // Every failed state (sinks and initially-failed states) is absorbing
  // by construction, so the plain transient distribution carries exactly
  // the first-failure mass.
  const auto dist = transient_distribution(product.chain, t, epsilon);
  attribution_result out;
  for (std::size_t i = 0; i < product.events.size(); ++i) {
    const double mass = dist[b.sink(i)];
    if (mass > 0.0) out.by_event[product.events[i]] = mass;
    out.total += mass;
  }
  for (state_index s = 0; s < product.num_states(); ++s) {
    if (!product.is_sink(s) && product.chain.failed(s)) {
      out.initially_failed += dist[s];
    }
  }
  out.total += out.initially_failed;
  return out;
}

}  // namespace sdft

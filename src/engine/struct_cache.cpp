#include "engine/struct_cache.hpp"

#include <cstring>

#include "bdd/ft_compiler.hpp"

namespace sdft {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

}  // namespace

std::string structural_signature(const sd_fault_tree& tree,
                                 const prep_options& prep) {
  const fault_tree& ft = tree.structure();
  std::string out;
  out.reserve(16 * ft.size());
  // Prep on and off yield different prep trees (and exact-static BDDs),
  // so they must not alias.
  out.push_back(prep.enabled ? 'P' : 'p');
  put_u32(out, static_cast<std::uint32_t>(ft.size()));
  put_u32(out, ft.top());
  for (node_index n = 0; n < ft.size(); ++n) {
    const ft_node& node = ft.node(n);
    if (node.kind == node_kind::gate) {
      if (node.type == gate_type::atleast_gate) {
        out.push_back('V');
        put_u32(out, node.k);
      } else {
        out.push_back(node.type == gate_type::and_gate ? 'A' : 'O');
      }
      put_u32(out, static_cast<std::uint32_t>(node.inputs.size()));
      for (node_index input : node.inputs) put_u32(out, input);
      continue;
    }
    // Leaves: only the static/dynamic partition and the trigger wiring
    // shape FT-bar; probabilities and chain contents are envelope-handled.
    if (tree.is_dynamic(n)) {
      out.push_back('D');
      put_u32(out, tree.trigger_gate_of(n));
    } else {
      out.push_back('S');
    }
  }
  return out;
}

double structure_entry::exact_static_probability(
    const fault_tree& ft_bar, std::size_t* node_count) const {
  std::call_once(exact_once_, [this] {
    const fault_tree& ft = *prep_tree;
    const std::vector<node_index> order = dfs_leaves(ft, {ft.top()});
    bdd_manager manager;
    const bdd_ref root = ft_compiler(ft, manager, order).compile(ft.top());
    exact_.nodes = manager.size();
    exact_.plan = std::move(manager).freeze({root});
    exact_.var_to_source.reserve(order.size());
    for (const node_index leaf : order) {
      exact_.var_to_source.push_back(prep_to_source[leaf]);
    }
  });
  std::vector<double> probs;
  probs.reserve(exact_.var_to_source.size());
  for (const node_index source : exact_.var_to_source) {
    probs.push_back(ft_bar.node(source).probability);
  }
  std::vector<double> out;
  exact_.plan.evaluate(probs, out);
  if (node_count != nullptr) *node_count = exact_.nodes;
  return out[0];
}

structure_cache::structure_cache(std::size_t capacity) : map_(capacity) {}

std::shared_ptr<const structure_entry> structure_cache::probe(
    const std::string& key) {
  std::lock_guard lock(mutex_);
  const auto* found = map_.find(key);
  return found == nullptr ? nullptr : *found;
}

void structure_cache::store(const std::string& key,
                            std::shared_ptr<structure_entry> entry) {
  std::lock_guard lock(mutex_);
  map_.assign(key, std::move(entry));
}

std::size_t structure_cache::size() const {
  std::lock_guard lock(mutex_);
  return map_.size();
}

std::size_t structure_cache::capacity() const {
  std::lock_guard lock(mutex_);
  return map_.capacity();
}

std::size_t structure_cache::evictions() const {
  std::lock_guard lock(mutex_);
  return map_.evictions();
}

void structure_cache::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  map_.set_capacity(capacity);
}

void structure_cache::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

bool envelope_dominates(const structure_entry& entry,
                        const std::vector<double>& point, double cutoff) {
  // A complete list (generated without truncation) re-filters exactly for
  // any parameter point and any cutoff.
  if (entry.gen_cutoff == 0.0) return true;
  // A truncated list can only serve runs at least as truncated, and only
  // when no probability rose above the generation envelope (a risen
  // probability could promote a pruned cutset past the cutoff).
  if (cutoff < entry.gen_cutoff) return false;
  if (point.size() != entry.envelope.size()) return false;
  for (std::size_t i = 0; i < point.size(); ++i) {
    if (point[i] > entry.envelope[i]) return false;
  }
  return true;
}

}  // namespace sdft

#include "bdd/ft_bdd.hpp"

#include <algorithm>

#include "bdd/ft_compiler.hpp"
#include "ft/modules.hpp"
#include "util/error.hpp"

namespace sdft {

namespace {
/// Sifting is quadratic in the variable count with a BDD transform per
/// swap; above this many variables the expected ordering gain no longer
/// pays for it, so sift mode falls back to its DFS starting order.
constexpr std::uint32_t sift_variable_limit = 128;
}  // namespace

ft_bdd::ft_bdd(const fault_tree& ft, node_index root, bdd_ordering ordering)
    : ft_(ft), ordering_(ordering) {
  if (root == fault_tree::npos) root = ft.top();
  require_model(root != fault_tree::npos && root < ft.size(),
                "ft_bdd: no root node");

  // DFS-from-root discovery order: the default ordering and the starting
  // point (or tie-break) of the others.
  var_to_event_ = dfs_leaves(ft_, {root});

  switch (ordering) {
    case bdd_ordering::dfs:
    case bdd_ordering::sift:  // sifting refines the DFS order post-compile
      break;
    case bdd_ordering::natural:
      std::sort(var_to_event_.begin(), var_to_event_.end());
      break;
    case bdd_ordering::weight: {
      // Top-down weight propagation: the root carries 1, every gate splits
      // its accumulated weight evenly among its inputs, events sum over all
      // paths. Reverse topological order finalises each node's weight
      // before it is spread (the DAG may share gates).
      std::vector<double> weight(ft_.size(), 0.0);
      weight[root] = 1.0;
      const std::vector<node_index> topo = ft_.topo_order();
      for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const node_index n = *it;
        if (!ft_.is_gate(n) || weight[n] == 0.0) continue;
        const auto& inputs = ft_.node(n).inputs;
        if (inputs.empty()) continue;
        const double share = weight[n] / static_cast<double>(inputs.size());
        for (node_index child : inputs) weight[child] += share;
      }
      // Descending weight; stable sort keeps the DFS rank as tie-break.
      std::stable_sort(
          var_to_event_.begin(), var_to_event_.end(),
          [&](node_index a, node_index b) { return weight[a] > weight[b]; });
      break;
    }
  }
  root_ref_ = ft_compiler(ft_, manager_, var_to_event_).compile(root);

  if (ordering == bdd_ordering::sift) sift();
}

void ft_bdd::swap_positions(std::uint32_t p) {
  root_ref_ = manager_.swap_adjacent(root_ref_, p);
  std::swap(var_to_event_[p], var_to_event_[p + 1]);
  ++sift_swaps_;
}

void ft_bdd::sift() {
  const auto n = static_cast<std::uint32_t>(var_to_event_.size());
  if (n < 3 || n > sift_variable_limit) return;
  // One pass of Rudell sifting. Variables are processed by identity in
  // their initial (DFS) order — a deterministic schedule, so the final
  // order is a pure function of the input tree.
  const std::vector<node_index> schedule = var_to_event_;
  for (const node_index ev : schedule) {
    auto cur = static_cast<std::uint32_t>(
        std::find(var_to_event_.begin(), var_to_event_.end(), ev) -
        var_to_event_.begin());
    const std::size_t start_size = manager_.live_nodes(root_ref_);
    std::size_t best_size = start_size;
    std::uint32_t best_pos = cur;
    // Down sweep to the bottom, then up sweep to the top, recording the
    // smallest BDD seen. Abort a sweep once the BDD doubles.
    while (cur + 1 < n) {
      swap_positions(cur);
      ++cur;
      const std::size_t size = manager_.live_nodes(root_ref_);
      if (size < best_size) {
        best_size = size;
        best_pos = cur;
      }
      if (size > 2 * start_size) break;
    }
    while (cur > 0) {
      swap_positions(cur - 1);
      --cur;
      const std::size_t size = manager_.live_nodes(root_ref_);
      if (size < best_size) {
        best_size = size;
        best_pos = cur;
      }
      if (size > 2 * start_size) break;
    }
    // Settle at the best position seen and reclaim the swap garbage.
    while (cur < best_pos) swap_positions(cur++);
    while (cur > best_pos) swap_positions(--cur);
    root_ref_ = manager_.compact(root_ref_);
  }
}

double ft_bdd::probability() const {
  return probability({});
}

double ft_bdd::probability(
    const std::unordered_map<node_index, double>& overrides) const {
  std::vector<double> probs(var_to_event_.size(), 0.0);
  for (std::uint32_t v = 0; v < var_to_event_.size(); ++v) {
    const node_index b = var_to_event_[v];
    auto it = overrides.find(b);
    probs[v] = it != overrides.end() ? it->second : ft_.node(b).probability;
  }
  return manager_.probability(root_ref_, probs);
}

std::vector<cutset> ft_bdd::minimal_cutsets() const {
  const bdd_ref minsol = manager_.minimal_solutions(root_ref_);
  std::vector<cutset> out;
  for (const auto& product : manager_.enumerate_products(minsol)) {
    cutset c;
    c.reserve(product.size());
    for (std::uint32_t v : product) c.push_back(var_to_event_[v]);
    std::sort(c.begin(), c.end());
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const cutset& a, const cutset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  return out;
}

double modular_probability(const fault_tree& ft) {
  const auto module_roots = find_modules(ft);
  std::vector<bool> is_module(ft.size(), false);
  for (node_index m : module_roots) is_module[m] = true;
  std::vector<double> module_prob(ft.size(), 0.0);

  // Topological order guarantees nested modules are solved first.
  for (node_index n : ft.topo_order()) {
    if (!is_module[n]) continue;
    // One fresh manager per module keeps variable spaces module-sized;
    // nested modules are pseudo-events carrying their solved probability.
    const std::vector<node_index> leaves = dfs_leaves(ft, {n}, is_module);
    std::vector<double> probs;
    probs.reserve(leaves.size());
    for (node_index leaf : leaves) {
      probs.push_back(ft.is_basic(leaf) ? ft.node(leaf).probability
                                        : module_prob[leaf]);
    }
    bdd_manager manager;
    module_prob[n] =
        manager.probability(ft_compiler(ft, manager, leaves).compile(n), probs);
  }
  return module_prob[ft.top()];
}

}  // namespace sdft

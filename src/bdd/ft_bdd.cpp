#include "bdd/ft_bdd.hpp"

#include <algorithm>

#include "bdd/ft_compiler.hpp"
#include "util/error.hpp"

namespace sdft {

ft_bdd::ft_bdd(const fault_tree& ft, node_index root) : ft_(ft) {
  if (root == fault_tree::npos) root = ft.top();
  require_model(root != fault_tree::npos && root < ft.size(),
                "ft_bdd: no root node");
  var_to_event_ = dfs_leaves(ft_, {root});
  root_ref_ = ft_compiler(ft_, manager_, var_to_event_).compile(root);
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

}  // namespace sdft

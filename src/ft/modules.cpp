#include "ft/modules.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace sdft {

std::vector<node_index> find_modules(const fault_tree& ft) {
  require_model(ft.top() != fault_tree::npos, "modules: no top gate");

  // Dutuit & Rauzy's linear algorithm. One DFS from the top: the first
  // visit of a node expands its children, every later visit merely
  // "touches" it. The timestamp counter advances on every touch and on
  // every expansion exit, so during a gate's first expansion only its
  // descendants can be touched. A gate g is then a module iff every
  // descendant's first AND last touch fall strictly inside g's
  // first-expansion window (enter(g), exit(g)): a touch before enter(g)
  // or after exit(g) can only come from a path avoiding g.
  const std::size_t n = ft.size();
  constexpr std::uint64_t unvisited = ~std::uint64_t{0};
  std::vector<std::uint64_t> first_touch(n, unvisited);
  std::vector<std::uint64_t> last_touch(n, 0);
  std::vector<std::uint64_t> enter(n, 0);
  std::vector<std::uint64_t> exit(n, 0);
  std::vector<node_index> preorder;  // gates in DFS first-visit order

  std::uint64_t clock = 0;
  std::vector<std::pair<node_index, std::size_t>> stack;
  const auto touch = [&](node_index x) {
    const std::uint64_t t = clock++;
    if (first_touch[x] == unvisited) first_touch[x] = t;
    last_touch[x] = t;
    return first_touch[x] == t;
  };
  if (touch(ft.top())) {
    enter[ft.top()] = first_touch[ft.top()];
    preorder.push_back(ft.top());
    stack.emplace_back(ft.top(), 0);
  }
  while (!stack.empty()) {
    auto& [g, next_input] = stack.back();
    const auto& inputs = ft.node(g).inputs;
    if (next_input < inputs.size()) {
      const node_index child = inputs[next_input++];
      if (touch(child) && ft.is_gate(child)) {
        enter[child] = first_touch[child];
        preorder.push_back(child);
        stack.emplace_back(child, 0);
      }
    } else {
      exit[g] = clock++;
      last_touch[g] = exit[g];
      stack.pop_back();
    }
  }

  // Bottom-up in topological order (children strictly before parents, so
  // DAG cross edges to earlier-visited nodes aggregate finished values):
  // min first-touch / max last-touch over all strict descendants.
  std::vector<std::uint64_t> dmin(n, unvisited);
  std::vector<std::uint64_t> dmax(n, 0);
  for (node_index g : ft.topo_order()) {
    if (!ft.is_gate(g) || first_touch[g] == unvisited) continue;
    for (node_index child : ft.node(g).inputs) {
      dmin[g] = std::min(dmin[g], first_touch[child]);
      dmax[g] = std::max(dmax[g], last_touch[child]);
      if (ft.is_gate(child)) {
        dmin[g] = std::min(dmin[g], dmin[child]);
        dmax[g] = std::max(dmax[g], dmax[child]);
      }
    }
  }

  std::vector<node_index> modules{ft.top()};
  for (node_index g : preorder) {
    if (g == ft.top()) continue;
    if (dmin[g] > enter[g] && dmax[g] < exit[g]) modules.push_back(g);
  }
  return modules;
}

}  // namespace sdft

#include "prep/prep.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "ft/modules.hpp"
#include "util/error.hpp"

namespace sdft {

namespace {

constexpr std::uint32_t wnpos = 0xffffffffU;

/// Iteration cap of the rewrite fixpoint loop.
constexpr std::size_t pass_cap = 8;

/// A node of the mutable working graph. Nodes are never erased while
/// rewriting; `workgraph::replace` redirects an id to its survivor and
/// the final emit drops everything unreachable from the top.
struct wnode {
  node_kind kind = node_kind::gate;
  gate_type type = gate_type::and_gate;
  std::uint32_t k = 0;  // threshold while still an atleast gate
  double probability = 0.0;
  std::string name;                        // empty for synthesised gates
  node_index source = fault_tree::npos;    // source-tree ancestry
  std::vector<std::uint32_t> inputs;       // working ids
};

/// A set of working ids, emptied in O(1) by a generation stamp: an id is
/// in the set while its stamp equals the current generation.
class mark_set {
 public:
  /// Makes room for one more id.
  void grow() { stamps_.push_back(0); }

  void clear() {
    if (++generation_ == 0) {  // wrapped: old stamps could collide
      std::fill(stamps_.begin(), stamps_.end(), 0);
      generation_ = 1;
    }
  }

  /// Adds `id`; true if it was not in the set yet.
  bool insert(std::uint32_t id) {
    if (stamps_[id] == generation_) return false;
    stamps_[id] = generation_;
    return true;
  }

  bool contains(std::uint32_t id) const { return stamps_[id] == generation_; }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t generation_ = 1;
};

class workgraph {
 public:
  explicit workgraph(const fault_tree& src) {
    // Children-first import of everything reachable from the source top.
    std::vector<node_index> order;
    {
      const auto all = src.topo_order();
      std::vector<char> live(src.size(), 0);
      for (node_index n : src.descendants(src.top())) live[n] = 1;
      for (node_index n : all) {
        if (live[n]) order.push_back(n);
      }
    }
    std::unordered_map<node_index, std::uint32_t> imported;
    for (node_index n : order) {
      const ft_node& node = src.node(n);
      wnode w;
      w.kind = node.kind;
      w.type = node.type;
      w.k = node.k;
      w.probability = node.probability;
      w.name = node.name;
      w.source = n;
      for (node_index child : node.inputs) {
        w.inputs.push_back(imported.at(child));
      }
      imported.emplace(n, add(std::move(w)));
    }
    top_ = imported.at(src.top());
  }

  wnode& node(std::uint32_t id) { return nodes_[id]; }
  const wnode& node(std::uint32_t id) const { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }
  std::uint32_t top() { return find(top_); }

  std::uint32_t add(wnode n) {
    const auto id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(std::move(n));
    redirect_.push_back(id);
    for (mark_set& m : marks_) m.grow();
    return id;
  }

  /// Scratch id sets for the passes' per-gate work (two may be live at
  /// once); resolve() uses marks(0).
  mark_set& marks(std::size_t i = 0) { return marks_[i]; }

  std::uint32_t add_gate(gate_type type, std::vector<std::uint32_t> inputs) {
    wnode w;
    w.kind = node_kind::gate;
    w.type = type;
    w.inputs = std::move(inputs);
    return add(std::move(w));
  }

  /// Union-find lookup with path compression.
  std::uint32_t find(std::uint32_t id) {
    std::uint32_t root = id;
    while (redirect_[root] != root) root = redirect_[root];
    while (redirect_[id] != root) {
      const std::uint32_t next = redirect_[id];
      redirect_[id] = root;
      id = next;
    }
    return root;
  }

  /// Redirects `id` (and everything already redirected to it) to `with`.
  void replace(std::uint32_t id, std::uint32_t with) {
    const std::uint32_t a = find(id);
    const std::uint32_t b = find(with);
    if (a != b) redirect_[a] = b;
  }

  /// Rewrites a gate's input list through find() and drops duplicates
  /// (AND(a, a) == AND(a) for monotone connectives). Returns true if the
  /// list changed.
  bool resolve(std::uint32_t id) {
    auto& in = nodes_[id].inputs;
    mark_set& seen = marks();
    seen.clear();
    std::size_t kept = 0;
    bool changed = false;
    for (std::uint32_t c : in) {
      const std::uint32_t r = find(c);
      if (!seen.insert(r)) {
        changed = true;
        continue;
      }
      changed |= r != c;
      in[kept++] = r;
    }
    in.resize(kept);
    return changed;
  }

  /// Live nodes reachable from the (resolved) top, children before
  /// parents. Inputs are traversed through find() but not rewritten.
  std::vector<std::uint32_t> live_topo() {
    std::vector<char> seen(nodes_.size(), 0);
    std::vector<std::uint32_t> order;
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    const std::uint32_t root = top();
    seen[root] = 1;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [id, next_input] = stack.back();
      const auto& in = nodes_[id].inputs;
      if (next_input < in.size()) {
        const std::uint32_t c = find(in[next_input++]);
        if (!seen[c]) {
          seen[c] = 1;
          stack.emplace_back(c, 0);
        }
      } else {
        order.push_back(id);
        stack.pop_back();
      }
    }
    return order;
  }

  /// Fan-out (number of distinct live parents) per node id, computed over
  /// the resolved live graph.
  std::vector<std::uint32_t> fanout(const std::vector<std::uint32_t>& live) {
    std::vector<std::uint32_t> out(nodes_.size(), 0);
    for (std::uint32_t id : live) {
      for (std::uint32_t c : nodes_[id].inputs) ++out[find(c)];
    }
    return out;
  }

 private:
  std::vector<wnode> nodes_;
  std::vector<std::uint32_t> redirect_;
  std::uint32_t top_ = wnpos;
  std::array<mark_set, 2> marks_;
};

/// Lowers one atleast gate into a shared suffix network:
/// f(i, j) = "at least j of inputs[i..n-1]" with
/// f(i, j) = OR(AND(x_i, f(i+1, j-1)), f(i+1, j)), the boundary cases
/// j == 1 (plain OR of the suffix) and j == count (plain AND) closing the
/// recursion. O(n*k) gates, against C(n, k) for the eager expansion.
void lower_atleast(workgraph& g, std::uint32_t id, prep_stats& stats) {
  const std::vector<std::uint32_t> xs = g.node(id).inputs;
  const auto n = static_cast<std::uint32_t>(xs.size());
  const std::uint32_t k = g.node(id).k;

  std::unordered_map<std::uint64_t, std::uint32_t> memo;
  const std::function<std::uint32_t(std::uint32_t, std::uint32_t)> f =
      [&](std::uint32_t i, std::uint32_t j) -> std::uint32_t {
    const std::uint32_t count = n - i;
    if (count == 1) return xs[i];  // j is 1 == count here
    const std::uint64_t key = (std::uint64_t{i} << 32) | j;
    const auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    std::uint32_t r;
    if (j == count) {
      r = g.add_gate(gate_type::and_gate, {xs.begin() + i, xs.end()});
    } else if (j == 1) {
      r = g.add_gate(gate_type::or_gate, {xs.begin() + i, xs.end()});
    } else {
      const std::uint32_t take =
          g.add_gate(gate_type::and_gate, {xs[i], f(i + 1, j - 1)});
      const std::uint32_t skip = f(i + 1, j);
      r = g.add_gate(gate_type::or_gate, {take, skip});
    }
    memo.emplace(key, r);
    return r;
  };

  if (k == n) {
    g.node(id).type = gate_type::and_gate;
  } else if (k == 1) {
    g.node(id).type = gate_type::or_gate;
  } else {
    const std::uint32_t take =
        g.add_gate(gate_type::and_gate, {xs[0], f(1, k - 1)});
    const std::uint32_t skip = f(1, k);
    wnode& node = g.node(id);  // taken after all adds: ids are stable,
    node.type = gate_type::or_gate;  // references are not
    node.inputs = {take, skip};
  }
  g.node(id).k = 0;
  ++stats.atleast_lowered;
}

/// One-input gates collapse onto their input; the top gate only follows
/// suit when its single input is itself a gate (the tree stays rooted at
/// a gate either way).
bool pass_fold(workgraph& g, prep_stats& stats) {
  bool changed = false;
  const std::uint32_t top = g.top();
  for (std::uint32_t id : g.live_topo()) {
    if (g.node(id).kind != node_kind::gate) continue;
    changed |= g.resolve(id);
    const auto& in = g.node(id).inputs;
    if (in.size() != 1) continue;
    const std::uint32_t only = in.front();
    if (id == top && g.node(only).kind != node_kind::gate) continue;
    g.replace(id, only);
    ++stats.constants_folded;
    changed = true;
  }
  return changed;
}

/// Inlines same-type gate children with exactly one parent:
/// AND(AND(a, b), c) == AND(a, b, c). Children-first order flattens
/// whole chains in one sweep.
bool pass_coalesce(workgraph& g, prep_stats& stats) {
  bool changed = false;
  const auto live = g.live_topo();
  for (std::uint32_t id : live) g.resolve(id);
  const auto fanout = g.fanout(live);
  const std::uint32_t top = g.top();
  for (std::uint32_t id : live) {
    wnode& node = g.node(id);
    if (node.kind != node_kind::gate) continue;
    std::vector<std::uint32_t> out;
    out.reserve(node.inputs.size());
    mark_set& seen = g.marks();
    seen.clear();
    bool spliced = false;
    for (std::uint32_t c : node.inputs) {
      const wnode& child = g.node(c);
      if (child.kind == node_kind::gate && child.type == node.type &&
          fanout[c] == 1 && c != top) {
        for (std::uint32_t gc : child.inputs) {
          if (seen.insert(gc)) out.push_back(gc);
        }
        ++stats.gates_coalesced;
        spliced = true;
      } else if (seen.insert(c)) {
        out.push_back(c);
      }
    }
    if (spliced) {
      node.inputs = std::move(out);
      changed = true;
    }
  }
  return changed;
}

/// Depth-1 absorption. With S the direct inputs of gate g:
///  - an opposite-type gate child containing some x in S is dropped
///    (AND(x, OR(x, y)) == AND(x), dually for OR);
///  - a direct input x also fed into a same-type gate child is dropped
///    from g (AND(x, AND(x, y)) == AND(AND(x, y)), dually for OR).
bool pass_absorb(workgraph& g, prep_stats& stats) {
  bool changed = false;
  for (std::uint32_t id : g.live_topo()) {
    wnode& node = g.node(id);
    if (node.kind != node_kind::gate) continue;
    g.resolve(id);
    mark_set& direct = g.marks(0);
    direct.clear();
    for (std::uint32_t c : node.inputs) direct.insert(c);
    // Direct inputs covered by a same-type gate child.
    mark_set& covered = g.marks(1);
    covered.clear();
    for (std::uint32_t c : node.inputs) {
      const wnode& child = g.node(c);
      if (child.kind != node_kind::gate || child.type != node.type) continue;
      for (std::uint32_t gc : child.inputs) {
        const std::uint32_t r = g.find(gc);
        if (r != c && direct.contains(r)) covered.insert(r);
      }
    }
    std::vector<std::uint32_t> out;
    out.reserve(node.inputs.size());
    for (std::uint32_t c : node.inputs) {
      if (covered.contains(c)) {
        ++stats.absorptions;
        changed = true;
        continue;
      }
      const wnode& child = g.node(c);
      bool absorbed = false;
      if (child.kind == node_kind::gate && child.type != node.type) {
        for (std::uint32_t gc : child.inputs) {
          if (direct.contains(g.find(gc))) {
            absorbed = true;
            break;
          }
        }
      }
      if (absorbed) {
        ++stats.absorptions;
        changed = true;
      } else {
        out.push_back(c);
      }
    }
    if (out.size() != node.inputs.size()) node.inputs = std::move(out);
  }
  return changed;
}

/// Structural common-subexpression elimination: gates with equal type and
/// equal (resolved, order-insensitive) input sets share one node.
/// Children-first order lets equality cascade bottom-up in one sweep.
bool pass_merge_duplicates(workgraph& g, prep_stats& stats) {
  bool changed = false;
  std::unordered_map<std::string, std::uint32_t> seen;
  for (std::uint32_t id : g.live_topo()) {
    if (g.node(id).kind != node_kind::gate) continue;
    g.resolve(id);
    std::vector<std::uint32_t> sorted = g.node(id).inputs;
    std::sort(sorted.begin(), sorted.end());
    std::string key;
    key.reserve(sorted.size() * 4 + 1);
    key.push_back(g.node(id).type == gate_type::and_gate ? 'A' : 'O');
    for (std::uint32_t c : sorted) {
      key.append(reinterpret_cast<const char*>(&c), sizeof(c));
    }
    const auto [it, fresh] = seen.emplace(std::move(key), id);
    if (!fresh) {
      g.replace(id, it->second);
      ++stats.duplicates_merged;
      changed = true;
    }
  }
  return changed;
}

/// Undistributes one argument shared by several single-parent children:
/// OR(AND(x, A), AND(x, B), r) == OR(AND(x, OR(A, B)), r) and dually.
/// One factoring per gate per pass; the fixpoint loop iterates.
bool pass_factor_common_args(workgraph& g, prep_stats& stats) {
  bool changed = false;
  const auto live = g.live_topo();
  for (std::uint32_t id : live) g.resolve(id);
  const auto fanout = g.fanout(live);
  for (std::uint32_t id : live) {
    if (g.node(id).kind != node_kind::gate) continue;
    const gate_type inner = g.node(id).type == gate_type::and_gate
                                ? gate_type::or_gate
                                : gate_type::and_gate;
    // Rewritable children: opposite type, no other parent, >= 2 inputs.
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t c : g.node(id).inputs) {
      const wnode& child = g.node(c);
      if (child.kind == node_kind::gate && child.type == inner &&
          fanout[c] == 1 && child.inputs.size() >= 2) {
        candidates.push_back(c);
      }
    }
    if (candidates.size() < 2) continue;
    // Most frequent shared argument; ties break to the smallest id so the
    // rewrite is a pure function of the graph.
    std::unordered_map<std::uint32_t, std::uint32_t> freq;
    for (std::uint32_t c : candidates) {
      for (std::uint32_t x : g.node(c).inputs) ++freq[x];
    }
    std::uint32_t best = wnpos;
    std::uint32_t best_count = 1;
    for (const auto& [x, count] : freq) {
      if (count > best_count || (count == best_count && x < best)) {
        best = x;
        best_count = count;
      }
    }
    if (best == wnpos || best_count < 2) continue;

    std::vector<std::uint32_t> group;
    for (std::uint32_t c : candidates) {
      const auto& in = g.node(c).inputs;
      if (std::find(in.begin(), in.end(), best) != in.end()) {
        group.push_back(c);
      }
    }
    // Residues: each group member minus the shared argument (the member
    // itself has no other parent, so it is rewritten in place; a single
    // leftover input stands in for the whole gate).
    std::vector<std::uint32_t> residues;
    for (std::uint32_t c : group) {
      auto& in = g.node(c).inputs;
      in.erase(std::remove(in.begin(), in.end(), best), in.end());
      residues.push_back(in.size() == 1 ? in.front() : c);
    }
    const std::uint32_t merged =
        g.add_gate(g.node(id).type, std::move(residues));
    const std::uint32_t factored = g.add_gate(inner, {best, merged});
    auto& in = g.node(id).inputs;
    const std::unordered_set<std::uint32_t> drop(group.begin(), group.end());
    in.erase(std::remove_if(in.begin(), in.end(),
                            [&](std::uint32_t c) { return drop.count(c); }),
             in.end());
    in.push_back(factored);
    stats.common_args_merged += group.size();
    changed = true;
  }
  return changed;
}

}  // namespace

prep_result preprocess(const fault_tree& src, const prep_options& opts) {
  const auto started = std::chrono::steady_clock::now();
  src.validate();

  prep_result result;
  result.stats.nodes_before = src.descendants(src.top()).size();
  result.stats.gates_before = 0;
  for (node_index n : src.descendants(src.top())) {
    if (src.is_gate(n)) ++result.stats.gates_before;
  }

  workgraph g(src);

  // Normalisation is unconditional: the backends only speak AND/OR.
  for (std::uint32_t id = 0; id < g.size(); ++id) {
    if (g.node(id).kind == node_kind::gate &&
        g.node(id).type == gate_type::atleast_gate) {
      lower_atleast(g, id, result.stats);
    }
  }

  if (opts.enabled) {
    bool changed = true;
    while (changed && result.stats.passes < pass_cap) {
      ++result.stats.passes;
      changed = false;
      changed |= pass_fold(g, result.stats);
      changed |= pass_coalesce(g, result.stats);
      changed |= pass_absorb(g, result.stats);
      changed |= pass_merge_duplicates(g, result.stats);
      changed |= pass_factor_common_args(g, result.stats);
    }
  }

  // Emit: copy the live resolved graph into a fresh fault_tree, children
  // first. Source names survive; synthesised gates get positional names.
  const auto live = g.live_topo();
  for (std::uint32_t id : live) g.resolve(id);
  std::unordered_map<std::uint32_t, node_index> emitted;
  for (std::uint32_t id : live) {
    const wnode& node = g.node(id);
    node_index out;
    if (node.kind == node_kind::basic) {
      out = result.tree.add_basic_event(node.name, node.probability);
    } else {
      std::vector<node_index> inputs;
      inputs.reserve(node.inputs.size());
      for (std::uint32_t c : node.inputs) inputs.push_back(emitted.at(c));
      std::string name = node.name;
      if (name.empty()) {
        name = "prep::g" + std::to_string(result.tree.size());
      }
      while (result.tree.find(name) != fault_tree::npos) name += '~';
      out = result.tree.add_gate(name, node.type, inputs);
    }
    emitted.emplace(id, out);
    result.to_source.push_back(node.source);
  }
  result.tree.set_top(emitted.at(g.top()));
  result.tree.validate();
  result.stats.nodes_after = result.tree.size();
  result.stats.gates_after = result.tree.num_gates();

  if (opts.enabled) {
    const auto roots = find_modules(result.tree);
    const std::unordered_set<node_index> is_root(roots.begin(), roots.end());
    for (node_index n : result.tree.topo_order()) {
      if (is_root.count(n)) result.module_roots.push_back(n);
    }
  } else {
    result.module_roots = {result.tree.top()};
  }
  result.stats.modules_found = result.module_roots.size();

  result.stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  return result;
}

}  // namespace sdft

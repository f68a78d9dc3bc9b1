#include "bdd/bdd.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "util/error.hpp"

namespace sdft {

namespace {
constexpr int op_and = 1;
constexpr int op_or = 2;
constexpr int op_not = 3;

std::uint64_t pair_key(bdd_ref a, bdd_ref b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

constexpr std::uint64_t golden = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t min_table_slots = 256;

/// Slot count after growing a table of `slots`: doubling, power of two.
std::size_t grown(std::size_t slots) {
  return std::max(min_table_slots, slots * 2);
}

}  // namespace

std::size_t bdd_manager::ref_map::slot(std::uint64_t key) const {
  return static_cast<std::size_t>((key * golden) >> shift_);
}

const bdd_ref* bdd_manager::ref_map::find(std::uint64_t key) const {
  if (keys_.empty()) return nullptr;
  const std::size_t mask = keys_.size() - 1;
  for (std::size_t i = slot(key);; i = (i + 1) & mask) {
    if (keys_[i] == key) return &values_[i];
    if (keys_[i] == 0) return nullptr;
  }
}

void bdd_manager::ref_map::place(std::uint64_t key, bdd_ref value) {
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = slot(key);
  while (keys_[i] != 0 && keys_[i] != key) i = (i + 1) & mask;
  if (keys_[i] == 0) ++size_;
  keys_[i] = key;
  values_[i] = value;
}

void bdd_manager::ref_map::insert(std::uint64_t key, bdd_ref value) {
  if (4 * (size_ + 1) > 3 * keys_.size()) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<bdd_ref> old_values = std::move(values_);
    const std::size_t slots = grown(old_keys.size());
    keys_.assign(slots, 0);
    values_.assign(slots, 0);
    shift_ = 64 - std::countr_zero(slots);
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != 0) place(old_keys[i], old_values[i]);
    }
  }
  place(key, value);
}

std::size_t bdd_manager::unique_slot(std::uint32_t var, bdd_ref low,
                                     bdd_ref high) const {
  std::uint64_t h = var;
  h = h * golden + low;
  h = h * golden + high;
  return static_cast<std::size_t>((h * golden) >> unique_shift_);
}

void bdd_manager::grow_unique() {
  const std::size_t slots = grown(unique_.size());
  unique_.assign(slots, 0);
  unique_shift_ = 64 - std::countr_zero(slots);
  const std::size_t mask = slots - 1;
  for (bdd_ref r = 2; r < nodes_.size(); ++r) {
    std::size_t i = unique_slot(nodes_[r].var, nodes_[r].low, nodes_[r].high);
    while (unique_[i] != 0) i = (i + 1) & mask;
    unique_[i] = r;
  }
}

bdd_manager::bdd_manager() {
  nodes_.push_back({terminal_var, 0, 0});  // zero
  nodes_.push_back({terminal_var, 1, 1});  // one
}

bdd_ref bdd_manager::make(std::uint32_t var, bdd_ref low, bdd_ref high) {
  if (low == high) return low;
  // Entries after a possible insert: every inner node plus the new one.
  if (4 * (nodes_.size() - 1) > 3 * unique_.size()) grow_unique();
  const std::size_t mask = unique_.size() - 1;
  for (std::size_t i = unique_slot(var, low, high);; i = (i + 1) & mask) {
    const bdd_ref r = unique_[i];
    if (r == 0) {
      const auto ref = static_cast<bdd_ref>(nodes_.size());
      nodes_.push_back({var, low, high});
      unique_[i] = ref;
      return ref;
    }
    const node& n = nodes_[r];
    if (n.var == var && n.low == low && n.high == high) return r;
  }
}

bdd_ref bdd_manager::var(std::uint32_t v) {
  require_model(v != terminal_var, "bdd: variable id reserved for terminals");
  return make(v, zero(), one());
}

bdd_ref bdd_manager::apply(int op, bdd_ref f, bdd_ref g) {
  if (op == op_and) {
    if (f == zero() || g == zero()) return zero();
    if (f == one()) return g;
    if (g == one()) return f;
    if (f == g) return f;
  } else {
    if (f == one() || g == one()) return one();
    if (f == zero()) return g;
    if (g == zero()) return f;
    if (f == g) return f;
  }
  if (f > g) std::swap(f, g);  // both ops are commutative
  const std::uint64_t key =
      static_cast<std::uint64_t>(op) | (static_cast<std::uint64_t>(f) << 2) |
      (static_cast<std::uint64_t>(g) << 33);
  if (const bdd_ref* hit = op_cache_.find(key)) return *hit;

  const std::uint32_t xf = var_of(f);
  const std::uint32_t xg = var_of(g);
  const std::uint32_t x = std::min(xf, xg);
  const bdd_ref f0 = xf == x ? nodes_[f].low : f;
  const bdd_ref f1 = xf == x ? nodes_[f].high : f;
  const bdd_ref g0 = xg == x ? nodes_[g].low : g;
  const bdd_ref g1 = xg == x ? nodes_[g].high : g;
  const bdd_ref result = make(x, apply(op, f0, g0), apply(op, f1, g1));
  op_cache_.insert(key, result);
  return result;
}

bdd_ref bdd_manager::bdd_and(bdd_ref f, bdd_ref g) {
  return apply(op_and, f, g);
}

bdd_ref bdd_manager::bdd_or(bdd_ref f, bdd_ref g) { return apply(op_or, f, g); }

bdd_ref bdd_manager::bdd_not(bdd_ref f) {
  if (f == zero()) return one();
  if (f == one()) return zero();
  const std::uint64_t key = static_cast<std::uint64_t>(op_not) |
                            (static_cast<std::uint64_t>(f) << 2);
  if (const bdd_ref* hit = op_cache_.find(key)) return *hit;
  const bdd_ref result = make(var_of(f), bdd_not(nodes_[f].low),
                              bdd_not(nodes_[f].high));
  op_cache_.insert(key, result);
  return result;
}

bdd_ref bdd_manager::restrict_var(bdd_ref f, std::uint32_t var, bool value) {
  std::unordered_map<bdd_ref, bdd_ref> memo;
  const std::function<bdd_ref(bdd_ref)> rec = [&](bdd_ref g) -> bdd_ref {
    if (is_terminal(g) || var_of(g) > var) return g;
    auto it = memo.find(g);
    if (it != memo.end()) return it->second;
    bdd_ref result;
    if (var_of(g) == var) {
      result = value ? nodes_[g].high : nodes_[g].low;
    } else {
      result = make(var_of(g), rec(nodes_[g].low), rec(nodes_[g].high));
    }
    memo.emplace(g, result);
    return result;
  };
  return rec(f);
}

bdd_plan::bdd_plan(const bdd_manager& manager,
                   const std::vector<bdd_ref>& roots) {
  // Mark the inner nodes reachable from the roots (DFS over a bitmap).
  std::vector<std::uint64_t> reached((manager.size() + 63) / 64, 0);
  std::vector<bdd_ref> stack;
  const auto visit = [&](bdd_ref g) {
    std::uint64_t& word = reached[g / 64];
    const std::uint64_t bit = std::uint64_t{1} << (g % 64);
    if (g > manager.one() && (word & bit) == 0) {
      word |= bit;
      stack.push_back(g);
    }
  };
  for (const bdd_ref root : roots) visit(root);
  while (!stack.empty()) {
    const bdd_ref g = stack.back();
    stack.pop_back();
    visit(manager.low(g));
    visit(manager.high(g));
  }
  stack = {};

  // Plan position of a reached node: 2 + the number of reached nodes with
  // a smaller ref (its rank in ascending ref order). Children always carry
  // smaller refs than their parents, so ascending ref order evaluates
  // every node after both of its children.
  std::vector<std::uint32_t> rank_before(reached.size());
  std::uint32_t count = 0;
  for (std::size_t w = 0; w < reached.size(); ++w) {
    rank_before[w] = count;
    count += static_cast<std::uint32_t>(std::popcount(reached[w]));
  }
  const auto position = [&](bdd_ref g) -> std::uint32_t {
    if (g <= manager.one()) return g;
    const std::uint64_t below = reached[g / 64] &
                                ((std::uint64_t{1} << (g % 64)) - 1);
    return 2 + rank_before[g / 64] +
           static_cast<std::uint32_t>(std::popcount(below));
  };
  steps_.reserve(count);
  for (std::size_t w = 0; w < reached.size(); ++w) {
    for (std::uint64_t bits = reached[w]; bits != 0; bits &= bits - 1) {
      const auto g =
          static_cast<bdd_ref>(w * 64 + std::countr_zero(bits));
      const std::uint32_t v = manager.top_var(g);
      steps_.push_back(
          {v, position(manager.low(g)), position(manager.high(g))});
      vars_read_ = std::max<std::size_t>(vars_read_, std::size_t{v} + 1);
    }
  }
  roots_.reserve(roots.size());
  for (const bdd_ref root : roots) roots_.push_back(position(root));
}

void bdd_plan::evaluate(const std::vector<double>& probs,
                        std::vector<double>& out) const {
  require_model(vars_read_ <= probs.size(),
                "bdd: probability vector too small");
  std::vector<double> value(steps_.size() + 2);
  value[0] = 0.0;
  value[1] = 1.0;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    const step& s = steps_[i];
    const double p = probs[s.var];
    value[i + 2] = p * value[s.high] + (1.0 - p) * value[s.low];
  }
  out.resize(roots_.size());
  for (std::size_t r = 0; r < roots_.size(); ++r) out[r] = value[roots_[r]];
}

double bdd_manager::probability(bdd_ref f,
                                const std::vector<double>& probs) const {
  std::vector<double> out;
  bdd_plan(*this, {f}).evaluate(probs, out);
  return out[0];
}

bdd_plan bdd_manager::freeze(const std::vector<bdd_ref>& roots) && {
  // Release the hash tables before the plan allocates: at scenario scale
  // they dominate the manager's footprint, so the peak stays at the
  // compile-time high-water mark instead of rising above it.
  unique_ = {};
  op_cache_ = {};
  without_cache_ = {};
  minsol_cache_ = {};
  bdd_plan plan(*this, roots);
  *this = bdd_manager();
  return plan;
}

bdd_ref bdd_manager::without(bdd_ref f, bdd_ref g) {
  if (g == one() || f == zero() || f == g) return zero();
  if (g == zero() || f == one()) return f;
  const std::uint64_t key = pair_key(f, g);
  if (const bdd_ref* hit = without_cache_.find(key)) return *hit;

  const std::uint32_t xf = var_of(f);
  const std::uint32_t xg = var_of(g);
  bdd_ref result;
  if (xf == xg) {
    // Products of f containing x survive only if unsubsumed by g's products
    // with x (compare the x-cofactors) and by g's products without x.
    const bdd_ref high =
        without(without(nodes_[f].high, nodes_[g].high), nodes_[g].low);
    const bdd_ref low = without(nodes_[f].low, nodes_[g].low);
    result = make(xf, low, high);
  } else if (xf < xg) {
    result = make(xf, without(nodes_[f].low, g), without(nodes_[f].high, g));
  } else {
    // Products of f never contain xg, so only g-products without xg
    // (the low cofactor) can subsume them.
    result = without(f, nodes_[g].low);
  }
  without_cache_.insert(key, result);
  return result;
}

bdd_ref bdd_manager::minimal_solutions(bdd_ref f) {
  if (is_terminal(f)) return f;
  if (const bdd_ref* hit = minsol_cache_.find(f)) return *hit;
  const bdd_ref m0 = minimal_solutions(nodes_[f].low);
  const bdd_ref m1 = minimal_solutions(nodes_[f].high);
  // A minimal solution taking x must not subsume one that does not need x.
  const bdd_ref result = make(var_of(f), m0, without(m1, m0));
  minsol_cache_.insert(f, result);
  return result;
}

bdd_ref bdd_manager::swap_adjacent(bdd_ref f, std::uint32_t v) {
  const std::uint32_t upper = v;
  const std::uint32_t lower = v + 1;
  std::unordered_map<bdd_ref, bdd_ref> memo;
  // Cofactor of h with respect to `var`, valid when var_of(h) >= var.
  const auto cof = [this](bdd_ref h, std::uint32_t var, bool high) {
    if (is_terminal(h) || var_of(h) != var) return h;
    return high ? nodes_[h].high : nodes_[h].low;
  };
  const std::function<bdd_ref(bdd_ref)> rec = [&](bdd_ref g) -> bdd_ref {
    // Nodes strictly below the swapped pair keep both their label and
    // their meaning.
    if (is_terminal(g) || var_of(g) > lower) return g;
    auto it = memo.find(g);
    if (it != memo.end()) return it->second;
    bdd_ref result;
    if (var_of(g) < upper) {
      result = make(var_of(g), rec(nodes_[g].low), rec(nodes_[g].high));
    } else if (var_of(g) == lower) {
      // Reached without an `upper` node above it: the function here does
      // not depend on `upper`, so the `lower` dependence simply moves up.
      result = make(upper, nodes_[g].low, nodes_[g].high);
    } else {
      // var_of(g) == upper. With f_ab = g cofactored at (upper=a,
      // lower=b), the swapped node is h(a, b) = f_ba.
      const bdd_ref g0 = nodes_[g].low;
      const bdd_ref g1 = nodes_[g].high;
      const bdd_ref f00 = cof(g0, lower, false);
      const bdd_ref f01 = cof(g0, lower, true);
      const bdd_ref f10 = cof(g1, lower, false);
      const bdd_ref f11 = cof(g1, lower, true);
      result = make(upper, make(lower, f00, f10), make(lower, f01, f11));
    }
    memo.emplace(g, result);
    return result;
  };
  return rec(f);
}

std::size_t bdd_manager::live_nodes(bdd_ref f) const {
  std::vector<bdd_ref> stack{f};
  std::unordered_set<bdd_ref> seen{f};
  while (!stack.empty()) {
    const bdd_ref g = stack.back();
    stack.pop_back();
    if (is_terminal(g)) continue;
    for (const bdd_ref child : {nodes_[g].low, nodes_[g].high}) {
      if (seen.insert(child).second) stack.push_back(child);
    }
  }
  // Both terminals always exist even if unreachable from f.
  for (bdd_ref t : {zero(), one()}) seen.insert(t);
  return seen.size();
}

bdd_ref bdd_manager::compact(bdd_ref root) {
  bdd_manager fresh;
  std::unordered_map<bdd_ref, bdd_ref> map{{zero(), zero()}, {one(), one()}};
  const std::function<bdd_ref(bdd_ref)> rec = [&](bdd_ref g) -> bdd_ref {
    auto it = map.find(g);
    if (it != map.end()) return it->second;
    const bdd_ref r =
        fresh.make(var_of(g), rec(nodes_[g].low), rec(nodes_[g].high));
    map.emplace(g, r);
    return r;
  };
  const bdd_ref new_root = rec(root);
  *this = std::move(fresh);
  return new_root;
}

std::vector<std::vector<std::uint32_t>> bdd_manager::enumerate_products(
    bdd_ref f) const {
  std::vector<std::vector<std::uint32_t>> out;
  std::vector<std::uint32_t> path;
  const std::function<void(bdd_ref)> rec = [&](bdd_ref g) {
    if (g == zero()) return;
    if (g == one()) {
      out.push_back(path);
      return;
    }
    rec(nodes_[g].low);
    path.push_back(var_of(g));
    rec(nodes_[g].high);
    path.pop_back();
  };
  rec(f);
  return out;
}

}  // namespace sdft

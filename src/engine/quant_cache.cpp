#include "engine/quant_cache.hpp"

#include <cstring>
#include <variant>

namespace sdft {

namespace {

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

void put_dynamic_model(std::string& out, const dynamic_model& model) {
  if (const auto* plain = std::get_if<ctmc>(&model)) {
    out.push_back('C');
    put_chain(out, *plain);
    return;
  }
  const auto& triggered = std::get<triggered_ctmc>(model);
  out.push_back('T');
  put_chain(out, triggered.chain);
  for (char on : triggered.on_state) out.push_back(on ? '1' : '0');
  for (state_index s : triggered.to_on) put_u32(out, s);
  for (state_index s : triggered.to_off) put_u32(out, s);
}

/// The solve of (horizon, epsilon) in `solves`, or nullptr.
const quantification_cache::solve* find_solve(
    const std::vector<quantification_cache::solve>& solves, double horizon,
    double epsilon) {
  for (const quantification_cache::solve& s : solves) {
    if (s.horizon == horizon && s.epsilon == epsilon) return &s;
  }
  return nullptr;
}

}  // namespace

std::string ftc_signature(const ftc_plan& plan, const sd_fault_tree& source) {
  using kind = ftc_plan::kind;
  std::string out;
  out.reserve(256);
  put_u32(out, static_cast<std::uint32_t>(plan.nodes.size()));
  put_u32(out, plan.top);
  // FT_C construction is deterministic, so serialising nodes in index
  // order is canonical for the cache's purpose: equal construction yields
  // equal bytes. (Permuted-but-isomorphic trees may get distinct keys —
  // that only costs a duplicate solve, never a wrong reuse.)
  for (const ftc_plan::node& node : plan.nodes) {
    switch (node.what) {
      case kind::and_gate:
      case kind::or_gate:
        out.push_back(node.what == kind::and_gate ? 'A' : 'O');
        put_u32(out, node.aux);
        for (node_index i = 0; i < node.aux; ++i) {
          put_u32(out, plan.inputs[node.ref + i]);
        }
        break;
      case kind::dynamic_event:
        put_dynamic_model(out, source.model_of(node.ref));
        put_u32(out, node.aux);
        break;
      case kind::static_event:
        out.push_back('S');
        put_f64(out, source.structure().node(node.ref).probability);
        break;
    }
  }
  return out;
}

quantification_cache::quantification_cache(std::size_t capacity)
    : map_(capacity) {}

quantification_cache::lookup quantification_cache::find(
    const std::string& key, double horizon, double epsilon) const {
  lookup out;
  std::lock_guard lock(mutex_);
  const entry* found = map_.find(key);
  if (found != nullptr) {
    out.chain = found->chain;
    if (const solve* s = find_solve(found->solves, horizon, epsilon)) {
      out.solved = *s;
    }
  }
  if (out.solved) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (out.chain) chain_reuses_.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

void quantification_cache::store(const std::string& key,
                                 std::shared_ptr<const explored_chain> chain,
                                 const solve& s) {
  std::lock_guard lock(mutex_);
  entry* found = map_.find(key);
  if (found == nullptr) {
    map_.insert(key, entry{std::move(chain), {s}});
    return;
  }
  std::vector<solve>& solves = found->solves;
  if (find_solve(solves, s.horizon, s.epsilon) != nullptr) return;
  if (solves.size() == max_solves) solves.erase(solves.begin());
  solves.push_back(s);
}

std::size_t quantification_cache::size() const {
  std::lock_guard lock(mutex_);
  return map_.size();
}

std::size_t quantification_cache::solves() const {
  std::lock_guard lock(mutex_);
  std::size_t total = 0;
  map_.for_each([&](const std::string&, const entry& e) {
    total += e.solves.size();
  });
  return total;
}

std::size_t quantification_cache::capacity() const {
  std::lock_guard lock(mutex_);
  return map_.capacity();
}

std::size_t quantification_cache::evictions() const {
  std::lock_guard lock(mutex_);
  return map_.evictions();
}

void quantification_cache::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  map_.set_capacity(capacity);
}

void quantification_cache::clear() {
  std::lock_guard lock(mutex_);
  map_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  chain_reuses_.store(0, std::memory_order_relaxed);
}

}  // namespace sdft

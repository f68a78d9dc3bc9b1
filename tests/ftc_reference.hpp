#pragma once

// Reference serialiser of a built FT_C: the quantification-cache key as
// the library wrote it when it still keyed chains on the materialised
// sd_fault_tree. ftc_signature() (engine/quant_cache.hpp) writes the same
// bytes from an ftc_plan without building the tree; tests compare the two.

#include <cstdint>
#include <cstring>
#include <string>
#include <variant>

#include "sdft/sd_fault_tree.hpp"

namespace sdft::testing {

namespace reference_detail {

inline void put_u32(std::string& out, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

inline void put_f64(std::string& out, double v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

inline void put_chain(std::string& out, const ctmc& chain) {
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

inline void put_dynamic_model(std::string& out, const dynamic_model& model) {
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

}  // namespace reference_detail

/// The signature of the product chain of `ftc` (a built FT_C): node
/// count, top, then every node in index order — gates by connective and
/// inputs, dynamic events by chain and triggering gate, static events by
/// probability. No solver input enters it: one chain serves every horizon.
inline std::string reference_ftc_signature(const sd_fault_tree& ftc) {
  using namespace reference_detail;
  const fault_tree& ft = ftc.structure();
  std::string out;
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
    if (ftc.is_dynamic(n)) {
      put_dynamic_model(out, ftc.model_of(n));
      put_u32(out, ftc.trigger_gate_of(n));
    } else {
      out.push_back('S');
      put_f64(out, node.probability);
    }
  }
  return out;
}

}  // namespace sdft::testing

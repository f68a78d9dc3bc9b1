#include "engine/quantifier.hpp"

#include <memory>

#include "ctmc/transient.hpp"
#include "obs/obs.hpp"
#include "product/product_ctmc.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace sdft {

bool static_product_quantifier::handles(const cutset& c) const {
  for (node_index b : c) {
    if (tree_.is_dynamic(b)) return false;
  }
  return true;
}

cutset_result static_product_quantifier::quantify(cutset c) const {
  const stopwatch timer;
  cutset_result out;
  out.events = std::move(c);
  double p = 1.0;
  for (node_index b : out.events) {
    p *= tree_.structure().node(b).probability;
  }
  out.probability = p;
  out.seconds = timer.seconds();
  return out;
}

bool product_chain_quantifier::handles(const cutset& c) const {
  for (node_index b : c) {
    if (tree_.is_dynamic(b)) return true;
  }
  return false;
}

cutset_result product_chain_quantifier::quantify(cutset c) const {
  const stopwatch timer;
  obs::span_scope span("quant.mcs", "quant");
  cutset_result out;
  out.events = std::move(c);
  out.dynamic = true;
  try {
    const ftc_plan* plan =
        plans_ != nullptr ? plans_->find(options_.mode, out.events) : nullptr;
    ftc_plan built;
    if (plan != nullptr) {
      // The plan's trigger sets were memoised along with it.
      out.ftc_plan_hit = true;
      out.trigger_set_hits = plan->trigger_gates();
    } else {
      built = build_ftc_plan(tree_, out.events, options_.mode, trigger_sets_,
                             &out.trigger_sets_solved);
      out.trigger_set_hits = built.trigger_gates() - out.trigger_sets_solved;
      plan = plans_ != nullptr
                 ? plans_->insert(options_.mode, out.events, std::move(built))
                 : &built;
    }
    out.num_dynamic = plan->top;  // FT_C's first nodes: C's dynamic events
    out.num_added_dynamic = plan->added_dynamic().size();
    span.arg("trigger_sets_solved",
             static_cast<double>(out.trigger_sets_solved));
    const double static_factor = ftc_static_factor(tree_, out.events);

    std::string key;
    quantification_cache::lookup cached;
    if (cache_ != nullptr) {
      key = ftc_signature(*plan, tree_);
      cached = cache_->find(key, options_.horizon, options_.epsilon);
    }
    std::shared_ptr<const explored_chain> chain = std::move(cached.chain);
    if (chain == nullptr) {
      obs::span_scope explore("quant.explore", "quant");
      product_options popts;
      popts.max_states = options_.max_product_states;
      const product_ctmc product =
          build_product_ctmc(materialise_ftc(*plan, tree_), popts);
      const ctmc& explored = product.chain;
      explored.validate();  // once per chain, not once per solve
      chain = std::make_shared<const explored_chain>(explored_chain{
          uniformised_dtmc(explored, explored.failed_flags()),
          explored.initial_distribution(), explored.failed_flags(),
          product.lumped_orbits, product.packed_keys});
      explore.arg("states", static_cast<double>(chain->num_states()));
    }
    out.chain_states = chain->num_states();
    out.lumped_orbits = chain->lumped_orbits;
    out.packed_keys = chain->packed_keys;
    if (cached.solved) {
      out.cache_hit = true;
      out.steps_saved = cached.solved->steps_saved;
      out.probability = cached.solved->chain_probability * static_factor;
      out.seconds = timer.seconds();
      span.arg("cache_hit", 1.0);
      span.arg("states", static_cast<double>(out.chain_states));
      return out;
    }

    transient_stats tstats;
    double chain_probability = 0;
    {
      obs::span_scope uniformise("quant.uniformise", "quant");
      transient_controls tctrl;
      tctrl.stats = &tstats;
      chain_probability =
          reach_probability(chain->dtmc, chain->initial, chain->failed,
                            options_.horizon, options_.epsilon, tctrl);
      uniformise.arg("steps", static_cast<double>(tstats.steps_taken));
    }
    out.steps_saved = tstats.steps_saved();
    if (obs::enabled()) {
      static obs::counter& steps =
          obs::metrics_registry::global().get_counter(
              "transient.uniformisation_steps");
      steps.add(tstats.steps_taken);
    }
    if (cache_ != nullptr) {
      cache_->store(key, std::move(chain),
                    {options_.horizon, options_.epsilon, chain_probability,
                     out.steps_saved});
    }
    out.probability = chain_probability * static_factor;
  } catch (const error& e) {
    // Conservative fallback: the FT-bar product of worst-case
    // probabilities bounds p-tilde(C) from above (paper eq. (1)). The
    // cache is deliberately bypassed on this path — only successful exact
    // solves are stored (store() above is unreachable once we land here),
    // so a later retry with a larger state budget re-attempts the solve
    // instead of replaying the bound.
    out.error = e.what();
    double p = 1.0;
    for (node_index b : out.events) {
      if (tree_.is_dynamic(b)) {
        p *= translation_.worst_case.at(b);
      } else {
        p *= tree_.structure().node(b).probability;
      }
    }
    out.probability = p;
  }
  out.seconds = timer.seconds();
  span.arg("cache_hit", 0.0);
  span.arg("states", static_cast<double>(out.chain_states));
  span.arg("lumped_orbits", static_cast<double>(out.lumped_orbits));
  span.arg("packed", out.packed_keys ? 1.0 : 0.0);
  span.arg("dynamic_events",
           static_cast<double>(out.num_dynamic + out.num_added_dynamic));
  return out;
}

}  // namespace sdft

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "sdft/sd_fault_tree.hpp"

namespace sdft {

/// Fussell-Vesely importance of every basic event from a quantified SD
/// analysis: FV(a) = sum of p-tilde(C) over cutsets containing a, divided
/// by the total. The paper's concluding remark points out that importance
/// analyses re-evaluate the quantified cutset list — no further Markov
/// chains need to be solved.
///
/// Requires `result` to have been produced with keep_cutset_details on.
std::unordered_map<node_index, double> fussell_vesely_sd(
    const sd_fault_tree& tree, const analysis_result& result);

/// Risk-decrease importance: the failure probability with basic event `a`
/// assumed perfect (its cutsets removed), from the quantified list.
double risk_without_event(const analysis_result& result, node_index event);

/// Options of the Monte-Carlo parametric uncertainty analysis.
struct uncertainty_options {
  std::size_t samples = 1000;
  std::uint64_t seed = 1;

  /// Lognormal error factor EF = p95 / median applied to every basic
  /// event's failure data (the standard parametric uncertainty model of
  /// nuclear PSA). Must be >= 1.
  double error_factor = 3.0;
};

/// Result of the uncertainty analysis: statistics of the failure
/// probability over the sampled parameter sets.
struct uncertainty_result {
  double mean = 0;
  double median = 0;
  double p05 = 0;
  double p95 = 0;
  double point_estimate = 0;  ///< the unsampled p_rea, for reference
  std::vector<double> samples;  ///< sorted sample values
};

/// Monte-Carlo uncertainty propagation over the quantified cutset list
/// (paper §VI concluding remark): each sample draws one lognormal
/// multiplier per basic event (median 1) and re-evaluates every cutset as
/// p-tilde(C) * prod of its members' multipliers, i.e. first-order
/// scaling in each member's failure data. For purely static cutsets this
/// is exact; for dynamic cutsets it is the standard cutset-level
/// approximation (the per-cutset Markov chains are not re-solved).
///
/// Requires `result` to have been produced with keep_cutset_details on.
uncertainty_result uncertainty_analysis(const analysis_result& result,
                                        const uncertainty_options& options);

}  // namespace sdft

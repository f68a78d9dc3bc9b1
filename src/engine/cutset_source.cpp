#include "engine/cutset_source.hpp"

#include <algorithm>

#include "mcs/mocus.hpp"
#include "util/error.hpp"

namespace sdft {

void sort_cutsets_canonically(std::vector<cutset>& sets) {
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
}

const char* to_string(cutset_backend backend) {
  switch (backend) {
    case cutset_backend::mocus:
      return "mocus";
    case cutset_backend::mc:
      return "mc";
  }
  return "?";
}

bool parse_cutset_backend(std::string_view text, cutset_backend& out) {
  if (text == "mocus") {
    out = cutset_backend::mocus;
  } else if (text == "mc") {
    out = cutset_backend::mc;
  } else {
    return false;
  }
  return true;
}

cutset_generation mocus_source::generate(const fault_tree& ft, double cutoff,
                                         thread_pool* pool) const {
  mocus_options opts;
  opts.cutoff = cutoff;
  opts.pool = pool;
  mocus_result mcs = mocus(ft, opts);
  cutset_generation out;
  out.partials_processed = mcs.partials_processed;
  out.discarded = mcs.cutoff_discarded;
  out.lookahead_pruned = mcs.lookahead_pruned;
  out.subset_tests = mcs.subset_tests;
  out.bitset_words = mcs.universe_words;
  out.cutsets = std::move(mcs.cutsets);
  sort_cutsets_canonically(out.cutsets);
  return out;
}

std::unique_ptr<cutset_source> make_cutset_source(cutset_backend backend) {
  switch (backend) {
    case cutset_backend::mocus:
      return std::make_unique<mocus_source>();
    case cutset_backend::mc:
      // The mc backend is a quantifier, not a cutset generator; the
      // engine branches off before stage 2 (engine.cpp run_mc()).
      throw model_error("mc backend does not generate cutsets");
  }
  throw model_error("unknown cutset backend");
}

}  // namespace sdft

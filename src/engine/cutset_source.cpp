#include "engine/cutset_source.hpp"

#include <algorithm>
#include <optional>

#include "bdd/ft_bdd.hpp"
#include "mcs/mocus.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// Jobs below this size are not worth fanning out.
constexpr std::size_t parallel_grain = 2048;

}  // namespace

void sort_cutsets_canonically(std::vector<cutset>& sets) {
  std::sort(sets.begin(), sets.end(), [](const cutset& a, const cutset& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
}

const char* to_string(cutset_backend backend) {
  switch (backend) {
    case cutset_backend::mocus:
      return "mocus";
    case cutset_backend::bdd:
      return "bdd";
    case cutset_backend::mc:
      return "mc";
  }
  return "?";
}

bool parse_cutset_backend(std::string_view text, cutset_backend& out) {
  if (text == "mocus") {
    out = cutset_backend::mocus;
  } else if (text == "bdd") {
    out = cutset_backend::bdd;
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
  out.subset_tests = mcs.subset_tests;
  out.bitset_words = mcs.universe_words;
  out.cutsets = std::move(mcs.cutsets);
  sort_cutsets_canonically(out.cutsets);
  return out;
}

cutset_generation bdd_source::generate(const fault_tree& ft, double cutoff,
                                       thread_pool* pool) const {
  cutset_generation out;
  std::optional<ft_bdd> compiled;
  {
    obs::span_scope compile_span("bdd.compile", "generate");
    compiled.emplace(ft, fault_tree::npos, ordering_);
    out.bdd_nodes = compiled->node_count();
    out.sift_swaps = compiled->sift_swaps();
    compile_span.arg("nodes", static_cast<double>(out.bdd_nodes));
    compile_span.arg("sift_swaps", static_cast<double>(out.sift_swaps));
  }
  std::vector<cutset> kept;
  {
    obs::span_scope cutset_span("bdd.cutsets", "generate");
    kept = compiled->minimal_cutsets();
    cutset_span.arg("cutsets", static_cast<double>(kept.size()));
  }
  compiled.reset();
  // MOCUS keeps partials with probability >= cutoff; applying the same
  // predicate to the complete cutset list yields an identical selection,
  // since a cutset's probability product equals its final partial's
  // probability.
  if (cutoff > 0.0) {
    obs::span_scope filter_span("bdd.filter", "generate");
    const auto below = [&](const cutset& c) {
      return cutset_probability(ft, c) < cutoff;
    };
    if (pool != nullptr && pool->size() > 1 && kept.size() >= parallel_grain) {
      // Evaluate the predicate in parallel, then compact in index order so
      // the surviving sequence matches the serial path exactly.
      std::vector<char> drop(kept.size(), 0);
      parallel_for(*pool, kept.size(),
                   [&](std::size_t i) { drop[i] = below(kept[i]) ? 1 : 0; });
      std::size_t next = 0;
      for (std::size_t i = 0; i < kept.size(); ++i) {
        if (drop[i]) continue;
        if (next != i) kept[next] = std::move(kept[i]);
        ++next;
      }
      out.discarded = kept.size() - next;
      kept.resize(next);
    } else {
      const auto it = std::remove_if(kept.begin(), kept.end(), below);
      out.discarded = static_cast<std::size_t>(kept.end() - it);
      kept.erase(it, kept.end());
    }
  }
  out.cutsets = std::move(kept);
  sort_cutsets_canonically(out.cutsets);
  return out;
}

std::unique_ptr<cutset_source> make_cutset_source(cutset_backend backend,
                                                  bdd_ordering ordering) {
  switch (backend) {
    case cutset_backend::mocus:
      return std::make_unique<mocus_source>();
    case cutset_backend::bdd:
      return std::make_unique<bdd_source>(ordering);
    case cutset_backend::mc:
      // The mc backend is a quantifier, not a cutset generator; the
      // engine branches off before stage 2 (engine.cpp run_mc()).
      throw model_error("mc backend does not generate cutsets");
  }
  throw model_error("unknown cutset backend");
}

}  // namespace sdft

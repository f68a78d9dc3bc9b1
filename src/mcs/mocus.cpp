#include "mcs/mocus.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sorted_set.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace sdft {

namespace {

/// A partial cutset: basic events already chosen plus gates still to fail
/// (paper §IV-B). Both sets are kept sorted for cheap dedup and hashing.
struct partial_cutset {
  std::vector<node_index> events;
  std::vector<node_index> gates;
  double probability = 1.0;  // product over chosen events, in sorted order
};

/// A partial's exact identity for the visited tables: its events and gates
/// merged into one sorted vector (basic events and gates are disjoint index
/// sets, so the union loses nothing), plus a well-mixed 64-bit hash of it.
/// One key buffer is reused per walk, so building it allocates only while
/// the buffer still grows.
struct partial_key {
  std::vector<node_index> ids;
  std::uint64_t hash = 0;

  void assign(const partial_cutset& p) {
    ids.resize(p.events.size() + p.gates.size());
    std::merge(p.events.begin(), p.events.end(), p.gates.begin(),
               p.gates.end(), ids.begin());
    std::uint64_t h = ids.size();
    for (node_index id : ids) {
      h = (std::rotl(h, 5) ^ id) * 0x517cc1b727220a95ULL;
    }
    // Every output bit of mix64 depends on every input bit, so the low bits
    // that pick a slot are uniform.
    hash = mix64(h);
  }
};

/// Open-addressing (linear probing) set of partial keys. A slot holds the
/// low hash bits plus an offset and a length into one shared arena of node
/// indices, so an insert appends to two flat vectors instead of allocating
/// a hash node and a key block, and clear() or destruction release a few
/// blocks however many keys were stored. Equality is hash, then length,
/// then an element compare: deduplication stays exact.
class visited_table {
 public:
  std::size_t size() const { return size_; }

  /// Inserts `key`; returns false if it was already present.
  bool insert(const partial_key& key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    const auto lo = static_cast<std::uint32_t>(key.hash);
    const auto length = static_cast<std::uint32_t>(key.ids.size());
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = lo & mask;; i = (i + 1) & mask) {
      slot& s = slots_[i];
      if (s.length == empty) {
        s = {lo, length, arena_.size()};
        arena_.insert(arena_.end(), key.ids.begin(), key.ids.end());
        ++size_;
        return true;
      }
      if (s.hash == lo && s.length == length &&
          std::equal(key.ids.begin(), key.ids.end(),
                     arena_.begin() + static_cast<std::ptrdiff_t>(s.offset))) {
        return false;
      }
    }
  }

  /// Forgets every key; the slot array and the arena keep their capacity.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), slot{});
    arena_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t empty =
      std::numeric_limits<std::uint32_t>::max();

  struct slot {
    std::uint32_t hash = 0;  // low 32 bits of partial_key::hash
    std::uint32_t length = empty;
    std::size_t offset = 0;  // into arena_
  };

  /// Doubles the slot array, re-placing occupied slots by their stored hash
  /// bits; the arena is untouched.
  void grow() {
    std::vector<slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const slot& s : old) {
      if (s.length == empty) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].length != empty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<slot> slots_;
  std::vector<node_index> arena_;
  std::size_t size_ = 0;
};

enum class event_mode : char { free_event, forced_failed, forced_working };

/// Lower bound on the cutset order of a node that has no cutset at all.
constexpr std::uint32_t no_cutset_order = std::uint32_t{1} << 30;

/// A conservative fixed-width summary of a node's free leaves: each free
/// basic event sets one of 512 bits, picked by mix64 of its index. Disjoint
/// signatures prove disjoint leaf sets; meeting signatures only mean
/// "maybe shared". 64 bytes per node, however large the tree.
struct leaf_signature {
  std::array<std::uint64_t, 8> words{};

  void add(node_index event) {
    const std::uint64_t bit = mix64(event) & 511;
    words[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  void merge(const leaf_signature& other) {
    for (std::size_t i = 0; i < words.size(); ++i) words[i] |= other.words[i];
  }
  bool meets(const leaf_signature& other) const {
    std::uint64_t common = 0;
    for (std::size_t i = 0; i < words.size(); ++i) {
      common |= words[i] & other.words[i];
    }
    return common != 0;
  }
};

/// Where a walk counts the partials that die. Every dropped partial is
/// handed over with its event product P(E): each cutset it would have
/// produced contains E, which is what a truncation bound on the dropped
/// mass sums (ROADMAP).
struct discard_tally {
  std::size_t discarded = 0;         ///< cutoff, order and look-ahead deaths
  std::size_t lookahead_pruned = 0;  ///< of which look-ahead prunes

  void cutoff(double /*event_probability*/) { ++discarded; }
  void lookahead(double /*event_probability*/) {
    ++discarded;
    ++lookahead_pruned;
  }
};

/// The expansion core shared by every walk of the driver: the forced-event
/// modes, the cutoff/order pruning, the look-ahead bounds and the
/// single-gate expansion step. Stateless apart from the read-only inputs,
/// so the drains call it from every worker without synchronisation.
struct expansion {
  const fault_tree& ft;
  const mocus_options& opt;
  std::vector<event_mode> mode;

  // Look-ahead pricing (DESIGN.md §9), per node: `bound` is an upper bound
  // on the event product of any cutset's share in the node's free leaves,
  // `order` a lower bound on that share's size, `signature` a summary of
  // the free leaves. Empty when neither the cutoff nor max_order can prune.
  std::vector<double> bound;
  std::vector<std::uint32_t> order;
  std::vector<leaf_signature> signature;
  double reject_below = 0.0;  // cutoff · (1 − pricing_slack), or 0

  expansion(const fault_tree& tree, const mocus_options& options)
      : ft(tree), opt(options), mode(tree.size(), event_mode::free_event) {
    for (node_index b : opt.assume_failed) {
      require_model(b < ft.size() && ft.is_basic(b),
                    "mocus: assume_failed entry is not a basic event");
      mode[b] = event_mode::forced_failed;
    }
    for (node_index b : opt.assume_working) {
      require_model(b < ft.size() && ft.is_basic(b),
                    "mocus: assume_working entry is not a basic event");
      require_model(mode[b] != event_mode::forced_failed,
                    "mocus: event both assumed failed and assumed working");
      mode[b] = event_mode::forced_working;
    }
    if (opt.cutoff >= min_priced_cutoff) {
      reject_below = opt.cutoff * (1.0 - pricing_slack);
    }
    if (reject_below > 0.0 ||
        opt.max_order != std::numeric_limits<std::size_t>::max()) {
      compute_bounds();
    }
  }

  /// One bottom-up pass over the tree. A basic event bounds by its
  /// probability (1 if assumed failed, 0 if assumed working); an OR takes
  /// the best child; an AND multiplies (sums the orders) when its
  /// children's signatures are disjoint, and otherwise takes the worst
  /// child alone, which every cutset of the AND still contains.
  void compute_bounds() {
    bound.assign(ft.size(), 0.0);
    order.assign(ft.size(), 0);
    signature.assign(ft.size(), leaf_signature{});
    for (node_index n : ft.topo_order()) {
      const ft_node& node = ft.node(n);
      if (ft.is_basic(n)) {
        switch (mode[n]) {
          case event_mode::free_event:
            bound[n] = node.probability;
            order[n] = 1;
            signature[n].add(n);
            break;
          case event_mode::forced_failed:
            bound[n] = 1.0;
            break;
          case event_mode::forced_working:
            order[n] = no_cutset_order;
            break;
        }
        continue;
      }
      leaf_signature& sig = signature[n];
      if (node.type == gate_type::or_gate) {
        std::uint32_t lo = no_cutset_order;
        for (node_index c : node.inputs) {
          bound[n] = std::max(bound[n], bound[c]);
          lo = std::min(lo, order[c]);
          sig.merge(signature[c]);
        }
        order[n] = lo;
        continue;
      }
      bool disjoint = true;
      double product = 1.0;
      double worst = 1.0;
      std::uint64_t sum = 0;
      std::uint32_t most = 0;
      for (node_index c : node.inputs) {
        disjoint = disjoint && !sig.meets(signature[c]);
        sig.merge(signature[c]);
        product *= bound[c];
        worst = std::min(worst, bound[c]);
        sum += order[c];
        most = std::max(most, order[c]);
      }
      bound[n] = disjoint ? product : worst;
      order[n] = disjoint ? static_cast<std::uint32_t>(std::min<std::uint64_t>(
                                sum, no_cutset_order))
                          : most;
    }
  }

  bool looks_ahead() const { return !bound.empty(); }

  /// The signature of `events`, the start of every dooms() walk.
  static leaf_signature events_signature(const std::vector<node_index>& events) {
    leaf_signature sig;
    for (node_index e : events) sig.add(e);
    return sig;
  }

  /// True when no cutset under p grown by `child` (a basic event, a gate,
  /// or npos for p itself) can pass the cutoff or max_order. `used` is
  /// events_signature(p.events) and `probability` the grown partial's
  /// event product from admits(). Walks p's gates (and a new gate child)
  /// in index order and uses each gate whose signature meets none used so
  /// far: the cutsets' shares in those gates are disjoint from E and from
  /// each other, so P(E) · ∏ b(g) bounds the product of every cutset and
  /// |E| + Σ lo(g) its order. The decision depends only on the grown
  /// partial's sets, never on the path that reached it.
  bool dooms(const partial_cutset& p, leaf_signature used, node_index child,
             double probability) const {
    std::size_t size = p.events.size();
    node_index new_gate = fault_tree::npos;
    if (child != fault_tree::npos) {
      if (ft.is_basic(child)) {
        if (!sorted_set::contains(p.events, child)) {
          used.add(child);
          ++size;
        }
      } else if (!sorted_set::contains(p.gates, child)) {
        new_gate = child;
      }
    }
    double product = probability;
    const auto take = [&](node_index g) {
      if (used.meets(signature[g])) return false;
      used.merge(signature[g]);
      product *= bound[g];
      size += order[g];
      return product < reject_below || size > opt.max_order;
    };
    for (node_index g : p.gates) {
      if (new_gate < g) {
        if (take(new_gate)) return true;
        new_gate = fault_tree::npos;
      }
      if (take(g)) return true;
    }
    return new_gate != fault_tree::npos && take(new_gate);
  }

  /// Adds `child` (a basic event) to the partial; returns false if the
  /// partial dies (forced-working child of an AND, cutoff, order).
  bool add_event(partial_cutset& p, node_index child,
                 discard_tally& tally) const {
    if (mode[child] == event_mode::forced_failed) return true;  // for free
    double probability = 0.0;
    if (!admits(p, child, probability, tally)) return false;
    sorted_set::insert(p.events, child);
    p.probability = probability;
    return true;
  }

  /// Decides whether p + `child` survives, without modifying or copying
  /// `p`, and counts a cutoff/order death in `tally`. `probability`
  /// receives the grown partial's event product, taken over the merged set
  /// in sorted-index order from scratch, so the value (and thus every
  /// cutoff decision) depends only on the set, never on the expansion path
  /// that assembled it — the keystone of the bit-identical result at
  /// every thread count. Forced-failed children are handled by the callers.
  bool admits(const partial_cutset& p, node_index child, double& probability,
              discard_tally& tally) const {
    probability = p.probability;
    if (!ft.is_basic(child)) return true;
    if (mode[child] == event_mode::forced_working) return false;
    if (sorted_set::contains(p.events, child)) return true;
    const double child_p = ft.node(child).probability;
    double product = 1.0;
    bool placed = false;
    for (node_index b : p.events) {
      if (!placed && child < b) {
        product *= child_p;
        placed = true;
      }
      product *= ft.node(b).probability;
    }
    if (!placed) product *= child_p;
    if (p.events.size() + 1 > opt.max_order ||
        (opt.cutoff > 0.0 && product < opt.cutoff)) {
      tally.cutoff(product);
      return false;
    }
    probability = product;
    return true;
  }

  /// Expands one partial with a non-empty gate set by one gate, appending
  /// the surviving children to `out`. With look-ahead on, a child is
  /// priced by dooms() before it is copied.
  void expand(partial_cutset&& p, std::vector<partial_cutset>& out,
              discard_tally& tally) const {
    // Expand an AND gate if available (it only constrains, never branches,
    // so the cutoff prunes earlier); otherwise the first OR gate.
    std::size_t pick = 0;
    for (std::size_t i = 0; i < p.gates.size(); ++i) {
      if (ft.node(p.gates[i]).type == gate_type::and_gate) {
        pick = i;
        break;
      }
    }
    const node_index g = p.gates[pick];
    p.gates.erase(p.gates.begin() + static_cast<std::ptrdiff_t>(pick));
    const ft_node& gate = ft.node(g);
    // Keeps p itself as a child unless the look-ahead dooms it.
    const auto keep = [&] {
      if (looks_ahead() && dooms(p, events_signature(p.events),
                                 fault_tree::npos, p.probability)) {
        tally.lookahead(p.probability);
      } else {
        out.push_back(std::move(p));
      }
    };

    if (gate.type == gate_type::and_gate) {
      for (node_index child : gate.inputs) {
        if (ft.is_basic(child)) {
          if (!add_event(p, child, tally)) return;
        } else {
          sorted_set::insert(p.gates, child);
        }
      }
      keep();
      return;
    }
    // If any input is certainly failed the gate is satisfied outright;
    // branching would only create subsumed supersets.
    for (node_index child : gate.inputs) {
      if (ft.is_basic(child) && mode[child] == event_mode::forced_failed) {
        keep();
        return;
      }
    }
    // Price each branch before copying p: most branches die at the cutoff
    // or the look-ahead, and only survivors are worth a copy.
    const leaf_signature used =
        looks_ahead() ? events_signature(p.events) : leaf_signature{};
    for (node_index child : gate.inputs) {
      double probability = 0.0;
      if (!admits(p, child, probability, tally)) continue;
      if (looks_ahead() && dooms(p, used, child, probability)) {
        tally.lookahead(probability);
        continue;
      }
      partial_cutset& branch = out.emplace_back(p);
      if (ft.is_basic(child)) {
        sorted_set::insert(branch.events, child);
        branch.probability = probability;
      } else {
        sorted_set::insert(branch.gates, child);
      }
    }
  }

  /// Builds the seed partial for `root`. Returns false when the root can
  /// never fail (no cutsets at all); `*seed` is valid only on true.
  bool seed(node_index root, partial_cutset* out) const {
    partial_cutset seed;
    if (ft.is_basic(root)) {
      switch (mode[root]) {
        case event_mode::free_event:
          seed.events.push_back(root);
          seed.probability = ft.node(root).probability;
          break;
        case event_mode::forced_failed:
          break;  // empty cutset: root already failed
        case event_mode::forced_working:
          return false;
      }
    } else {
      seed.gates.push_back(root);
    }
    if (seed.probability < opt.cutoff && opt.cutoff != 0.0) return false;
    *out = std::move(seed);
    return true;
  }
};

/// What one walk over partial cutsets produced.
struct walk_output {
  std::vector<cutset> raw;  ///< unminimized cutsets
  discard_tally tally;
  std::size_t partials = 0;  ///< partials this walk expanded
};

/// One walk over partial cutsets: the breadth-first phase or one drain. It
/// owns its visited set, cleared at dedup_limit, and its output; only the
/// max_partials valve is shared between walks.
struct walk {
  const expansion& ex;
  std::atomic<std::size_t>& processed;  ///< every walk's partials so far
  visited_table visited;
  partial_key key;  // reused by mark()
  std::vector<partial_cutset> children;
  walk_output out;

  walk(const expansion& expander, std::atomic<std::size_t>& shared)
      : ex(expander), processed(shared) {}

  /// Inserts `p` into the visited set; false if it was already there.
  bool mark(const partial_cutset& p) {
    key.assign(p);
    return visited.insert(key);
  }

  /// Expands `p` by one gate (or records it as a raw cutset when no gate
  /// is left) and appends its unvisited children to `live`, the walk's
  /// pending partials. Throws numeric_error once all walks together pass
  /// max_partials, so the valve trips promptly on every worker.
  template <class Live>
  void step(partial_cutset p, Live& live) {
    ++out.partials;
    if (processed.fetch_add(1, std::memory_order_relaxed) >=
        ex.opt.max_partials) {
      throw numeric_error("mocus: partial cutset limit exceeded");
    }
    if (p.gates.empty()) {
      out.raw.push_back(std::move(p.events));
      return;
    }
    children.clear();
    ex.expand(std::move(p), children, out.tally);
    for (auto& c : children) {
      if (visited.size() >= ex.opt.dedup_limit) {
        // Clearing at the bound keeps memory flat, but a bare clear also
        // forgets the partials still awaiting expansion: a shared subtree
        // reached again would re-admit a partial that is already pending
        // (in the worst case the walk's root) and re-expand its whole
        // region once per clear. Re-priming with the live keys makes a
        // clear forget only *finished* work.
        visited.clear();
        for (const partial_cutset& pending : live) mark(pending);
      }
      if (mark(c)) live.push_back(std::move(c));
    }
  }
};

/// The one MOCUS driver. It expands the seed breadth-first until the
/// frontier holds mocus_frontier_width partials (or runs out), then drains
/// every frontier partial depth-first through parallel_for, each drain
/// with its own visited set and output slot. Which partials each walk expands
/// depends only on the frontier, never on scheduling, so the counters are
/// the same at every thread count; minimize_cutsets() canonicalises the
/// merged list.
mocus_result run_driver(const expansion& ex, partial_cutset seed) {
  std::atomic<std::size_t> processed{0};
  walk head(ex, processed);
  std::deque<partial_cutset> frontier;
  head.mark(seed);
  frontier.push_back(std::move(seed));
  while (!frontier.empty() && frontier.size() < mocus_frontier_width) {
    partial_cutset p = std::move(frontier.front());
    frontier.pop_front();
    head.step(std::move(p), frontier);
  }

  std::vector<walk_output> drained(frontier.size());
  parallel_for(ex.opt.pool, frontier.size(), [&](std::size_t i) {
    obs::span_scope span("mocus.task", "mocus");
    walk drain(ex, processed);
    std::vector<partial_cutset> stack;
    drain.mark(frontier[i]);
    stack.push_back(std::move(frontier[i]));
    while (!stack.empty()) {
      partial_cutset p = std::move(stack.back());
      stack.pop_back();
      drain.step(std::move(p), stack);
    }
    span.arg("partials", static_cast<double>(drain.out.partials));
    drained[i] = std::move(drain.out);
  });

  mocus_result result;
  std::vector<cutset> raw;
  const auto merge = [&](walk_output& w) {
    result.partials_processed += w.partials;
    result.cutoff_discarded += w.tally.discarded;
    result.lookahead_pruned += w.tally.lookahead_pruned;
    raw.insert(raw.end(), std::make_move_iterator(w.raw.begin()),
               std::make_move_iterator(w.raw.end()));
  };
  merge(head.out);
  for (walk_output& w : drained) merge(w);
  minimize_stats min_stats;
  result.cutsets = minimize_cutsets(std::move(raw), &min_stats);
  result.subset_tests = min_stats.subset_tests;
  result.universe_words = min_stats.universe_words;
  return result;
}

}  // namespace

mocus_result mocus_from(const fault_tree& ft, node_index root,
                        const mocus_options& opt) {
  require_model(root < ft.size(), "mocus: root index out of range");
  require_model(std::isfinite(opt.cutoff) && opt.cutoff >= 0.0,
                "mocus: cutoff must be finite and >= 0");
  for (node_index n = 0; n < ft.size(); ++n) {
    require_model(!ft.is_gate(n) ||
                      ft.node(n).type != gate_type::atleast_gate,
                  "mocus: tree contains atleast gate '" + ft.node(n).name +
                      "'; lower voting gates first (prep normalization or "
                      "add_voting_gate)");
  }
  const stopwatch timer;
  const expansion ex(ft, opt);

  partial_cutset seed;
  if (!ex.seed(root, &seed)) {
    mocus_result result;
    result.seconds = timer.seconds();
    return result;
  }

  mocus_result result = run_driver(ex, std::move(seed));
  result.seconds = timer.seconds();
  return result;
}

mocus_result mocus(const fault_tree& ft, const mocus_options& opt) {
  require_model(ft.top() != fault_tree::npos, "mocus: fault tree has no top");
  return mocus_from(ft, ft.top(), opt);
}

}  // namespace sdft

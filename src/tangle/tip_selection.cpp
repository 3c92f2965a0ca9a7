#include "tangle/tip_selection.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

namespace biot::tangle {

TipPair UniformRandomTipSelector::select(const Tangle& tangle, Rng& rng) const {
  const auto& tips = tangle.tips();
  if (tips.empty()) throw std::logic_error("tip selection: tangle has no tips");

  std::vector<const TxId*> pool;
  pool.reserve(tips.size());
  for (const auto& t : tips) pool.push_back(&t);

  const std::size_t i = rng.index(pool.size());
  if (pool.size() == 1) return {*pool[i], *pool[i]};
  // Two distinct validations whenever the pool allows it: draw the second
  // index without replacement by skipping over the first.
  const std::size_t j = (i + 1 + rng.index(pool.size() - 1)) % pool.size();
  return {*pool[i], *pool[j]};
}

namespace {

// The walk's weight cap: a branch lighter than a saturated sibling by the
// whole cap is taken with relative probability exp(-alpha * (cap - 1)),
// below e^-21. 0 (no weight reads) for alpha = 0. The min keeps a tiny
// alpha from overflowing the conversion; such a cap is unbounded anyway.
std::size_t walk_weight_cap(double alpha) {
  if (alpha <= 0.0) return 0;
  return 1 + static_cast<std::size_t>(std::ceil(std::min(21.0 / alpha, 1e15)));
}

}  // namespace

WeightedWalkTipSelector::WeightedWalkTipSelector(double alpha,
                                                 std::size_t max_walk_depth)
    : alpha_(alpha),
      max_walk_depth_(max_walk_depth),
      weight_cap_(walk_weight_cap(alpha)) {}

TxId WeightedWalkTipSelector::walk(const Tangle& tangle, const TxId& start,
                                   Rng& rng) const {
  std::vector<std::size_t> weights;
  std::vector<double> cumulative;
  TxId current = start;
  for (;;) {
    const auto* rec = tangle.find(current);
    if (rec == nullptr) {
      // Unknown id (foreign/pruned start, or a corrupted approver edge):
      // degrade to an arbitrary current tip rather than dereferencing null.
      const auto& tips = tangle.tips();
      return tips.empty() ? current : *tips.begin();
    }
    const auto& approvers = rec->approvers;
    if (approvers.empty()) return current;  // reached a tip

    // Transition probabilities proportional to exp(alpha * w); normalize by
    // the max exponent for numerical stability. A lone approver needs no
    // weight, but still takes its draw so the rng stream does not depend on
    // the cap.
    weights.assign(approvers.size(), 0);
    if (weight_cap_ > 0 && approvers.size() > 1) {
      for (std::size_t i = 0; i < approvers.size(); ++i)
        weights[i] = tangle.weight_at_least(approvers[i], weight_cap_);
    }
    const auto max_w = static_cast<double>(*std::ranges::max_element(weights));
    cumulative.clear();
    double total = 0.0;
    for (const std::size_t w : weights) {
      total += std::exp(alpha_ * (static_cast<double>(w) - max_w));
      cumulative.push_back(total);
    }

    const double pick = rng.uniform(0.0, total);
    std::size_t idx = 0;
    while (idx + 1 < cumulative.size() && cumulative[idx] <= pick) ++idx;
    current = approvers[idx];
    ++last_walk_steps_;
  }
}

TxId WeightedWalkTipSelector::anchor(const Tangle& tangle, Rng& rng) const {
  const auto& tips = tangle.tips();
  if (tips.empty()) return tangle.genesis_id();

  auto it = tips.begin();
  std::advance(it, rng.index(tips.size()));
  TxId current = *it;
  const TxRecord* rec = tangle.find(current);
  for (std::size_t step = 0; rec != nullptr && step < max_walk_depth_; ++step) {
    // Genesis' parents are the zero-id sentinel, which find() does not know.
    const TxRecord* parent = tangle.find(rec->tx.parent1);
    if (parent == nullptr) break;
    current = rec->tx.parent1;
    rec = parent;
  }
  return current;
}

TipPair WeightedWalkTipSelector::select(const Tangle& tangle, Rng& rng) const {
  last_walk_steps_ = 0;  // walk() accumulates across the two walks below
  if (max_walk_depth_ == 0) {
    const auto& start = tangle.genesis_id();
    return {walk(tangle, start, rng), walk(tangle, start, rng)};
  }
  // Depth-windowed mode: independent anchors for the two walks so the pair
  // is not forced through one shared subtangle.
  return {walk(tangle, anchor(tangle, rng), rng),
          walk(tangle, anchor(tangle, rng), rng)};
}

}  // namespace biot::tangle

// Capped weight read: property tests proving Tangle::weight_at_least agrees
// with the brute-force reference on randomized DAGs at several caps, and
// regression tests for the tip-selection correctness fixes
// (duplicate tip draw, null walk, unknown approvers).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "tangle/milestones.h"
#include "tangle/tip_selection.h"
#include "test_util.h"

namespace biot::tangle {

// Test-only backdoor (friend of Tangle): plants an approver edge to a
// transaction the tangle does not hold, as a corrupted replica would.
struct TangleTestAccess {
  static void add_unknown_approver(Tangle& t, const TxId& id, const TxId& ghost) {
    t.records_.at(id).approvers.push_back(ghost);
  }
};

namespace {

using testutil::TxFactory;

// weight_at_least at caps 1, 2, the default confirmation threshold 5 and the
// tangle size (uncapped), against min(cap, the full brute-force BFS).
void expect_capped_agreement(const Tangle& tangle, std::uint64_t seed) {
  for (const auto& id : tangle.arrival_order()) {
    const std::size_t full = tangle.weight_at_least_brute_force(id, tangle.size());
    for (const std::size_t cap : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                                  tangle.size()}) {
      ASSERT_EQ(tangle.weight_at_least(id, cap), std::min(cap, full))
          << "seed " << seed << ", cap " << cap;
    }
  }
}

// ---- Capped read vs brute force ---------------------------------------------

TEST(WeightEngineProperty, CappedWeightMatchesBruteForceOnRandomTangles) {
  // 500+ randomized tangles, each grown by a mix of arbitrary-DAG parent
  // picks (diamonds included) and uniform tip selection at difficulty 1.
  for (std::uint64_t seed = 1; seed <= 510; ++seed) {
    Tangle tangle(Tangle::make_genesis());
    TxFactory node(seed);
    Rng rng(seed * 0x9e3779b9ull + 1);
    UniformRandomTipSelector tips;
    const int txs = 5 + static_cast<int>(seed % 28);
    for (int i = 0; i < txs; ++i) {
      TxId p1, p2;
      if (rng.bernoulli(0.5)) {
        const auto& order = tangle.arrival_order();
        p1 = order[rng.index(order.size())];
        p2 = order[rng.index(order.size())];
      } else {
        std::tie(p1, p2) = tips.select(tangle, rng);
      }
      const auto tx = node.make(p1, p2, 1, {}, 0.1 * i);
      ASSERT_TRUE(tangle.add(tx, 0.1 * i).is_ok());
    }
    expect_capped_agreement(tangle, seed);
  }
}

TEST(WeightEngineProperty, AgreementHoldsAfterEveryAdd) {
  // Smaller sweep that checks agreement after each individual add, not just
  // at the end.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Tangle tangle(Tangle::make_genesis());
    TxFactory node(seed);
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) {
      const auto& order = tangle.arrival_order();
      const auto& p1 = order[rng.index(order.size())];
      const auto& p2 = order[rng.index(order.size())];
      const auto tx = node.make(p1, p2, 1, {}, 0.1 * i);
      ASSERT_TRUE(tangle.add(tx, 0.1 * i).is_ok());
      expect_capped_agreement(tangle, seed);
    }
  }
}

TEST(WeightEngine, UnknownIdIsZeroForBothImplementations) {
  Tangle tangle(Tangle::make_genesis());
  TxId bogus{};
  bogus[5] = 0xaa;
  EXPECT_EQ(tangle.weight_at_least(bogus, 5), 0u);
  EXPECT_EQ(tangle.weight_at_least_brute_force(bogus, 5), 0u);
}

TEST(WeightEngine, CachedWalkMatchesUncachedDistribution) {
  // The walk keeps no state between calls: a reused selector must agree
  // with a fresh one per call — same seed, same tangle, same picks.
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(3);
  Rng grow(3);
  UniformRandomTipSelector uniform;
  for (int i = 0; i < 40; ++i) {
    const auto [p1, p2] = uniform.select(tangle, grow);
    const auto tx = node.make(p1, p2, 1, {}, 0.1 * i);
    ASSERT_TRUE(tangle.add(tx, 0.1 * i).is_ok());
  }
  WeightedWalkTipSelector reused(0.5);
  Rng r1(9), r2(9);
  for (int i = 0; i < 20; ++i) {
    WeightedWalkTipSelector fresh(0.5);
    const auto a = reused.select(tangle, r1);
    const auto b = fresh.select(tangle, r2);
    EXPECT_EQ(a, b);
  }
}

// ---- Regression: duplicate-tip fix ------------------------------------------

TEST(TipSelectionRegression, UniformNeverRepeatsWhenTwoTipsExist) {
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  const auto g = tangle.genesis_id();
  for (int i = 0; i < 5; ++i) {
    const auto tx = node.make(g, g, 1);
    ASSERT_TRUE(tangle.add(tx, 0.0).is_ok());
  }
  ASSERT_GE(tangle.tips().size(), 2u);

  UniformRandomTipSelector selector;
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const auto [t1, t2] = selector.select(tangle, rng);
    EXPECT_NE(t1, t2) << "duplicate tip drawn with a multi-tip pool";
    EXPECT_TRUE(tangle.is_tip(t1));
    EXPECT_TRUE(tangle.is_tip(t2));
  }
}

TEST(TipSelectionRegression, UniformStillCoversEveryTipPair) {
  // Without-replacement sampling must stay uniform over ordered pairs.
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(2);
  const auto g = tangle.genesis_id();
  std::set<TxId> tip_set;
  for (int i = 0; i < 4; ++i) {
    const auto tx = node.make(g, g, 1);
    ASSERT_TRUE(tangle.add(tx, 0.0).is_ok());
    tip_set.insert(tx.id());
  }
  UniformRandomTipSelector selector;
  Rng rng(5);
  std::set<std::pair<TxId, TxId>> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(selector.select(tangle, rng));
  // 4 tips -> 12 ordered distinct pairs, all reachable.
  EXPECT_EQ(seen.size(), 12u);
}

// ---- Regression: null-walk / missing-weight fix -----------------------------

TEST(TipSelectionRegression, WalkFromUnknownIdFallsBackToATip) {
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  const auto g = tangle.genesis_id();
  const auto tx = node.make(g, g, 1);
  ASSERT_TRUE(tangle.add(tx, 0.0).is_ok());

  WeightedWalkTipSelector selector(0.5);
  Rng rng(1);
  TxId foreign{};
  foreign[0] = 0xde;
  foreign[1] = 0xad;
  const auto landed = selector.walk(tangle, foreign, rng);
  EXPECT_TRUE(tangle.is_tip(landed));
}

TEST(TipSelectionRegression, WalkToleratesMissingWeightEntries) {
  // A corrupted replica can list an approver it does not hold. That approver
  // has no weight: the capped read skips it (weighs 0) instead of throwing,
  // and a walk that steps onto it still lands on a real tip.
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  std::vector<TxId> chain{tangle.genesis_id()};
  for (int i = 0; i < 6; ++i) {
    const auto tx = node.make(chain.back(), chain.back(), 1, {}, 0.1 * i);
    ASSERT_TRUE(tangle.add(tx, 0.1 * i).is_ok());
    chain.push_back(tx.id());
  }
  TxId ghost{};
  ghost[0] = 0x9f;
  TangleTestAccess::add_unknown_approver(tangle, chain[2], ghost);
  EXPECT_EQ(tangle.weight_at_least(chain[2], 100), 5u);
  EXPECT_EQ(tangle.weight_at_least(ghost, 100), 0u);

  for (const double alpha : {0.0, 2.0}) {
    WeightedWalkTipSelector selector(alpha);
    Rng rng(2);
    for (int i = 0; i < 50; ++i)
      EXPECT_TRUE(tangle.is_tip(selector.walk(tangle, chain[0], rng)));
  }
}

TEST(TipSelectionRegression, WindowedWalkSelectsValidTips) {
  // The depth-windowed mode anchors each walk a bounded number of parent
  // steps behind a random tip; it must still land on real tips, for windows
  // both smaller and larger than the tangle's depth.
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  UniformRandomTipSelector uniform;
  Rng grow_rng(31);
  for (int i = 0; i < 60; ++i) {
    const auto [p1, p2] = uniform.select(tangle, grow_rng);
    const auto tx = node.make(p1, p2, 1, {}, 0.1 * i);
    ASSERT_TRUE(tangle.add(tx, 0.1 * i).is_ok());
  }

  for (const std::size_t window : {std::size_t{1}, std::size_t{8},
                                   std::size_t{10000}}) {
    WeightedWalkTipSelector windowed(0.5, window);
    Rng rng(7);
    for (int i = 0; i < 20; ++i) {
      const auto [t1, t2] = windowed.select(tangle, rng);
      EXPECT_TRUE(tangle.is_tip(t1)) << "window=" << window;
      EXPECT_TRUE(tangle.is_tip(t2)) << "window=" << window;
    }
  }
}

// ---- Regression: milestone replay -------------------------------------------

TEST(MilestoneRegression, ReplayedMilestoneCountsNothing) {
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(1);
  const auto g = tangle.genesis_id();
  const auto a = node.make(g, g, 1);
  ASSERT_TRUE(tangle.add(a, 0.0).is_ok());

  MilestoneTracker tracker;
  EXPECT_EQ(tracker.observe_milestone(tangle, a.id()), 2u);
  EXPECT_EQ(tracker.milestone_count(), 1u);
  // Gossip echo / restore replay of the same milestone: no-op.
  EXPECT_EQ(tracker.observe_milestone(tangle, a.id()), 0u);
  EXPECT_EQ(tracker.milestone_count(), 1u);
  EXPECT_EQ(tracker.confirmed_count(), 2u);
}

}  // namespace
}  // namespace biot::tangle

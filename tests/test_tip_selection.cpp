// Tip-selection strategies: uniform, weighted MCMC walk, lazy (malicious).
#include <gtest/gtest.h>

#include <map>

#include "tangle/tip_selection.h"
#include "test_util.h"

namespace biot::tangle {
namespace {

using testutil::TxFactory;

class TipSelectionTest : public ::testing::Test {
 protected:
  TipSelectionTest() : tangle_(Tangle::make_genesis()), node_(1), rng_(42) {}

  TxId attach(const TxId& p1, const TxId& p2) {
    const auto tx = node_.make(p1, p2, 2);
    EXPECT_TRUE(tangle_.add(tx, 0.0).is_ok());
    return tx.id();
  }

  Tangle tangle_;
  TxFactory node_;
  Rng rng_;
};

TEST_F(TipSelectionTest, UniformReturnsOnlyTips) {
  const auto g = tangle_.genesis_id();
  const auto a = attach(g, g);
  const auto b = attach(g, g);  // note: g no longer a tip after first attach
  (void)a;
  (void)b;
  UniformRandomTipSelector selector;
  for (int i = 0; i < 50; ++i) {
    const auto [t1, t2] = selector.select(tangle_, rng_);
    EXPECT_TRUE(tangle_.is_tip(t1));
    EXPECT_TRUE(tangle_.is_tip(t2));
  }
}

TEST_F(TipSelectionTest, UniformOnGenesisOnlyReturnsGenesisTwice) {
  UniformRandomTipSelector selector;
  const auto [t1, t2] = selector.select(tangle_, rng_);
  EXPECT_EQ(t1, tangle_.genesis_id());
  EXPECT_EQ(t2, tangle_.genesis_id());
}

TEST_F(TipSelectionTest, UniformCoversAllTips) {
  const auto g = tangle_.genesis_id();
  std::set<TxId> tips;
  for (int i = 0; i < 6; ++i) tips.insert(attach(g, g));
  // After the first attach g is consumed; subsequent attaches of (g,g) are
  // still valid structurally (parents exist) and are all tips.
  UniformRandomTipSelector selector;
  std::set<TxId> seen;
  for (int i = 0; i < 400; ++i) {
    const auto [t1, t2] = selector.select(tangle_, rng_);
    seen.insert(t1);
    seen.insert(t2);
  }
  EXPECT_EQ(seen, tangle_.tips());
}

TEST_F(TipSelectionTest, WeightedWalkReachesATip) {
  const auto g = tangle_.genesis_id();
  auto prev = attach(g, g);
  for (int i = 0; i < 10; ++i) prev = attach(prev, prev);
  WeightedWalkTipSelector selector(0.5);
  const auto [t1, t2] = selector.select(tangle_, rng_);
  EXPECT_TRUE(tangle_.is_tip(t1));
  EXPECT_TRUE(tangle_.is_tip(t2));
}

TEST_F(TipSelectionTest, HighAlphaWalkPrefersHeavyBranch) {
  // Build a heavy chain and a single light side-tip off genesis.
  const auto g = tangle_.genesis_id();
  auto heavy = attach(g, g);
  const auto light = attach(g, g);  // stays a tip, weight 1
  for (int i = 0; i < 12; ++i) heavy = attach(heavy, heavy);

  WeightedWalkTipSelector selector(5.0);
  int heavy_hits = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const auto [t1, t2] = selector.select(tangle_, rng_);
    if (t1 == heavy) ++heavy_hits;
    if (t2 == heavy) ++heavy_hits;
    EXPECT_TRUE(t1 == heavy || t1 == light);
  }
  // With alpha = 5 and a weight gap of ~13 the walk should essentially
  // always leave genesis toward the heavy branch.
  EXPECT_GT(heavy_hits, 2 * trials * 9 / 10);
}

TEST_F(TipSelectionTest, ZeroAlphaWalkSplitsRoughlyEvenly) {
  // Two equal-weight branches off genesis.
  const auto g = tangle_.genesis_id();
  auto left = attach(g, g);
  auto right = attach(g, g);
  for (int i = 0; i < 5; ++i) {
    left = attach(left, left);
    right = attach(right, right);
  }

  WeightedWalkTipSelector selector(0.0);
  int left_hits = 0;
  const int trials = 500;
  for (int i = 0; i < trials; ++i) {
    const auto [t1, t2] = selector.select(tangle_, rng_);
    if (t1 == left) ++left_hits;
    if (t2 == left) ++left_hits;
  }
  const double frac = static_cast<double>(left_hits) / (2 * trials);
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.65);
}

TEST_F(TipSelectionTest, WalkStarvesLazyTipOnADeepTangle) {
  // A lazy tx off genesis, then an honest ladder: two txs per level, each
  // approving both txs of the level below, so the number of paths doubles
  // per level. Weights that counted paths overflowed to inf near level 1024;
  // exp(alpha * (inf - inf)) is NaN and every pick fell to approvers[0], the
  // lazy tip. Capped weights stay finite at any depth.
  const auto g = tangle_.genesis_id();
  const auto lazy = attach(g, g);
  TxId below1 = g;
  TxId below2 = g;
  for (int level = 0; level < 1100; ++level) {
    const auto a = node_.make(below1, below2, 1);
    const auto b = node_.make(below1, below2, 1);
    ASSERT_TRUE(tangle_.add(a, 0.0, VerifiedToken::assume_valid(a)).is_ok());
    ASSERT_TRUE(tangle_.add(b, 0.0, VerifiedToken::assume_valid(b)).is_ok());
    below1 = a.id();
    below2 = b.id();
  }

  WeightedWalkTipSelector selector(0.5);
  for (int i = 0; i < 20; ++i) {
    const auto [t1, t2] = selector.select(tangle_, rng_);
    EXPECT_NE(t1, lazy);
    EXPECT_NE(t2, lazy);
  }
}

TEST_F(TipSelectionTest, LazySelectorIgnoresFreshTips) {
  const auto g = tangle_.genesis_id();
  const auto old1 = attach(g, g);
  const auto old2 = attach(g, g);
  for (int i = 0; i < 5; ++i) attach(old1, old2);

  LazyTipSelector selector(old1, old2);
  const auto [t1, t2] = selector.select(tangle_, rng_);
  EXPECT_EQ(t1, old1);
  EXPECT_EQ(t2, old2);
  EXPECT_FALSE(tangle_.is_tip(t1));
}

TEST_F(TipSelectionTest, SelectionIsDeterministicGivenSeed) {
  const auto g = tangle_.genesis_id();
  for (int i = 0; i < 5; ++i) attach(g, g);
  UniformRandomTipSelector selector;
  Rng r1(7), r2(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(selector.select(tangle_, r1), selector.select(tangle_, r2));
  }
}

}  // namespace
}  // namespace biot::tangle

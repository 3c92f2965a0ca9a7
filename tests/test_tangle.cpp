// Tangle substrate tests: transaction encoding/signing/PoW, DAG invariants,
// tip tracking, capped weights and confirmation.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "tangle/tangle.h"
#include "test_util.h"

namespace biot::tangle {
namespace {

using testutil::TxFactory;

class TangleTest : public ::testing::Test {
 protected:
  TangleTest() : tangle_(Tangle::make_genesis()), alice_(1), bob_(2) {}

  // Under BIOT_AUDIT=1 (sanitizer CI) every test ends with a full
  // invariant audit of whatever DAG it built.
  void TearDown() override { testutil::audit_if_enabled(tangle_); }

  Transaction attach(TxFactory& who, const TxId& p1, const TxId& p2,
                     TimePoint t = 0.0) {
    auto tx = who.make(p1, p2, 4, {}, t);
    EXPECT_TRUE(tangle_.add(tx, t).is_ok());
    return tx;
  }

  Tangle tangle_;
  TxFactory alice_;
  TxFactory bob_;
};

// ---- Transaction encoding ---------------------------------------------------

TEST_F(TangleTest, TransactionEncodeDecodeRoundTrip) {
  auto tx = alice_.make(tangle_.genesis_id(), tangle_.genesis_id(), 4,
                        to_bytes("reading 42"), 1.5);
  const auto decoded = Transaction::decode(tx.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded.value(), tx);
  EXPECT_EQ(decoded.value().id(), tx.id());
}

TEST_F(TangleTest, TransferEncodeDecodeRoundTrip) {
  auto tx = alice_.make_transfer(tangle_.genesis_id(), tangle_.genesis_id(),
                                 bob_.key(), 250);
  const auto decoded = Transaction::decode(tx.encode());
  ASSERT_TRUE(decoded);
  ASSERT_TRUE(decoded.value().transfer.has_value());
  EXPECT_EQ(decoded.value().transfer->amount, 250u);
  EXPECT_EQ(decoded.value().transfer->to, bob_.key());
}

TEST_F(TangleTest, DecodeRejectsTruncatedAndTrailing) {
  auto tx = alice_.make(tangle_.genesis_id(), tangle_.genesis_id());
  Bytes wire = tx.encode();
  EXPECT_FALSE(Transaction::decode(ByteView{wire.data(), wire.size() - 1}));
  wire.push_back(0);
  EXPECT_FALSE(Transaction::decode(wire));
}

TEST_F(TangleTest, DecodeRejectsBadTypeAndFlags) {
  auto tx = alice_.make(tangle_.genesis_id(), tangle_.genesis_id());
  Bytes wire = tx.encode();
  wire[0] = 99;  // type byte
  EXPECT_FALSE(Transaction::decode(wire));
}

TEST_F(TangleTest, SignatureCoversPayload) {
  auto tx = alice_.make(tangle_.genesis_id(), tangle_.genesis_id(), 4,
                        to_bytes("original"));
  EXPECT_TRUE(tx.signature_valid());
  tx.payload = to_bytes("tampered!");
  EXPECT_FALSE(tx.signature_valid());
}

TEST_F(TangleTest, IdChangesWithAnyField) {
  auto tx = alice_.make(tangle_.genesis_id(), tangle_.genesis_id());
  const auto id1 = tx.id();
  tx.sequence += 1;
  EXPECT_NE(tx.id(), id1);
}

// ---- PoW (Eqn 6) --------------------------------------------------------------

TEST(Pow, OutputMatchesManualHash) {
  const TxId p1 = crypto::Sha256::hash(to_bytes("p1"));
  const TxId p2 = crypto::Sha256::hash(to_bytes("p2"));
  std::uint8_t nonce_le[8] = {0x2a, 0, 0, 0, 0, 0, 0, 0};
  const auto expect =
      crypto::Sha256::hash_concat({p1.view(), p2.view(), ByteView{nonce_le, 8}});
  EXPECT_EQ(pow_output(p1, p2, 42), expect);
}

TEST(Pow, LeadingZeroBits) {
  crypto::Sha256Digest d{};  // all zero
  EXPECT_EQ(leading_zero_bits(d), 256);
  d[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(d), 0);
  d[0] = 0x01;
  EXPECT_EQ(leading_zero_bits(d), 7);
  d[0] = 0x00;
  d[1] = 0x10;
  EXPECT_EQ(leading_zero_bits(d), 11);
}

TEST(Pow, ValidityRespectsDifficulty) {
  TxFactory alice(1);
  const TxId g{};
  auto tx = alice.make(g, g, 10);
  EXPECT_TRUE(pow_valid(tx));
  tx.difficulty = 40;  // same nonce, far harder target
  EXPECT_FALSE(pow_valid(tx));
}

// ---- Tangle DAG ----------------------------------------------------------------

TEST_F(TangleTest, GenesisIsInitialTip) {
  EXPECT_EQ(tangle_.size(), 1u);
  EXPECT_TRUE(tangle_.is_tip(tangle_.genesis_id()));
}

TEST_F(TangleTest, AddMovesTipSet) {
  const auto g = tangle_.genesis_id();
  const auto tx = attach(alice_, g, g);
  EXPECT_FALSE(tangle_.is_tip(g));
  EXPECT_TRUE(tangle_.is_tip(tx.id()));
  EXPECT_EQ(tangle_.tips().size(), 1u);
}

TEST_F(TangleTest, TwoChildrenBothTips) {
  const auto g = tangle_.genesis_id();
  const auto a = attach(alice_, g, g);
  const auto b = attach(bob_, g, g);
  EXPECT_TRUE(tangle_.is_tip(a.id()));
  EXPECT_TRUE(tangle_.is_tip(b.id()));
  EXPECT_EQ(tangle_.tips().size(), 2u);
}

TEST_F(TangleTest, RejectsDuplicate) {
  const auto g = tangle_.genesis_id();
  auto tx = alice_.make(g, g);
  EXPECT_TRUE(tangle_.add(tx, 0.0).is_ok());
  const auto again = tangle_.add(tx, 0.0);
  EXPECT_EQ(again.code(), ErrorCode::kRejected);
}

TEST_F(TangleTest, RejectsUnknownParent) {
  TxId bogus{};
  bogus[0] = 0xff;
  auto tx = alice_.make(bogus, bogus);
  EXPECT_EQ(tangle_.add(tx, 0.0).code(), ErrorCode::kNotFound);
}

TEST_F(TangleTest, RejectsBadSignature) {
  const auto g = tangle_.genesis_id();
  auto tx = alice_.make(g, g);
  tx.payload = to_bytes("mutated after signing");
  EXPECT_EQ(tangle_.add(tx, 0.0).code(), ErrorCode::kVerifyFailed);
}

TEST_F(TangleTest, RejectsInsufficientPow) {
  const auto g = tangle_.genesis_id();
  auto tx = alice_.make(g, g, 4);
  tx.difficulty = 60;                       // claim far more than mined
  tx.signature = alice_.identity().sign(tx.signing_bytes());
  EXPECT_EQ(tangle_.add(tx, 0.0).code(), ErrorCode::kPowInvalid);
}

TEST_F(TangleTest, RejectsZeroDifficulty) {
  const auto g = tangle_.genesis_id();
  auto tx = alice_.make(g, g, 1);
  tx.difficulty = 0;
  alice_.finalize(tx);
  EXPECT_EQ(tangle_.add(tx, 0.0).code(), ErrorCode::kPowInvalid);
}

TEST_F(TangleTest, RejectsSecondGenesis) {
  EXPECT_EQ(tangle_.add(Tangle::make_genesis(1.0), 0.0).code(),
            ErrorCode::kRejected);
}

TEST_F(TangleTest, SelfParentPairCountsOnce) {
  const auto g = tangle_.genesis_id();
  const auto tx = attach(alice_, g, g);
  (void)tx;
  EXPECT_EQ(tangle_.approver_count(g), 1u);
}

TEST_F(TangleTest, CumulativeWeightCountsDescendants) {
  const auto g = tangle_.genesis_id();
  const auto a = attach(alice_, g, g);
  const auto b = attach(bob_, a.id(), g);
  const auto c = attach(alice_, b.id(), a.id());
  // genesis is approved by everything; a cap above the size reads exactly.
  EXPECT_EQ(tangle_.weight_at_least(g, 10), 4u);
  EXPECT_EQ(tangle_.weight_at_least(a.id(), 10), 3u);
  EXPECT_EQ(tangle_.weight_at_least(b.id(), 10), 2u);
  EXPECT_EQ(tangle_.weight_at_least(c.id(), 10), 1u);
  // A lower cap saturates.
  EXPECT_EQ(tangle_.weight_at_least(g, 2), 2u);
}

TEST_F(TangleTest, CumulativeWeightNoDoubleCountOnDiamond) {
  // a <- b, a <- c, (b,c) <- d : weight(a) must count d once.
  const auto g = tangle_.genesis_id();
  const auto a = attach(alice_, g, g);
  const auto b = attach(bob_, a.id(), a.id());
  const auto c = attach(alice_, a.id(), a.id());
  const auto d = attach(bob_, b.id(), c.id());
  (void)d;
  EXPECT_EQ(tangle_.weight_at_least(a.id(), 10), 4u);
}

TEST_F(TangleTest, ConfirmationThreshold) {
  const auto g = tangle_.genesis_id();
  const auto a = attach(alice_, g, g);
  EXPECT_LT(tangle_.weight_at_least(a.id(), 3), 3u);
  const auto b = attach(bob_, a.id(), a.id());
  const auto c = attach(alice_, b.id(), a.id());
  (void)c;
  EXPECT_EQ(tangle_.weight_at_least(a.id(), 3), 3u);
}

TEST_F(TangleTest, ArrivalOrderIsInsertionOrder) {
  const auto g = tangle_.genesis_id();
  const auto a = attach(alice_, g, g);
  const auto b = attach(bob_, a.id(), g);
  ASSERT_EQ(tangle_.arrival_order().size(), 3u);
  EXPECT_EQ(tangle_.arrival_order()[0], g);
  EXPECT_EQ(tangle_.arrival_order()[1], a.id());
  EXPECT_EQ(tangle_.arrival_order()[2], b.id());
}

// Property sweep: a random tangle stays structurally consistent.
class TangleGrowthTest : public ::testing::TestWithParam<int> {};

TEST_P(TangleGrowthTest, InvariantsHoldUnderRandomGrowth) {
  Tangle tangle(Tangle::make_genesis());
  TxFactory node(GetParam());
  Rng rng(GetParam());

  for (int i = 0; i < 60; ++i) {
    // Pick two random known transactions as parents.
    const auto& order = tangle.arrival_order();
    const auto& p1 = order[rng.index(order.size())];
    const auto& p2 = order[rng.index(order.size())];
    const auto tx = node.make(p1, p2, 2, {}, 0.1 * i);
    ASSERT_TRUE(tangle.add(tx, 0.1 * i).is_ok());
  }

  EXPECT_EQ(tangle.size(), 61u);
  // Tip invariant: a tip has no approvers; a non-tip has at least one.
  for (const auto& id : tangle.arrival_order()) {
    if (tangle.is_tip(id)) {
      EXPECT_EQ(tangle.approver_count(id), 0u);
    } else {
      EXPECT_GE(tangle.approver_count(id), 1u);
    }
  }
  // Genesis dominates: its cumulative weight counts every transaction.
  const std::size_t all = tangle.size();
  EXPECT_EQ(tangle.weight_at_least(tangle.genesis_id(), all), all);
  // Weight antisymmetry: child weight strictly below parent weight when the
  // child approves the parent.
  const auto& some_tip = *tangle.tips().begin();
  EXPECT_LT(tangle.weight_at_least(some_tip, all),
            tangle.weight_at_least(tangle.genesis_id(), all));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TangleGrowthTest, ::testing::Values(1, 2, 3, 7, 11));

}  // namespace
}  // namespace biot::tangle

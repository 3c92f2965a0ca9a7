// Invariant-auditor tests (tangle/audit.h): a clean tangle audits clean,
// and every class of deliberate corruption — secondary indexes, order
// positions, anti-entropy summaries, tip set, ledger/credit conservation —
// is detected and named in the report. The negative tests are what prove
// the audit gate actually gates: a checker that cannot see seeded damage
// would pass every CI run vacuously.
#include <gtest/gtest.h>

#include <algorithm>

#include "tangle/audit.h"
#include "tangle/tangle.h"
#include "test_util.h"

namespace biot::tangle {

// Test-only backdoor (friend of Tangle) used to damage internal state that
// the public API rightly refuses to expose mutably.
struct TangleTestAccess {
  static void corrupt_order_pos(Tangle& t, const TxId& id) {
    t.records_.at(id).order_pos += 1;
  }
  static void drop_last_sender_entry(Tangle& t, const AccountKey& sender) {
    t.by_sender_.at(sender).pop_back();
  }
  static void swap_arrival_entries(Tangle& t) {
    ASSERT_GE(t.by_arrival_.size(), 2u);
    // First and last have strictly different arrivals in the fixture DAG,
    // so the swap genuinely breaks the sorted-by-arrival invariant.
    std::swap(t.by_arrival_.front(), t.by_arrival_.back());
  }
  static void corrupt_digest(Tangle& t) { t.id_digest_.value[0] ^= 0xff; }
  static void corrupt_sketch(Tangle& t) {
    TxId bogus{};
    bogus[0] = 0xab;
    t.id_sketch_.toggle(bogus);
  }
  static void insert_fake_tip(Tangle& t, const TxId& id) {
    t.tips_.insert(id);
  }
};

namespace {

using testutil::TxFactory;

bool has_violation(const AuditReport& report, std::string_view check) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const AuditViolation& v) { return v.check == check; });
}

class AuditTest : public ::testing::Test {
 protected:
  AuditTest() : tangle_(Tangle::make_genesis()), alice_(1), bob_(2) {
    // A small DAG with diamonds, two senders and a spread of arrivals:
    // enough structure that every audited index/invariant is non-trivial.
    TxId prev1 = tangle_.genesis_id();
    TxId prev2 = tangle_.genesis_id();
    for (int i = 0; i < 8; ++i) {
      TxFactory& who = (i % 2 != 0) ? bob_ : alice_;
      auto tx = who.make(prev1, prev2, 4, {}, 0.5 * i);
      EXPECT_TRUE(tangle_.add(tx, 0.5 * i).is_ok());
      prev2 = prev1;
      prev1 = tx.id();
    }
  }

  const TxId& mid_id() const { return tangle_.arrival_order()[4]; }

  Tangle tangle_;
  TxFactory alice_;
  TxFactory bob_;
};

TEST_F(AuditTest, CleanTangleAuditsClean) {
  const auto report = audit(tangle_);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.checks_run, 50u);
  EXPECT_EQ(report.to_string().substr(0, 8), "audit ok");
}

TEST_F(AuditTest, DetectsCorruptedOrderPos) {
  TangleTestAccess::corrupt_order_pos(tangle_, mid_id());
  EXPECT_TRUE(has_violation(audit(tangle_), "order.pos"));
}

TEST_F(AuditTest, DetectsDroppedSenderIndexEntry) {
  TangleTestAccess::drop_last_sender_entry(tangle_, alice_.key());
  EXPECT_TRUE(has_violation(audit(tangle_), "index.sender"));
}

TEST_F(AuditTest, DetectsUnsortedArrivalIndex) {
  TangleTestAccess::swap_arrival_entries(tangle_);
  EXPECT_TRUE(has_violation(audit(tangle_), "index.sorted"));
}

TEST_F(AuditTest, DetectsCorruptedDigest) {
  TangleTestAccess::corrupt_digest(tangle_);
  EXPECT_TRUE(has_violation(audit(tangle_), "summary.digest"));
}

TEST_F(AuditTest, DetectsCorruptedSketch) {
  TangleTestAccess::corrupt_sketch(tangle_);
  EXPECT_TRUE(has_violation(audit(tangle_), "summary.sketch"));
}

TEST_F(AuditTest, DetectsFakeTip) {
  TangleTestAccess::insert_fake_tip(tangle_, tangle_.genesis_id());
  EXPECT_TRUE(has_violation(audit(tangle_), "tips.set"));
}

TEST_F(AuditTest, ReportNamesTheOffendingTransaction) {
  TangleTestAccess::corrupt_order_pos(tangle_, mid_id());
  const auto report = audit(tangle_);
  ASSERT_FALSE(report.ok());
  // The detail must identify the transaction so the report is actionable.
  EXPECT_NE(report.to_string().find(mid_id().hex().substr(0, 12)),
            std::string::npos);
}

TEST_F(AuditTest, LedgerConservationViolationDetected) {
  Ledger ledger;
  ledger.credit(alice_.key(), 100);
  AuditInputs inputs;
  inputs.ledger = &ledger;
  inputs.expected_supply = 100;
  EXPECT_TRUE(audit(tangle_, inputs).ok());
  inputs.expected_supply = 50;  // claim half the tokens were never minted
  EXPECT_TRUE(has_violation(audit(tangle_, inputs), "ledger.conservation"));
}

TEST_F(AuditTest, CreditActivityViolationDetected) {
  AuditInputs inputs;
  // Credit claiming more valid transactions than the account ever attached.
  inputs.credit_valid_tx_count = [](const AccountKey&) {
    return std::size_t{1000};
  };
  EXPECT_TRUE(has_violation(audit(tangle_, inputs), "credit.activity"));
}

}  // namespace
}  // namespace biot::tangle

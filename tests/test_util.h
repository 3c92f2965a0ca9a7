// Shared helpers for building valid (signed + mined) transactions in tests,
// plus the invariant-audit hooks (tangle/audit.h) the suites call at the end
// of scenario-building tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>

#include "consensus/pow.h"
#include "crypto/identity.h"
#include "tangle/audit.h"
#include "tangle/transaction.h"

namespace biot::testutil {

/// Runs the invariant auditor and fails the calling test on any violation.
/// Integration/restore suites call this unconditionally on every tangle
/// they build — an admission-path regression that corrupts incremental
/// state surfaces here even if no assertion looked at the damaged field.
inline void expect_audit_clean(const tangle::Tangle& tangle,
                               const tangle::AuditInputs& inputs = {}) {
  const auto report = tangle::audit(tangle, inputs);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

/// True when BIOT_AUDIT=1 (exported by the sanitizer CI jobs).
inline bool audit_env_enabled() {
  const char* value = std::getenv("BIOT_AUDIT");
  return value != nullptr && value[0] == '1';
}

/// Opt-in audit for the broader suites: the O(n log n) sweep only runs when
/// BIOT_AUDIT=1, so routine local runs stay fast while the sanitizer CI
/// jobs audit every tangle these call sites build.
inline void audit_if_enabled(const tangle::Tangle& tangle) {
  if (audit_env_enabled()) expect_audit_clean(tangle);
}

/// Builds correctly signed and mined transactions for one sender.
class TxFactory {
 public:
  explicit TxFactory(std::uint64_t identity_seed,
                     std::uint64_t nonce_offset = 0)
      : identity_(crypto::Identity::deterministic(identity_seed)),
        miner_(nonce_offset) {}

  const crypto::Identity& identity() const { return identity_; }
  crypto::Ed25519PublicKey key() const {
    return identity_.public_identity().sign_key;
  }
  std::uint64_t next_sequence() const { return sequence_; }

  tangle::Transaction make(const tangle::TxId& p1, const tangle::TxId& p2,
                           int difficulty = 4, Bytes payload = {},
                           TimePoint timestamp = 0.0) {
    tangle::Transaction tx;
    tx.type = tangle::TxType::kData;
    tx.sender = key();
    tx.parent1 = p1;
    tx.parent2 = p2;
    tx.sequence = sequence_++;
    tx.timestamp = timestamp;
    tx.difficulty = static_cast<std::uint8_t>(difficulty);
    tx.payload = std::move(payload);
    finalize(tx);
    return tx;
  }

  tangle::Transaction make_transfer(const tangle::TxId& p1,
                                    const tangle::TxId& p2,
                                    const tangle::AccountKey& to,
                                    std::uint64_t amount, int difficulty = 4) {
    auto tx = make(p1, p2, difficulty);
    tx.type = tangle::TxType::kTransfer;
    tx.transfer = tangle::Transfer{to, amount};
    finalize(tx);
    return tx;
  }

  /// Re-mines and re-signs after the caller mutated fields.
  void finalize(tangle::Transaction& tx) {
    const auto mined = miner_.mine(tx.parent1, tx.parent2, tx.difficulty);
    tx.nonce = mined->nonce;
    tx.signature = identity_.sign(tx.signing_bytes());
  }

 private:
  crypto::Identity identity_;
  consensus::Miner miner_;
  std::uint64_t sequence_ = 0;
};

}  // namespace biot::testutil

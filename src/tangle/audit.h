// Runtime invariant auditor for a tangle replica (DESIGN.md section 9).
//
// The tangle's derived state is folded in per transaction by `add` — the
// approver lists, tip set, arrival positions, secondary indexes and the
// anti-entropy summaries — and the brute-force reference implementations
// that state must agree with are only exercised by property tests. `audit`
// turns that agreement into a runtime check that can be run against any
// live or restored replica: it cross-validates the incremental state
// against from-scratch recomputation and returns a structured report of
// every violation instead of asserting, so callers (tests, `biot_inspect
// --audit`, the BIOT_AUDIT=1 CI fixture) decide how to fail. The whole
// audit is read-only and uses only the public Tangle API; it walks no
// approver cones, so cost is O(n log n) in the size of the replica.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "tangle/ledger.h"
#include "tangle/tangle.h"

namespace biot::tangle {

/// One broken invariant. `check` is a stable machine-grepable id
/// ("order.pos", "index.sender", ...); `detail` names the exact
/// transaction / index slot so the report is actionable on its own.
struct AuditViolation {
  std::string check;
  std::string detail;
};

struct AuditReport {
  std::size_t checks_run = 0;  // individual comparisons performed
  std::vector<AuditViolation> violations;

  bool ok() const { return violations.empty(); }
  /// Multi-line human summary ("audit ok (N checks)" or one line per
  /// violation) for CLI output and test failure messages.
  std::string to_string() const;
};

/// Optional cross-subsystem inputs. The structural tangle checks always
/// run; these add the conservation checks that need state the tangle does
/// not own.
struct AuditInputs {
  /// When set, the ledger's total balance must equal `expected_supply`
  /// (transfers move tokens, they never mint or burn — so the sum of all
  /// balances must still be exactly what Ledger::credit seeded).
  const Ledger* ledger = nullptr;
  std::optional<std::uint64_t> expected_supply;

  /// When set, returns the number of *valid* transactions the credit model
  /// has recorded for an account. Credit only ever records transactions
  /// that attached, and windows only shrink the record, so the count can
  /// never exceed the account's transactions in the tangle. (Leave unset
  /// for pruned replicas — credit legitimately outlives archived history.)
  std::function<std::size_t(const AccountKey&)> credit_valid_tx_count;
};

/// Cross-validates every incremental structure of `tangle` (and, when
/// provided, ledger/credit conservation) against brute-force recomputation:
///   - order/order_pos: arrival_order covers each record exactly once and
///     positions match;
///   - parents are stored records and approver lists agree with the txs;
///   - tip set == { transactions with no approvers };
///   - secondary indexes (sender/type/arrival) are arrival-sorted and in
///     exact bijection with the transaction map; senders_first_seen is
///     duplicate-free and complete;
///   - XOR id-digest and SetSketch reproduce from scratch;
///   - ledger/credit conservation per AuditInputs.
AuditReport audit(const Tangle& tangle, const AuditInputs& inputs = {});

}  // namespace biot::tangle

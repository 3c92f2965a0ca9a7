#include "tangle/audit.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "tangle/reconcile.h"

namespace biot::tangle {

namespace {

std::string short_id(const TxId& id) { return id.hex().substr(0, 12); }

std::string short_key(const AccountKey& key) {
  return key.hex().substr(0, 12);
}

class Auditor {
 public:
  explicit Auditor(const Tangle& tangle, const AuditInputs& inputs)
      : tangle_(tangle), inputs_(inputs) {}

  AuditReport run() {
    check_order();
    check_parents_and_approvers();
    check_tips();
    check_indexes();
    check_summaries();
    check_ledger();
    check_credit();
    return std::move(report_);
  }

 private:
  void fail(std::string check, std::string detail) {
    report_.violations.push_back({std::move(check), std::move(detail)});
  }
  void expect(bool ok, const char* check, const std::string& detail) {
    ++report_.checks_run;
    if (!ok) fail(check, detail);
  }

  // arrival_order() must enumerate every record exactly once, with
  // order_pos matching the position — the sync path ships "parents before
  // children" purely by sorting on order_pos.
  void check_order() {
    const auto& order = tangle_.arrival_order();
    expect(order.size() == tangle_.size(), "order.size",
           "arrival_order has " + std::to_string(order.size()) +
               " ids, record map has " + std::to_string(tangle_.size()));
    std::unordered_set<TxId, FixedBytesHash<32>> seen;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto& id = order[i];
      expect(seen.insert(id).second, "order.duplicate",
             "id " + short_id(id) + " appears twice in arrival_order");
      const TxRecord* rec = tangle_.find(id);
      expect(rec != nullptr, "order.unknown",
             "arrival_order[" + std::to_string(i) + "] = " + short_id(id) +
                 " is not in the record map");
      if (rec == nullptr) continue;
      expect(rec->order_pos == i, "order.pos",
             "tx " + short_id(id) + " order_pos " +
                 std::to_string(rec->order_pos) + " != position " +
                 std::to_string(i));
    }
  }

  // Every non-genesis parent must be a stored record, and the approver
  // lists must be the exact inverse of the parent edges.
  void check_parents_and_approvers() {
    std::unordered_map<TxId, std::vector<TxId>, FixedBytesHash<32>> approvers;
    for (const auto& id : tangle_.arrival_order()) {
      const TxRecord* rec = tangle_.find(id);
      if (rec == nullptr) continue;  // reported by check_order
      if (id == tangle_.genesis_id()) continue;
      expect(tangle_.contains(rec->tx.parent1) && tangle_.contains(rec->tx.parent2),
             "parents.unknown",
             "tx " + short_id(id) + " has a parent not in the tangle");
      approvers[rec->tx.parent1].push_back(id);
      if (rec->tx.parent2 != rec->tx.parent1)
        approvers[rec->tx.parent2].push_back(id);
    }
    for (const auto& id : tangle_.arrival_order()) {
      const TxRecord* rec = tangle_.find(id);
      if (rec == nullptr) continue;
      auto want = approvers[id];
      auto have = rec->approvers;
      std::sort(want.begin(), want.end());
      std::sort(have.begin(), have.end());
      expect(want == have, "approvers.mismatch",
             "tx " + short_id(id) + " approver list (" +
                 std::to_string(have.size()) +
                 ") != recomputed from parent edges (" +
                 std::to_string(want.size()) + ")");
    }
  }

  void check_tips() {
    std::set<TxId> want;
    for (const auto& id : tangle_.arrival_order()) {
      const TxRecord* rec = tangle_.find(id);
      if (rec != nullptr && rec->approvers.empty()) want.insert(id);
    }
    expect(tangle_.tips() == want, "tips.set",
           "tip set has " + std::to_string(tangle_.tips().size()) +
               " ids, recomputed approver-free set has " +
               std::to_string(want.size()));
  }

  void check_index_vector(const std::vector<IndexEntry>& index,
                          const char* name) {
    for (std::size_t i = 1; i < index.size(); ++i)
      expect(index[i - 1].arrival <= index[i].arrival, "index.sorted",
             std::string(name) + " index out of arrival order at entry " +
                 std::to_string(i));
    for (const auto& entry : index) {
      const TxRecord* rec = tangle_.find(entry.id);
      expect(rec != nullptr, "index.unknown",
             std::string(name) + " index references unknown tx " +
                 short_id(entry.id));
      if (rec == nullptr) continue;
      expect(entry.arrival == rec->arrival && entry.type == rec->tx.type,
             "index.entry",
             std::string(name) + " index entry for " + short_id(entry.id) +
                 " disagrees with the record (arrival/type)");
    }
  }

  void check_indexes() {
    // Recompute the per-sender / per-type partition of the record map.
    std::unordered_map<AccountKey, std::size_t, FixedBytesHash<32>> by_sender;
    std::unordered_map<std::uint8_t, std::size_t> by_type;
    std::vector<AccountKey> first_seen;
    for (const auto& id : tangle_.arrival_order()) {
      const TxRecord* rec = tangle_.find(id);
      if (rec == nullptr) continue;
      if (by_sender[rec->tx.sender]++ == 0)
        first_seen.push_back(rec->tx.sender);
      ++by_type[static_cast<std::uint8_t>(rec->tx.type)];
    }

    expect(tangle_.senders_first_seen() == first_seen, "index.first_seen",
           "senders_first_seen (" +
               std::to_string(tangle_.senders_first_seen().size()) +
               ") != recomputed first-touch order (" +
               std::to_string(first_seen.size()) + ")");

    for (const auto& [sender, count] : by_sender) {
      const auto& index = tangle_.sender_index(sender);
      expect(index.size() == count, "index.sender",
             "sender " + short_key(sender) + " index has " +
                 std::to_string(index.size()) + " entries, record map has " +
                 std::to_string(count));
      check_index_vector(index, "sender");
      for (const auto& entry : index) {
        const TxRecord* rec = tangle_.find(entry.id);
        if (rec != nullptr)
          expect(rec->tx.sender == sender, "index.sender",
                 "sender index for " + short_key(sender) +
                     " contains foreign tx " + short_id(entry.id));
      }
    }

    for (const auto& [type, count] : by_type) {
      const auto& index = tangle_.type_index(static_cast<TxType>(type));
      expect(index.size() == count, "index.type",
             "type " + std::to_string(type) + " index has " +
                 std::to_string(index.size()) +
                 " entries, record map has " + std::to_string(count));
      check_index_vector(index, "type");
    }

    expect(tangle_.arrival_index().size() == tangle_.size(), "index.arrival",
           "arrival index has " +
               std::to_string(tangle_.arrival_index().size()) +
               " entries, record map has " + std::to_string(tangle_.size()));
    check_index_vector(tangle_.arrival_index(), "arrival");
  }

  // The anti-entropy summaries must be reproducible from the id set alone —
  // a replica whose digest/sketch drifted would silently stop syncing
  // (equal-digest fast path) or decode wrong diffs.
  void check_summaries() {
    IdDigest digest;
    SetSketch sketch;
    for (const auto& id : tangle_.arrival_order()) {
      digest.toggle(id);
      sketch.toggle(id);
    }
    expect(digest == tangle_.id_digest(), "summary.digest",
           "XOR id-digest does not reproduce from the id set");
    expect(sketch == tangle_.id_sketch(), "summary.sketch",
           "SetSketch does not reproduce from the id set");
  }

  void check_ledger() {
    if (inputs_.ledger == nullptr || !inputs_.expected_supply.has_value())
      return;
    const std::uint64_t total = inputs_.ledger->total_balance();
    expect(total == *inputs_.expected_supply, "ledger.conservation",
           "ledger total balance " + std::to_string(total) +
               " != seeded supply " +
               std::to_string(*inputs_.expected_supply));
  }

  void check_credit() {
    if (!inputs_.credit_valid_tx_count) return;
    for (const auto& sender : tangle_.senders_first_seen()) {
      const std::size_t recorded = inputs_.credit_valid_tx_count(sender);
      const std::size_t in_tangle = tangle_.sender_index(sender).size();
      expect(recorded <= in_tangle, "credit.activity",
             "account " + short_key(sender) + " has " +
                 std::to_string(recorded) +
                 " recorded valid txs but only " +
                 std::to_string(in_tangle) + " transactions in the tangle");
    }
  }

  const Tangle& tangle_;
  const AuditInputs& inputs_;
  AuditReport report_;
};

}  // namespace

std::string AuditReport::to_string() const {
  if (ok())
    return "audit ok (" + std::to_string(checks_run) + " checks)";
  std::string out = "audit FAILED: " + std::to_string(violations.size()) +
                    " violation(s) in " + std::to_string(checks_run) +
                    " checks";
  for (const auto& v : violations) out += "\n  [" + v.check + "] " + v.detail;
  return out;
}

AuditReport audit(const Tangle& tangle, const AuditInputs& inputs) {
  return Auditor(tangle, inputs).run();
}

}  // namespace biot::tangle

#include "tangle/tangle.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

namespace biot::tangle {

Transaction Tangle::make_genesis(TimePoint timestamp) {
  Transaction g;
  g.type = TxType::kGenesis;
  g.timestamp = timestamp;
  // Self-parented sentinel: both parents are the all-zero id.
  return g;
}

Tangle::Tangle(const Transaction& genesis) {
  if (genesis.type != TxType::kGenesis)
    throw std::invalid_argument("Tangle: constructor requires a genesis tx");
  genesis_id_ = genesis.id();
  records_.emplace(genesis_id_, TxRecord{genesis, genesis.timestamp, {}});
  tips_.insert(genesis_id_);
  order_.push_back(genesis_id_);
  index_tx(genesis, genesis_id_, genesis.timestamp);
}

Status Tangle::attach_precheck(const Transaction& tx) const {
  if (tx.type == TxType::kGenesis)
    return Status::error(ErrorCode::kRejected, "tangle: duplicate genesis");
  if (records_.contains(tx.id()))
    return Status::error(ErrorCode::kRejected, "tangle: duplicate transaction");
  if (!records_.contains(tx.parent1) || !records_.contains(tx.parent2))
    return Status::error(ErrorCode::kNotFound, "tangle: unknown parent");
  return Status::ok();
}

Status Tangle::add(const Transaction& tx, TimePoint arrival) {
  return add_impl(tx, arrival, /*pre_verified=*/false);
}

Status Tangle::add(const Transaction& tx, TimePoint arrival,
                   const VerifiedToken& token) {
  if (!token.covers(tx.id()))
    return Status::error(ErrorCode::kVerifyFailed,
                         "tangle: verified token does not cover this tx");
  return add_impl(tx, arrival, /*pre_verified=*/true);
}

Status Tangle::AttachBatch::add(const Transaction& tx, TimePoint arrival,
                                const VerifiedToken& token) {
  if (!token.covers(tx.id()))
    return Status::error(ErrorCode::kVerifyFailed,
                         "tangle: verified token does not cover this tx");
  return tangle_.add_impl(tx, arrival, /*pre_verified=*/true, this);
}

void Tangle::AttachBatch::commit() {
  if (pending_.empty()) return;
  for (const auto* rec : pending_)
    tangle_.index_tx(rec->tx, rec->tx.id(), rec->arrival);
  pending_.clear();
}

std::vector<Status> Tangle::attach_batch(
    const std::vector<BatchAttachItem>& items) {
  std::vector<Status> out;
  out.reserve(items.size());
  AttachBatch batch(*this);
  for (const auto& item : items)
    out.push_back(batch.add(*item.tx, item.arrival, *item.token));
  batch.commit();
  return out;
}

Status Tangle::add_impl(const Transaction& tx, TimePoint arrival,
                        bool pre_verified, AttachBatch* batch) {
  if (tx.type == TxType::kGenesis)
    return Status::error(ErrorCode::kRejected, "tangle: duplicate genesis");

  const TxId id = tx.id();
  if (records_.contains(id))
    return Status::error(ErrorCode::kRejected, "tangle: duplicate transaction");

  const auto p1 = records_.find(tx.parent1);
  const auto p2 = records_.find(tx.parent2);
  if (p1 == records_.end() || p2 == records_.end())
    return Status::error(ErrorCode::kNotFound, "tangle: unknown parent");

  if (!pre_verified && !tx.signature_valid())
    return Status::error(ErrorCode::kVerifyFailed, "tangle: bad signature");

  if (tx.difficulty == 0 || !pow_valid(tx))
    return Status::error(ErrorCode::kPowInvalid, "tangle: PoW does not meet difficulty");

  // Before the emplace: a rehash there would invalidate p1/p2.
  p1->second.approvers.push_back(id);
  if (tx.parent2 != tx.parent1) p2->second.approvers.push_back(id);
  TxRecord& new_rec =
      records_.emplace(id, TxRecord{tx, arrival, {}}).first->second;
  new_rec.order_pos = order_.size();

  tips_.erase(tx.parent1);
  tips_.erase(tx.parent2);
  tips_.insert(id);
  order_.push_back(id);
  if (batch == nullptr) {
    index_tx(tx, id, arrival);
  } else {
    // Deferred maintenance: the index entries and summary toggles land in
    // AttachBatch::commit(), in this attach order — the XOR digest/sketch
    // folds are order-independent and insert_sorted sees the same monotone
    // arrivals, so the post-commit state is identical to per-transaction
    // indexing.
    batch->pending_.push_back(&new_rec);
  }
  return Status::ok();
}

void Tangle::insert_sorted(std::vector<IndexEntry>& index, IndexEntry entry) {
  // Arrivals are monotone in normal operation (gateway clock / replay
  // order), so this is an O(1) append; an out-of-order arrival falls back
  // to a positioned insert to keep the sorted-by-arrival invariant.
  if (index.empty() || index.back().arrival <= entry.arrival) {
    index.push_back(entry);
    return;
  }
  const auto at = std::upper_bound(
      index.begin(), index.end(), entry.arrival,
      [](TimePoint t, const IndexEntry& e) { return t < e.arrival; });
  index.insert(at, entry);
}

void Tangle::index_tx(const Transaction& tx, const TxId& id,
                      TimePoint arrival) {
  const IndexEntry entry{id, arrival, tx.type};
  auto [sender_it, first_seen] = by_sender_.try_emplace(tx.sender);
  if (first_seen) senders_first_seen_.push_back(tx.sender);
  insert_sorted(sender_it->second, entry);
  insert_sorted(by_type_[static_cast<std::uint8_t>(tx.type)], entry);
  insert_sorted(by_arrival_, entry);
  id_digest_.toggle(id);
  id_sketch_.toggle(id);
}

const std::vector<IndexEntry>& Tangle::sender_index(
    const AccountKey& sender) const {
  static const std::vector<IndexEntry> kEmpty;
  const auto it = by_sender_.find(sender);
  return it == by_sender_.end() ? kEmpty : it->second;
}

const std::vector<IndexEntry>& Tangle::type_index(TxType type) const {
  static const std::vector<IndexEntry> kEmpty;
  const auto it = by_type_.find(static_cast<std::uint8_t>(type));
  return it == by_type_.end() ? kEmpty : it->second;
}

std::size_t Tangle::first_at_or_after(const std::vector<IndexEntry>& index,
                                      TimePoint since) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), since,
      [](const IndexEntry& e, TimePoint t) { return e.arrival < t; });
  return static_cast<std::size_t>(it - index.begin());
}

std::vector<const TxRecord*> Tangle::data_since(
    const AccountKey* sender, TimePoint since,
    std::size_t max_results) const {
  const auto& index =
      sender != nullptr ? sender_index(*sender) : type_index(TxType::kData);
  std::vector<const TxRecord*> out;
  for (std::size_t i = first_at_or_after(index, since);
       i < index.size() && out.size() < max_results; ++i) {
    if (index[i].type != TxType::kData) continue;  // sender-index skip
    out.push_back(&records_.at(index[i].id));
  }
  return out;
}

std::vector<const TxRecord*> Tangle::data_since_brute_force(
    const AccountKey* sender, TimePoint since,
    std::size_t max_results) const {
  std::vector<const TxRecord*> out;
  for (const auto& id : order_) {
    const auto& rec = records_.at(id);
    if (rec.tx.type != TxType::kData) continue;
    if (rec.arrival < since) continue;
    if (sender != nullptr && rec.tx.sender != *sender) continue;
    out.push_back(&rec);
  }
  // Insertion order and arrival order agree except for out-of-order adds;
  // a stable sort reconciles them (ties keep insertion order, matching the
  // index maintenance rule).
  std::stable_sort(out.begin(), out.end(),
                   [](const TxRecord* a, const TxRecord* b) {
                     return a->arrival < b->arrival;
                   });
  if (out.size() > max_results) out.resize(max_results);
  return out;
}

const TxRecord* Tangle::find(const TxId& id) const {
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

std::size_t Tangle::approver_count(const TxId& id) const {
  const auto* rec = find(id);
  return rec ? rec->approvers.size() : 0;
}

std::size_t Tangle::weight_at_least(const TxId& id, std::size_t cap) const {
  const auto* rec = find(id);
  if (rec == nullptr || cap == 0) return 0;
  // `seen` is both the BFS queue and the dedup set (what keeps diamonds from
  // double-counting). At the small caps the readers use, a linear scan over
  // it is cheaper than hashing, and the reserve means no reallocation.
  std::vector<const TxRecord*> seen;
  seen.reserve(std::min(cap, records_.size()));
  seen.push_back(rec);
  for (std::size_t i = 0; i < seen.size() && seen.size() < cap; ++i) {
    for (const auto& ap : seen[i]->approvers) {
      const auto* child = find(ap);
      if (child == nullptr || std::ranges::find(seen, child) != seen.end()) continue;
      seen.push_back(child);
      if (seen.size() == cap) break;
    }
  }
  return seen.size();
}

std::size_t Tangle::weight_at_least_brute_force(const TxId& id, std::size_t cap) const {
  const auto* rec = find(id);
  if (rec == nullptr) return 0;

  std::unordered_set<TxId, FixedBytesHash<32>> visited;
  std::deque<TxId> frontier{id};
  visited.insert(id);
  while (!frontier.empty()) {
    const TxId cur = frontier.front();
    frontier.pop_front();
    for (const auto& ap : records_.at(cur).approvers) {
      if (visited.insert(ap).second) frontier.push_back(ap);
    }
  }
  return std::min(visited.size(), cap);
}

}  // namespace biot::tangle

// Milestone-based confirmation.
//
// The IOTA network the paper builds on did not rely on cumulative weight
// alone in 2019: a Coordinator issued periodic signed "milestone"
// transactions, and a transaction counted as confirmed once it lay in the
// past cone (ancestor set) of a milestone. We implement both confirmation
// rules — weight threshold (Tangle::weight_at_least) and milestones (this
// header) — and the bench suite compares them.
//
// The tracker is incremental: each observed milestone walks only the not-
// yet-confirmed part of its past cone, so total work over a run is O(V+E).
#pragma once

#include <unordered_set>

#include "tangle/tangle.h"

namespace biot::tangle {

class MilestoneTracker {
 public:
  /// Marks `milestone_id`'s whole past cone (including itself) confirmed.
  /// The id must already be attached to `tangle`. Returns the number of
  /// transactions newly confirmed by this milestone. Re-observing an
  /// already-confirmed milestone is a no-op (returns 0, counts nothing).
  std::size_t observe_milestone(const Tangle& tangle, const TxId& milestone_id);

  bool is_confirmed(const TxId& id) const { return confirmed_.contains(id); }
  std::size_t confirmed_count() const { return confirmed_.size(); }
  std::size_t milestone_count() const { return milestones_; }
  /// Time of the latest observed milestone (for liveness monitoring).
  TimePoint last_milestone_at() const { return last_milestone_at_; }

 private:
  std::unordered_set<TxId, FixedBytesHash<32>> confirmed_;
  std::size_t milestones_ = 0;
  TimePoint last_milestone_at_ = 0.0;
};

}  // namespace biot::tangle

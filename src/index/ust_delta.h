// Delta index layer for online writes (DESIGN.md section 10): the segment
// rectangles of every object written after a base UstTree's epoch, replayed
// from the database change log. A QuerySession whose admission epoch
// postdates the base tree probes base ∪ delta instead of dropping the index:
// delta entries replace the base entries of rewritten objects, so pruning is
// bit-identical to a tree rebuilt at the session's epoch — and therefore (by
// the pruning soundness argument) to the index-free alive-time fallback.
//
// A delta is a per-object list of the same segment entries the base holds:
// compaction (see QueryServer's compaction thread) keeps its depth bounded,
// so probing it beside the base's entry array stays cheap while the base
// carries the bulk of the database.
#pragma once

#include <cstdint>
#include <vector>

#include "index/ust_tree.h"
#include "model/db_snapshot.h"
#include "util/status.h"

namespace ust {

/// \brief Flat index over the objects written after a base tree's epoch.
class UstDelta {
 public:
  /// One written object: its post-write lifetime plus the full set of
  /// segment entries a rebuilt tree would hold for it.
  struct DeltaObject {
    ObjectId object;
    Tic first_tic, last_tic;
    std::vector<UstTree::SegmentEntry> entries;
  };

  /// Empty delta (probing it is a no-op).
  UstDelta() = default;

  /// Build the delta covering db's epoch from a base built at
  /// `base_version`. Requires base_version >= db.delta_floor() (older bases
  /// predate the retained change log; callers drop the index instead).
  /// Fails like a full build would (e.g. contradicting observations).
  static Result<UstDelta> Build(const DbSnapshot& db, uint64_t base_version);

  /// True when `id` was rewritten after the base epoch (its base entries are
  /// stale and this delta carries the replacement).
  bool Contains(ObjectId id) const;

  bool empty() const { return objects_.empty(); }
  /// Number of distinct rewritten objects carried.
  size_t depth() const { return objects_.size(); }

  /// Epoch of the base tree this delta patches.
  uint64_t base_version() const { return base_version_; }
  /// Epoch this delta brings the base up to (the snapshot it was built from).
  uint64_t version() const { return version_; }

  /// Rewritten objects, ascending by id.
  const std::vector<DeltaObject>& objects() const { return objects_; }

 private:
  std::vector<DeltaObject> objects_;
  uint64_t base_version_ = 0;
  uint64_t version_ = 0;
};

}  // namespace ust

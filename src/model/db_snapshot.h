// An immutable epoch view over a TrajectoryDatabase (the storage half of the
// serving tier, DESIGN.md section 5): the object table as it existed when the
// snapshot was taken, pinned to that epoch's version counter. Writers keep
// appending to (and copy-on-write replacing in) the live database; every
// reader that admitted against epoch k keeps seeing exactly epoch k.
//
// A snapshot is a small value (two shared_ptrs plus the version): copying one
// is O(1), and the object table it points at is never mutated, so reading a
// snapshot is safe concurrently with live *writers* (AddObject /
// ExtendLifetime never touch published objects).
//
// Caveat — reader-vs-reader: posterior and sampler caches are built lazily
// on the shared UncertainObjects (unsynchronized, single-writer contract),
// so warming an object once serves every snapshot that contains it, but two
// threads must not *cold-read* overlapping objects concurrently. Serialize
// warming (EnsureAllPosteriors / QuerySession::Prepare) per object set —
// the QueryServer dispatcher does exactly that by owning all session
// construction — after which any number of threads may read.
#pragma once

#include <memory>
#include <vector>

#include "model/uncertain_object.h"
#include "state/state_space.h"
#include "util/check.h"
#include "util/status.h"

namespace ust {

class ThreadPool;
class TrajectoryDatabase;
class UstTree;

/// \brief One entry of the database's write log: object `id` was written
/// (added, or lifetime-extended) by the write that produced epoch `epoch`.
/// The delta index layer (index/ust_delta.h) replays these against a base
/// UstTree built at an earlier epoch instead of dropping the index.
struct DbChange {
  uint64_t epoch;
  ObjectId id;
};

/// \brief Immutable view of one database epoch.
class DbSnapshot {
 public:
  /// The shared, frozen object table of one epoch.
  using ObjectTable = std::vector<std::shared_ptr<const UncertainObject>>;
  using ChangeLog = std::vector<DbChange>;

  DbSnapshot() = default;

  /// Snapshot the database's current epoch (same as db.Snapshot()). Implicit
  /// on purpose: every query-layer entry point takes a `const DbSnapshot&`,
  /// and a caller holding a live database means "the current epoch".
  DbSnapshot(const TrajectoryDatabase& db);  // NOLINT implicit

  DbSnapshot(std::shared_ptr<const StateSpace> space,
             std::shared_ptr<const ObjectTable> objects, uint64_t version)
      : space_(std::move(space)), objects_(std::move(objects)),
        version_(version) {}

  DbSnapshot(std::shared_ptr<const StateSpace> space,
             std::shared_ptr<const ObjectTable> objects, uint64_t version,
             std::shared_ptr<const ChangeLog> changes,
             std::shared_ptr<const UstTree> base_index, uint64_t delta_floor)
      : space_(std::move(space)), objects_(std::move(objects)),
        version_(version), changes_(std::move(changes)),
        base_index_(std::move(base_index)), delta_floor_(delta_floor) {}

  /// Epoch this view is pinned to (bumped by every database write).
  uint64_t version() const { return version_; }

  const StateSpace& space() const { return *space_; }
  std::shared_ptr<const StateSpace> space_ptr() const { return space_; }

  size_t size() const { return objects_ == nullptr ? 0 : objects_->size(); }
  bool empty() const { return size() == 0; }

  /// Object by id; ids in [0, size()) (debug bounds-checked).
  const UncertainObject& object(ObjectId id) const {
    UST_DCHECK(objects_ != nullptr && id < objects_->size());
    return *(*objects_)[id];
  }

  /// Ids of objects alive at every tic of [ts, te].
  std::vector<ObjectId> AliveThroughout(Tic ts, Tic te) const;

  /// Ids of objects alive at at least one tic of [ts, te].
  std::vector<ObjectId> AliveSometime(Tic ts, Tic te) const;

  /// Build every object's posterior model, serially (one workspace threaded
  /// through all adaptations) or sharded over `pool` (one workspace per
  /// worker; identical result, first failure in object order reported).
  Status EnsureAllPosteriors(ThreadPool* pool = nullptr) const;

  /// Latest compacted base UstTree published for this database, or nullptr if
  /// none was published yet. Its built_version() is <= version(); the gap is
  /// covered by ChangedSince(built_version()).
  const std::shared_ptr<const UstTree>& base_index() const {
    return base_index_;
  }

  /// Oldest base epoch the carried change log can still bridge from. Index
  /// publication trims log entries at or below the published tree's epoch, so
  /// a base older than this floor cannot be patched with a delta anymore.
  uint64_t delta_floor() const { return delta_floor_; }

  /// Ids of objects written (added or lifetime-extended) after epoch
  /// `base_version`, ascending and deduplicated. Requires
  /// base_version >= delta_floor() (debug-checked): older bases predate the
  /// retained change log. UstDelta::Build checks this and fails instead.
  std::vector<ObjectId> ChangedSince(uint64_t base_version) const;

  /// Number of distinct objects a delta over `base_version` would carry.
  /// Returns size() when the base predates delta_floor() (everything would
  /// have to be treated as changed).
  size_t DeltaDepth(uint64_t base_version) const;

  /// Copy of this snapshot without the change log / published base index.
  /// UstTree::Build pins its input snapshot; stripping the index state there
  /// keeps a compacted tree from transitively pinning its predecessor.
  DbSnapshot WithoutIndex() const;

 private:
  std::shared_ptr<const StateSpace> space_;
  std::shared_ptr<const ObjectTable> objects_;
  uint64_t version_ = 0;
  std::shared_ptr<const ChangeLog> changes_;
  std::shared_ptr<const UstTree> base_index_;
  uint64_t delta_floor_ = 0;
};

}  // namespace ust

// UST-tree (Emrich et al., CIKM 2012 [25]) as used for spatial pruning in
// Section 6: for every pair of consecutive observations of an object, the
// set of possibly visited (location, time) pairs — the reachability
// "diamond" — is bounded by a minimum bounding rectangle over the time
// interval. The rectangles live in one array in object-id order, each
// object's segments contiguous and ascending in time. Pruning needs every
// object alive in T (the dmax bound below), so only the time axis is ever
// searched: one pass over the array collects the rectangles of T.
//
// Building a rectangle walks the support graphs of the object's matrix
// (computed once per matrix, TransitionMatrix::Support) with the
// hop-distance kernels of graph/reachability.h, which cost O(states in the
// diamond) per segment. They hold only where every state has a self-loop;
// a matrix lacking one falls back to the per-slice DiamondReachability.
// Because the array is in object-id order, a tree at a later epoch is a
// splice: the runs of unchanged objects are copied from an older tree, and
// only the objects the change log names are rebuilt (Splice, used by
// compaction).
//
// Query-time pruning computes, per query tic t, each object's dmin/dmax to
// q(t) from its covering rectangles and derives:
//   C∀(q) = {o alive throughout T : ∀t ∈ T, dmin_o(t) <= min_o' dmax_o'(t)}
//   I∀(q) = {o : ∃t ∈ T, dmin_o(t) <= min_o' dmax_o'(t)}
// For P∃NNQ no candidate/influence distinction exists: every object in I may
// be a result. The pruning distance generalizes to the k-th smallest dmax
// for kNN queries (Section 8).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/rect.h"
#include "model/trajectory_database.h"
#include "query/query.h"
#include "util/status.h"

namespace ust {

class HopReachability;
class UstDelta;

/// \brief Pruning output: result candidates and influence objects.
struct PruneResult {
  std::vector<ObjectId> candidates;   ///< may satisfy the query predicate
  std::vector<ObjectId> influencers;  ///< may affect others' probabilities
};

/// \brief The UST-tree index over an uncertain trajectory database.
class UstTree {
 public:
  /// One leaf rectangle: an object's conservative (space x time) bound
  /// between two consecutive observations.
  struct SegmentEntry {
    ObjectId object;
    Tic t_lo, t_hi;
    Rect2 mbr;
  };

  /// Build diamonds for every observation segment of every object.
  /// Reachability is computed on the support of each object's a-priori
  /// matrix, so the bound is conservative (independent of probabilities).
  /// The tree pins the snapshot it was built over (a live database converts
  /// to its current epoch); built_version() identifies that epoch so serving
  /// code can detect a stale index after online writes.
  static Result<UstTree> Build(const DbSnapshot& db);

  /// The tree Build(db) returns, made from `base`, a tree over an earlier
  /// epoch of the same database: the runs of objects db's change log does
  /// not name since base.built_version() are copied from `base`, and the
  /// named objects' entries come from UstDelta::Build(db,
  /// base.built_version()). Costs O(changed objects' segments) reachability
  /// plus one copy of the entry array. Fails like UstDelta::Build, e.g.
  /// when the change log no longer reaches back to `base`.
  static Result<UstTree> Splice(const DbSnapshot& db, const UstTree& base);

  /// Epoch of the snapshot this tree indexes. Pruning against a database at
  /// a different version may miss objects — callers must not pass this tree
  /// to sessions over other epochs (QuerySession drops a mismatched index).
  uint64_t built_version() const { return db_.version(); }

  /// \brief The segment rectangles overlapping one query interval T, in
  /// entries() order: ascending object id, each object's run contiguous.
  /// Pruning reads the tree's entries only through it, so a caller pruning
  /// several queries over one T may build it once and pass it in.
  struct TimeSlab {
    TimeInterval T{0, 0};
    std::vector<const SegmentEntry*> entries;
  };

  /// Collect the slab of `T` (one pass over entries()).
  TimeSlab MakeTimeSlab(const TimeInterval& T) const;

  /// Candidates and influencers for P∀(k)NN queries. Requires k >= 1 and a
  /// valid T covered by q (QuerySession validates specs before pruning).
  /// When `slab` is given it must have been built for the same T; otherwise
  /// pruning builds its own. When `delta` is given (an UstDelta over this
  /// tree's epoch), its objects are probed alongside the base slab — delta
  /// segment entries replace the base entries of rewritten objects, so the
  /// result is bit-identical to pruning with a tree rebuilt at the delta's
  /// epoch.
  PruneResult PruneForall(const QueryTrajectory& q, const TimeInterval& T,
                          int k = 1, const TimeSlab* slab = nullptr,
                          const UstDelta* delta = nullptr) const;

  /// Candidates (== influencers) for P∃(k)NN queries.
  PruneResult PruneExists(const QueryTrajectory& q, const TimeInterval& T,
                          int k = 1, const TimeSlab* slab = nullptr,
                          const UstDelta* delta = nullptr) const;

  /// Every segment entry, ascending by object id; each object's entries are
  /// contiguous and ascending in t_lo (the order AppendObjectSegments emits).
  const std::vector<SegmentEntry>& entries() const { return entries_; }

  /// Per-object dmin/dmax profile over T, +inf where the object is not
  /// alive. Exposed for white-box tests; not part of the stable API.
  struct DistanceProfile {
    ObjectId object;
    Tic first_tic, last_tic;  // object alive span
    std::vector<double> dmin, dmax;  // indexed by t - T.start
  };

 private:
  UstTree() = default;

  std::vector<DistanceProfile> BuildProfiles(const QueryTrajectory& q,
                                             const TimeInterval& T,
                                             const TimeSlab* slab,
                                             const UstDelta* delta) const;

  std::vector<SegmentEntry> entries_;
  /// The indexed epoch (snapshots are cheap: two shared_ptrs + a version).
  /// Stored WithoutIndex(): a compacted tree must not transitively pin the
  /// base tree (and change log) of the snapshot it was built from.
  DbSnapshot db_;
};

/// \brief Append the segment entries (diamond MBRs, plus the forward cone for
/// a lifetime extension) of one object to `out`, in the same order
/// UstTree::Build produces them. Shared between full builds and the delta
/// layer so a delta's rectangles are bit-identical to a rebuilt tree's.
/// `reach` is the calling build's BFS scratch.
Status AppendObjectSegments(const DbSnapshot& db, const UncertainObject& obj,
                            HopReachability* reach,
                            std::vector<UstTree::SegmentEntry>* out);

}  // namespace ust

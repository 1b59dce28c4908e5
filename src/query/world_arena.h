// Shared world arena (DESIGN.md section 7): the possible worlds of one hot
// (epoch, interval) group, sampled once and evaluated by every spec.
//
// World realizations are query-independent — only the distance tables and
// the NnTable reductions depend on q — so a session serving many specs over
// the same (interval, seed, num_worlds) resamples the exact same
// trajectories per spec. The arena materializes them once: for every object
// alive within T, a participant-major SoA slab of sampled *support indices*
// (`slab[w * wlen + rel]` = index into SliceAt(ws + rel).support), drawn
// from the object's id-keyed stream (WorldStreamSeed). Because streams are
// keyed by object id, not by participant position, the slab holds exactly
// the indices any spec's batch walk would have produced — a spec over any
// pruned subset of the arena's objects evaluates bit-identically against it:
// WorldSampler::FillWorlds reads a participant's indices from its slab
// instead of walking its alias tables, and nothing else in the fill
// changes.
//
// Slabs store support indices, not distances: indices are q-independent
// (one arena serves every query trajectory) and k-independent (k only
// changes the reduction). uint32 indices also halve the footprint of a
// double-distance layout.
#pragma once

#include <cstdint>
#include <vector>

#include "model/db_snapshot.h"
#include "query/query.h"
#include "util/aligned.h"
#include "util/status.h"

namespace ust {

class ThreadPool;

class WorldArena {
 public:
  /// One realized object: its sampling window within T and its slab.
  struct Entry {
    ObjectId id = 0;
    Tic ws = 0, we = 0;    // sampling window = alive span ∩ T
    uint32_t wlen = 0;     // we - ws + 1
    size_t slab_off = 0;   // into slab(): [world][rel], world-major
  };

  /// Sample `num_worlds` worlds of every object of `objects` alive within
  /// `T` (others are skipped — a spec referencing one falls back to live
  /// sampling, as does one referencing an object whose posterior cannot be
  /// built). With a pool, objects are sampled in parallel; the slabs are
  /// bit-identical at any thread count because each object owns an
  /// id-keyed stream and a disjoint slab.
  static Result<WorldArena> Build(const DbSnapshot& db,
                                  const std::vector<ObjectId>& objects,
                                  const TimeInterval& T, uint64_t seed,
                                  size_t num_worlds,
                                  ThreadPool* pool = nullptr);

  /// True when this arena can serve a query over (T, seed) wanting
  /// `num_worlds` worlds: identity on (T, seed), prefix on worlds (world w
  /// consumes exactly the w-th parent draw of each stream, so the first W'
  /// arena worlds are the W'-world sample).
  bool Matches(const TimeInterval& T, uint64_t seed,
               size_t num_worlds) const {
    return T.start == interval_.start && T.end == interval_.end &&
           seed == seed_ && num_worlds <= num_worlds_;
  }

  /// Entry of `id`, or nullptr when the arena does not realize it.
  const Entry* Find(ObjectId id) const;

  const uint32_t* slab(const Entry& e) const {
    return slab_.data() + e.slab_off;
  }

  const TimeInterval& interval() const { return interval_; }
  uint64_t seed() const { return seed_; }
  size_t num_worlds() const { return num_worlds_; }
  size_t num_objects() const { return entries_.size(); }

  /// Resident slab bytes (the observability counter's currency).
  size_t bytes() const { return slab_.size() * sizeof(uint32_t); }

 private:
  TimeInterval interval_{0, 0};
  uint64_t seed_ = 0;
  size_t num_worlds_ = 0;
  std::vector<Entry> entries_;  // sorted by id (Find binary-searches)
  // Per-object slabs start on 32-byte boundaries (offsets rounded to 8
  // uint32s) so vectorized consumers never straddle slab ends.
  AlignedVector<uint32_t> slab_;
};

}  // namespace ust

// World columns and the column store (DESIGN.md section 7): the possible
// worlds of one object, sampled once and read by every Monte-Carlo spec
// that has it as a participant — across specs, sessions and epochs.
//
// World realizations are query-independent — only the distance tables and
// the NnTable reductions depend on q — so specs over the same (seed, object,
// sampling window) resample the exact same trajectories. A WorldColumn
// materializes them once: `num_worlds` rows of the object's sampled
// *support indices* over its window (`indices[w * wlen + rel]` = index into
// SliceAt(ws + rel).support), drawn from the object's id-keyed stream
// (WorldStreamSeed). Because streams are keyed by object id, not by
// participant position, a column holds exactly the indices any spec's batch
// walk would have produced: WorldSampler::FillWorlds reads a participant's
// indices from its column instead of walking its alias tables, and nothing
// else in the fill changes. A column of N worlds serves any W <= N (the
// prefix property, DESIGN.md section 7.2).
//
// Columns store support indices, not distances: indices are q-independent
// (one column serves every query trajectory) and k-independent (k only
// changes the reduction). uint32 indices also halve the footprint of a
// double-distance layout.
//
// A WorldArena is a set of columns over one (interval, seed, world count):
// either built standalone for a list of objects (WorldArena::Build), or a
// per-spec view over a ColumnStore's columns (ColumnStore::View). Both go
// through the same fill.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "model/db_snapshot.h"
#include "query/query.h"
#include "util/metrics.h"
#include "util/status.h"

namespace ust {

class PosteriorModel;
class ThreadPool;

/// \brief One object's sampled worlds over its sampling window.
struct WorldColumn {
  ObjectId id = 0;
  Tic ws = 0, we = 0;     // sampling window = alive span ∩ T
  uint32_t wlen = 0;      // we - ws + 1
  size_t num_worlds = 0;
  std::vector<uint32_t> indices;  // [world][rel], world-major

  size_t bytes() const { return indices.size() * sizeof(uint32_t); }

  /// One batch walk of `num_worlds` windows [ws, we] of `model` from `id`'s
  /// stream under `seed`: the stream WorldSampler::Create hands the
  /// participant, consumed exactly like any chunked sequence of walks (one
  /// parent draw per world, in world order), so the column equals per-spec
  /// sampling at any chunking.
  static std::shared_ptr<const WorldColumn> Sample(const PosteriorModel& model,
                                                   ObjectId id, Tic ws,
                                                   Tic we, uint64_t seed,
                                                   size_t num_worlds);
};

/// \brief Snapshot of world-column activity (ColumnStore::stats).
struct ArenaStats {
  uint64_t builds = 0;       ///< (interval, seed) groups that turned hot
  uint64_t spec_reuses = 0;  ///< specs whose every alive participant read
                             ///< a column
  uint64_t bytes = 0;        ///< column bytes built into the store
  uint64_t resident_bytes = 0;  ///< column bytes the store holds now
  uint64_t evictions = 0;    ///< columns dropped for the byte budget
};

class WorldArena {
 public:
  /// Sample `num_worlds` worlds of every object of `objects` alive within
  /// `T` (others are skipped — a spec referencing one samples it live, as
  /// does one referencing an object whose posterior cannot be built). With
  /// a pool, objects are sampled in parallel; the columns are bit-identical
  /// at any thread count because each object owns an id-keyed stream and a
  /// disjoint column.
  static Result<WorldArena> Build(const DbSnapshot& db,
                                  const std::vector<ObjectId>& objects,
                                  const TimeInterval& T, uint64_t seed,
                                  size_t num_worlds,
                                  ThreadPool* pool = nullptr);

  /// A view over existing columns, each holding at least `num_worlds`
  /// worlds of the `seed` stream over its window within `T`. Shares them:
  /// the view keeps them alive, whatever their store evicts meanwhile.
  WorldArena(const TimeInterval& T, uint64_t seed, size_t num_worlds,
             std::vector<std::shared_ptr<const WorldColumn>> columns);

  /// True when this arena can serve a query over (T, seed) wanting
  /// `num_worlds` worlds: identity on (T, seed), prefix on worlds (world w
  /// consumes exactly the w-th parent draw of each stream, so the first W'
  /// worlds of a column are the W'-world sample).
  bool Matches(const TimeInterval& T, uint64_t seed,
               size_t num_worlds) const {
    return T.start == interval_.start && T.end == interval_.end &&
           seed == seed_ && num_worlds <= num_worlds_;
  }

  /// Column of `id`, or nullptr when the arena does not realize it.
  const WorldColumn* Find(ObjectId id) const;

  const TimeInterval& interval() const { return interval_; }
  uint64_t seed() const { return seed_; }
  size_t num_worlds() const { return num_worlds_; }
  size_t num_objects() const { return columns_.size(); }

  /// Column bytes the arena reads (the observability counter's currency).
  size_t bytes() const;

 private:
  WorldArena() = default;

  TimeInterval interval_{0, 0};
  uint64_t seed_ = 0;
  size_t num_worlds_ = 0;
  std::vector<std::shared_ptr<const WorldColumn>> columns_;  // sorted by id
};

/// \brief The server's world columns (DESIGN.md section 7.1): per-object
/// columns keyed by (PosteriorModel instance, object id, sampling window,
/// seed), shared by every session that reads them and carried across
/// epochs. A write replaces the written object's UncertainObject and so its
/// model; every other object keeps its model instance, so its columns stay
/// valid at the next epoch, and a write costs one column build for the
/// object it changed. Models are held weakly: a column whose model expired
/// is never served and is dropped.
///
/// Policy: hotness is counted per (T, seed) group in a bounded list. A
/// group caches columns from its `min_uses`-th Monte-Carlo spec on; a spec
/// of a hot group builds the missing columns of its own alive participants,
/// at the largest world count the group requested, and reads every column
/// holding enough worlds. A byte budget bounds the store, with LRU eviction
/// over columns that no live view holds.
///
/// Thread-safe. One critical section resolves a spec's participants;
/// builds run outside the lock, so no caller waits on another's build: two
/// callers missing one column both build it (the same bytes), and the
/// first publish wins.
class ColumnStore {
 public:
  /// The byte budget of a server's store and of a standalone session's:
  /// 8x the largest hot set of the repository benchmark's workloads
  /// (~33 MB for hot_arena's four groups).
  static constexpr size_t kBudgetBytes = size_t{256} << 20;

  explicit ColumnStore(size_t budget_bytes);

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  /// The view a Monte-Carlo spec over (T, seed, num_worlds) reads for
  /// `participants`: nullopt while its group is cold or `min_uses` <= 0,
  /// else the store's columns of the alive participants holding at least
  /// `num_worlds` worlds, after building the ones missing. A participant
  /// outside the view samples live (same bytes). A build the `alloc_limit`
  /// fault point refuses leaves its participant live.
  std::optional<WorldArena> View(const DbSnapshot& db,
                                 const std::vector<ObjectId>& participants,
                                 const TimeInterval& T, uint64_t seed,
                                 size_t num_worlds, int min_uses);

  /// Tally one spec whose every alive participant read a column.
  void NoteSpecReuse() { spec_reuses_.Increment(); }

  ArenaStats stats() const;
  size_t budget_bytes() const { return budget_bytes_; }

  /// Register the store's instruments (arena_builds, arena_spec_reuses,
  /// arena_bytes, arena_resident_bytes, arena_evictions) with `registry`;
  /// the store must outlive it.
  void RegisterMetrics(MetricRegistry* registry) const;

 private:
  struct Key {
    const PosteriorModel* model;
    ObjectId id;
    Tic ws, we;
    uint64_t seed;
    bool operator==(const Key& o) const {
      return model == o.model && id == o.id && ws == o.ws && we == o.we &&
             seed == o.seed;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Slot {
    std::weak_ptr<const PosteriorModel> model;
    std::shared_ptr<const WorldColumn> column;
    uint64_t last_use;  ///< View call that last read it (the LRU order)
  };
  using Index = std::unordered_map<Key, Slot, KeyHash>;
  /// A (T, seed) group's hotness: Monte-Carlo specs seen, largest world
  /// count requested.
  struct Group {
    TimeInterval T;
    uint64_t seed;
    uint64_t uses;
    size_t max_worlds;
  };

  /// Erase `it` (under mu_).
  void Drop(Index::iterator it);

  const size_t budget_bytes_;
  mutable std::mutex mu_;
  Index index_;
  uint64_t clock_ = 0;         ///< View calls so far
  std::vector<Group> groups_;  ///< most recently used at the back
  size_t resident_ = 0;
  Counter builds_;
  Counter spec_reuses_;
  Counter bytes_;
  Counter evictions_;
  Gauge resident_gauge_;
};

}  // namespace ust

// Monte-Carlo estimation of PNN probabilities (Section 5): sample W possible
// worlds from the objects' a-posteriori models, run the certain-trajectory
// NN kernel in each world, and average. Every sampled query runs through one
// chunk loop (RunWorldChunks) over one fill (WorldSampler::FillWorlds):
// P∀NN/P∃NN count hits per target chunk by chunk (query/adaptive.h), and
// PCNN packs the per-world per-tic indicators into an NnTable so that every
// timestamp-set validation of Algorithm 1 reuses the same W worlds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "model/db_snapshot.h"
#include "query/nn_kernel.h"
#include "query/query.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/status.h"

namespace ust {

class ThreadPool;
class WorldArena;

/// Seed of participant `id`'s world-sampling stream under query seed `seed`.
/// Keyed by the object id — not by the participant's *position* in the list —
/// so the worlds an object realizes are a pure function of (seed, id): two
/// queries over different participant subsets still sample identical
/// trajectories for their common objects, which is what lets one world
/// column per object (query/world_arena.h) serve any spec bit-identically.
/// splitmix64 finalizer over seed + golden-ratio stride: consecutive ids and
/// seeds land on decorrelated xoshiro seedings.
inline uint64_t WorldStreamSeed(uint64_t seed, ObjectId id) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL *
                          (static_cast<uint64_t>(id) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Largest `num_worlds` a query may ask for (QuerySession rejects more):
/// 2^24, far above the largest count a bench or example draws (2 x 10^5)
/// and far below the counts at which num_worlds times a window or a
/// participant count wraps.
inline constexpr size_t kMaxWorlds = size_t{1} << 24;

/// \brief Options of the Monte-Carlo engine.
struct MonteCarloOptions {
  size_t num_worlds = 1000;  ///< samples per query (paper default: 10000)
  int k = 1;                 ///< kNN parameter (Section 8)
  uint64_t seed = 42;        ///< RNG seed; same seed => same worlds
};

/// \brief How a Monte-Carlo refinement decides it has sampled enough.
enum class PrecisionMode {
  /// Legacy contract: always draw exactly num_worlds (the paper's a-priori
  /// Hoeffding sizing). The default — nothing changes unless asked for.
  kFixedWorlds = 0,
  /// Stop once every target's estimate is within +-epsilon at confidence
  /// 1 - delta (Wilson per target, Bonferroni-corrected; the distribution-
  /// free Hoeffding bound is checked too, so the stop count never exceeds
  /// the a-priori sizing rounded up to a chunk).
  kEpsilon,
  /// Stop once every target's Wilson interval clears the query threshold
  /// tau ("is P >= tau?" is decided even though P itself is still coarse) —
  /// the PCNN-style threshold mode, usually decided orders of magnitude
  /// before the Hoeffding count when probabilities sit far from tau.
  kThreshold,
};

/// \brief Per-query precision target of the adaptive Monte-Carlo executor
/// (query/adaptive.h). num_worlds stays the hard cap in every mode; stopping
/// is only ever checked at WorldSampler::kWorldChunk boundaries, so stop
/// decisions are a pure function of (snapshot, spec) — never of the thread
/// count or the lane/steal schedule that executed the query.
struct PrecisionTarget {
  PrecisionMode mode = PrecisionMode::kFixedWorlds;
  double epsilon = 0.01;  ///< absolute error target (kEpsilon)
  double delta = 0.05;    ///< failure probability (kEpsilon / kThreshold)
};

/// \brief The "is o a (k)NN of q at tic t in world w" table.
///
/// Storage is a real bitmap: one bit per (object, tic, world), laid out
/// [object][tic][world-word] so that the per-tic world vectors of one object
/// are contiguous 64-bit words. ForallProb/ExistsProb then reduce with
/// word-wide AND/OR plus popcount — 64 worlds per instruction instead of the
/// former byte-per-indicator scan, which dominated PCNN validation.
class NnTable {
 public:
  NnTable(std::vector<ObjectId> objects, TimeInterval T, size_t num_worlds)
      : objects_(std::move(objects)), interval_(T), num_worlds_(num_worlds),
        words_per_tic_((num_worlds + 63) / 64),
        bits_(objects_.size() * T.length() * words_per_tic_, 0) {
    BuildIndex();
  }

  const std::vector<ObjectId>& objects() const { return objects_; }
  const TimeInterval& interval() const { return interval_; }
  size_t num_worlds() const { return num_worlds_; }
  size_t words_per_tic() const { return words_per_tic_; }

  /// Index of `o` within objects(), or npos. O(log n) via the sorted index
  /// built at construction (objects() keeps the caller's order).
  size_t IndexOf(ObjectId o) const;
  static constexpr size_t npos = static_cast<size_t>(-1);

  bool IsNn(size_t obj_index, size_t world, Tic t) const {
    const uint64_t* w = TicWords(obj_index, RelTic(t));
    return (w[world >> 6] >> (world & 63)) & 1u;
  }

  /// Scatter `count` sampled worlds — byte indicator rows as produced by
  /// WorldSampler, world w at `is_nn + w * world_stride`, participant-major —
  /// into the packed bitmap as worlds [first_world, first_world + count).
  /// Writers of disjoint 64-aligned world ranges touch disjoint words, so
  /// shards may pack concurrently when first_world is a multiple of 64.
  void PackWorlds(size_t first_world, size_t count, const uint8_t* is_nn,
                  size_t world_stride);

  /// Fraction of worlds where the object is NN at *every* tic of `tics`.
  /// `tics` must be a subset of the table interval.
  double ForallProb(size_t obj_index, const std::vector<Tic>& tics) const;

  /// Fraction of worlds where the object is NN at *some* tic of `tics`.
  double ExistsProb(size_t obj_index, const std::vector<Tic>& tics) const;

  /// Single-tic probability (P∀NN == P∃NN over one tic); allocation-free —
  /// hot-path replacement for ForallProb(i, {t}).
  double ProbAt(size_t obj_index, Tic t) const;

  /// P∀NN over the full table interval.
  double ForallProb(size_t obj_index) const;
  /// P∃NN over the full table interval.
  double ExistsProb(size_t obj_index) const;

 private:
  void BuildIndex();
  size_t RelTic(Tic t) const { return static_cast<size_t>(t - interval_.start); }
  const uint64_t* TicWords(size_t obj_index, size_t rel) const {
    UST_DCHECK(obj_index < objects_.size() &&
               rel < static_cast<size_t>(interval_.length()));
    return bits_.data() +
           (obj_index * interval_.length() + rel) * words_per_tic_;
  }
  /// AND (forall) or OR (exists) the per-tic world bitmaps of `tics`, then
  /// count the surviving worlds.
  double ReduceProb(size_t obj_index, const Tic* tics, size_t num_tics,
                    bool forall) const;

  std::vector<ObjectId> objects_;
  TimeInterval interval_;
  size_t num_worlds_;
  size_t words_per_tic_;
  std::vector<uint64_t> bits_;  // [object][rel tic][world word]
  /// (object id, position in objects_) sorted by id, for O(log n) IndexOf.
  std::vector<std::pair<ObjectId, uint32_t>> sorted_index_;
};

/// \brief Batched possible-world sampler: draws worlds (a trajectory per
/// participant, restricted to T) and marks which participants are (k)NNs of
/// q at each tic. FillWorlds is its one primitive; RunWorldChunks drives it.
///
/// Worlds are drawn participant-major in chunks: each posterior's alias
/// tables stay cache-hot across the whole chunk instead of being re-fetched
/// per world, and sampled states are converted to squared distances on the
/// spot (the NN decision never materializes trajectories). Each participant
/// owns an id-keyed RNG stream, so the sampled worlds are independent of the
/// chunking and of the participant interleaving.
///
/// Worlds are also *position-addressable*: world w consumes exactly one draw
/// of each participant's stream, so InitialRngs + AdvanceWorlds rebuild the
/// stream cursor of any world index. That is what lets a thread pool fill
/// one query's chunks on several workers and still produce bit-identical
/// rows (DESIGN.md §4.3).
class WorldSampler {
 public:
  /// Per-worker scratch: distance blocks, per-tic minima and the resolved
  /// per-participant sources. It carries no stream state, so one scratch
  /// serves any sampler and any query; reuse it across calls to stay
  /// allocation-free.
  struct Scratch {
    std::vector<double> dist2;        // [participant block][world][rel - rel0]
    std::vector<double> min_scratch;  // per-(world, rel) k-th distance
    std::vector<double> kth_scratch;  // k>1: per-tic alive distances
    /// Per-participant column rows, or nullptr for a live alias walk.
    std::vector<const uint32_t*> columns;
  };

  /// Validates inputs (including every sampling window), resolves the
  /// posterior models and warms their alias samplers.
  static Result<WorldSampler> Create(const DbSnapshot& db,
                                     std::vector<ObjectId> participants,
                                     const QueryTrajectory& q,
                                     const TimeInterval& T, int k,
                                     uint64_t seed);

  /// Stream cursor at world 0: one state per participant, aligned with
  /// participants().
  std::vector<Rng> InitialRngs() const;

  /// Advance a stream cursor by `worlds` worlds (one raw draw per world per
  /// stream — the per-world fork in the batch walk). A pool derives its chunk
  /// starts this way: one serial O(W) prefix pass, then one fill per chunk —
  /// bit-identical to one serial pass.
  static void AdvanceWorlds(std::vector<Rng>* rngs, size_t worlds);

  /// The one fill: writes worlds [w0, w0 + count) as byte indicator rows,
  /// world w0 + j at `is_nn + j * world_stride` (participant-major row of
  /// num_participants() * interval().length() bytes; layout as
  /// MarkNearestNeighbors). Each alive participant picks its own source: it
  /// reads its support indices from `arena`'s column when the arena
  /// realizes it over the same window, and otherwise walks its alias tables
  /// from `(*cursor)[i]`, which must stand at world w0 and is advanced by
  /// `count` worlds. A column holds the very indices the walk would have
  /// drawn, so both sources give the same bytes. `arena` may be null (every
  /// participant walks); `cursor` may be null when the arena realizes every
  /// alive participant. Returns the number of alive participants that
  /// walked. Safe concurrently with distinct scratches and cursors.
  size_t FillWorlds(size_t w0, size_t count, const WorldArena* arena,
                    std::vector<Rng>* cursor, uint8_t* is_nn,
                    size_t world_stride, Scratch* scratch) const;

  size_t num_participants() const { return participants_.size(); }
  const std::vector<ObjectId>& participants() const { return participants_; }
  const TimeInterval& interval() const { return interval_; }
  uint64_t seed() const { return seed_; }

  /// Worlds per sampling chunk. Shard boundaries must be multiples of this
  /// (it is a multiple of 64, so packed-bitmap words never straddle shards).
  static constexpr size_t kWorldChunk = 512;

 private:
  struct Participant {
    std::shared_ptr<const PosteriorModel> model;
    Tic ws, we;        // sampling window = alive span ∩ T
    bool alive;        // alive at some tic of T
    uint32_t rel0 = 0; // ws - T.start
    uint32_t wlen = 0; // window length in tics
    size_t doff = 0;   // block offset into dist2, in per-world doubles
    Rng rng0{0};       // stream state at world 0 (never advanced)
    // Precomputed per-slice distances to q: dtab_[dbase + dtab_off[r] + j]
    // is the squared distance of support state j (slice ws + r) to q(ws+r).
    size_t dbase = 0;
    std::vector<uint32_t> dtab_off;  // size wlen + 1
  };

  /// Phase 2 + marking of one chunk: turns the distance blocks and (k == 1)
  /// folded minima already in `scratch` into indicator rows for worlds
  /// [row0, row0 + chunk) of `is_nn`.
  void ReduceChunk(size_t row0, size_t chunk, uint8_t* is_nn,
                   size_t world_stride, Scratch* scratch) const;

  std::vector<ObjectId> participants_;
  std::vector<Participant> resolved_;
  TimeInterval interval_{0, 0};
  int k_ = 1;
  uint64_t seed_ = 0;
  size_t total_wlen_ = 0;           // sum of alive windows, per world
  std::vector<double> dtab_;        // support-state-to-q distance tables
};

/// Consumer of one filled chunk: worlds [w0, w0 + n), world w0 + j's row at
/// `rows + j * num_participants * |T|`.
using WorldChunkFn =
    std::function<void(size_t w0, size_t n, const uint8_t* rows)>;
/// Stop rule read at a chunk boundary after `worlds` worlds (a prefix);
/// returning true ends the run there.
using WorldStopFn = std::function<bool(size_t worlds)>;

/// \brief The one Monte-Carlo chunk loop: fills worlds [0, num_worlds) in
/// WorldSampler::kWorldChunk chunks and hands each to `consume`. Returns
/// the worlds consumed: num_worlds, or the first chunk boundary where
/// `stop` fired.
///
/// When `arena` matches (interval, seed, num_worlds), every alive
/// participant it realizes reads its column and the others walk live — the
/// same bytes either way — and `*used_arena` (if given) says whether every
/// alive participant read a column. An arena of N worlds serves any prefix
/// <= N (DESIGN.md §7.2).
///
/// Without a pool the chunks run in order on `scratch` and `rows` (either
/// may be null), the stream cursor continuing from chunk to chunk. With a
/// pool of several workers the chunks run in waves, their cursors taken
/// from one serial RNG prefix pass:
/// - without a stop rule one wave covers every chunk, and `consume` runs on
///   the workers, concurrently for distinct chunks;
/// - with one, the first wave is one chunk and later waves one chunk per
///   worker; the caller consumes and checks them in chunk order, and chunks
///   past the stop boundary are discarded unconsumed.
/// Either way the consumed worlds, and so any result built from them, are
/// identical at every thread count.
size_t RunWorldChunks(const WorldSampler& sampler, size_t num_worlds,
                      const WorldArena* arena, bool* used_arena,
                      ThreadPool* pool, WorldSampler::Scratch* scratch,
                      std::vector<uint8_t>* rows, const WorldChunkFn& consume,
                      const WorldStopFn& stop = nullptr);

/// \brief Sample `options.num_worlds` possible worlds over `participants` and
/// fill the NN indicator table (Algorithm 1's shared world sample).
///
/// Participants not alive at any tic of T are kept in the table but never
/// marked. Fails when a posterior model cannot be built (contradicting
/// observations) or T is invalid.
///
/// With a `pool`, world chunks are filled and packed on its workers; the
/// table is bit-identical at any thread count (RunWorldChunks).
Result<NnTable> ComputeNnTable(const DbSnapshot& db,
                               const std::vector<ObjectId>& participants,
                               const QueryTrajectory& q, const TimeInterval& T,
                               const MonteCarloOptions& options,
                               ThreadPool* pool = nullptr);

/// \brief ComputeNnTable with caller-owned scratch: without a pool (or with
/// num_worlds within one chunk) `scratch` and `rows` (the byte staging
/// buffer) are reused across calls, so a session running many queries
/// allocates the sampling scratch once per worker lane instead of once per
/// query; a pool's workers use their own. Either pointer may be nullptr
/// (private locals are used). The result is identical to ComputeNnTable.
///
/// When `arena` is non-null and matches this query's (interval, seed,
/// num_worlds), the participants it realizes are *evaluated* against their
/// columns instead of sampled — same bytes, no alias walk — and the rest are
/// sampled live; `*used_arena` (if given) says whether every alive
/// participant read a column. The result is identical either way.
Result<NnTable> ComputeNnTableScratch(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const QueryTrajectory& q, const TimeInterval& T,
    const MonteCarloOptions& options, ThreadPool* pool,
    WorldSampler::Scratch* scratch, std::vector<uint8_t>* rows,
    const WorldArena* arena = nullptr, bool* used_arena = nullptr);

/// \brief Per-object probability estimates for the P∃NNQ / P∀NNQ queries.
struct PnnEstimate {
  ObjectId object;
  double forall_prob;
  double exists_prob;
};

/// \brief Estimate P∀NN and P∃NN for every object in `targets`, sampling
/// worlds over `participants` (targets ⊆ participants required): a
/// fixed-count EstimatePnnAdaptive (query/adaptive.h, where it is defined).
/// `options.num_worlds` must be positive.
Result<std::vector<PnnEstimate>> EstimatePnn(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, const MonteCarloOptions& options,
    ThreadPool* pool = nullptr);

}  // namespace ust

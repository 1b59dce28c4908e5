// The plan-based batched query pipeline (Section 3.3 industrialized):
//
//   QuerySession  — owns immutable shared state (a database's posteriors
//                   with warmed alias samplers, the UST-tree and its delta)
//                   plus reusable per-worker scratch, so back-to-back
//                   queries stop paying allocation and warm-up costs;
//   planner       — picks the refinement backend per query from the pruning
//                   output (query/executor.h);
//   RunMorsel     — the one execution primitive: evaluates a spec range
//                   into caller-owned outcome slots. Run, RunAll and the
//                   serving tier's lanes are thin wrappers over it.
//
// Determinism contract: a query's result is a pure function of the database
// contents and its QuerySpec (seed included). Run vs RunAll vs any morsel
// partition, 1 vs N threads, and batch order never change a single bit of
// the output — worker scratch carries no cross-query state, world shards
// re-derive their RNG positions from world indices, and per-query outputs
// occupy disjoint slots.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "geo/rect.h"
#include "index/ust_delta.h"
#include "index/ust_tree.h"
#include "model/trajectory_database.h"
#include "query/executor.h"
#include "query/monte_carlo.h"
#include "query/pcnn.h"
#include "query/query.h"
#include "query/world_arena.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ust {

/// \brief One qualifying object with its estimated probability.
struct PnnResultEntry {
  ObjectId object;
  double prob;
};

/// \brief Result of a P∃NNQ / P∀NNQ evaluation plus work statistics.
struct PnnQueryResult {
  std::vector<PnnResultEntry> results;  ///< objects with prob >= tau
  size_t num_candidates = 0;            ///< |C(q)| after pruning
  size_t num_influencers = 0;           ///< |I(q)| after pruning
  double prune_millis = 0.0;
  double sampling_millis = 0.0;
};

/// \brief PCNNQ result plus work statistics.
struct PcnnQueryResult {
  PcnnResult pcnn;
  size_t num_candidates = 0;
  size_t num_influencers = 0;
  double prune_millis = 0.0;
  double sampling_millis = 0.0;
};

/// \brief One query of a batch: semantics, reference trajectory, interval,
/// threshold, precision knobs, and an optional backend override.
struct QuerySpec {
  QueryKind kind = QueryKind::kForall;
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{0, 0};
  double tau = 0.0;
  MonteCarloOptions mc;  ///< num_worlds (precision cap), k, seed
  /// Adaptive-precision target (query/monte_carlo.h): kFixedWorlds (the
  /// default) always samples mc.num_worlds; kEpsilon / kThreshold stop at
  /// the first 512-world chunk boundary where the target is met —
  /// deterministically, at any thread count or lane schedule. Continuous
  /// (PCNN) queries ignore it: Algorithm 1 validates timestamp sets against
  /// the full shared world table.
  PrecisionTarget precision;
  /// Explicit executor override; kAuto defers to the planner.
  ExecutorKind backend = ExecutorKind::kAuto;
  /// Latency budget relative to serving-tier admission, milliseconds; 0 (or
  /// a budget beyond the clock's range, e.g. +inf) = no deadline. The
  /// session itself ignores it — only the serving tier sheds expired specs,
  /// in the admission queue or on the lane just before the spec would run,
  /// so a spec that does execute is bit-identical at any deadline
  /// (DESIGN.md section 11).
  double deadline_ms = 0.0;
  /// Load-shedding class: under overload the serving tier rejects requests
  /// at or below its priority floor first. Does not affect execution order
  /// or results of admitted requests.
  int priority = 0;
};

/// \brief Per-query outcome. `status` isolates failures: one malformed query
/// does not abort the batch.
struct QueryOutcome {
  Status status;
  QueryKind kind = QueryKind::kForall;
  /// Backend that actually refined the query (after planning + fallback).
  ExecutorKind executor = ExecutorKind::kMonteCarlo;
  /// Whether every alive participant's worlds were read from a world column
  /// instead of sampled live. Purely observational: outcomes are
  /// bit-identical either way (the arena determinism contract).
  bool used_arena = false;
  /// Worlds the Monte-Carlo backend actually drew (mc.num_worlds on the
  /// fixed path, the chunk-aligned stop count on the adaptive path; 0 for
  /// the non-sampling backends, pruned-empty queries and failed estimates).
  size_t worlds_used = 0;
  /// The adaptive stopping rule fired before the num_worlds cap.
  bool early_stopped = false;
  PnnQueryResult pnn;    ///< kForall / kExists
  PcnnQueryResult pcnn;  ///< kContinuous
};

/// \brief Session-level knobs.
struct SessionOptions {
  /// Worker count for RunAll batches, per-query world sharding, and
  /// Prepare's parallel posterior adaptation. 1 = fully serial.
  int threads = 1;
  PlannerOptions planner;
  /// World-column policy (query/world_arena.h): an (interval, seed) group
  /// caches its participants' columns from its arena_min_uses-th
  /// Monte-Carlo spec on. 0 never uses or builds columns; 1 caches from the
  /// first use (benches, tests); the default 2 means a group pays for
  /// columns only once it has proven hot — a stream of unique (interval,
  /// seed) keys never regresses.
  int arena_min_uses = 2;
  /// The column store the session reads and builds into; may be nullptr,
  /// and then the session owns one. The serving tier's SessionCache injects
  /// its own, shared by every session it builds, so columns (and their
  /// counters) outlive sessions and epochs.
  ColumnStore* column_store = nullptr;
  /// Optional tally of stale indexes this session had to drop (no delta
  /// possible or delta build failed); may be nullptr.
  Counter* stale_index_drops = nullptr;
};

/// \brief Long-lived query façade over one database epoch + UST-tree.
///
/// The session pins a DbSnapshot at construction (a live TrajectoryDatabase
/// converts to its current epoch): every query it ever runs reads exactly
/// that epoch, bit-identically, regardless of concurrent writes to the live
/// database. An `index` built over an *older* epoch is patched with an
/// UstDelta covering the objects written since (probed alongside the base
/// tree, bit-identical to a rebuild); when that is impossible — the change
/// log was trimmed past the base, or the delta build failed — the index is
/// dropped and counted (pruning degenerates to alive-time filtering, which
/// is always correct).
///
/// Prepare, Run and RunAll are not safe for concurrent use (they own the
/// session's pool and scratch); RunMorsel is const and safe on a shared
/// prepared session, as documented on it.
class QuerySession {
 public:
  /// \brief Reusable per-lane scratch for morsel execution (`RunMorsel`):
  /// world-sampler buffers + the byte staging rows. A serving-tier lane owns
  /// one and reuses it across every morsel, group and session it executes —
  /// scratch is session-portable by construction (it holds no stream state,
  /// and no world column: a spec's column view lives on its own stack).
  struct ExecScratch {
    WorldSampler::Scratch sampler;
    std::vector<uint8_t> rows;
  };

  explicit QuerySession(DbSnapshot db, const UstTree* index = nullptr,
                        SessionOptions options = {});

  /// Build the shared immutable artifacts once: adapts every posterior (one
  /// PropagateWorkspace per worker, objects sharded over the pool) and warms
  /// every alias sampler. Idempotent. Only RunAll batches that shard across
  /// queries (threads > 1 and more than one spec) call it implicitly — Run
  /// and serial batches stay lazy, resolving just their own participants —
  /// so call Prepare() up front to warm the whole database explicitly.
  Status Prepare();

  /// Evaluate one query: a one-spec RunAll.
  QueryOutcome Run(const QuerySpec& spec);

  /// Evaluate a batch through RunMorsel with the session's own pool and
  /// scratch: one-spec morsels are sharded across the pool (threads > 1 and
  /// more than one spec), or one [0, n) morsel runs with the pool sharding
  /// world chunks. outcome[i] corresponds to specs[i] and is bit-identical
  /// to Run(specs[i]) at any thread count.
  std::vector<QueryOutcome> RunAll(const std::vector<QuerySpec>& specs);

  /// The execution primitive (DESIGN.md section 4.3): evaluate specs[i]
  /// into outcomes[i] for every i in [begin, end), using only caller-owned
  /// resources — `pool` (may be nullptr: serial) shards each query's world
  /// chunks, `scratch` holds the sampling buffers. Run, RunAll and every
  /// serving-tier lane execute through it. A spec with an empty interval,
  /// k < 1, a query trajectory not covering its interval, num_worlds
  /// outside [1, kMaxWorlds], a non-finite tau or out-of-range precision
  /// fields resolves to InvalidArgument before pruning, with or without an
  /// index.
  ///
  /// It reads only immutable session state (the snapshot, the index and its
  /// delta) besides the thread-safe column store, and never touches the
  /// session's own pool or scratch lanes, so several lanes may call it
  /// *concurrently* on one shared const session (what the serving tier's
  /// SessionCache hands out) once it is Prepare()d: every posterior warm or
  /// deterministically failing, so no lane ever cold-writes shared caches.
  /// Outcomes are bit-identical at any pool size, so any morsel partition
  /// of a batch reassembles the exact serial RunAll bytes.
  void RunMorsel(const std::vector<QuerySpec>& specs, size_t begin,
                 size_t end, QueryOutcome* outcomes, ThreadPool* pool,
                 ExecScratch* scratch) const;

  const SessionOptions& options() const { return options_; }
  const DbSnapshot& db() const { return db_; }

  /// Snapshot of the world-column activity of the store this session reads
  /// (its own, or the injected one shared with other sessions).
  /// Thread-safe.
  ArenaStats arena_stats() const { return store_->stats(); }

  /// Objects the attached delta carries (0 = probing the base alone).
  size_t delta_depth() const { return delta_.depth(); }

  /// A stale index was passed at construction and had to be dropped.
  bool dropped_stale_index() const { return dropped_stale_index_; }

 private:
  /// Pruning (filter step) through the index (and delta); without an
  /// index, degenerates to alive-time filtering.
  PruneResult Prune(const QueryTrajectory& q, const TimeInterval& T, int k,
                    bool forall) const;

  /// The per-query execution core, called only by RunMorsel: pure reads of
  /// session state plus writes to the caller's scratch and outcome — const
  /// so a shared session can prove it touches nothing a concurrent lane
  /// could race on.
  QueryOutcome RunOne(const QuerySpec& spec, ThreadPool* world_pool,
                      ExecScratch* scratch) const;
  void RunPnn(const QuerySpec& spec, ThreadPool* world_pool,
              ExecScratch* scratch, QueryOutcome* out) const;
  void RunContinuous(const QuerySpec& spec, ThreadPool* world_pool,
                     ExecScratch* scratch, QueryOutcome* out) const;

  /// The column view a Monte-Carlo spec reads for `participants` (nullopt
  /// while its group is cold or columns are off): ColumnStore::View under
  /// this session's snapshot and policy. Thread-safe.
  std::optional<WorldArena> ColumnView(
      const QuerySpec& spec, const std::vector<ObjectId>& participants) const;

  DbSnapshot db_;
  const UstTree* index_;
  /// Patch for a base index older than db_'s epoch; empty when the index is
  /// current (or absent). Probed by Prune alongside the base tree.
  UstDelta delta_;
  bool dropped_stale_index_ = false;
  /// The state space's bounding box, for the query-position check.
  Rect2 space_box_;
  SessionOptions options_;
  ThreadPool pool_;
  std::vector<ExecScratch> scratch_;  // one per worker
  bool prepared_ = false;
  Status prepare_status_;
  /// The store of options_.column_store, or of own_store_ when none was
  /// injected. A cache: the const, concurrent morsel path builds into it
  /// (ColumnStore is thread-safe).
  std::unique_ptr<ColumnStore> own_store_;
  ColumnStore* store_;
};

}  // namespace ust

// The serving tier's session cache (DESIGN.md section 5): the warmed
// QuerySession of the newest database epoch, shared by every lane that
// executes a group pinned to that epoch, so traffic amortizes posterior
// adaptation and sampler warm-up across *requests* exactly like
// QuerySession::RunAll amortizes them across a batch.
//
// A session depends on its epoch alone: it holds the snapshot, the index
// (patched by a delta to the epoch) and the warmed posteriors, and nothing
// of a query's interval or trajectory. So one session per epoch serves every
// interval group of it. Keying on the epoch gives snapshot isolation for
// free: after a write, the next checkout carries the new version, misses,
// and builds a session over the new epoch, which replaces the cached one.
// Because posterior caches live on the shared UncertainObjects, that
// session re-adapts only the objects that actually changed — warming is
// incremental.
//
// The cache also owns the server's world-column store (query/world_arena.h)
// and injects it into every session it builds. The store outlives sessions
// and epochs: its columns are keyed by posterior-model instance, and an
// object a write did not touch keeps its model, so a new epoch's session
// reads the columns the previous epochs built, and a write costs one column
// build for the object it changed.
//
// Checkout protocol (the execution-lane contract, DESIGN.md section 5.5):
// Checkout hands out a shared *const* session, so a holder can only execute
// through the read-only QuerySession::Execute path, with its own scratch.
// A checkout at the cached epoch is a hit. A miss takes the *build lock*,
// looks again, and builds outside the cache lock; the built session
// replaces the cached one only if its epoch is newer, so a late build for
// an older epoch (a batch pinned before a write that a later batch already
// saw) goes to its caller uncached and never displaces the newest session.
// Builds run one at a time, so a lane that misses an epoch while another
// lane builds it finds that session cached once it holds the lock and
// counts a hit: `misses` counts builds. After a failed build each waiter
// builds for itself. A session lives as long as its last holder. All entry
// points are thread-safe.
//
// The build lock is also the single-warmer contract of model/db_snapshot.h
// with lanes in play: posterior and sampler caches are built lazily on the
// shared UncertainObjects (unsynchronized by design), so two lanes must
// never cold-warm overlapping object sets concurrently. Prepare() runs
// under it — completed object by object when it fails partway, so nothing
// is left cold — while *execution* (pure reads of warmed state) stays fully
// concurrent.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "index/ust_tree.h"
#include "query/session.h"
#include "util/metrics.h"

namespace ust {

/// \brief Counters of SessionCache behavior (monotonic).
struct SessionCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  ///< checkouts that built a session (or failed to)
  // World-column activity across every session this cache built (its
  // ColumnStore; see query/world_arena.h).
  uint64_t arena_builds = 0;       ///< (interval, seed) groups turned hot
  uint64_t arena_spec_reuses = 0;  ///< specs whose every alive participant
                                   ///< read a column
  uint64_t arena_bytes = 0;        ///< column bytes built into the store
  uint64_t stale_index_drops = 0;  ///< sessions that had to drop a stale
                                   ///< index (no delta patch possible)
  uint64_t build_failures = 0;     ///< session builds that failed outright
                                   ///< (no session handed back)
};

/// \brief Thread-safe holder of the newest epoch's warmed QuerySession,
/// handed out to lanes as a shared const session.
class SessionCache {
 public:
  /// `session_options` is applied to every built session, with its
  /// column_store replaced by the cache's own (budget
  /// ColumnStore::kBudgetBytes).
  explicit SessionCache(SessionOptions session_options);

  /// The session over `snapshot`'s epoch, prepared (posteriors + samplers
  /// warmed): the cached one when its epoch matches (also after waiting
  /// for another caller's build of it), else a fresh build, cached only if
  /// no newer epoch's session is. The freshest base tree
  /// wins: a compacted base published through the snapshot supersedes
  /// `index`, and the session patches any remaining epoch gap with a delta
  /// (or drops the index, counted in stale_index_drops). nullptr means the
  /// build failed.
  std::shared_ptr<const QuerySession> Checkout(const DbSnapshot& snapshot,
                                               const UstTree* index);

  SessionCacheStats stats() const;

  /// Register this cache's instruments (cache_* and its column store's
  /// arena_*) with `registry`; the cache must outlive it. How the serving
  /// tier folds cache activity into its self-enumerating stats dump.
  void RegisterMetrics(MetricRegistry* registry) const;

 private:
  /// The cached session if its epoch is `version` (counted as a hit).
  std::shared_ptr<const QuerySession> Cached(uint64_t version);

  /// Build + warm a fresh session over `snapshot` (the miss path); runs
  /// under build_mu_, outside mu_.
  std::shared_ptr<const QuerySession> BuildSession(const DbSnapshot& snapshot,
                                                   const UstTree* index);

  /// Declared before every session holder, so it outlives them all.
  ColumnStore column_store_;
  /// Not const: the constructor points its column_store at the cache's own
  /// store above, so every session built here shares it.
  SessionOptions session_options_;

  mutable std::mutex mu_;
  /// Serializes session builds, and with them warm-up (the single-warmer
  /// contract of model/db_snapshot.h); taken before mu_, never inside it.
  std::mutex build_mu_;
  /// The newest epoch's session seen so far; guarded by mu_.
  std::shared_ptr<const QuerySession> current_;
  // Instruments, not plain fields (DESIGN.md section 9): stats() snapshots
  // them into SessionCacheStats; RegisterMetrics plugs them into a registry.
  Counter c_hits_;
  Counter c_misses_;
  Counter c_stale_index_drops_;
  Counter c_build_failures_;
};

}  // namespace ust

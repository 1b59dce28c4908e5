// The serving tier's session cache (DESIGN.md section 5): an LRU map from
// (database epoch, query interval) to a warmed QuerySession, so traffic that
// repeats an interval amortizes posterior adaptation and sampler warm-up
// across *requests* exactly like QuerySession::RunAll amortizes them across
// a batch.
//
// Keying on the epoch gives snapshot isolation for free: after a write, the
// next lookup carries the new version, misses, and builds a session over the
// new epoch; sessions pinned to older epochs can never be returned again and
// are dropped by EvictStale (or age out of the LRU). Because posterior
// caches live on the shared UncertainObjects, a new epoch's session re-adapts
// only the objects that actually changed — warming is incremental.
//
// The cache also owns the server's world-column store (query/world_arena.h)
// and injects it into every session it builds. The store outlives sessions
// and epochs: its columns are keyed by posterior-model instance, and an
// object a write did not touch keeps its model, so a new epoch's session
// reads the columns the previous epochs built, and a write costs one column
// build for the object it changed.
//
// Checkout protocol (the execution-lane contract, DESIGN.md section 5.5):
// Checkout hands out a refcounted Lease, and later callers on the same key
// JOIN a live lease instead of building a duplicate — several lanes
// executing morsels of one hot (epoch, interval), and back-to-back batches
// for it, all read one warmed session through the read-only
// QuerySession::RunMorsel path. The session rejoins the idle LRU when the
// last holder releases: reinserted at MRU unless its epoch has passed, in
// which case it is dropped as stale. All entry points are thread-safe.
//
// Session construction runs outside the LRU lock, and only its Prepare()
// phase holds a dedicated *warm lock*: posterior and sampler caches are
// built lazily on the shared UncertainObjects (unsynchronized by design,
// see model/db_snapshot.h), so two lanes must never cold-warm overlapping
// object sets concurrently. Serializing Prepare() — completed object by
// object when it fails partway, so nothing is left cold — preserves that
// single-warmer contract with lanes in play: the second session over an
// epoch finds every object already warm and prepares in microseconds,
// while session construction and *execution* (pure reads of warmed state)
// stay fully concurrent.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

#include "index/ust_tree.h"
#include "query/session.h"
#include "util/metrics.h"

namespace ust {

/// \brief Counters of SessionCache behavior (monotonic).
struct SessionCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;          ///< lookups that built a new session
  uint64_t shared_joins = 0;    ///< of `hits`: joined a live lease
                                ///< instead of building a duplicate
  uint64_t evictions_lru = 0;   ///< dropped for capacity
  uint64_t evictions_stale = 0; ///< dropped because their epoch passed
  // World-column activity across every session this cache built (its
  // ColumnStore; see query/world_arena.h).
  uint64_t arena_builds = 0;       ///< (interval, seed) groups turned hot
  uint64_t arena_spec_reuses = 0;  ///< specs whose every alive participant
                                   ///< read a column
  uint64_t arena_bytes = 0;        ///< column bytes built into the store
  uint64_t stale_index_drops = 0;  ///< sessions that had to drop a stale
                                   ///< index (no delta patch possible)
  uint64_t build_failures = 0;     ///< session builds that failed outright
                                   ///< (empty lease handed back)
};

/// \brief Thread-safe LRU cache of warmed QuerySessions keyed by
/// (epoch, interval), handed out to lanes via refcounted leases.
class SessionCache {
 public:
  /// \brief Shared (read-only execute) handle on one session: several lanes
  /// running morsels of the same (epoch, interval) — or back-to-back groups
  /// for one hot key — hold it simultaneously, each restricted by contract
  /// to QuerySession::RunMorsel with its own scratch. Refcounted: the
  /// session returns to the idle LRU when the last holder releases. A live
  /// lease is *joinable* by later Checkout calls on its key.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    ~Lease() { Release(); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    QuerySession* operator->() const { return session_.get(); }
    QuerySession& operator*() const { return *session_; }
    QuerySession* get() const { return session_.get(); }
    explicit operator bool() const { return session_ != nullptr; }

    /// Drop this holder's reference now (idempotent); the last release
    /// returns the session to the cache.
    void Release();

   private:
    friend class SessionCache;
    Lease(SessionCache* cache, void* entry,
          std::shared_ptr<QuerySession> session)
        : cache_(cache), entry_(entry), session_(std::move(session)) {}

    SessionCache* cache_ = nullptr;
    void* entry_ = nullptr;  ///< the cache's LeasedEntry node
    std::shared_ptr<QuerySession> session_;
  };

  /// `capacity` >= 1; `session_options` is applied to every built session,
  /// with its column_store replaced by the cache's own (budget
  /// ColumnStore::kBudgetBytes).
  SessionCache(size_t capacity, SessionOptions session_options);

  /// Lease on the session for (snapshot.version(), T): joins a live lease
  /// on the key when one exists (counted as a hit + shared_join — no build
  /// at all), else promotes a cached idle session, else builds a fresh one
  /// over `snapshot`, prepared (posteriors + samplers warmed). The freshest
  /// base tree wins: a compacted base published through the snapshot
  /// supersedes `index`, and the session patches any remaining epoch gap
  /// with a delta (or drops the index, counted in stale_index_drops).
  /// Holders may only execute through the read-only morsel path; Run/RunAll
  /// on a leased session are the caller's bug. An empty lease means the
  /// build failed.
  Lease Checkout(const DbSnapshot& snapshot, const TimeInterval& T,
                 const UstTree* index);

  /// Drop every *idle* session pinned to an epoch older than `live_version`,
  /// and drop leased ones when their lease is returned.
  void EvictStale(uint64_t live_version);

  /// Idle sessions currently in the cache (leased-out ones are not counted).
  size_t size() const;
  size_t capacity() const { return capacity_; }
  SessionCacheStats stats() const;

  /// Register this cache's instruments (cache_* and its column store's
  /// arena_*) with `registry`; the cache must outlive it. How the serving
  /// tier folds cache activity into its self-enumerating stats dump.
  void RegisterMetrics(MetricRegistry* registry) const;

 private:
  friend class Lease;

  struct Entry {
    uint64_t version;
    TimeInterval T;
    std::shared_ptr<QuerySession> session;
  };

  /// One leased session: joinable while refs > 0; the node address is
  /// stable (std::list), so leases hold a pointer to it.
  struct LeasedEntry {
    uint64_t version;
    TimeInterval T;
    std::shared_ptr<QuerySession> session;
    size_t refs;
  };

  /// Build + warm a fresh session over `snapshot` (the miss path); runs
  /// outside mu_, Prepare under warm_mu_.
  std::shared_ptr<QuerySession> BuildSession(const DbSnapshot& snapshot,
                                             const UstTree* index);

  /// Lease return path: unref; the last holder reinserts the session at
  /// MRU — or drops it as stale / over capacity.
  void ReleaseLease(LeasedEntry* entry);

  const size_t capacity_;
  /// Declared before every session holder, so it outlives them all.
  ColumnStore column_store_;
  /// Not const: the constructor points its column_store at the cache's own
  /// store above, so every session built here shares it.
  SessionOptions session_options_;

  mutable std::mutex mu_;
  /// Serializes session warm-up (the single-warmer contract of
  /// model/db_snapshot.h); never held together with mu_.
  std::mutex warm_mu_;
  std::list<Entry> entries_;  ///< MRU at front, LRU at back; idle only
  std::list<LeasedEntry> leases_;  ///< live leases (joinable)
  uint64_t min_live_version_ = 0;  ///< floor set by EvictStale
  // Instruments, not plain fields (DESIGN.md section 9): stats() snapshots
  // them into SessionCacheStats; RegisterMetrics plugs them into a registry.
  Counter c_hits_;
  Counter c_misses_;
  Counter c_shared_joins_;
  Counter c_evictions_lru_;
  Counter c_evictions_stale_;
  Counter c_stale_index_drops_;
  Counter c_build_failures_;
};

}  // namespace ust

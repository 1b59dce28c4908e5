#include "server/session_cache.h"

#include <algorithm>
#include <utility>

#include "markov/propagate_workspace.h"
#include "model/posterior_model.h"
#include "util/fault.h"
#include "util/trace.h"

namespace ust {

SessionCache::Lease& SessionCache::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    Release();
    cache_ = other.cache_;
    entry_ = other.entry_;
    session_ = std::move(other.session_);
    other.cache_ = nullptr;
    other.entry_ = nullptr;
    other.session_.reset();
  }
  return *this;
}

void SessionCache::Lease::Release() {
  if (cache_ != nullptr && entry_ != nullptr) {
    cache_->ReleaseLease(static_cast<LeasedEntry*>(entry_));
  }
  cache_ = nullptr;
  entry_ = nullptr;
  session_.reset();
}

SessionCache::SessionCache(size_t capacity, SessionOptions session_options)
    : capacity_(std::max<size_t>(1, capacity)),
      column_store_(ColumnStore::kBudgetBytes),
      session_options_(session_options) {
  // Every session built by this cache reads and builds columns here, so
  // columns (and stats()) carry across session churn, eviction and epochs.
  session_options_.column_store = &column_store_;
  session_options_.stale_index_drops = &c_stale_index_drops_;
}

std::shared_ptr<QuerySession> SessionCache::BuildSession(
    const DbSnapshot& snapshot, const UstTree* index) {
  // Build outside the LRU lock (lookups stay fast). Only the warm-up below
  // needs the warm lock: session construction touches nothing shared, so it
  // proceeds concurrently across lanes.
  UST_TRACE_SCOPE("session_build", snapshot.version(), "epoch");
  if (fault::ShouldFail("session_build")) {
    // Injected build failure: the caller gets an empty lease and must
    // resolve its whole group with an error instead of leaking promises.
    return nullptr;
  }
  // A compacted base published through the snapshot supersedes the caller's
  // (older) tree; the session pins the snapshot, which keeps the raw pointer
  // alive for its whole life. Whatever base is chosen, the session itself
  // patches any remaining epoch gap with a delta — or counts the drop.
  if (snapshot.base_index() != nullptr &&
      (index == nullptr ||
       snapshot.base_index()->built_version() > index->built_version())) {
    index = snapshot.base_index().get();
  }
  auto session =
      std::make_shared<QuerySession>(snapshot, index, session_options_);
  {
    UST_TRACE_SCOPE("session_warm", snapshot.version(), "epoch");
    // Adaptation mutates shared per-object caches, and exactly one thread
    // may cold-warm an object (model/db_snapshot.h). The first session over
    // an epoch pays the adaptation; later misses re-walk warm objects in
    // microseconds without queueing behind anything expensive.
    std::lock_guard<std::mutex> warm_lock(warm_mu_);
    // Warm what a first request would otherwise pay for: posterior
    // adaptation + alias samplers (a failure is per-query surfaced by
    // RunMorsel, so it is deliberately not fatal here).
    if (!session->Prepare().ok()) {
      // Prepare's serial path stops at the first failing object, which
      // would leave every later object cold — and lane-concurrent execution
      // would then lazily cold-adapt them *outside* this lock. Finish the
      // sweep object by object instead: afterwards each object is either
      // fully warm (posterior + samplers) or deterministically failing, and
      // failed adaptations write nothing shared, so execution never
      // cold-writes shared state no matter how many lanes touch it.
      PropagateWorkspace ws(snapshot.space().size());
      for (size_t i = 0; i < snapshot.size(); ++i) {
        auto posterior = snapshot.object(static_cast<ObjectId>(i)).Posterior(&ws);
        if (posterior.ok()) posterior.value()->EnsureSamplers();
      }
    }
  }
  return session;
}

SessionCache::Lease SessionCache::Checkout(const DbSnapshot& snapshot,
                                           const TimeInterval& T,
                                           const UstTree* index) {
  const uint64_t version = snapshot.version();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A live lease on the key is simply joined: no build, no duplicate.
    for (LeasedEntry& entry : leases_) {
      if (entry.version == version && entry.T == T) {
        c_hits_.Increment();
        c_shared_joins_.Increment();
        ++entry.refs;
        return Lease(this, &entry, entry.session);
      }
    }
    // An idle cached session is promoted to a lease (removed from the LRU,
    // but joinable while out).
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->version == version && it->T == T) {
        c_hits_.Increment();
        leases_.push_back(LeasedEntry{version, T, std::move(it->session), 1});
        entries_.erase(it);
        return Lease(this, &leases_.back(), leases_.back().session);
      }
    }
    c_misses_.Increment();
  }
  // Two lanes missing on one key concurrently both build; the later one
  // simply leases its own copy (outcomes are per-spec pure, so duplicates
  // are correct).
  std::shared_ptr<QuerySession> session = BuildSession(snapshot, index);
  std::lock_guard<std::mutex> lock(mu_);
  if (session == nullptr) {
    c_build_failures_.Increment();
    return Lease();  // the caller surfaces the error
  }
  leases_.push_back(LeasedEntry{version, T, std::move(session), 1});
  return Lease(this, &leases_.back(), leases_.back().session);
}

void SessionCache::ReleaseLease(LeasedEntry* entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (--entry->refs > 0) return;
  for (auto it = leases_.begin(); it != leases_.end(); ++it) {
    if (&*it != entry) continue;
    if (it->version < min_live_version_) {
      // Its epoch passed while it was out executing; never cache it.
      c_evictions_stale_.Increment();
    } else {
      entries_.push_front(Entry{it->version, it->T, std::move(it->session)});
      while (entries_.size() > capacity_) {
        entries_.pop_back();
        c_evictions_lru_.Increment();
      }
    }
    leases_.erase(it);
    return;
  }
}

void SessionCache::EvictStale(uint64_t live_version) {
  std::lock_guard<std::mutex> lock(mu_);
  min_live_version_ = std::max(min_live_version_, live_version);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->version < live_version) {
      it = entries_.erase(it);
      c_evictions_stale_.Increment();
    } else {
      ++it;
    }
  }
}

size_t SessionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

SessionCacheStats SessionCache::stats() const {
  SessionCacheStats s;
  s.hits = c_hits_.value();
  s.misses = c_misses_.value();
  s.shared_joins = c_shared_joins_.value();
  s.evictions_lru = c_evictions_lru_.value();
  s.evictions_stale = c_evictions_stale_.value();
  const ArenaStats arena = column_store_.stats();
  s.arena_builds = arena.builds;
  s.arena_spec_reuses = arena.spec_reuses;
  s.arena_bytes = arena.bytes;
  s.stale_index_drops = c_stale_index_drops_.value();
  s.build_failures = c_build_failures_.value();
  return s;
}

void SessionCache::RegisterMetrics(MetricRegistry* registry) const {
  registry->RegisterCounter("cache_hits", &c_hits_);
  registry->RegisterCounter("cache_misses", &c_misses_);
  registry->RegisterCounter("cache_shared_joins", &c_shared_joins_);
  registry->RegisterCounter("cache_evictions_lru", &c_evictions_lru_);
  registry->RegisterCounter("cache_evictions_stale", &c_evictions_stale_);
  column_store_.RegisterMetrics(registry);
  registry->RegisterCounter("stale_index_drops", &c_stale_index_drops_);
  registry->RegisterCounter("session_build_failures", &c_build_failures_);
}

}  // namespace ust

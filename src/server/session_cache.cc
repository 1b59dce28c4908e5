#include "server/session_cache.h"

#include <utility>

#include "markov/propagate_workspace.h"
#include "model/posterior_model.h"
#include "util/fault.h"
#include "util/trace.h"

namespace ust {

SessionCache::SessionCache(SessionOptions session_options)
    : column_store_(ColumnStore::kBudgetBytes),
      session_options_(session_options) {
  // Every session built by this cache reads and builds columns here, so
  // columns (and stats()) carry across session churn and epochs.
  session_options_.column_store = &column_store_;
  session_options_.stale_index_drops = &c_stale_index_drops_;
}

std::shared_ptr<const QuerySession> SessionCache::BuildSession(
    const DbSnapshot& snapshot, const UstTree* index) {
  // Build outside the cache lock (lookups stay fast). Only the warm-up below
  // needs the warm lock: session construction touches nothing shared, so it
  // proceeds concurrently across lanes.
  UST_TRACE_SCOPE("session_build", snapshot.version(), "epoch");
  if (fault::ShouldFail("session_build")) {
    // Injected build failure: the caller gets no session and must
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

std::shared_ptr<const QuerySession> SessionCache::Checkout(
    const DbSnapshot& snapshot, const UstTree* index) {
  const uint64_t version = snapshot.version();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_ != nullptr && current_->db().version() == version) {
      c_hits_.Increment();
      return current_;
    }
    c_misses_.Increment();
  }
  std::shared_ptr<const QuerySession> session = BuildSession(snapshot, index);
  if (session == nullptr) {
    c_build_failures_.Increment();
    return nullptr;  // the caller surfaces the error
  }
  // Declared before the lock, so a replaced session is destroyed after the
  // lock is released.
  std::shared_ptr<const QuerySession> replaced;
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ == nullptr || current_->db().version() < version) {
    replaced = std::exchange(current_, session);
  }
  return session;
}

SessionCacheStats SessionCache::stats() const {
  SessionCacheStats s;
  s.hits = c_hits_.value();
  s.misses = c_misses_.value();
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
  column_store_.RegisterMetrics(registry);
  registry->RegisterCounter("stale_index_drops", &c_stale_index_drops_);
  registry->RegisterCounter("session_build_failures", &c_build_failures_);
}

}  // namespace ust

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
}

std::shared_ptr<const QuerySession> SessionCache::BuildSession(
    const DbSnapshot& snapshot, const UstTree* index) {
  // Runs under the build lock, outside the cache lock (lookups stay fast).
  UST_TRACE_SCOPE("session_build", snapshot.version(), "epoch");
  if (fault::ShouldFail("session_build")) {
    // Injected build failure: the caller gets no session and must
    // resolve its whole group with an error instead of leaking promises.
    return nullptr;
  }
  fault::MaybeStall("session_stall");
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
  if (session->dropped_stale_index()) c_stale_index_drops_.Increment();
  {
    UST_TRACE_SCOPE("session_warm", snapshot.version(), "epoch");
    // Warm what a first request would otherwise pay for: posterior
    // adaptation + alias samplers (a failure is per-query surfaced by
    // Execute, so it is deliberately not fatal here).
    if (!session->Prepare().ok()) {
      // Prepare's serial path stops at the first failing object, which
      // would leave every later object cold — and lane-concurrent execution
      // would then lazily cold-adapt them *outside* the build lock. Finish
      // the sweep object by object instead: afterwards each object is
      // either fully warm (posterior + samplers) or deterministically
      // failing, and failed adaptations write nothing shared, so execution
      // never cold-writes shared state no matter how many lanes touch it.
      PropagateWorkspace ws(snapshot.space().size());
      for (size_t i = 0; i < snapshot.size(); ++i) {
        auto posterior = snapshot.object(static_cast<ObjectId>(i)).Posterior(&ws);
        if (posterior.ok()) posterior.value()->EnsureSamplers();
      }
    }
  }
  return session;
}

std::shared_ptr<const QuerySession> SessionCache::Cached(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ == nullptr || current_->db().version() != version) {
    return nullptr;
  }
  c_hits_.Increment();
  return current_;
}

std::shared_ptr<const QuerySession> SessionCache::Checkout(
    const DbSnapshot& snapshot, const UstTree* index) {
  const uint64_t version = snapshot.version();
  if (auto session = Cached(version)) return session;
  // A caller that missed while another built this epoch finds that build's
  // session cached once it holds the build lock.
  std::lock_guard<std::mutex> build_lock(build_mu_);
  if (auto session = Cached(version)) return session;
  c_misses_.Increment();
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

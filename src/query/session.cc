#include "query/session.h"

#include <algorithm>
#include <cmath>

#include "util/timer.h"
#include "util/trace.h"

namespace ust {

namespace {

// The checks every sampling backend makes, made once before pruning: the
// index sizes per-tic arrays by T and reads q at every tic of it, so an
// invalid spec must fail here, identically with and without an index.
// Coverage is contiguous, so checking both ends of T suffices. `space_box`
// is the state space's bounding box.
Status ValidateSpec(const QuerySpec& spec, const Rect2& space_box) {
  if (!spec.T.valid()) return Status::InvalidArgument("empty query interval");
  if (spec.mc.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!spec.q.Covers(spec.T.start) || !spec.q.Covers(spec.T.end)) {
    return Status::InvalidArgument(
        "query trajectory does not cover the query interval");
  }
  // Every squared distance the filter and the executors compare must be
  // finite: with +inf everywhere, `inf <= inf` makes every object a nearest
  // neighbor, and NaN compares false against everything. The farthest
  // corner of the box bounds the distance to every state and MBR.
  const size_t tics = spec.q.constant() ? 1 : spec.T.length();
  for (size_t i = 0; i < tics; ++i) {
    const Point2& p = spec.q.At(spec.T.start + static_cast<Tic>(i));
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      return Status::InvalidArgument("query position is not finite");
    }
    if (!space_box.empty() && !std::isfinite(MaxDistance(p, space_box))) {
      return Status::InvalidArgument(
          "query position too far from the state space");
    }
  }
  // Every kind and backend: zero worlds would report 0/0 as probability 0,
  // and the degrade regime may rewrite a fixed spec to an adaptive one.
  if (spec.mc.num_worlds == 0) {
    return Status::InvalidArgument("num_worlds must be positive");
  }
  // Per-world buffers are sized num_worlds times a window or a participant
  // count; past the cap that product can wrap.
  if (spec.mc.num_worlds > kMaxWorlds) {
    return Status::InvalidArgument("num_worlds exceeds 2^24");
  }
  // The precision fields, NaN-safe: every comparison with a NaN is false,
  // so each check states the valid range and rejects what falls outside.
  if (!std::isfinite(spec.tau)) {
    return Status::InvalidArgument("tau must be finite");
  }
  const PrecisionTarget& precision = spec.precision;
  if (precision.mode != PrecisionMode::kFixedWorlds &&
      !(precision.delta > 0.0 && precision.delta < 1.0)) {
    return Status::InvalidArgument("delta out of range");
  }
  if (precision.mode == PrecisionMode::kEpsilon && !(precision.epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (precision.mode == PrecisionMode::kThreshold &&
      !(spec.tau >= 0.0 && spec.tau <= 1.0)) {
    return Status::InvalidArgument("tau out of [0, 1]");
  }
  return Status::OK();
}

// Union of two id sets (inputs need not be sorted).
std::vector<ObjectId> UnionIds(std::vector<ObjectId> a,
                               const std::vector<ObjectId>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

}  // namespace

QuerySession::QuerySession(DbSnapshot db, const UstTree* index,
                           SessionOptions options)
    : db_(std::move(db)), index_(index),
      space_box_(db_.space().BoundingBox()), options_(options),
      pool_(options.threads),
      scratch_(static_cast<size_t>(pool_.num_threads())) {
  if (options_.column_store == nullptr) {
    own_store_ = std::make_unique<ColumnStore>(ColumnStore::kBudgetBytes);
  }
  store_ = own_store_ != nullptr ? own_store_.get() : options_.column_store;
  // An index over another epoch prunes against the wrong object set. Patch
  // the gap with a delta over the change log when possible; otherwise (the
  // log no longer reaches back to the index, the index is newer than this
  // epoch, or the build failed) drop the index rather than serve wrong
  // results (alive-time filtering stays correct) — and make the drop
  // observable.
  if (index_ != nullptr && index_->built_version() != db_.version()) {
    auto delta = UstDelta::Build(db_, index_->built_version());
    if (delta.ok()) {
      delta_ = delta.MoveValue();
    } else {
      index_ = nullptr;
      dropped_stale_index_ = true;
      trace::Instant("stale_index_drop", db_.version(), "epoch", "dropped");
    }
  }
}

Status QuerySession::Prepare() {
  if (prepared_) return prepare_status_;
  prepared_ = true;
  // TS phase: adapt every posterior (sharded, one workspace per worker),
  // then warm every alias sampler. After this no query mutates shared state,
  // which is what makes the parallel paths race-free.
  prepare_status_ = db_.EnsureAllPosteriors(&pool_);
  if (!prepare_status_.ok()) return prepare_status_;
  pool_.ParallelFor(db_.size(), [&](size_t i, int) {
    auto posterior = db_.object(static_cast<ObjectId>(i)).Posterior();
    if (posterior.ok()) posterior.value()->EnsureSamplers();
  });
  return prepare_status_;
}

PruneResult QuerySession::Prune(const QueryTrajectory& q, const TimeInterval& T,
                                int k, bool forall) const {
  if (index_ != nullptr) {
    if (!delta_.empty()) {
      UST_TRACE_SCOPE("delta_probe", delta_.depth(), "objects");
      return forall ? index_->PruneForall(q, T, k, nullptr, &delta_)
                    : index_->PruneExists(q, T, k, nullptr, &delta_);
    }
    return forall ? index_->PruneForall(q, T, k) : index_->PruneExists(q, T, k);
  }
  PruneResult result;
  result.influencers = db_.AliveSometime(T.start, T.end);
  result.candidates =
      forall ? db_.AliveThroughout(T.start, T.end) : result.influencers;
  return result;
}

QueryOutcome QuerySession::Run(const QuerySpec& spec) {
  // A lone query stays lazy (posteriors of its participants resolve on first
  // use) and shards its world chunks over the session pool.
  return Execute(spec, &pool_, &scratch_[0]);
}

std::vector<QueryOutcome> QuerySession::RunAll(
    const std::vector<QuerySpec>& specs) {
  std::vector<QueryOutcome> outcomes(specs.size());
  if (specs.empty()) return outcomes;
  // Cross-query sharding shares the posterior and sampler caches, so they
  // must be sealed first. A 1-thread pool — or a lone query, which takes
  // the world-sharded path where WorldSampler::Create resolves its own
  // participants serially before any shard runs — can stay lazy like Run.
  // If sealing fails (one bad object anywhere in the database, possibly
  // unrelated to this batch), degrade to the serial lazy path instead of
  // failing the batch: per-query outcomes must match Run() bit for bit.
  bool share_across_queries = pool_.num_threads() > 1 && specs.size() > 1;
  if (share_across_queries && !Prepare().ok()) share_across_queries = false;
  if (share_across_queries) {
    // Shard specs across queries: each worker owns its scratch, each query
    // writes its own outcome slot — schedule-independent by construction.
    pool_.ParallelFor(specs.size(), [&](size_t i, int worker) {
      outcomes[i] = Execute(specs[i], /*pool=*/nullptr,
                            &scratch_[static_cast<size_t>(worker)]);
    });
  } else {
    // Serial batch (or a lone query): shard world chunks instead.
    for (size_t i = 0; i < specs.size(); ++i) {
      outcomes[i] = Execute(specs[i], &pool_, &scratch_[0]);
    }
  }
  return outcomes;
}

std::optional<WorldArena> QuerySession::ColumnView(
    const QuerySpec& spec, const std::vector<ObjectId>& participants) const {
  return store_->View(db_, participants, spec.T, spec.mc.seed,
                      spec.mc.num_worlds, options_.arena_min_uses);
}

QueryOutcome QuerySession::Execute(const QuerySpec& spec,
                                   ThreadPool* world_pool,
                                   WorldSampler::Scratch* scratch) const {
  // Every input is immutable session state or caller-owned (each prune
  // builds its own slab), so concurrent calls on one shared session never
  // touch common bytes.
  QueryOutcome out;
  out.kind = spec.kind;
  out.status = ValidateSpec(spec, space_box_);
  if (!out.status.ok()) return out;
  if (spec.kind == QueryKind::kContinuous) {
    RunContinuous(spec, world_pool, scratch, &out);
  } else {
    RunPnn(spec, world_pool, scratch, &out);
  }
  return out;
}

void QuerySession::RunPnn(const QuerySpec& spec, ThreadPool* world_pool,
                          WorldSampler::Scratch* scratch,
                          QueryOutcome* out) const {
  const bool forall = spec.kind == QueryKind::kForall;
  Timer prune_timer;
  PruneResult pruned = Prune(spec.q, spec.T, spec.mc.k, forall);
  out->pnn.prune_millis = prune_timer.Millis();
  out->pnn.num_candidates = pruned.candidates.size();
  out->pnn.num_influencers = pruned.influencers.size();
  if (pruned.candidates.empty()) return;

  Timer sample_timer;
  // P∀NN must account for every influencer; candidates outside the
  // influencer set (possible without an index) still need their own worlds.
  std::vector<ObjectId> participants =
      forall ? UnionIds(pruned.candidates, pruned.influencers)
             : pruned.influencers;
  PnnTask task;
  task.db = &db_;
  task.participants = &participants;
  task.targets = &pruned.candidates;
  task.q = &spec.q;
  task.T = spec.T;
  task.mc = spec.mc;
  task.precision = spec.precision;
  task.kind = spec.kind;
  task.tau = spec.tau;

  // An explicit override is a user decision: honoring it with a different
  // backend would be silent data substitution, so unsupported/overflowing
  // forced backends error instead of degrading.
  const bool forced = spec.backend != ExecutorKind::kAuto;
  ExecutorKind choice = spec.backend;
  if (choice == ExecutorKind::kAuto) {
    // Every spec plans at its cap, adaptive or not: the plan depends on the
    // spec alone, never on what earlier queries of the session did.
    choice = PlanExecutor(spec.kind, pruned.candidates.size(),
                          participants.size(), spec.T.length(),
                          spec.mc.num_worlds, spec.mc.k, PlannerOptions{});
  }
  if (!GetExecutor(choice).Supports(spec.kind, task)) {
    if (forced) {
      out->status = Status::InvalidArgument(
          std::string("executor '") + ExecutorKindName(choice) +
          "' does not support this query");
      return;
    }
    choice = ExecutorKind::kMonteCarlo;  // planner misfire: degrade gracefully
  }
  ExecContext ctx;
  ctx.pool = world_pool;
  ctx.sampler_scratch = scratch;
  ctx.worlds_used = &out->worlds_used;
  ctx.early_stopped = &out->early_stopped;
  // Monte-Carlo specs read their participants' world columns; the view
  // shares them, so store eviction never frees one mid-estimate.
  std::optional<WorldArena> view;
  bool used_arena = false;
  if (choice == ExecutorKind::kMonteCarlo) {
    view = ColumnView(spec, participants);
    ctx.arena = view ? &*view : nullptr;
    ctx.arena_used = &used_arena;
  }
  auto estimates = GetExecutor(choice).Estimate(task, ctx);
  if (!estimates.ok() && choice == ExecutorKind::kExact && !forced &&
      estimates.status().code() == StatusCode::kResourceLimit) {
    // The planner under-estimated the enumeration cross product (it only
    // sees set sizes, not per-object world counts): fall back to sampling.
    choice = ExecutorKind::kMonteCarlo;
    view = ColumnView(spec, participants);
    ctx.arena = view ? &*view : nullptr;
    ctx.arena_used = &used_arena;
    estimates = GetExecutor(choice).Estimate(task, ctx);
  }
  if (!estimates.ok()) {
    out->status = estimates.status();
    return;
  }
  out->executor = choice;
  out->used_arena = used_arena;
  if (used_arena) store_->NoteSpecReuse();
  for (const PnnEstimate& e : estimates.value()) {
    const double p = forall ? e.forall_prob : e.exists_prob;
    if (p >= spec.tau) out->pnn.results.push_back({e.object, p});
  }
  out->pnn.sampling_millis = sample_timer.Millis();
}

void QuerySession::RunContinuous(const QuerySpec& spec,
                                 ThreadPool* world_pool,
                                 WorldSampler::Scratch* scratch,
                                 QueryOutcome* out) const {
  // Algorithm 1 validates timestamp sets against one shared world sample,
  // which only the Monte-Carlo table provides — so a forced non-MC backend
  // is an error here, same contract as RunPnn.
  if (spec.backend != ExecutorKind::kAuto &&
      spec.backend != ExecutorKind::kMonteCarlo) {
    out->status = Status::InvalidArgument(
        std::string("executor '") + ExecutorKindName(spec.backend) +
        "' does not support continuous queries");
    return;
  }
  Timer prune_timer;
  // Any object that can be NN at some tic can hold a singleton result set,
  // so PCNN candidates are the P∃NN candidates.
  PruneResult pruned = Prune(spec.q, spec.T, spec.mc.k, /*forall=*/false);
  out->pcnn.prune_millis = prune_timer.Millis();
  out->pcnn.num_candidates = pruned.candidates.size();
  out->pcnn.num_influencers = pruned.influencers.size();
  if (pruned.candidates.empty()) return;

  Timer sample_timer;
  out->executor = ExecutorKind::kMonteCarlo;
  const std::optional<WorldArena> view = ColumnView(spec, pruned.influencers);
  bool used_arena = false;
  auto table = ComputeNnTableScratch(db_, pruned.influencers, spec.q, spec.T,
                                     spec.mc, world_pool, scratch,
                                     /*rows=*/nullptr, view ? &*view : nullptr,
                                     &used_arena);
  if (!table.ok()) {
    out->status = table.status();
    return;
  }
  out->used_arena = used_arena;
  // PCNN ignores any precision target: Algorithm 1 validates timestamp sets
  // against the one shared world table, which must be complete.
  out->worlds_used = spec.mc.num_worlds;
  if (used_arena) store_->NoteSpecReuse();
  auto pcnn = PcnnOnTable(table.value(), pruned.candidates, spec.tau);
  if (!pcnn.ok()) {
    out->status = pcnn.status();
    return;
  }
  out->pcnn.pcnn = pcnn.MoveValue();
  out->pcnn.sampling_millis = sample_timer.Millis();
}

}  // namespace ust

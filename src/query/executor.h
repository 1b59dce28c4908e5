// The refinement-step executors of the plan-based query pipeline: the three
// probability backends of the codebase — exact possible-world enumeration
// (query/exact.h), the Lemma-3 Markov chain-rule approximation
// (query/markov_approx.h) and Monte-Carlo world sampling
// (query/monte_carlo.h) — behind one interface, plus the cost-based planner
// that picks among them per query from the pruning output.
//
// The split mirrors classical filter-then-refine engines: pruning (the
// filter) yields candidate/participant sets; the planner looks at their
// sizes, the interval length and the requested precision and routes the
// refinement to the cheapest backend that can honor the query semantics.
// An explicit override (per query or session-wide) bypasses the planner.
#pragma once

#include <vector>

#include "model/db_snapshot.h"
#include "query/monte_carlo.h"
#include "query/query.h"
#include "util/status.h"

namespace ust {

class ThreadPool;

/// \brief The query semantics an executor is asked to refine.
enum class QueryKind {
  kForall,      ///< P∀(k)NNQ — Definition 2
  kExists,      ///< P∃(k)NNQ — Definition 1
  kContinuous,  ///< PC(k)NNQ — Definition 3
};

/// \brief Refinement backend selector.
enum class ExecutorKind {
  kAuto = 0,      ///< let the planner decide
  kExact,         ///< possible-world enumeration; exact, tiny inputs only
  kMarkovApprox,  ///< chain-rule approximation; P∀NN only, biased (Lemma 3)
  kMonteCarlo,    ///< sampled worlds; any semantics, Hoeffding-bounded error
};

/// Stable lowercase name ("exact", "markov_approx", "monte_carlo", "auto").
const char* ExecutorKindName(ExecutorKind kind);

/// \brief One refinement job: estimate P∀NN and P∃NN of every target,
/// accounting for all participants (targets ⊆ participants).
struct PnnTask {
  const DbSnapshot* db = nullptr;
  const std::vector<ObjectId>* participants = nullptr;
  const std::vector<ObjectId>* targets = nullptr;
  const QueryTrajectory* q = nullptr;
  TimeInterval T{0, 0};
  MonteCarloOptions mc;               ///< precision knobs: worlds, k, seed
  /// Adaptive stopping target (query/adaptive.h); kFixedWorlds keeps the
  /// legacy always-num_worlds contract. Only the Monte-Carlo backend reads
  /// it — exact enumeration has no sampling error to bound.
  PrecisionTarget precision;
  /// Query semantics + threshold the adaptive stopping rule decides against
  /// (kThreshold mode); mirrors the QuerySpec that spawned the task.
  QueryKind kind = QueryKind::kForall;
  double tau = 0.0;
  size_t enum_max_worlds = 2000000;   ///< exact enumeration cross-product cap
};

/// \brief Reusable per-worker resources an executor may draw on. All fields
/// are optional; executors fall back to private locals. The Monte-Carlo
/// backend hands the first four to its one chunk loop (RunWorldChunks):
/// without a pool, every chunk runs on `sampler_scratch` and `row_buffer`.
struct ExecContext {
  ThreadPool* pool = nullptr;                  ///< world-chunk sharding
  WorldSampler::Scratch* sampler_scratch = nullptr;
  std::vector<uint8_t>* row_buffer = nullptr;  ///< one chunk's byte rows
  /// Pre-sampled world columns of the task's participants (a ColumnStore
  /// view, query/world_arena.h); the Monte-Carlo backend reads each
  /// participant's column when the arena holds one and walks the rest live
  /// (bit-identical either way), and says in `arena_used` whether every
  /// alive participant read a column.
  const WorldArena* arena = nullptr;
  bool* arena_used = nullptr;
  /// Out-params of the Monte-Carlo backend: worlds actually drawn (the cap
  /// unless an adaptive stopping rule fired) and whether the rule fired
  /// before the cap. Left untouched by the non-sampling backends.
  size_t* worlds_used = nullptr;
  bool* early_stopped = nullptr;
};

/// \brief A refinement backend. Implementations are stateless (all mutable
/// state lives in ExecContext), so the singletons from GetExecutor can be
/// shared across sessions and threads.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual ExecutorKind kind() const = 0;

  /// Whether this backend can evaluate `query` for `task` at all (e.g. the
  /// Markov approximation handles only P∀NN with k == 1 over targets alive
  /// throughout T). Cost is the planner's business, not Supports().
  virtual bool Supports(QueryKind query, const PnnTask& task) const = 0;

  /// Estimates for every target, in target order. Backends that do not
  /// compute one of the two probabilities set it to NaN (the Markov
  /// approximation computes only forall_prob).
  virtual Result<std::vector<PnnEstimate>> Estimate(
      const PnnTask& task, const ExecContext& ctx) const = 0;
};

/// The process-wide singleton for `kind` (must not be kAuto).
const Executor& GetExecutor(ExecutorKind kind);

/// \brief Planner thresholds. The defaults route only genuinely tiny
/// refinements to enumeration; everything else samples.
struct PlannerOptions {
  /// Session-wide override: when not kAuto every query without its own
  /// backend override runs on this executor.
  ExecutorKind force = ExecutorKind::kAuto;
  size_t exact_max_candidates = 3;   ///< |C(q)| at most this for enumeration
  size_t exact_max_participants = 3; ///< |participants| bound for enumeration
  size_t exact_max_interval = 6;     ///< |T| bound for enumeration
};

/// \brief Pick the backend for one refinement. Pure function of the pruning
/// output sizes and options — the session applies runtime fallback (exact
/// hitting its enumeration cap falls back to Monte-Carlo) on top. The
/// requested worlds and k do not enter the plan: enumeration's cost does
/// not depend on the precision, and it handles any k.
ExecutorKind PlanExecutor(QueryKind query, size_t num_candidates,
                          size_t num_participants, size_t interval_length,
                          size_t /*num_worlds*/, int /*k*/,
                          const PlannerOptions& options);

}  // namespace ust

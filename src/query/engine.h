// High-level single-query façade: combines UST-tree pruning (filter step)
// with the Monte-Carlo estimators (refinement step) for all three query
// semantics — the full evaluation pipeline of Section 3.3.
//
// QueryEngine is the compatibility shim over the plan-based pipeline in
// query/session.h: every call constructs a throwaway single-threaded
// QuerySession pinned to the Monte-Carlo backend, so results (seed included)
// match the historical engine bit for bit. Code running many queries against
// one database should hold a QuerySession instead — it amortizes posterior
// warm-up and sampling scratch across the batch and unlocks the planner and
// the thread pool (see bench/micro_engine for the difference).
#pragma once

#include <vector>

#include "index/ust_tree.h"
#include "model/trajectory_database.h"
#include "query/monte_carlo.h"
#include "query/pcnn.h"
#include "query/query.h"
#include "query/session.h"
#include "util/status.h"

namespace ust {

/// \brief Query evaluation framework over a database and an optional index.
///
/// Without an index, pruning degenerates to alive-time filtering (every alive
/// object is a candidate/influencer).
class QueryEngine {
 public:
  explicit QueryEngine(const TrajectoryDatabase& db,
                       const UstTree* index = nullptr)
      : db_(&db), index_(index) {}

  /// P∀(k)NNQ(q, D, T, tau) — Definition 2 (Section 8 for k > 1).
  Result<PnnQueryResult> Forall(const QueryTrajectory& q, const TimeInterval& T,
                                double tau,
                                const MonteCarloOptions& options) const;

  /// P∃(k)NNQ(q, D, T, tau) — Definition 1.
  Result<PnnQueryResult> Exists(const QueryTrajectory& q, const TimeInterval& T,
                                double tau,
                                const MonteCarloOptions& options) const;

  /// PC(k)NNQ(q, D, T, tau) — Definition 3 via Algorithm 1.
  Result<PcnnQueryResult> Continuous(const QueryTrajectory& q,
                                     const TimeInterval& T, double tau,
                                     const MonteCarloOptions& options) const;

 private:
  const TrajectoryDatabase* db_;
  const UstTree* index_;
};

}  // namespace ust

// Shared machinery of the figure-reproduction harnesses. Each fig* binary
// re-runs one experiment of Section 7 and prints the paper's series as CSV.
// Defaults are scaled for a laptop-class single core; flags restore paper
// scale (see DESIGN.md for the mapping).
#pragma once

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/timer.h"

namespace ust::bench {

/// A spec of `kind` over (q, T) at threshold `tau`, pinned to the
/// Monte-Carlo backend: the figures measure the sampling pipeline, whatever
/// the planner would pick.
inline QuerySpec MonteCarloSpec(QueryKind kind, const QueryTrajectory& q,
                                const TimeInterval& T, double tau,
                                const MonteCarloOptions& mc) {
  QuerySpec spec;
  spec.kind = kind;
  spec.q = q;
  spec.T = T;
  spec.tau = tau;
  spec.mc = mc;
  spec.backend = ExecutorKind::kMonteCarlo;
  return spec;
}

/// \brief Result of one P∀NNQ / P∃NNQ experiment cell (the TS / FA / EX
/// phases of Section 7.1 plus the pruning statistics of Figure 6-9).
struct PnnCell {
  double ts_seconds = 0;        ///< posterior-model construction (whole DB)
  double forall_seconds = 0;    ///< P∀NNQ sampling, summed over queries
  double exists_seconds = 0;    ///< P∃NNQ sampling, summed over queries
  double avg_candidates = 0;    ///< mean |C(q)| over queries
  double avg_influencers = 0;   ///< mean |I(q)| over queries
};

/// Run `num_queries` random-state queries against `db` and measure the
/// TS / FA / EX phases. The UST-tree is built outside the timings (it is the
/// paper's precomputed index); each query runs in a fresh single-threaded
/// session, inside its timer.
inline PnnCell RunPnnExperiment(const TrajectoryDatabase& db,
                                size_t num_queries, size_t interval_length,
                                size_t num_worlds, uint64_t seed) {
  PnnCell cell;
  auto tree = UstTree::Build(db);
  UST_CHECK(tree.ok());

  db.InvalidatePosteriors();
  Timer ts_timer;
  UST_CHECK(db.EnsureAllPosteriors().ok());
  cell.ts_seconds = ts_timer.Seconds();

  Rng rng(seed);
  TimeInterval T = BusiestInterval(db, interval_length);
  MonteCarloOptions options;
  options.num_worlds = num_worlds;
  for (size_t i = 0; i < num_queries; ++i) {
    QueryTrajectory q = RandomQueryState(db.space(), rng);
    options.seed = seed * 1000 + i;
    Timer fa_timer;
    const QueryOutcome forall = QuerySession(db, &tree.value())
        .Run(MonteCarloSpec(QueryKind::kForall, q, T, 0.0, options));
    cell.forall_seconds += fa_timer.Seconds();
    UST_CHECK(forall.status.ok());
    Timer ex_timer;
    const QueryOutcome exists = QuerySession(db, &tree.value())
        .Run(MonteCarloSpec(QueryKind::kExists, q, T, 0.0, options));
    cell.exists_seconds += ex_timer.Seconds();
    UST_CHECK(exists.status.ok());
    cell.avg_candidates += static_cast<double>(forall.pnn.num_candidates);
    cell.avg_influencers += static_cast<double>(forall.pnn.num_influencers);
  }
  cell.avg_candidates /= static_cast<double>(num_queries);
  cell.avg_influencers /= static_cast<double>(num_queries);
  return cell;
}

/// Print the scaled-vs-paper configuration banner every harness emits.
inline void PrintConfig(const std::string& figure, const Flags& flags,
                        const std::string& details) {
  std::printf("# %s\n", figure.c_str());
  std::printf("# config: %s\n", details.c_str());
  std::printf("# (defaults are scaled for CI; see DESIGN.md section 2 for "
              "the paper-scale flags)\n");
  (void)flags;
}

/// Median of `values` (non-empty): the mean of the two middle values for an
/// even count.
inline double Median(std::vector<double> values) {
  UST_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace ust::bench

#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "query/adaptive.h"
#include "query/exact.h"
#include "query/markov_approx.h"
#include "util/check.h"
#include "util/trace.h"

namespace ust {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---- Exact: possible-world enumeration (Example 1 / Section 4.1). ----
class ExactExecutor : public Executor {
 public:
  ExecutorKind kind() const override { return ExecutorKind::kExact; }

  bool Supports(QueryKind query, const PnnTask&) const override {
    // Enumeration yields the full per-target P∀NN/P∃NN vector; PCNN would
    // additionally need per-timestamp-set probabilities over shared worlds.
    return query == QueryKind::kForall || query == QueryKind::kExists;
  }

  Result<std::vector<PnnEstimate>> Estimate(const PnnTask& task,
                                            const ExecContext& ctx)
      const override {
    UST_TRACE_SCOPE("exec_exact", task.targets->size(), "targets");
    // The cross-product sweep shards its fixed-size world blocks over the
    // pool (bit-identical at any thread count; see ExactPnnByEnumeration).
    auto all = ExactPnnByEnumeration(*task.db, *task.participants, *task.q,
                                     task.T, task.mc.k, task.enum_max_worlds,
                                     ctx.pool);
    if (!all.ok()) return all.status();
    // Enumeration estimates every participant; keep target order.
    std::vector<PnnEstimate> out;
    out.reserve(task.targets->size());
    for (ObjectId t : *task.targets) {
      auto it = std::find_if(
          all.value().begin(), all.value().end(),
          [t](const PnnEstimate& e) { return e.object == t; });
      if (it == all.value().end()) {
        return Status::InvalidArgument("target not among participants");
      }
      out.push_back(*it);
    }
    return out;
  }
};

// ---- Markov approximation: Lemma-3 chain rule (Section 4.2). ----
class MarkovApproxExecutor : public Executor {
 public:
  ExecutorKind kind() const override { return ExecutorKind::kMarkovApprox; }

  bool Supports(QueryKind query, const PnnTask& task) const override {
    if (query != QueryKind::kForall || task.mc.k != 1) return false;
    for (ObjectId t : *task.targets) {
      if (!task.db->object(t).AliveThroughout(task.T.start, task.T.end)) {
        return false;
      }
    }
    return true;
  }

  Result<std::vector<PnnEstimate>> Estimate(const PnnTask& task,
                                            const ExecContext& ctx)
      const override {
    UST_TRACE_SCOPE("exec_markov", task.targets->size(), "targets");
    // Per-target chain-rule factors shard over the pool: each target's
    // conditioning chain is independent and writes its own slot, so the
    // batch is bit-identical to per-target serial calls at any thread
    // count (the augmented competitor strips are shared read-only).
    auto probs = ApproximateForallNnMarkovBatch(*task.db, *task.targets,
                                                *task.participants, *task.q,
                                                task.T, ctx.pool);
    if (!probs.ok()) return probs.status();
    std::vector<PnnEstimate> out;
    out.reserve(task.targets->size());
    for (size_t i = 0; i < task.targets->size(); ++i) {
      // exists_prob: not computed by this backend.
      out.push_back({(*task.targets)[i], probs.value()[i], kNan});
    }
    return out;
  }
};

// ---- Monte-Carlo: sampled possible worlds (Section 5). ----
class MonteCarloExecutor : public Executor {
 public:
  ExecutorKind kind() const override { return ExecutorKind::kMonteCarlo; }

  bool Supports(QueryKind, const PnnTask&) const override { return true; }

  Result<std::vector<PnnEstimate>> Estimate(const PnnTask& task,
                                            const ExecContext& ctx)
      const override {
    UST_TRACE_SCOPE("exec_mc", task.mc.num_worlds, "worlds");
    // One estimator for every precision mode (query/adaptive.h): a fixed
    // count is the stop rule that never fires.
    auto estimated = EstimatePnnAdaptive(
        *task.db, *task.participants, *task.targets, *task.q, task.T,
        task.kind == QueryKind::kExists ? PnnSemantics::kExists
                                        : PnnSemantics::kForall,
        task.tau, task.mc, task.precision, ctx.pool, ctx.sampler_scratch,
        ctx.row_buffer, ctx.arena, ctx.arena_used);
    if (!estimated.ok()) return estimated.status();
    if (ctx.worlds_used != nullptr) {
      *ctx.worlds_used = estimated.value().worlds_used;
    }
    if (ctx.early_stopped != nullptr) {
      *ctx.early_stopped = estimated.value().early_stopped;
    }
    return std::move(estimated.value().estimates);
  }
};

}  // namespace

const char* ExecutorKindName(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kAuto:
      return "auto";
    case ExecutorKind::kExact:
      return "exact";
    case ExecutorKind::kMarkovApprox:
      return "markov_approx";
    case ExecutorKind::kMonteCarlo:
      return "monte_carlo";
  }
  return "unknown";
}

const Executor& GetExecutor(ExecutorKind kind) {
  static const ExactExecutor exact;
  static const MarkovApproxExecutor markov;
  static const MonteCarloExecutor monte_carlo;
  switch (kind) {
    case ExecutorKind::kExact:
      return exact;
    case ExecutorKind::kMarkovApprox:
      return markov;
    case ExecutorKind::kAuto:
    case ExecutorKind::kMonteCarlo:
      break;
  }
  UST_CHECK(kind == ExecutorKind::kMonteCarlo);
  return monte_carlo;
}

ExecutorKind PlanExecutor(QueryKind query, size_t num_candidates,
                          size_t num_participants, size_t interval_length,
                          size_t num_worlds, int k,
                          const PlannerOptions& options) {
  if (options.force != ExecutorKind::kAuto) return options.force;
  // PCNN validates timestamp *sets* against one shared world sample
  // (Algorithm 1); only the sampling backend provides that table.
  if (query == QueryKind::kContinuous) return ExecutorKind::kMonteCarlo;
  (void)k;
  // Effective Monte-Carlo parallelism: chunks are a fixed 512 worlds, so
  // extra workers beyond num_worlds/512 have no chunk to run. Enumeration
  // gets no parallel credit here — its block count depends on per-object
  // world counts the planner cannot see — so a parallel tier scales the
  // precision bar exact must clear: MC that is `mc_par`× faster needs
  // `mc_par`× the worlds before enumeration breaks even again.
  const size_t mc_par =
      std::min<size_t>(std::max<size_t>(1, options.assumed_parallelism),
                       std::max<size_t>(1, num_worlds / 512));
  // Enumeration cost is exponential in the participant count and interval
  // length but independent of the requested precision; it wins only when the
  // filter output is tiny and the precision request is not trivially small.
  if (num_candidates <= options.exact_max_candidates &&
      num_participants <= options.exact_max_participants &&
      interval_length <= options.exact_max_interval &&
      num_worlds >= options.exact_min_precision * mc_par) {
    return ExecutorKind::kExact;
  }
  return ExecutorKind::kMonteCarlo;
}

}  // namespace ust

#include "query/adaptive.h"

#include <algorithm>

#include "util/stats.h"

namespace ust {

namespace {

// Indices of `targets` within `participants`; InvalidArgument when missing.
Result<std::vector<size_t>> ResolveTargets(
    const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets) {
  std::vector<size_t> indices;
  indices.reserve(targets.size());
  for (ObjectId t : targets) {
    auto it = std::find(participants.begin(), participants.end(), t);
    if (it == participants.end()) {
      return Status::InvalidArgument("target not among participants");
    }
    indices.push_back(static_cast<size_t>(it - participants.begin()));
  }
  return indices;
}

// Adds each target's forall/exists hits over the chunk a fill left in
// `chunk`: participant i is a (k)NN of q at world j and tic rel0 + r exactly
// when its distance is within that tic's k-th distance. A forall hit needs
// all `len` tics of T, so only a window covering T can score one.
void CountHits(const WorldSampler& sampler, const WorldSampler::Scratch& chunk,
               const std::vector<size_t>& target_index, size_t len,
               std::vector<size_t>* forall_hits,
               std::vector<size_t>* exists_hits) {
  for (size_t ti = 0; ti < target_index.size(); ++ti) {
    const WorldSampler::Block b = sampler.BlockOf(chunk, target_index[ti]);
    const double* d = b.dist;
    const double* kth = chunk.kth.data() + b.rel0;
    size_t all = 0, any = 0;
    for (size_t j = 0; j < chunk.worlds; ++j, d += b.wlen, kth += len) {
      size_t nn = 0;
      for (uint32_t r = 0; r < b.wlen; ++r) nn += d[r] <= kth[r];
      all += nn == len;
      any += nn != 0;
    }
    (*forall_hits)[ti] += all;
    (*exists_hits)[ti] += any;
  }
}

}  // namespace

Result<AdaptivePnnResult> EstimatePnnAdaptive(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, PnnSemantics semantics, double tau,
    const MonteCarloOptions& mc, const PrecisionTarget& precision,
    ThreadPool* pool, WorldSampler::Scratch* scratch, const WorldArena* arena,
    bool* used_arena) {
  // Each check states the valid range, so a NaN (false under every
  // comparison) is rejected rather than let through to the stop rule.
  const bool fixed = precision.mode == PrecisionMode::kFixedWorlds;
  if (!fixed && !(precision.delta > 0.0 && precision.delta < 1.0)) {
    return Status::InvalidArgument("delta out of range");
  }
  if (precision.mode == PrecisionMode::kEpsilon &&
      !(precision.epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (precision.mode == PrecisionMode::kThreshold &&
      !(tau >= 0.0 && tau <= 1.0)) {
    return Status::InvalidArgument("tau out of [0, 1]");
  }
  if (mc.num_worlds == 0) {
    return Status::InvalidArgument("num_worlds must be positive");
  }
  auto target_index = ResolveTargets(participants, targets);
  if (!target_index.ok()) return target_index.status();
  auto sampler = WorldSampler::Create(db, participants, q, T, mc.k, mc.seed);
  if (!sampler.ok()) return sampler.status();

  const size_t cap = mc.num_worlds;
  const size_t len = T.length();
  const size_t num_targets = targets.size();
  const double per_target_delta =
      precision.delta / static_cast<double>(std::max<size_t>(1, num_targets));

  std::vector<size_t> forall_hits(num_targets, 0);
  std::vector<size_t> exists_hits(num_targets, 0);
  AdaptivePnnResult result;
  result.estimates.resize(num_targets);
  std::vector<char> decided(num_targets, 0);
  size_t undecided = num_targets;

  // The stopping rule at prefix boundary `worlds`. Reads only the prefix hit
  // counts, so the decision is a pure function of (db, spec) — the
  // determinism contract of DESIGN.md section 8. Decisions are sticky: a
  // target decided at one boundary freezes its estimates there and is never
  // re-examined, so later chunks cannot flip an already-published decision.
  // A fixed count never stops before the cap.
  auto check_stop = [&](size_t worlds) {
    if (fixed) return false;
    if (precision.mode == PrecisionMode::kThreshold) {
      for (size_t ti = 0; ti < num_targets; ++ti) {
        if (decided[ti]) continue;
        const size_t hits = semantics == PnnSemantics::kForall
                                ? forall_hits[ti]
                                : exists_hits[ti];
        Interval ci = WilsonInterval(hits, worlds, per_target_delta);
        if (ci.lo >= tau || ci.hi < tau) {
          decided[ti] = 1;
          --undecided;
          const double w = static_cast<double>(worlds);
          // Wilson brackets the point estimate (lo <= p̂ <= hi), so the
          // frozen estimate agrees with the interval decision under any
          // downstream `p >= tau` filter.
          result.estimates[ti] = {
              targets[ti], static_cast<double>(forall_hits[ti]) / w,
              static_cast<double>(exists_hits[ti]) / w};
        }
      }
      return undecided == 0;
    }
    // kEpsilon: the distribution-free Hoeffding bound caps the stop count at
    // the a-priori sizing rounded up to a chunk; the per-target Wilson
    // half-width stops far earlier when probabilities sit near 0 or 1.
    if (HoeffdingEpsilon(worlds, precision.delta) <= precision.epsilon) {
      return true;
    }
    for (size_t ti = 0; ti < num_targets; ++ti) {
      const size_t hits = semantics == PnnSemantics::kForall ? forall_hits[ti]
                                                             : exists_hits[ti];
      Interval ci = WilsonInterval(hits, worlds, per_target_delta);
      if (ci.hi - ci.lo > 2.0 * precision.epsilon) return false;
    }
    return true;
  };

  const size_t worlds = RunWorldChunks(
      sampler.value(), cap, arena, used_arena, pool, scratch,
      [&](size_t, const WorldSampler::Scratch& chunk) {
        CountHits(sampler.value(), chunk, target_index.value(), len,
                  &forall_hits, &exists_hits);
      },
      check_stop);

  // Estimates not frozen by a threshold decision read the stop boundary:
  // fixed and epsilon-mode targets, and threshold targets still straddling
  // tau at the cap (their qualification falls back to the point estimate,
  // flagged via `undecided`). count / W is the very double an NnTable's
  // popcount reduction gives.
  const double w = static_cast<double>(worlds);
  for (size_t ti = 0; ti < num_targets; ++ti) {
    if (precision.mode == PrecisionMode::kThreshold && decided[ti]) continue;
    result.estimates[ti] = {targets[ti],
                            static_cast<double>(forall_hits[ti]) / w,
                            static_cast<double>(exists_hits[ti]) / w};
  }
  result.worlds_used = worlds;
  result.early_stopped = worlds < cap;
  result.undecided =
      precision.mode == PrecisionMode::kThreshold ? undecided : 0;
  return result;
}

Result<std::vector<PnnEstimate>> EstimatePnn(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, const MonteCarloOptions& options, ThreadPool* pool) {
  auto result = EstimatePnnAdaptive(db, participants, targets, q, T,
                                    PnnSemantics::kForall, /*tau=*/0.0,
                                    options, PrecisionTarget{}, pool,
                                    /*scratch=*/nullptr);
  if (!result.ok()) return result.status();
  return std::move(result.value().estimates);
}

}  // namespace ust

// Sequential (adaptive) Monte-Carlo estimation. The paper sizes its sample
// count a priori with Hoeffding's inequality [29]; sequential sampling goes
// further: it draws worlds in chunks and stops as soon as the estimates are
// provably good enough, which for threshold queries (P >= tau) is usually
// orders of magnitude earlier than the worst-case Hoeffding count —
// probabilities far from tau are decided after a few hundred worlds.
//
// EstimatePnnAdaptive is the one P∀NN/P∃NN estimator. The Monte-Carlo
// executor (query/executor.cc) routes every sampled P∀NN/P∃NN spec to it
// (a fixed-count spec is the stop rule that never fires), EstimatePnn is a
// fixed-mode call of it, and standalone callers (benches, examples) call it
// directly over a DbSnapshot. It runs on the one chunk loop
// (RunWorldChunks): chunk-deterministic, pool-sharded and arena-aware
// (DESIGN.md section 8).
#pragma once

#include <cstdint>
#include <vector>

#include "model/db_snapshot.h"
#include "query/monte_carlo.h"
#include "query/query.h"
#include "util/status.h"

namespace ust {

class ThreadPool;
class WorldArena;

/// \brief Which probability a threshold decision is about.
enum class PnnSemantics {
  kForall,  ///< P∀NN (Definition 2)
  kExists,  ///< P∃NN (Definition 1)
};

/// \brief Result of the adaptive estimator.
struct AdaptivePnnResult {
  /// Per-target estimates, in target order. In threshold mode the estimates
  /// of a decided target are *frozen* at its decision boundary: the Wilson
  /// interval brackets the point estimate (lo <= p̂ <= hi), so the frozen
  /// estimate passes or fails a `p >= tau` filter exactly as the interval
  /// decision dictates — downstream threshold filters and the CI decisions
  /// can never disagree.
  std::vector<PnnEstimate> estimates;
  size_t worlds_used = 0;    ///< chunk-aligned stop count (<= mc.num_worlds)
  bool early_stopped = false;  ///< stopped before the num_worlds cap
  /// Threshold mode: targets still straddling tau at the cap (their
  /// estimates are point estimates at the cap, not interval decisions).
  size_t undecided = 0;
};

/// \brief The estimator: sample worlds in WorldSampler::kWorldChunk chunks,
/// count per target the worlds where it is NN at every tic (P∀NN) and at
/// some tic (P∃NN), check the PrecisionTarget's stopping rule at every chunk
/// boundary *in prefix order*, and stop at the first boundary where every
/// target is decided (kThreshold) or every estimate is within epsilon
/// (kEpsilon). `mc.num_worlds` is the hard cap, and a positive one;
/// kFixedWorlds never stops before it (and ignores delta, epsilon and tau),
/// giving estimates bit-identical to NnTable's ForallProb/ExistsProb over
/// the same worlds.
///
/// Determinism: worlds are the same id-keyed streams ComputeNnTable draws,
/// chunk boundaries are fixed, and the stopping rule only reads prefix
/// hit counts — so the stop count and every estimate are a pure function of
/// (db, spec), at any `pool` size. A pool samples chunks ahead
/// speculatively (waves of one chunk per worker); chunks past the stop
/// boundary are discarded unaccumulated.
///
/// When `arena` matches (T, seed, num_worlds), the participants it holds
/// columns for are *evaluated* against their column prefixes instead of
/// sampled — bit-identical marks, so identical stop decisions — and
/// `*used_arena` says whether every alive participant read a column. The
/// prefix property makes a column of N worlds serve any early-stopped
/// prefix <= N.
Result<AdaptivePnnResult> EstimatePnnAdaptive(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, PnnSemantics semantics, double tau,
    const MonteCarloOptions& mc, const PrecisionTarget& precision,
    ThreadPool* pool, WorldSampler::Scratch* scratch,
    std::vector<uint8_t>* rows, const WorldArena* arena = nullptr,
    bool* used_arena = nullptr);

}  // namespace ust

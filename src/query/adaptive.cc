#include "query/adaptive.h"

#include <algorithm>

#include "query/world_arena.h"
#include "util/stats.h"
#include "util/thread_pool.h"

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

// Updates per-target forall/exists success counts from one world's marks.
void Accumulate(const uint8_t* is_nn, const std::vector<size_t>& target_index,
                size_t interval_length, std::vector<size_t>* forall_hits,
                std::vector<size_t>* exists_hits) {
  for (size_t ti = 0; ti < target_index.size(); ++ti) {
    const uint8_t* row = is_nn + target_index[ti] * interval_length;
    bool all = true, any = false;
    for (size_t r = 0; r < interval_length; ++r) {
      if (row[r]) {
        any = true;
      } else {
        all = false;
      }
    }
    (*forall_hits)[ti] += all ? 1 : 0;
    (*exists_hits)[ti] += any ? 1 : 0;
  }
}

}  // namespace

Result<AdaptivePnnResult> EstimatePnnAdaptive(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const std::vector<ObjectId>& targets, const QueryTrajectory& q,
    const TimeInterval& T, PnnSemantics semantics, double tau,
    const MonteCarloOptions& mc, const PrecisionTarget& precision,
    ThreadPool* pool, WorldSampler::Scratch* scratch,
    std::vector<uint8_t>* rows, const WorldArena* arena, bool* used_arena) {
  if (precision.mode == PrecisionMode::kFixedWorlds) {
    return Status::InvalidArgument(
        "adaptive estimator requires a non-fixed precision mode");
  }
  if (precision.delta <= 0.0 || precision.delta >= 1.0) {
    return Status::InvalidArgument("delta out of range");
  }
  if (precision.mode == PrecisionMode::kEpsilon && precision.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (precision.mode == PrecisionMode::kThreshold &&
      (tau < 0.0 || tau > 1.0)) {
    return Status::InvalidArgument("tau out of [0, 1]");
  }
  if (mc.num_worlds == 0) {
    return Status::InvalidArgument("num_worlds must be positive");
  }
  auto target_index = ResolveTargets(participants, targets);
  if (!target_index.ok()) return target_index.status();
  auto sampler = WorldSampler::Create(db, participants, q, T, mc.k, mc.seed);
  if (!sampler.ok()) return sampler.status();
  const WorldSampler& ws = sampler.value();

  const size_t cap = mc.num_worlds;
  const size_t len = T.length();
  const size_t stride = participants.size() * len;
  constexpr size_t kChunk = WorldSampler::kWorldChunk;

  // Arena coverage is checked against the *cap*: the prefix property of the
  // id-keyed streams means an arena holding num_worlds >= cap serves any
  // early-stopped prefix bit-identically (world w is always the w-th draw).
  const bool arena_ok = arena != nullptr &&
                        arena->Matches(T, mc.seed, cap) &&
                        ws.CoveredBy(*arena);
  if (used_arena != nullptr) *used_arena = arena_ok;

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
  auto check_stop = [&](size_t worlds) {
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

  const size_t num_chunks = (cap + kChunk - 1) / kChunk;
  size_t worlds = 0;
  bool stopped = false;

  WorldSampler::Scratch local_scratch;
  std::vector<uint8_t> local_rows;
  if (scratch == nullptr) scratch = &local_scratch;
  if (rows == nullptr) rows = &local_rows;

  const int workers = pool != nullptr ? pool->num_threads() : 1;
  if (workers > 1 && num_chunks > 1) {
    // Speculative waves: sample up to one chunk per worker concurrently,
    // then accumulate and check boundaries serially *in chunk order*.
    // Chunks past the stop boundary are discarded unaccumulated, so the
    // published estimates and the stop count match the serial path exactly.
    // The first wave is a single chunk — easy queries stop right there and
    // never pay for speculation.
    const size_t wave_cap = static_cast<size_t>(workers);
    std::vector<WorldSampler::Scratch> scratches(wave_cap);
    std::vector<std::vector<uint8_t>> bufs(wave_cap);
    std::vector<std::vector<Rng>> starts(wave_cap);
    std::vector<Rng> cursor;
    if (!arena_ok) cursor = ws.InitialRngs();
    size_t c = 0;
    size_t wave_size = 1;
    while (c < num_chunks && !stopped) {
      const size_t wave_chunks = std::min(wave_size, num_chunks - c);
      if (!arena_ok) {
        // One serial O(W) RNG prefix pass, exactly as the fixed-count
        // sharded path derives its chunk starts.
        for (size_t j = 0; j < wave_chunks; ++j) {
          starts[j] = cursor;
          const size_t w0 = (c + j) * kChunk;
          const size_t n = std::min(kChunk, cap - w0);
          if (c + j + 1 < num_chunks) WorldSampler::AdvanceWorlds(&cursor, n);
        }
      }
      pool->ParallelFor(wave_chunks, [&](size_t j, int) {
        const size_t w0 = (c + j) * kChunk;
        const size_t n = std::min(kChunk, cap - w0);
        bufs[j].resize(n * stride);
        if (arena_ok) {
          ws.EvalArenaWorlds(*arena, w0, n, bufs[j].data(), stride,
                             &scratches[j]);
        } else {
          ws.SampleWorldsFrom(starts[j], n, bufs[j].data(), stride,
                              &scratches[j]);
        }
      });
      for (size_t j = 0; j < wave_chunks && !stopped; ++j) {
        const size_t w0 = (c + j) * kChunk;
        const size_t n = std::min(kChunk, cap - w0);
        for (size_t b = 0; b < n; ++b) {
          Accumulate(bufs[j].data() + b * stride, target_index.value(), len,
                     &forall_hits, &exists_hits);
        }
        worlds = w0 + n;
        stopped = check_stop(worlds);
      }
      c += wave_chunks;
      wave_size = wave_cap;
    }
  } else {
    if (!arena_ok) ws.ResetCursor(scratch);
    rows->resize(std::min(cap, kChunk) * stride);
    for (size_t w0 = 0; w0 < cap && !stopped; w0 += kChunk) {
      const size_t n = std::min(kChunk, cap - w0);
      if (arena_ok) {
        ws.EvalArenaWorlds(*arena, w0, n, rows->data(), stride, scratch);
      } else {
        ws.SampleNext(n, rows->data(), stride, scratch);
      }
      for (size_t b = 0; b < n; ++b) {
        Accumulate(rows->data() + b * stride, target_index.value(), len,
                   &forall_hits, &exists_hits);
      }
      worlds = w0 + n;
      stopped = check_stop(worlds);
    }
  }

  // Estimates not frozen by a threshold decision read the stop boundary:
  // epsilon-mode targets, and threshold targets still straddling tau at the
  // cap (their qualification falls back to the point estimate, flagged via
  // `undecided`).
  const double w = static_cast<double>(worlds);
  for (size_t ti = 0; ti < num_targets; ++ti) {
    if (precision.mode == PrecisionMode::kThreshold && decided[ti]) continue;
    result.estimates[ti] = {targets[ti],
                            static_cast<double>(forall_hits[ti]) / w,
                            static_cast<double>(exists_hits[ti]) / w};
  }
  result.worlds_used = worlds;
  result.early_stopped = stopped && worlds < cap;
  result.undecided =
      precision.mode == PrecisionMode::kThreshold ? undecided : 0;
  return result;
}

}  // namespace ust

#include "query/monte_carlo.h"

#include <algorithm>
#include <limits>

#include "query/world_arena.h"
#include "util/check.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace ust {

namespace {

/// Gather per-tic word-row pointers for the SIMD row folds. Tic counts are
/// tiny (interval lengths); a 64-pointer stack array covers every practical
/// query, with a heap fallback keeping the contract unconditional.
struct RowPtrs {
  const uint64_t* stack[64];
  std::vector<const uint64_t*> heap;
  const uint64_t** Get(size_t n) {
    if (n <= 64) return stack;
    heap.resize(n);
    return heap.data();
  }
};

}  // namespace

void NnTable::BuildIndex() {
  sorted_index_.reserve(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) {
    sorted_index_.push_back({objects_[i], static_cast<uint32_t>(i)});
  }
  std::sort(sorted_index_.begin(), sorted_index_.end());
}

size_t NnTable::IndexOf(ObjectId o) const {
  auto it = std::lower_bound(
      sorted_index_.begin(), sorted_index_.end(), o,
      [](const std::pair<ObjectId, uint32_t>& e, ObjectId v) {
        return e.first < v;
      });
  if (it != sorted_index_.end() && it->first == o) return it->second;
  return npos;
}

double NnTable::ReduceProb(size_t obj_index, const Tic* tics, size_t num_tics,
                           bool forall) const {
  UST_CHECK(obj_index < objects_.size());
  if (num_worlds_ == 0) return 0.0;
  if (num_tics == 0) return forall ? 1.0 : 0.0;  // vacuous truth / falsity
  RowPtrs ptrs;
  const uint64_t** rows = ptrs.Get(num_tics);
  for (size_t ti = 0; ti < num_tics; ++ti) {
    UST_DCHECK(interval_.Contains(tics[ti]));
    rows[ti] = TicWords(obj_index, RelTic(tics[ti]));
  }
  // Dispatched word sweep (util/simd.h): popcount sums are integers, so
  // every dispatch level returns the same count — and thus the same double.
  const uint64_t count =
      forall ? AndRowsPopcount(rows, num_tics, words_per_tic_)
             : OrRowsPopcount(rows, num_tics, words_per_tic_);
  return static_cast<double>(count) / static_cast<double>(num_worlds_);
}

double NnTable::ForallProb(size_t obj_index,
                           const std::vector<Tic>& tics) const {
  return ReduceProb(obj_index, tics.data(), tics.size(), /*forall=*/true);
}

double NnTable::ExistsProb(size_t obj_index,
                           const std::vector<Tic>& tics) const {
  return ReduceProb(obj_index, tics.data(), tics.size(), /*forall=*/false);
}

double NnTable::ProbAt(size_t obj_index, Tic t) const {
  UST_CHECK(obj_index < objects_.size());
  UST_DCHECK(interval_.Contains(t));
  if (num_worlds_ == 0) return 0.0;
  const uint64_t* row = TicWords(obj_index, RelTic(t));
  const uint64_t count = AndRowsPopcount(&row, 1, words_per_tic_);
  return static_cast<double>(count) / static_cast<double>(num_worlds_);
}

double NnTable::ForallProb(size_t obj_index) const {
  UST_CHECK(obj_index < objects_.size());
  if (num_worlds_ == 0) return 0.0;
  const size_t len = interval_.length();
  RowPtrs ptrs;
  const uint64_t** rows = ptrs.Get(len);
  for (size_t rel = 0; rel < len; ++rel) {
    rows[rel] = TicWords(obj_index, rel);
  }
  const uint64_t count = AndRowsPopcount(rows, len, words_per_tic_);
  return static_cast<double>(count) / static_cast<double>(num_worlds_);
}

double NnTable::ExistsProb(size_t obj_index) const {
  UST_CHECK(obj_index < objects_.size());
  if (num_worlds_ == 0) return 0.0;
  const size_t len = interval_.length();
  RowPtrs ptrs;
  const uint64_t** rows = ptrs.Get(len);
  for (size_t rel = 0; rel < len; ++rel) {
    rows[rel] = TicWords(obj_index, rel);
  }
  const uint64_t count = OrRowsPopcount(rows, len, words_per_tic_);
  return static_cast<double>(count) / static_cast<double>(num_worlds_);
}

Result<WorldSampler> WorldSampler::Create(const DbSnapshot& db,
                                          std::vector<ObjectId> participants,
                                          const QueryTrajectory& q,
                                          const TimeInterval& T, int k,
                                          uint64_t seed) {
  if (!T.valid()) return Status::InvalidArgument("empty query interval");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  for (Tic t = T.start; t <= T.end; ++t) {
    if (!q.Covers(t)) {
      return Status::InvalidArgument(
          "query trajectory does not cover the query interval");
    }
  }
  WorldSampler sampler;
  sampler.participants_ = std::move(participants);
  sampler.interval_ = T;
  sampler.k_ = k;
  sampler.seed_ = seed;
  std::vector<Point2> qpts;  // q.At per tic of T, hoisted
  qpts.reserve(T.length());
  for (Tic t = T.start; t <= T.end; ++t) qpts.push_back(q.At(t));
  sampler.resolved_.reserve(sampler.participants_.size());
  for (ObjectId id : sampler.participants_) {
    const UncertainObject& obj = db.object(id);
    auto posterior = obj.Posterior();
    if (!posterior.ok()) return posterior.status();
    Participant p;
    p.model = posterior.value();
    p.ws = std::max(T.start, p.model->first_tic());
    p.we = std::min(T.end, p.model->last_tic());
    p.alive = p.ws <= p.we;
    // Id-keyed stream, not a positional fork: an object's worlds depend only
    // on (seed, id), never on which other participants the query kept, so a
    // shared arena over a superset serves any pruned subset bit-identically.
    p.rng0 = Rng(WorldStreamSeed(seed, id));
    if (p.alive) {
      // Validate the window once and warm the alias samplers here, so world
      // sampling is pure array lookups.
      UST_CHECK(p.model->CoversWindow(p.ws, p.we));
      p.model->EnsureSamplers();
      p.rel0 = static_cast<uint32_t>(p.ws - T.start);
      p.wlen = static_cast<uint32_t>(p.we - p.ws) + 1;
      p.doff = sampler.total_wlen_;
      sampler.total_wlen_ += p.wlen;
      // Precompute the support-state-to-q distances of every window slice:
      // one pass per query replaces a coord lookup per sampled state.
      p.dbase = sampler.dtab_.size();
      p.dtab_off.resize(p.wlen + 1);
      uint32_t cum = 0;
      for (uint32_t r = 0; r < p.wlen; ++r) {
        const PosteriorModel::Slice& slice =
            p.model->SliceAt(p.ws + static_cast<Tic>(r));
        p.dtab_off[r] = cum;
        const Point2& qt = qpts[p.rel0 + r];
        for (StateId s : slice.support) {
          sampler.dtab_.push_back(SquaredDistance(db.space().coord(s), qt));
        }
        cum += static_cast<uint32_t>(slice.support.size());
      }
      p.dtab_off[p.wlen] = cum;
    }
    sampler.resolved_.push_back(std::move(p));
  }
  return sampler;
}

std::vector<Rng> WorldSampler::InitialRngs() const {
  std::vector<Rng> rngs;
  rngs.reserve(resolved_.size());
  for (const Participant& p : resolved_) rngs.push_back(p.rng0);
  return rngs;
}

void WorldSampler::AdvanceWorlds(std::vector<Rng>* rngs, size_t worlds) {
  // One Fork (== one parent draw) is consumed per world, so advancing a
  // stream by `worlds` raw draws reproduces the serial state at that world.
  for (Rng& r : *rngs) {
    for (size_t w = 0; w < worlds; ++w) (void)r();
  }
}

namespace {

/// Feeds `visit(w, rel, local)` every support index of one participant's
/// window in worlds [0, chunk): read from its column rows (`column` points
/// at the chunk's first world), or drawn by the batch walk from `rng`.
template <typename Visit>
void VisitWindows(const PosteriorModel& model, Tic ws, Tic we, uint32_t wlen,
                  const uint32_t* column, Rng* rng, size_t chunk,
                  Visit&& visit) {
  if (column != nullptr) {
    for (size_t w = 0; w < chunk; ++w) {
      const uint32_t* srow = column + w * wlen;
      for (uint32_t r = 0; r < wlen; ++r) visit(w, r, srow[r]);
    }
    return;
  }
  model.SampleWindowBatchVisit(
      ws, we, chunk, *rng,
      [visit](size_t w, size_t rel, uint32_t local, StateId) {
        visit(w, rel, local);
      });
}

}  // namespace

size_t WorldSampler::FillWorlds(size_t w0, size_t count,
                                const WorldArena* arena,
                                std::vector<Rng>* cursor,
                                Scratch* scratch) const {
  const size_t n = resolved_.size();
  const size_t len = interval_.length();
  UST_CHECK(count <= kWorldChunk);
  UST_CHECK(arena == nullptr || w0 + count <= arena->num_worlds());
  // Resolve each alive participant's source once per call.
  std::vector<const uint32_t*>& columns = scratch->columns;
  columns.assign(n, nullptr);
  size_t walked = 0;
  for (size_t i = 0; i < n; ++i) {
    const Participant& p = resolved_[i];
    if (!p.alive) continue;
    const WorldColumn* c =
        arena != nullptr ? arena->Find(participants_[i]) : nullptr;
    if (c != nullptr && c->ws == p.ws && c->we == p.we) {
      columns[i] = c->indices.data() + w0 * p.wlen;
    } else {
      UST_CHECK(cursor != nullptr && cursor->size() == n);
      ++walked;
    }
  }
  scratch->worlds = count;
  std::vector<double>& dist2 = scratch->dist2;
  std::vector<double>& kth = scratch->kth;
  dist2.resize(total_wlen_ * count);
  kth.resize(count * len);
  if (k_ == 1) {
    std::fill(kth.begin(), kth.end(), std::numeric_limits<double>::infinity());
  }
  // ---- Phase 1: participant-major sampling straight into distances. ----
  // One participant's alias tables (or column rows) stay hot across the whole
  // chunk and the batch sampler keeps several walks in flight; the sampled
  // windows are converted to squared distances immediately (no trajectory
  // ever escapes this loop). For k == 1 the chunk's per-tic minima fold
  // into the same pass while the block is L1-resident, as a select rather
  // than a branch: whether a distance lowers the minimum is a coin flip for
  // the first participants, and a mispredicted branch per visit cost about
  // a fifth of a column-served fill.
  for (size_t i = 0; i < n; ++i) {
    const Participant& p = resolved_[i];
    if (!p.alive) continue;
    const double* dtab = dtab_.data() + p.dbase;
    const uint32_t* doff = p.dtab_off.data();
    double* block = dist2.data() + p.doff * count;
    const uint32_t wlen = p.wlen;
    const uint32_t* column = columns[i];
    Rng* rng = column != nullptr ? nullptr : &(*cursor)[i];
    if (k_ == 1) {
      double* mins = kth.data() + p.rel0;
      VisitWindows(*p.model, p.ws, p.we, wlen, column, rng, count,
                   [=](size_t w, size_t rel, uint32_t local) {
                     const double d = dtab[doff[rel] + local];
                     block[w * wlen + rel] = d;
                     double& m = mins[w * len + rel];
                     m = d < m ? d : m;
                   });
    } else {
      VisitWindows(*p.model, p.ws, p.we, wlen, column, rng, count,
                   [=](size_t w, size_t rel, uint32_t local) {
                     block[w * wlen + rel] = dtab[doff[rel] + local];
                   });
    }
  }
  if (k_ != 1) KthDistances(scratch);
  return walked;
}

void WorldSampler::KthDistances(Scratch* scratch) const {
  const size_t len = interval_.length();
  const size_t chunk = scratch->worlds;
  const std::vector<double>& dist2 = scratch->dist2;
  std::vector<double>& alive = scratch->alive;
  for (size_t w = 0; w < chunk; ++w) {
    double* kth = scratch->kth.data() + w * len;
    for (size_t rel = 0; rel < len; ++rel) {
      alive.clear();
      for (const Participant& p : resolved_) {
        if (rel < p.rel0 || rel >= p.rel0 + p.wlen) continue;
        alive.push_back(dist2[p.doff * chunk + w * p.wlen + (rel - p.rel0)]);
      }
      if (alive.empty()) {
        kth[rel] = std::numeric_limits<double>::infinity();
        continue;
      }
      const size_t kk =
          std::min<size_t>(static_cast<size_t>(k_), alive.size());
      std::nth_element(alive.begin(), alive.begin() + (kk - 1), alive.end());
      kth[rel] = alive[kk - 1];
    }
  }
}

size_t RunWorldChunks(const WorldSampler& sampler, size_t num_worlds,
                      const WorldArena* arena, bool* used_arena,
                      ThreadPool* pool, WorldSampler::Scratch* scratch,
                      const WorldChunkFn& consume, const WorldStopFn& stop) {
  constexpr size_t kChunk = WorldSampler::kWorldChunk;
  if (arena != nullptr &&
      !arena->Matches(sampler.interval(), sampler.seed(), num_worlds)) {
    arena = nullptr;
  }
  const size_t num_chunks = (num_worlds + kChunk - 1) / kChunk;
  // Every chunk resolves the same per-participant sources; a zero-world
  // fill resolves them up front without drawing. Columns are read at any
  // world offset, so the stream cursor serves only the participants that
  // walk — none, when every alive participant reads a column.
  WorldSampler::Scratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  std::vector<Rng> cursor = sampler.InitialRngs();
  const size_t walkers = sampler.FillWorlds(0, 0, arena, &cursor, scratch);
  if (used_arena != nullptr) *used_arena = arena != nullptr && walkers == 0;
  std::vector<Rng>* live = walkers > 0 ? &cursor : nullptr;

  if (pool == nullptr || pool->num_threads() <= 1 || num_chunks <= 1) {
    // Serial: chunk after chunk on the caller's scratch, the cursor simply
    // continuing (no RNG prefix pass).
    for (size_t w0 = 0; w0 < num_worlds; w0 += kChunk) {
      const size_t n = std::min(kChunk, num_worlds - w0);
      sampler.FillWorlds(w0, n, arena, live, scratch);
      consume(w0, *scratch);
      if (stop && stop(w0 + n)) return w0 + n;
    }
    return num_worlds;
  }

  // Pool: waves of chunks filled concurrently. Chunk boundaries are fixed
  // multiples of kChunk (itself a multiple of 64, so packed-bitmap words
  // never straddle chunks) and every chunk's cursor comes from one serial
  // O(W) prefix pass, so the chunks are those of the serial loop at any
  // thread count, without each chunk replaying its streams from world 0.
  // Without a stop rule a worker consumes the chunks it filled (slot =
  // worker); with one, the wave's chunks keep their own scratches (slot =
  // chunk) until the caller has consumed and checked them in order. The
  // first speculative wave is a single chunk, so a query that stops there
  // speculates nothing.
  const size_t slots = static_cast<size_t>(pool->num_threads());
  std::vector<WorldSampler::Scratch> scratches(slots);
  std::vector<std::vector<Rng>> starts;
  size_t wave = stop ? 1 : num_chunks;
  for (size_t c = 0; c < num_chunks; c += wave, wave = slots) {
    const size_t wave_chunks = std::min(wave, num_chunks - c);
    if (live != nullptr) {
      starts.resize(wave_chunks);
      for (size_t j = 0; j < wave_chunks; ++j) {
        starts[j] = cursor;
        if (c + j + 1 < num_chunks) {
          WorldSampler::AdvanceWorlds(&cursor, kChunk);
        }
      }
    }
    pool->ParallelFor(wave_chunks, [&](size_t j, int worker) {
      WorldSampler::Scratch& chunk =
          scratches[stop ? j : static_cast<size_t>(worker)];
      const size_t w0 = (c + j) * kChunk;
      sampler.FillWorlds(w0, std::min(kChunk, num_worlds - w0), arena,
                         live != nullptr ? &starts[j] : nullptr, &chunk);
      if (!stop) consume(w0, chunk);
    });
    if (!stop) continue;
    for (size_t j = 0; j < wave_chunks; ++j) {
      const size_t w0 = (c + j) * kChunk;
      consume(w0, scratches[j]);
      if (stop(w0 + scratches[j].worlds)) return w0 + scratches[j].worlds;
    }
  }
  return num_worlds;
}

namespace {

/// Sets the table bits of the chunk's worlds [w0, w0 + chunk.worlds): the
/// fill's d <= kth comparison, 64 worlds to a word. w0 is a multiple of 64,
/// so the chunk owns every word it writes.
void MarkChunk(const WorldSampler& sampler, const WorldSampler::Scratch& chunk,
               size_t w0, NnTable* table) {
  const TimeInterval& T = sampler.interval();
  const size_t len = T.length();
  std::vector<uint64_t> words(len);
  for (size_t i = 0; i < sampler.num_participants(); ++i) {
    const WorldSampler::Block b = sampler.BlockOf(chunk, i);
    for (size_t j0 = 0; j0 < chunk.worlds; j0 += 64) {
      std::fill(words.begin(), words.end(), 0);
      const size_t m = std::min<size_t>(64, chunk.worlds - j0);
      for (size_t bit = 0; bit < m; ++bit) {
        const double* d = b.dist + (j0 + bit) * b.wlen;
        const double* kth = chunk.kth.data() + (j0 + bit) * len + b.rel0;
        for (uint32_t r = 0; r < b.wlen; ++r) {
          words[r] |= static_cast<uint64_t>(d[r] <= kth[r]) << bit;
        }
      }
      for (uint32_t r = 0; r < b.wlen; ++r) {
        table->OrWord(i, T.start + static_cast<Tic>(b.rel0 + r),
                      (w0 + j0) >> 6, words[r]);
      }
    }
  }
}

}  // namespace

Result<NnTable> ComputeNnTable(const DbSnapshot& db,
                               const std::vector<ObjectId>& participants,
                               const QueryTrajectory& q, const TimeInterval& T,
                               const MonteCarloOptions& options,
                               ThreadPool* pool) {
  return ComputeNnTableScratch(db, participants, q, T, options, pool,
                               /*scratch=*/nullptr, /*rows=*/nullptr);
}

Result<NnTable> ComputeNnTableScratch(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const QueryTrajectory& q, const TimeInterval& T,
    const MonteCarloOptions& options, ThreadPool* pool,
    WorldSampler::Scratch* scratch, std::vector<uint8_t>* /*rows*/,
    const WorldArena* arena, bool* used_arena) {
  auto sampler =
      WorldSampler::Create(db, participants, q, T, options.k, options.seed);
  if (!sampler.ok()) return sampler.status();
  NnTable table(participants, T, options.num_worlds);
  // Chunks mark disjoint 64-aligned words, so workers may mark
  // concurrently.
  RunWorldChunks(sampler.value(), options.num_worlds, arena, used_arena, pool,
                 scratch,
                 [&](size_t w0, const WorldSampler::Scratch& chunk) {
                   MarkChunk(sampler.value(), chunk, w0, &table);
                 });
  return table;
}

}  // namespace ust

#include "query/world_arena.h"

#include <algorithm>
#include <cstdint>

#include "model/posterior_model.h"
#include "query/monte_carlo.h"
#include "util/fault.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace ust {

std::shared_ptr<const WorldColumn> WorldColumn::Sample(
    const PosteriorModel& model, ObjectId id, Tic ws, Tic we, uint64_t seed,
    size_t num_worlds) {
  auto column = std::make_shared<WorldColumn>();
  column->id = id;
  column->ws = ws;
  column->we = we;
  column->wlen = static_cast<uint32_t>(we - ws) + 1;
  column->num_worlds = num_worlds;
  UST_CHECK(num_worlds <= SIZE_MAX / sizeof(uint32_t) / column->wlen);
  column->indices.assign(num_worlds * column->wlen, 0);
  uint32_t* out = column->indices.data();
  const uint32_t wlen = column->wlen;
  Rng rng(WorldStreamSeed(seed, id));
  model.SampleWindowBatchVisit(
      ws, we, num_worlds, rng,
      [out, wlen](size_t w, size_t rel, uint32_t local, StateId) {
        out[w * wlen + rel] = local;
      });
  return column;
}

Result<WorldArena> WorldArena::Build(const DbSnapshot& db,
                                     const std::vector<ObjectId>& objects,
                                     const TimeInterval& T, uint64_t seed,
                                     size_t num_worlds, ThreadPool* pool) {
  if (!T.valid()) return Status::InvalidArgument("empty arena interval");
  WorldArena arena;
  arena.interval_ = T;
  arena.seed_ = seed;
  arena.num_worlds_ = num_worlds;

  std::vector<ObjectId> sorted = objects;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  struct Job {
    ObjectId id;
    std::shared_ptr<const PosteriorModel> model;
    Tic ws, we;
  };
  std::vector<Job> jobs;
  for (ObjectId id : sorted) {
    auto posterior = db.object(id).Posterior();
    // Unresolvable posteriors don't poison the whole arena: the object is
    // simply not realized, and any spec naming it samples live instead.
    if (!posterior.ok()) continue;
    const auto& model = posterior.value();
    const Tic ws = std::max(T.start, model->first_tic());
    const Tic we = std::min(T.end, model->last_tic());
    if (ws > we) continue;  // never alive within T: samplers skip it too
    model->EnsureSamplers();  // warm before the (possibly parallel) fill
    jobs.push_back({id, model, ws, we});
  }
  // Objects are independent (own stream, own column), so the parallel fill
  // is deterministic.
  arena.columns_.resize(jobs.size());
  auto fill = [&arena, &jobs, seed, num_worlds](size_t i) {
    const Job& job = jobs[i];
    arena.columns_[i] = WorldColumn::Sample(*job.model, job.id, job.ws,
                                            job.we, seed, num_worlds);
  };
  if (pool != nullptr && pool->num_threads() > 1 && jobs.size() > 1) {
    pool->ParallelFor(jobs.size(), [&fill](size_t i, int) { fill(i); });
  } else {
    for (size_t i = 0; i < jobs.size(); ++i) fill(i);
  }
  return arena;
}

WorldArena::WorldArena(const TimeInterval& T, uint64_t seed,
                       size_t num_worlds,
                       std::vector<std::shared_ptr<const WorldColumn>> columns)
    : interval_(T), seed_(seed), num_worlds_(num_worlds),
      columns_(std::move(columns)) {
  std::sort(columns_.begin(), columns_.end(),
            [](const auto& a, const auto& b) { return a->id < b->id; });
}

const WorldColumn* WorldArena::Find(ObjectId id) const {
  auto it = std::lower_bound(
      columns_.begin(), columns_.end(), id,
      [](const std::shared_ptr<const WorldColumn>& c, ObjectId v) {
        return c->id < v;
      });
  if (it != columns_.end() && (*it)->id == id) return it->get();
  return nullptr;
}

size_t WorldArena::bytes() const {
  size_t total = 0;
  for (const auto& column : columns_) total += column->bytes();
  return total;
}

size_t ColumnStore::KeyHash::operator()(const Key& k) const {
  // Multiply-xorshift mixing of the key fields, one field at a time.
  uint64_t h = reinterpret_cast<uintptr_t>(k.model);
  for (uint64_t v : {static_cast<uint64_t>(k.id), static_cast<uint64_t>(k.ws),
                     static_cast<uint64_t>(k.we), k.seed}) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return static_cast<size_t>(h);
}

ColumnStore::ColumnStore(size_t budget_bytes) : budget_bytes_(budget_bytes) {}

void ColumnStore::Drop(Index::iterator it) {
  resident_ -= it->second.column->bytes();
  resident_gauge_.Set(static_cast<int64_t>(resident_));
  index_.erase(it);
}

std::optional<WorldArena> ColumnStore::View(
    const DbSnapshot& db, const std::vector<ObjectId>& participants,
    const TimeInterval& T, uint64_t seed, size_t num_worlds, int min_uses) {
  if (min_uses <= 0 || !T.valid() || num_worlds == 0) return std::nullopt;
  // The alive participants with their models and windows, resolved before
  // the lock (a posterior the caller has not warmed may adapt here).
  struct Want {
    Key key;
    std::shared_ptr<const PosteriorModel> model;
  };
  std::vector<Want> wants;
  wants.reserve(participants.size());
  for (ObjectId id : participants) {
    auto posterior = db.object(id).Posterior();
    if (!posterior.ok()) continue;  // the sampler reports it
    std::shared_ptr<const PosteriorModel> model = posterior.MoveValue();
    const Tic ws = std::max(T.start, model->first_tic());
    const Tic we = std::min(T.end, model->last_tic());
    if (ws > we) continue;  // never sampled
    wants.push_back({Key{model.get(), id, ws, we, seed}, std::move(model)});
  }
  // Whether `slot` was built from `model` itself, and not from an expired
  // model that had the same address (control blocks compared, no refcount
  // traffic).
  const auto same_model = [](const Slot& slot, const Want& want) {
    return !slot.model.owner_before(want.model) &&
           !want.model.owner_before(slot.model);
  };

  std::vector<std::shared_ptr<const WorldColumn>> columns;
  std::vector<size_t> missing;
  size_t build_worlds = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto g = std::find_if(groups_.begin(), groups_.end(), [&](const Group& e) {
      return e.T == T && e.seed == seed;
    });
    if (g == groups_.end()) {
      constexpr size_t kMaxGroups = 64;
      if (groups_.size() >= kMaxGroups) groups_.erase(groups_.begin());
      groups_.push_back(Group{T, seed, 0, 0});
    } else {
      std::rotate(g, g + 1, groups_.end());
    }
    Group& group = groups_.back();
    group.uses += 1;
    group.max_worlds = std::max(group.max_worlds, num_worlds);
    if (group.uses < static_cast<uint64_t>(min_uses)) return std::nullopt;
    if (group.uses == static_cast<uint64_t>(min_uses)) builds_.Increment();
    build_worlds = group.max_worlds;

    const uint64_t now = ++clock_;
    columns.reserve(wants.size());
    for (size_t i = 0; i < wants.size(); ++i) {
      auto it = index_.find(wants[i].key);
      if (it != index_.end() && !same_model(it->second, wants[i])) {
        Drop(it);  // an expired model's column: never served
        it = index_.end();
      }
      if (it == index_.end()) {
        missing.push_back(i);
        continue;
      }
      // The stamp moves at most once per kStampSlack views, so the lanes
      // reading a hot column do not keep rewriting its slot: LRU order is
      // approximate to that many views.
      constexpr uint64_t kStampSlack = 64;
      if (now - it->second.last_use > kStampSlack) it->second.last_use = now;
      const auto& column = it->second.column;
      // A column too short for this spec leaves its participant live.
      if (column->num_worlds >= num_worlds) columns.push_back(column);
    }
  }
  if (missing.empty()) {
    return WorldArena(T, seed, num_worlds, std::move(columns));
  }

  // Builds run outside the lock: another caller missing the same column
  // builds its own copy meanwhile, and the first publish below wins.
  std::vector<std::shared_ptr<const WorldColumn>> built(missing.size());
  {
    UST_TRACE_SCOPE("arena_build", static_cast<uint64_t>(missing.size()),
                    "columns");
    for (size_t m = 0; m < missing.size(); ++m) {
      // Injected allocation refusal: this participant samples live —
      // bit-identically, just unamortized.
      if (fault::ShouldFail("alloc_limit")) continue;
      const Want& want = wants[missing[m]];
      // A column larger than the whole budget could never stay resident:
      // its participant samples live instead (the same bytes).
      const size_t wlen = static_cast<size_t>(want.key.we - want.key.ws) + 1;
      if (build_worlds > budget_bytes_ / sizeof(uint32_t) / wlen) continue;
      built[m] = WorldColumn::Sample(*want.model, want.key.id, want.key.ws,
                                     want.key.we, seed, build_worlds);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t now = ++clock_;
  for (size_t m = 0; m < missing.size(); ++m) {
    if (built[m] == nullptr) continue;
    const Want& want = wants[missing[m]];
    auto it = index_.find(want.key);
    if (it != index_.end() && same_model(it->second, want)) {
      // Published meanwhile: serve the store's copy when it is long enough.
      const auto& column = it->second.column;
      columns.push_back(column->num_worlds >= num_worlds ? column : built[m]);
      continue;
    }
    if (it != index_.end()) Drop(it);
    index_.emplace(want.key, Slot{want.model, built[m], now});
    resident_ += built[m]->bytes();
    bytes_.Increment(built[m]->bytes());
    columns.push_back(built[m]);
  }
  // Columns of expired models are never served again: drop them. Then evict
  // the least recently used columns over the budget, skipping the ones a
  // live view holds (this spec's included) — evicting those would free
  // nothing.
  for (auto it = index_.begin(); it != index_.end();) {
    auto next = std::next(it);
    if (it->second.model.expired()) Drop(it);
    it = next;
  }
  if (resident_ > budget_bytes_) {
    std::vector<Index::iterator> idle;
    for (auto it = index_.begin(); it != index_.end(); ++it) {
      if (it->second.column.use_count() == 1) idle.push_back(it);
    }
    std::sort(idle.begin(), idle.end(), [](const auto& a, const auto& b) {
      return a->second.last_use < b->second.last_use;
    });
    for (auto it : idle) {
      if (resident_ <= budget_bytes_) break;
      Drop(it);
      evictions_.Increment();
    }
  }
  resident_gauge_.Set(static_cast<int64_t>(resident_));
  return WorldArena(T, seed, num_worlds, std::move(columns));
}

ArenaStats ColumnStore::stats() const {
  ArenaStats s;
  s.builds = builds_.value();
  s.spec_reuses = spec_reuses_.value();
  s.bytes = bytes_.value();
  s.resident_bytes = static_cast<uint64_t>(resident_gauge_.value());
  s.evictions = evictions_.value();
  return s;
}

void ColumnStore::RegisterMetrics(MetricRegistry* registry) const {
  registry->RegisterCounter("arena_builds", &builds_);
  registry->RegisterCounter("arena_spec_reuses", &spec_reuses_);
  registry->RegisterCounter("arena_bytes", &bytes_);
  registry->RegisterGauge("arena_resident_bytes", &resident_gauge_);
  registry->RegisterCounter("arena_evictions", &evictions_);
}

}  // namespace ust

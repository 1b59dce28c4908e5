// Tests of the shared world arena (query/world_arena.h + the session/server
// wiring): a hot (interval, seed) group's worlds are materialized once and
// every later Monte-Carlo spec evaluates against them — with outcomes
// bit-identical to live per-spec sampling at any thread count, any
// {lanes, morsel_specs} schedule, and any SIMD dispatch level. The arena is
// purely an amortization: `used_arena` and the counters are the only
// observable difference. The column store under it (ColumnStore) keeps
// columns within a byte budget and never serves the column of an expired
// model.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "query/world_arena.h"
#include "server/query_server.h"
#include "server/session_cache.h"
#include "serving_fixture.h"
#include "util/rng.h"
#include "util/simd.h"

namespace ust {
namespace {

using testing::SameOutcome;

class ArenaTest : public testing::ServingWorldTest {
 protected:
  void SetUp() override { BuildWorld(20, 77); }

  /// A hot group: every spec shares (T, seed, num_worlds) — the arena key —
  /// while query points, k and semantics vary. Pinned to Monte-Carlo: the
  /// arena only serves the sampling backend.
  std::vector<QuerySpec> MakeHotSpecs(size_t n) const {
    Rng rng(5);
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < n; ++i) {
      QuerySpec spec;
      spec.kind = i % 4 == 3 ? QueryKind::kContinuous
                  : i % 4 == 2 ? QueryKind::kExists
                               : QueryKind::kForall;
      spec.q = RandomQueryState(*world_->space, rng);
      spec.T = T_;
      spec.tau = spec.kind == QueryKind::kContinuous ? 0.3 : 0.05;
      spec.mc.num_worlds = 400;
      spec.mc.seed = 4242;
      spec.mc.k = i % 4 == 1 ? 3 : 1;  // exercise the k>1 reduction too
      spec.backend = ExecutorKind::kMonteCarlo;
      specs.push_back(spec);
    }
    return specs;
  }

  /// Reference outcomes with arenas disabled entirely (live sampling).
  std::vector<QueryOutcome> Reference(const std::vector<QuerySpec>& specs) {
    SessionOptions options;
    options.arena_min_uses = 0;
    QuerySession session(db(), index_.get(), options);
    return session.RunAll(specs);
  }
};

TEST_F(ArenaTest, ArenaOutcomesBitwiseEqualLiveSamplingAtAnyThreadCount) {
  const std::vector<QuerySpec> specs = MakeHotSpecs(8);
  const std::vector<QueryOutcome> expected = Reference(specs);
  for (const QueryOutcome& out : expected) {
    ASSERT_TRUE(out.status.ok());
    EXPECT_FALSE(out.used_arena);  // arenas were off
  }
  for (int threads : {1, 2, 4}) {
    SessionOptions options;
    options.threads = threads;
    options.arena_min_uses = 1;  // build on first use
    QuerySession session(db(), index_.get(), options);
    auto outcomes = session.RunAll(specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
      EXPECT_TRUE(SameOutcome(outcomes[i], expected[i]))
          << "threads=" << threads << " spec " << i;
    }
    const ArenaStats stats = session.arena_stats();
    EXPECT_EQ(stats.builds, 1u) << "threads=" << threads;
    EXPECT_GE(stats.spec_reuses, 1u) << "threads=" << threads;
    EXPECT_GT(stats.bytes, 0u) << "threads=" << threads;
    if (threads == 1) {
      // Serial: the first spec builds, every spec (it included) evaluates
      // against the arena — no concurrent caller ever races the build.
      EXPECT_EQ(stats.spec_reuses, specs.size());
      for (const QueryOutcome& out : outcomes) EXPECT_TRUE(out.used_arena);
    }
  }
}

TEST_F(ArenaTest, BuildOnSecondUsePolicy) {
  const std::vector<QuerySpec> specs = MakeHotSpecs(4);
  SessionOptions options;
  options.arena_min_uses = 2;  // the serving default
  QuerySession session(db(), index_.get(), options);
  QueryOutcome first = session.Run(specs[0]);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.used_arena);  // cold: sampled live, no build yet
  EXPECT_EQ(session.arena_stats().builds, 0u);
  QueryOutcome second = session.Run(specs[1]);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.used_arena);  // the group proved hot: built + used
  EXPECT_EQ(session.arena_stats().builds, 1u);
  // A cold key never pays a build.
  QuerySpec other = specs[2];
  other.mc.seed = 999;
  QueryOutcome cold = session.Run(other);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.used_arena);
  EXPECT_EQ(session.arena_stats().builds, 1u);
  // And the outcomes still match live sampling bit for bit.
  const std::vector<QueryOutcome> expected = Reference(specs);
  EXPECT_TRUE(SameOutcome(first, expected[0]));
  EXPECT_TRUE(SameOutcome(second, expected[1]));
}

TEST_F(ArenaTest, PrefixPropertyServesSmallerWorldCounts) {
  // The first W' worlds of a W-world arena are bit-identical to a W'-world
  // sample (BatchWalk forks per world in world order), so a spec asking for
  // fewer worlds than the arena holds is served from its prefix.
  std::vector<QuerySpec> specs = MakeHotSpecs(3);
  specs[1].mc.num_worlds = 256;  // smaller than the 400-world arena
  specs[2].mc.num_worlds = 512;  // larger: must fall back to live sampling
  const std::vector<QueryOutcome> expected = Reference(specs);
  SessionOptions options;
  options.arena_min_uses = 1;
  QuerySession session(db(), index_.get(), options);
  QueryOutcome big = session.Run(specs[0]);  // builds at 400 worlds
  QueryOutcome prefix = session.Run(specs[1]);
  QueryOutcome larger = session.Run(specs[2]);
  ASSERT_TRUE(big.status.ok());
  ASSERT_TRUE(prefix.status.ok());
  ASSERT_TRUE(larger.status.ok());
  EXPECT_TRUE(big.used_arena);
  EXPECT_TRUE(prefix.used_arena);
  EXPECT_FALSE(larger.used_arena);
  EXPECT_TRUE(SameOutcome(big, expected[0]));
  EXPECT_TRUE(SameOutcome(prefix, expected[1]));
  EXPECT_TRUE(SameOutcome(larger, expected[2]));
}

TEST_F(ArenaTest, ServerScheduleMatrixPreservesBitsWithArenas) {
  // The serving tier with arenas on: whatever the lane count, morsel size
  // and steal schedule, outcomes equal the arena-off serial reference —
  // and the cache-level counters observe the sharing.
  const std::vector<QuerySpec> specs = MakeHotSpecs(24);
  const std::vector<QueryOutcome> expected = Reference(specs);
  for (const testing::ServingSchedule& schedule :
       testing::ServingSchedules(specs.size())) {
    ServerOptions options;
    options.lanes = schedule.lanes;
    options.morsel_specs = schedule.morsel_specs;
    options.arena_min_uses = 1;
    options.max_batch_size = specs.size();
    QueryServer server(db(), index_.get(), options);
    server.Pause();
    std::vector<std::future<QueryOutcome>> futures;
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
    server.Resume();
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i]))
          << schedule << " spec " << i;
    }
    server.Stop();
    const ServerStats stats = server.Stats();
    // One hot group, one arena; a lane that built it reuses it for its own
    // later specs even when other lanes raced the build with live sampling.
    EXPECT_GE(stats.cache.arena_builds, 1u);
    EXPECT_GE(stats.cache.arena_spec_reuses, 1u);
    EXPECT_GT(stats.cache.arena_bytes, 0u);
    EXPECT_EQ(stats.arena_hits(), stats.cache.arena_spec_reuses);
  }
}

TEST_F(ArenaTest, ScalarAndSimdDispatchAgreeBitwise) {
  // Forced-scalar vs the detected dispatch level: the NnTable reductions sum
  // integer popcounts, so every probability must match bit for bit.
  const std::vector<QuerySpec> specs = MakeHotSpecs(6);
  ASSERT_TRUE(ForceSimdLevel(SimdLevel::kScalar));
  const std::vector<QueryOutcome> scalar = Reference(specs);
  ASSERT_TRUE(ForceSimdLevel(DetectSimdLevel()));
  const std::vector<QueryOutcome> native = Reference(specs);
  SessionOptions options;
  options.arena_min_uses = 1;
  QuerySession session(db(), index_.get(), options);
  const std::vector<QueryOutcome> arena = session.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(scalar[i].status.ok());
    EXPECT_TRUE(SameOutcome(scalar[i], native[i])) << i;
    EXPECT_TRUE(SameOutcome(scalar[i], arena[i])) << i;
  }
}

TEST_F(ArenaTest, ArenaOutlivesSessionCacheEvictionUnderLease) {
  // Lanes hold a session (and through it, arena shared_ptrs) via leases
  // while the cache evicts: capacity churn and epoch eviction must
  // never invalidate an arena mid-evaluation. Two threads run morsels on
  // the leased session while the main thread hammers the cache.
  const std::vector<QuerySpec> specs = MakeHotSpecs(16);
  const std::vector<QueryOutcome> expected = Reference(specs);
  SessionOptions session_options;
  session_options.arena_min_uses = 1;
  SessionCache cache(/*capacity=*/1, session_options);
  DbSnapshot snap = db().Snapshot();
  auto lease = cache.Checkout(snap, T_, index_.get());
  ASSERT_TRUE(lease);

  std::vector<QueryOutcome> outcomes(specs.size());
  const size_t half = specs.size() / 2;
  std::thread worker([&] {
    QuerySession::ExecScratch scratch;
    for (size_t i = half; i < specs.size(); ++i) {
      lease->RunMorsel(specs, i, i + 1, outcomes.data(), nullptr, &scratch);
    }
  });
  {
    QuerySession::ExecScratch scratch;
    for (size_t i = 0; i < half; ++i) {
      lease->RunMorsel(specs, i, i + 1, outcomes.data(), nullptr, &scratch);
      // Churn the cache while the lease is live: fill past capacity with
      // other intervals, then advance the epoch floor so the leased session
      // is dropped (not reinserted) at final release.
      TimeInterval other{static_cast<Tic>(T_.start + i % 3),
                         static_cast<Tic>(T_.start + 3 + i % 3)};
      cache.Checkout(snap, other, index_.get()).Release();
      cache.EvictStale(snap.version() + 1);
    }
  }
  worker.join();
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(outcomes[i].status.ok()) << i;
    EXPECT_TRUE(SameOutcome(outcomes[i], expected[i])) << i;
  }
  const SessionCacheStats mid = cache.stats();
  EXPECT_GE(mid.arena_builds, 1u);
  EXPECT_GE(mid.arena_spec_reuses, 1u);
  lease.Release();  // last holder: the stale session dies here
  // The cache-owned counters survive the session.
  const SessionCacheStats after = cache.stats();
  EXPECT_EQ(after.arena_builds, mid.arena_builds);
  EXPECT_GE(after.evictions_stale, 1u);
}

TEST_F(ArenaTest, SmallBudgetEvictsLruColumnsButNeverAHeldOne) {
  // A store whose byte budget holds about three columns: every spec's
  // participants overflow it, so publishing evicts least-recently-used
  // columns — but never one a live view still reads, and whatever was
  // evicted is rebuilt with the same bytes.
  const std::vector<QuerySpec> specs = MakeHotSpecs(8);
  const std::vector<QueryOutcome> expected = Reference(specs);
  const DbSnapshot snap = db().Snapshot();
  const std::vector<ObjectId> alive = snap.AliveSometime(T_.start, T_.end);
  ASSERT_GE(alive.size(), 4u);
  const size_t worlds = specs[0].mc.num_worlds;
  ColumnStore store(3 * worlds * T_.length() * sizeof(uint32_t));

  // A view held across the whole run, over the two lowest ids: their
  // columns are the least recently used of the group once the specs run.
  const std::vector<ObjectId> held_ids = {alive[0], alive[1]};
  const std::optional<WorldArena> held =
      store.View(snap, held_ids, T_, specs[0].mc.seed, worlds, 1);
  ASSERT_TRUE(held.has_value());
  ASSERT_EQ(held->num_objects(), held_ids.size());

  SessionOptions options;
  options.arena_min_uses = 1;
  options.column_store = &store;
  QuerySession session(snap, index_.get(), options);
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<QueryOutcome> outcomes = session.RunAll(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
      EXPECT_TRUE(SameOutcome(outcomes[i], expected[i]))
          << "pass " << pass << " spec " << i;
    }
  }
  const ArenaStats stats = store.stats();
  EXPECT_EQ(stats.builds, 1u);  // one hot group
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.resident_bytes, stats.bytes);

  // The held columns were never evicted: the store still serves these very
  // instances, without building anything.
  const std::optional<WorldArena> again =
      store.View(snap, held_ids, T_, specs[0].mc.seed, worlds, 1);
  ASSERT_TRUE(again.has_value());
  for (ObjectId id : held_ids) {
    ASSERT_NE(held->Find(id), nullptr);
    EXPECT_EQ(again->Find(id), held->Find(id)) << "object " << id;
  }
  EXPECT_EQ(store.stats().bytes, stats.bytes);
}

TEST_F(ArenaTest, OverBudgetColumnIsServedLive) {
  // A column larger than the store's whole budget could never stay
  // resident: the store never builds it, and its participant samples live —
  // the same bytes. With a budget one byte short of a one-tic column nothing
  // is built; with one short of a full-interval column only the objects
  // whose alive span clips the interval get columns.
  const std::vector<QuerySpec> specs = MakeHotSpecs(8);
  const std::vector<QueryOutcome> expected = Reference(specs);
  const DbSnapshot snap = db().Snapshot();
  const std::vector<ObjectId> alive = snap.AliveSometime(T_.start, T_.end);
  const size_t worlds = specs[0].mc.num_worlds;
  const uint32_t full = static_cast<uint32_t>(T_.length());
  for (uint32_t budget_tics : {1u, full}) {
    ColumnStore store(budget_tics * worlds * sizeof(uint32_t) - 1);
    SessionOptions options;
    options.arena_min_uses = 1;
    options.column_store = &store;
    QuerySession session(snap, index_.get(), options);
    const std::vector<QueryOutcome> outcomes = session.RunAll(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(outcomes[i].status.ok()) << outcomes[i].status.ToString();
      EXPECT_TRUE(SameOutcome(outcomes[i], expected[i]))
          << "budget " << budget_tics << " tics, spec " << i;
    }
    const ArenaStats stats = store.stats();
    EXPECT_EQ(stats.builds, 1u);  // the group turned hot all the same
    EXPECT_LE(stats.resident_bytes, store.budget_bytes());
    if (budget_tics == 1) {
      EXPECT_EQ(stats.bytes, 0u);
      EXPECT_EQ(stats.spec_reuses, 0u);
      for (const QueryOutcome& out : outcomes) EXPECT_FALSE(out.used_arena);
    }
    const std::optional<WorldArena> view =
        store.View(snap, alive, T_, specs[0].mc.seed, worlds, 1);
    ASSERT_TRUE(view.has_value());
    for (ObjectId id : alive) {
      const WorldColumn* column = view->Find(id);
      if (column != nullptr) {
        EXPECT_LT(column->wlen, budget_tics) << id;
      }
    }
  }
}

TEST_F(ArenaTest, ColumnOfAnExpiredModelIsNeverServedAndIsDropped) {
  // Columns are keyed by the posterior-model instance and hold it weakly:
  // once the model is gone, its column is never served again — the next
  // view builds a fresh one (the same bytes: the object's stream did not
  // change) — and the stale column leaves the store.
  const DbSnapshot snap = db().Snapshot();
  const std::vector<ObjectId> alive = snap.AliveSometime(T_.start, T_.end);
  ASSERT_FALSE(alive.empty());
  const std::vector<ObjectId> ids = {alive[0]};
  ColumnStore store(ColumnStore::kBudgetBytes);
  const std::optional<WorldArena> first = store.View(snap, ids, T_, 7, 300, 1);
  ASSERT_TRUE(first.has_value());
  const WorldColumn* stale = first->Find(ids[0]);
  ASSERT_NE(stale, nullptr);

  db().InvalidatePosteriors();  // the only owner of the model lets it go
  const std::optional<WorldArena> second =
      store.View(snap, ids, T_, 7, 300, 1);
  ASSERT_TRUE(second.has_value());
  const WorldColumn* fresh = second->Find(ids[0]);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, stale);
  EXPECT_TRUE(fresh->indices == stale->indices);
  EXPECT_EQ(store.stats().resident_bytes, fresh->bytes());
  EXPECT_EQ(store.stats().bytes, stale->bytes() + fresh->bytes());
}

}  // namespace
}  // namespace ust

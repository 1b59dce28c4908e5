// Tests of adaptive precision in the production pipeline (DESIGN.md
// section 8): per-spec epsilon/threshold targets flowing through
// QuerySession and QueryServer, the revised determinism contract (identical
// stop decisions — and identical bytes — at any thread count, lane count or
// morsel schedule), arena-prefix serving of early-stopped specs, the
// undecided-near-tau fallback, and plans that ignore earlier runs.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/monte_carlo.h"
#include "query/session.h"
#include "server/query_server.h"
#include "serving_fixture.h"
#include "test_world.h"
#include "util/rng.h"

namespace ust {
namespace {

using testing::Figure1World;
using testing::MakeFigure1World;

// The full adaptive determinism contract: stop decision and bytes.
void ExpectSameOutcome(const QueryOutcome& a, const QueryOutcome& b,
                       size_t i) {
  ASSERT_TRUE(a.status.ok() && b.status.ok()) << "spec " << i;
  EXPECT_EQ(a.executor, b.executor) << "spec " << i;
  EXPECT_EQ(a.worlds_used, b.worlds_used) << "spec " << i;
  EXPECT_EQ(a.early_stopped, b.early_stopped) << "spec " << i;
  ASSERT_EQ(a.pnn.results.size(), b.pnn.results.size()) << "spec " << i;
  for (size_t j = 0; j < a.pnn.results.size(); ++j) {
    EXPECT_EQ(a.pnn.results[j].object, b.pnn.results[j].object);
    EXPECT_EQ(a.pnn.results[j].prob, b.pnn.results[j].prob);  // bitwise
  }
}

class AdaptiveExecTest : public testing::ServingWorldTest {
 protected:
  void SetUp() override { BuildWorld(20, 77); }

  /// Easy threshold-decision specs under an oversized cap: every target's
  /// probability sits far from tau = 0.5, so the stopping rule fires at an
  /// early chunk boundary. Unique seeds keep arena groups cold; the pinned
  /// backend keeps the planner out of the determinism comparisons.
  std::vector<QuerySpec> MakeAdaptiveSpecs(size_t n,
                                           size_t cap = 4096) const {
    Rng rng(5);
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < n; ++i) {
      QuerySpec spec;
      spec.kind = i % 3 == 2 ? QueryKind::kExists : QueryKind::kForall;
      spec.q = RandomQueryState(*world_->space, rng);
      spec.T = T_;
      spec.tau = 0.5;
      spec.mc.num_worlds = cap;
      spec.mc.seed = 8600 + i;
      spec.precision.mode = PrecisionMode::kThreshold;
      spec.precision.delta = 0.05;
      spec.backend = ExecutorKind::kMonteCarlo;
      specs.push_back(spec);
    }
    return specs;
  }
};

TEST_F(AdaptiveExecTest, EpsilonModeAgreesWithFixedSampling) {
  // An absolute-precision target: the adaptive estimates must land within
  // the requested epsilon of the full-cap fixed estimates (both are within
  // epsilon of the truth with probability >= 1 - delta, and the fixed pass
  // at 8x the worlds contributes far less than epsilon itself).
  QuerySpec adaptive;
  adaptive.kind = QueryKind::kForall;
  Rng rng(5);
  adaptive.q = RandomQueryState(*world_->space, rng);
  adaptive.T = T_;
  adaptive.tau = 0.0;  // keep every target in the result list
  adaptive.mc.num_worlds = 8192;
  adaptive.mc.seed = 123;
  adaptive.precision.mode = PrecisionMode::kEpsilon;
  adaptive.precision.epsilon = 0.05;
  adaptive.precision.delta = 0.05;
  adaptive.backend = ExecutorKind::kMonteCarlo;
  QuerySpec fixed = adaptive;
  fixed.precision.mode = PrecisionMode::kFixedWorlds;

  QuerySession session(db(), index_.get());
  const QueryOutcome a = session.Run(adaptive);
  const QueryOutcome f = session.Run(fixed);
  ASSERT_TRUE(a.status.ok() && f.status.ok());
  EXPECT_TRUE(a.early_stopped);
  EXPECT_LT(a.worlds_used, 8192u);
  EXPECT_EQ(a.worlds_used % WorldSampler::kWorldChunk, 0u);
  EXPECT_FALSE(f.early_stopped);
  EXPECT_EQ(f.worlds_used, 8192u);
  ASSERT_EQ(a.pnn.results.size(), f.pnn.results.size());
  for (size_t j = 0; j < a.pnn.results.size(); ++j) {
    EXPECT_EQ(a.pnn.results[j].object, f.pnn.results[j].object);
    EXPECT_NEAR(a.pnn.results[j].prob, f.pnn.results[j].prob,
                2 * adaptive.precision.epsilon);
  }
}

TEST_F(AdaptiveExecTest, IdenticalStopDecisionsAtAnyThreadCount) {
  const std::vector<QuerySpec> specs = MakeAdaptiveSpecs(9);
  std::vector<QueryOutcome> reference;
  {
    SessionOptions serial;
    serial.threads = 1;
    QuerySession session(db(), index_.get(), serial);
    ASSERT_TRUE(session.Prepare().ok());
    reference = session.RunAll(specs);
  }
  size_t early = 0;
  for (const QueryOutcome& out : reference) {
    ASSERT_TRUE(out.status.ok());
    if (out.early_stopped) ++early;
  }
  // The workload is easy by construction: the phase under test must fire.
  EXPECT_GE(early * 2, specs.size());

  for (int threads : {2, 4}) {
    SessionOptions options;
    options.threads = threads;
    QuerySession session(db(), index_.get(), options);
    ASSERT_TRUE(session.Prepare().ok());
    // Batch path: queries shard across workers, each evaluated serially.
    const std::vector<QueryOutcome> batch = session.RunAll(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectSameOutcome(batch[i], reference[i], i);
    }
    // Lone-query path: the session pool shards world chunks inside one
    // adaptive estimate — the speculative-wave path — and must take the
    // stop decision at the exact same chunk boundary as the serial scan.
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectSameOutcome(session.Run(specs[i]), reference[i], i);
    }
  }
}

TEST_F(AdaptiveExecTest, ServerScheduleMatrixPreservesStopDecisions) {
  const std::vector<QuerySpec> specs = MakeAdaptiveSpecs(12);
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);
  uint64_t expected_stops = 0, expected_saved = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(expected[i].status.ok());
    if (expected[i].early_stopped) {
      ++expected_stops;
      expected_saved += specs[i].mc.num_worlds - expected[i].worlds_used;
    }
  }
  ASSERT_GT(expected_stops, 0u);

  constexpr size_t kBatch = 6;
  for (const testing::ServingSchedule& schedule :
       testing::ServingSchedules(kBatch)) {
    SCOPED_TRACE(::testing::Message() << schedule);
    ServerOptions options;
    options.lanes = schedule.lanes;
    options.morsel_specs = schedule.morsel_specs;
    options.max_batch_size = kBatch;
    options.max_batch_delay_ms = 0.5;
    QueryServer server(db(), index_.get(), options);
    server.Pause();
    std::vector<std::future<QueryOutcome>> futures;
    for (const QuerySpec& spec : specs) {
      futures.push_back(server.Submit(spec));
    }
    server.Resume();
    for (size_t i = 0; i < specs.size(); ++i) {
      ExpectSameOutcome(futures[i].get(), expected[i], i);
    }
    server.Stop();
    // The savings counters are schedule-invariant too: stop decisions are
    // pinned, so every schedule accounts the same worlds.
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.early_stops, expected_stops);
    EXPECT_EQ(stats.worlds_saved, expected_saved);
  }
}

TEST_F(AdaptiveExecTest, ArenaPrefixServesEarlyStoppedSpecs) {
  // A hot (interval, seed) group of adaptive specs: the arena materializes
  // the full num_worlds cap once, and early-stopped specs evaluate only its
  // prefix — bit-identically to live sampling, stop decisions included.
  std::vector<QuerySpec> hot = MakeAdaptiveSpecs(8);
  for (QuerySpec& spec : hot) spec.mc.seed = 4242;  // one arena group

  std::vector<QueryOutcome> live, arena;
  {
    SessionOptions off;
    off.arena_min_uses = 0;
    QuerySession session(db(), index_.get(), off);
    live = session.RunAll(hot);
  }
  {
    SessionOptions on;
    on.arena_min_uses = 1;  // build on first use
    QuerySession session(db(), index_.get(), on);
    arena = session.RunAll(hot);
    const ArenaStats stats = session.arena_stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_GT(stats.spec_reuses, 0u);
  }
  size_t arena_served_early_stops = 0;
  for (size_t i = 0; i < hot.size(); ++i) {
    ExpectSameOutcome(arena[i], live[i], i);
    EXPECT_FALSE(live[i].used_arena);
    if (arena[i].used_arena && arena[i].early_stopped) {
      ++arena_served_early_stops;
    }
  }
  // At least one early-stopped spec was actually served off the arena's
  // prefix (the first spec samples live while the arena builds).
  EXPECT_GT(arena_served_early_stops, 0u);
}

TEST_F(AdaptiveExecTest, UndecidedNearTauFallsBackToCap) {
  // Figure 1: P∀NN(o1) = 0.75 exactly. A threshold query at tau = 0.75
  // straddles forever — the rule must run to the cap, report no early stop,
  // and hand back the honest full-cap estimate (identical to fixed
  // sampling at the same seed, by the prefix property).
  Figure1World world = MakeFigure1World();
  QuerySpec adaptive;
  adaptive.kind = QueryKind::kForall;
  adaptive.q = world.q;
  adaptive.T = world.T;
  adaptive.tau = 0.75;
  adaptive.mc.num_worlds = 2048;
  adaptive.mc.seed = 11;
  adaptive.precision.mode = PrecisionMode::kThreshold;
  adaptive.precision.delta = 0.05;
  adaptive.backend = ExecutorKind::kMonteCarlo;
  QuerySpec fixed = adaptive;
  fixed.precision.mode = PrecisionMode::kFixedWorlds;

  QuerySession session(*world.db);
  const QueryOutcome a = session.Run(adaptive);
  const QueryOutcome f = session.Run(fixed);
  ASSERT_TRUE(a.status.ok() && f.status.ok());
  EXPECT_EQ(a.worlds_used, 2048u);
  EXPECT_FALSE(a.early_stopped);
  ExpectSameOutcome(a, f, 0);
}

TEST_F(AdaptiveExecTest, PlanDoesNotDependOnEarlierRuns) {
  // A result is a pure function of (database, spec), so the planner costs
  // every spec at its cap, whatever earlier queries of the session did.
  // Figure 1 is enumeration-friendly (2 candidates, |T| = 3): with
  // exact_min_precision = 2048 a 4096-cap adaptive spec plans exact, and
  // still does after a run of easy adaptive Monte-Carlo queries that each
  // stop at the first chunk — bit-identical to a fresh session's answer.
  Figure1World world = MakeFigure1World();
  SessionOptions options;
  options.planner.exact_min_precision = 2048;
  QuerySession session(*world.db, nullptr, options);

  QuerySpec spec;
  spec.kind = QueryKind::kForall;
  spec.q = world.q;
  spec.T = world.T;
  spec.tau = 0.4;  // easy: P∀NN(o1) = 0.75, P∀NN(o2) = 0
  spec.mc.num_worlds = 4096;
  spec.mc.seed = 11;
  spec.precision.mode = PrecisionMode::kThreshold;
  spec.precision.delta = 0.05;

  const QueryOutcome before = session.Run(spec);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(before.executor, ExecutorKind::kExact);

  // Pinned-backend runs (the planner stays out of the loop) that each stop
  // at the first 512-world boundary.
  QuerySpec easy = spec;
  easy.backend = ExecutorKind::kMonteCarlo;
  for (int i = 0; i < 6; ++i) {
    const QueryOutcome out = session.Run(easy);
    ASSERT_TRUE(out.status.ok());
    EXPECT_TRUE(out.early_stopped);
    EXPECT_EQ(out.worlds_used, WorldSampler::kWorldChunk);
  }

  const QueryOutcome after = session.Run(spec);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.executor, ExecutorKind::kExact);
  QuerySession fresh(*world.db, nullptr, options);
  const QueryOutcome reference = fresh.Run(spec);
  ExpectSameOutcome(after, reference, 0);
  ExpectSameOutcome(before, reference, 0);
}

}  // namespace
}  // namespace ust

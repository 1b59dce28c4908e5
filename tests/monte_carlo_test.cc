#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "query/adaptive.h"
#include "query/exact.h"
#include "query/monte_carlo.h"
#include "query/world_arena.h"
#include "test_world.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ust {
namespace {

using testing::Figure1World;
using testing::MakeFigure1World;
using testing::MakeLineWorld;

ObservationSeq Obs(std::vector<Observation> v) {
  auto r = ObservationSeq::Create(std::move(v));
  UST_CHECK(r.ok());
  return r.MoveValue();
}

MonteCarloOptions Opts(size_t worlds, uint64_t seed = 42, int k = 1) {
  MonteCarloOptions o;
  o.num_worlds = worlds;
  o.seed = seed;
  o.k = k;
  return o;
}

TEST(MonteCarloTest, MatchesExactOnFigure1) {
  Figure1World world = MakeFigure1World();
  auto estimates = EstimatePnn(*world.db, {world.o1, world.o2},
                               {world.o1, world.o2}, world.q, world.T,
                               Opts(20000));
  ASSERT_TRUE(estimates.ok());
  // Hoeffding bound at 20000 samples, 99% confidence: eps ~ 0.0115.
  const double eps = HoeffdingEpsilon(20000, 0.01);
  EXPECT_NEAR(estimates.value()[0].forall_prob, 0.75, eps);
  EXPECT_NEAR(estimates.value()[1].exists_prob, 0.25, eps);
  EXPECT_NEAR(estimates.value()[0].exists_prob, 1.0, eps);
  EXPECT_NEAR(estimates.value()[1].forall_prob, 0.0, eps);
}

TEST(MonteCarloTest, DeterministicForSameSeed) {
  Figure1World world = MakeFigure1World();
  auto a = EstimatePnn(*world.db, {world.o1, world.o2}, {world.o1}, world.q,
                       world.T, Opts(500, 7));
  auto b = EstimatePnn(*world.db, {world.o1, world.o2}, {world.o1}, world.q,
                       world.T, Opts(500, 7));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value()[0].forall_prob, b.value()[0].forall_prob);
  EXPECT_DOUBLE_EQ(a.value()[0].exists_prob, b.value()[0].exists_prob);
}

TEST(MonteCarloTest, ForallNeverExceedsExists) {
  Figure1World world = MakeFigure1World();
  auto estimates = EstimatePnn(*world.db, {world.o1, world.o2},
                               {world.o1, world.o2}, world.q, world.T,
                               Opts(2000));
  ASSERT_TRUE(estimates.ok());
  for (const auto& e : estimates.value()) {
    EXPECT_LE(e.forall_prob, e.exists_prob);
  }
}

TEST(MonteCarloTest, IntervalShrinkingRaisesForallProb) {
  Figure1World world = MakeFigure1World();
  double prev = 0.0;
  for (Tic end = 3; end >= 1; --end) {
    auto estimates = EstimatePnn(*world.db, {world.o1, world.o2}, {world.o1},
                                 world.q, {1, end}, Opts(5000));
    ASSERT_TRUE(estimates.ok());
    EXPECT_GE(estimates.value()[0].forall_prob + 0.02, prev);
    prev = estimates.value()[0].forall_prob;
  }
}

TEST(MonteCarloTest, MatchesExactOnRandomLineWorlds) {
  // Cross-validation on 3-object worlds: MC vs exhaustive enumeration.
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng(900 + seed);
    auto world = MakeLineWorld(6, 0.3, 0.4);
    TrajectoryDatabase db(world.space);
    std::vector<ObjectId> ids;
    for (int i = 0; i < 3; ++i) {
      StateId s = static_cast<StateId>(rng.UniformInt(6));
      ids.push_back(db.AddObject(Obs({{0, s}}), world.matrix, 3));
    }
    QueryTrajectory q =
        QueryTrajectory::FromPoint({rng.Uniform(0, 5), rng.Uniform(-1, 1)});
    TimeInterval T{0, 3};
    auto exact = ExactPnnByEnumeration(db, ids, q, T);
    ASSERT_TRUE(exact.ok());
    auto mc = EstimatePnn(db, ids, ids, q, T, Opts(20000, seed + 1));
    ASSERT_TRUE(mc.ok());
    const double eps = HoeffdingEpsilon(20000, 0.01);
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_NEAR(mc.value()[i].forall_prob, exact.value()[i].forall_prob, eps)
          << "seed " << seed << " object " << i;
      EXPECT_NEAR(mc.value()[i].exists_prob, exact.value()[i].exists_prob, eps)
          << "seed " << seed << " object " << i;
    }
  }
}

TEST(MonteCarloTest, PartiallyAliveObjectCompetesOnlyWhenAlive) {
  // Object b exists only in the second half of T; object a must win the
  // first half unconditionally.
  auto space = std::make_shared<const StateSpace>(
      std::vector<Point2>{{0, 2}, {0, 1}});
  auto matrix = testing::MakeMatrix(2, {{{0, 1.0}}, {{1, 1.0}}});
  TrajectoryDatabase db(space);
  ObjectId a = db.AddObject(Obs({{0, 0}}), matrix, 3);      // far, alive 0..3
  ObjectId b = db.AddObject(Obs({{2, 1}}), matrix, 3);      // near, alive 2..3
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  auto estimates = EstimatePnn(db, {a, b}, {a, b}, q, {0, 3}, Opts(200));
  ASSERT_TRUE(estimates.ok());
  // a is NN at t=0,1 (alone) but loses t=2,3 to b => exists 1, forall 0.
  EXPECT_DOUBLE_EQ(estimates.value()[0].exists_prob, 1.0);
  EXPECT_DOUBLE_EQ(estimates.value()[0].forall_prob, 0.0);
  // b is NN whenever alive but not alive at t=0 => forall 0, exists 1.
  EXPECT_DOUBLE_EQ(estimates.value()[1].forall_prob, 0.0);
  EXPECT_DOUBLE_EQ(estimates.value()[1].exists_prob, 1.0);
}

TEST(MonteCarloTest, DeadObjectNeverWins) {
  auto space = std::make_shared<const StateSpace>(
      std::vector<Point2>{{0, 1}, {0, 2}});
  auto matrix = testing::MakeMatrix(2, {{{0, 1.0}}, {{1, 1.0}}});
  TrajectoryDatabase db(space);
  ObjectId dead = db.AddObject(Obs({{10, 0}}), matrix);  // alive only at 10
  ObjectId live = db.AddObject(Obs({{0, 1}}), matrix, 5);
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  auto estimates =
      EstimatePnn(db, {dead, live}, {dead, live}, q, {0, 5}, Opts(100));
  ASSERT_TRUE(estimates.ok());
  EXPECT_DOUBLE_EQ(estimates.value()[0].exists_prob, 0.0);
  EXPECT_DOUBLE_EQ(estimates.value()[1].forall_prob, 1.0);
}

TEST(MonteCarloTest, TiesCountForAllTiedObjects) {
  // Both objects pinned to the same state: each is a (tied) NN always.
  auto space = std::make_shared<const StateSpace>(
      std::vector<Point2>{{0, 1}});
  auto matrix = testing::MakeMatrix(1, {{{0, 1.0}}});
  TrajectoryDatabase db(space);
  ObjectId a = db.AddObject(Obs({{0, 0}}), matrix, 2);
  ObjectId b = db.AddObject(Obs({{0, 0}}), matrix, 2);
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  auto estimates = EstimatePnn(db, {a, b}, {a, b}, q, {0, 2}, Opts(100));
  ASSERT_TRUE(estimates.ok());
  EXPECT_DOUBLE_EQ(estimates.value()[0].forall_prob, 1.0);
  EXPECT_DOUBLE_EQ(estimates.value()[1].forall_prob, 1.0);
}

TEST(MonteCarloTest, InvalidInputsRejected) {
  Figure1World world = MakeFigure1World();
  // Empty interval.
  auto bad_interval = EstimatePnn(*world.db, {world.o1}, {world.o1}, world.q,
                                  {3, 1}, Opts(10));
  EXPECT_FALSE(bad_interval.ok());
  // Target outside participants.
  auto bad_target = EstimatePnn(*world.db, {world.o1}, {world.o2}, world.q,
                                world.T, Opts(10));
  EXPECT_FALSE(bad_target.ok());
  // Moving query trajectory not covering T.
  QueryTrajectory moving = QueryTrajectory::FromPoints(1, {{0, 0}, {0, 1}});
  auto bad_coverage = EstimatePnn(*world.db, {world.o1}, {world.o1}, moving,
                                  world.T, Opts(10));
  EXPECT_FALSE(bad_coverage.ok());
}

TEST(NnTableTest, AccessorsAndSubsetProbabilities) {
  Figure1World world = MakeFigure1World();
  auto table = ComputeNnTable(*world.db, {world.o1, world.o2}, world.q,
                              world.T, Opts(5000));
  ASSERT_TRUE(table.ok());
  const NnTable& t = table.value();
  EXPECT_EQ(t.num_worlds(), 5000u);
  EXPECT_EQ(t.objects().size(), 2u);
  EXPECT_EQ(t.IndexOf(world.o2), 1u);
  EXPECT_EQ(t.IndexOf(9999), NnTable::npos);
  // o1 is certain at t=1 (distance 2 vs 3).
  EXPECT_DOUBLE_EQ(t.ForallProb(0, {1}), 1.0);
  EXPECT_DOUBLE_EQ(t.ForallProb(1, {1}), 0.0);
  // Subset monotonicity.
  EXPECT_GE(t.ForallProb(0, {2}), t.ForallProb(0, {2, 3}));
  EXPECT_LE(t.ExistsProb(1, {2}), t.ExistsProb(1, {2, 3}));
  // P∀NN(o2, {2,3}) = 0.125 from the worked example.
  EXPECT_NEAR(t.ForallProb(1, {2, 3}), 0.125, HoeffdingEpsilon(5000, 0.01));
}

TEST(NnTableTest, ReductionsMatchTheirDefinitionAtBothKernelLevels) {
  // The table reduces with AND/OR + popcount over packed world words
  // (util/simd.h). Pin every reduction to its definition — the fraction of
  // worlds where IsNn holds at every / some tic of the set — at the scalar
  // level and the detected one, with world counts that fill whole words, end
  // mid-word, need one word or 157, and tic sets from empty to the full
  // 70-tic interval (past the 64-row stack of the row gather).
  const TimeInterval T{5, 74};
  const size_t len = T.length();
  const std::vector<ObjectId> objects = {7, 2, 5};
  // Per-object indicator density: a near-certain NN keeps long ANDs
  // non-empty, a rare one keeps long ORs short of every world.
  const double density[] = {0.98, 0.5, 0.02};
  Rng rng(2024);
  std::vector<std::vector<Tic>> sets = {{}, {T.start}, {T.end}};
  std::vector<Tic> all;
  for (Tic t = T.start; t <= T.end; ++t) all.push_back(t);
  sets.push_back(all);
  for (size_t size : {2u, 5u, 64u, 65u}) {
    std::vector<Tic> subset;
    for (size_t i = 0; i < size; ++i) {
      subset.push_back(T.start + static_cast<Tic>(rng.UniformInt(len)));
    }
    sets.push_back(subset);
  }
  for (size_t num_worlds : {1u, 63u, 64u, 65u, 1000u, 10000u}) {
    const size_t row_len = objects.size() * len;
    std::vector<uint8_t> rows(num_worlds * row_len);
    for (size_t w = 0; w < num_worlds; ++w) {
      for (size_t i = 0; i < objects.size(); ++i) {
        for (size_t rel = 0; rel < len; ++rel) {
          rows[w * row_len + i * len + rel] = rng.Bernoulli(density[i]);
        }
      }
    }
    NnTable table(objects, T, num_worlds);
    // Two packs, the second starting at a word boundary.
    const size_t split = num_worlds / 2 / 64 * 64;
    table.PackWorlds(0, split, rows.data(), row_len);
    table.PackWorlds(split, num_worlds - split, rows.data() + split * row_len,
                     row_len);
    for (size_t i = 0; i < objects.size(); ++i) {
      for (size_t w = 0; w < num_worlds; ++w) {
        for (size_t rel = 0; rel < len; ++rel) {
          ASSERT_EQ(table.IsNn(i, w, T.start + static_cast<Tic>(rel)),
                    rows[w * row_len + i * len + rel] != 0);
        }
      }
    }
    const auto fraction = [num_worlds](size_t count) {
      return static_cast<double>(count) / static_cast<double>(num_worlds);
    };
    // Worlds where object i is NN at every (forall) / some tic of `tics`.
    const auto defined = [&](size_t i, const std::vector<Tic>& tics,
                             bool forall) {
      size_t count = 0;
      for (size_t w = 0; w < num_worlds; ++w) {
        bool every = true, some = false;
        for (Tic t : tics) {
          const bool nn = table.IsNn(i, w, t);
          every = every && nn;
          some = some || nn;
        }
        count += forall ? every : some;
      }
      return fraction(count);
    };
    for (SimdLevel level : {SimdLevel::kScalar, DetectSimdLevel()}) {
      ASSERT_TRUE(ForceSimdLevel(level));
      const std::string at = "W=" + std::to_string(num_worlds) + " level " +
                             std::to_string(static_cast<int>(level));
      for (size_t i = 0; i < objects.size(); ++i) {
        for (const std::vector<Tic>& tics : sets) {
          EXPECT_EQ(table.ForallProb(i, tics), defined(i, tics, true))
              << at << " object " << i << " |tics| " << tics.size();
          EXPECT_EQ(table.ExistsProb(i, tics), defined(i, tics, false))
              << at << " object " << i << " |tics| " << tics.size();
        }
        EXPECT_EQ(table.ForallProb(i), defined(i, all, true)) << at;
        EXPECT_EQ(table.ExistsProb(i), defined(i, all, false)) << at;
        for (Tic t : {T.start, T.start + 33, T.end}) {
          EXPECT_EQ(table.ProbAt(i, t), defined(i, {t}, true))
              << at << " object " << i << " tic " << t;
        }
      }
    }
  }
  ASSERT_TRUE(ForceSimdLevel(DetectSimdLevel()));
}

TEST(MonteCarloTest, FixedEstimatesEqualTableReductionsBitForBit) {
  // The one P∀NN/P∃NN estimator counts hits per target; the packed table
  // pops them from its bitmap. Over the same worlds the counts, and so the
  // doubles, must agree exactly — live or against an arena, serial or on a
  // pool's waves — at a partial word (300), a partial chunk (1000) and
  // several chunks (1500).
  SyntheticConfig config;
  config.num_states = 600;
  config.num_objects = 30;
  config.lifetime = 24;
  config.obs_interval = 6;
  config.horizon = 40;
  config.seed = 31;
  auto world = GenerateSyntheticWorld(config);
  ASSERT_TRUE(world.ok());
  const DbSnapshot db(*world.value().db);
  const TimeInterval T = BusiestInterval(*world.value().db, 6);
  const std::vector<ObjectId> participants = db.AliveSometime(T.start, T.end);
  ASSERT_GE(participants.size(), 10u);
  Rng rng(8);
  const QueryTrajectory q = RandomQueryState(*world.value().space, rng);
  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (size_t worlds : {size_t{300}, size_t{1000}, size_t{1500}}) {
    for (int k : {1, 2}) {
      const MonteCarloOptions mc = Opts(worlds, 97, k);
      auto table = ComputeNnTable(db, participants, q, T, mc);
      ASSERT_TRUE(table.ok());
      auto arena = WorldArena::Build(db, participants, T, mc.seed, worlds);
      ASSERT_TRUE(arena.ok());
      const std::vector<const WorldArena*> sources = {nullptr, &arena.value()};
      for (const WorldArena* source : sources) {
        for (ThreadPool* pool : std::vector<ThreadPool*>{nullptr, &pool2,
                                                         &pool4}) {
          const std::string where =
              "W=" + std::to_string(worlds) + " k=" + std::to_string(k) +
              " arena=" + std::to_string(source != nullptr) + " threads=" +
              std::to_string(pool != nullptr ? pool->num_threads() : 1);
          bool used_arena = false;
          auto est = EstimatePnnAdaptive(
              db, participants, participants, q, T, PnnSemantics::kForall,
              /*tau=*/0.0, mc, PrecisionTarget{}, pool, nullptr, nullptr,
              source, &used_arena);
          ASSERT_TRUE(est.ok()) << where;
          EXPECT_EQ(used_arena, source != nullptr) << where;
          EXPECT_EQ(est.value().worlds_used, worlds) << where;
          EXPECT_FALSE(est.value().early_stopped) << where;
          ASSERT_EQ(est.value().estimates.size(), participants.size());
          for (size_t i = 0; i < participants.size(); ++i) {
            const PnnEstimate& e = est.value().estimates[i];
            EXPECT_EQ(e.object, participants[i]) << where;
            EXPECT_EQ(e.forall_prob, table.value().ForallProb(i))
                << where << " object " << i;
            EXPECT_EQ(e.exists_prob, table.value().ExistsProb(i))
                << where << " object " << i;
          }
        }
      }
    }
  }
}

TEST(MonteCarloTest, MovingQueryTrajectory) {
  // Query follows o2's certain start then moves away; probabilities shift
  // towards the object that tracks the query.
  Figure1World world = MakeFigure1World();
  QueryTrajectory moving = QueryTrajectory::FromPoints(
      1, {{0, 3}, {0, 4}, {0, 4}});  // on top of s3 then s4
  auto estimates = EstimatePnn(*world.db, {world.o1, world.o2},
                               {world.o1, world.o2}, moving, world.T,
                               Opts(5000));
  ASSERT_TRUE(estimates.ok());
  // o2 starts at s3 = q(1): certain NN at t=1, and follows s4 with p=.5.
  EXPECT_GT(estimates.value()[1].exists_prob, 0.99);
  EXPECT_GT(estimates.value()[1].forall_prob, 0.4);
}

}  // namespace
}  // namespace ust

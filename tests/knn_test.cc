// k-nearest-neighbor query semantics (Section 8): sampled P∀kNN / P∃kNN via
// the same possible-world machinery, validated against enumeration.
#include <gtest/gtest.h>

#include "index/ust_tree.h"
#include "query/exact.h"
#include "query/monte_carlo.h"
#include "query/nn_kernel.h"
#include "query/pcnn.h"
#include "query/session.h"
#include "test_world.h"
#include "util/stats.h"

namespace ust {
namespace {

using testing::Figure1World;
using testing::MakeFigure1World;
using testing::MonteCarloSpec;

MonteCarloOptions Opts(size_t worlds, int k) {
  MonteCarloOptions o;
  o.num_worlds = worlds;
  o.k = k;
  o.seed = 77;
  return o;
}

TEST(NnKernelTest, MarksSingleNearest) {
  StateSpace space({{0, 1}, {0, 2}, {0, 3}});
  std::vector<WorldTrajectory> world(3);
  for (int i = 0; i < 3; ++i) {
    world[i].alive = true;
    world[i].traj.start = 0;
    world[i].traj.states = {static_cast<StateId>(i)};
  }
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{0, 0};
  std::vector<uint8_t> is_nn(3);
  MarkNearestNeighbors(space, world, q, T, 1, is_nn.data());
  EXPECT_EQ(is_nn[0], 1);
  EXPECT_EQ(is_nn[1], 0);
  EXPECT_EQ(is_nn[2], 0);
}

TEST(NnKernelTest, MarksKNearest) {
  StateSpace space({{0, 1}, {0, 2}, {0, 3}});
  std::vector<WorldTrajectory> world(3);
  for (int i = 0; i < 3; ++i) {
    world[i].alive = true;
    world[i].traj.start = 0;
    world[i].traj.states = {static_cast<StateId>(i)};
  }
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{0, 0};
  std::vector<uint8_t> is_nn(3);
  MarkNearestNeighbors(space, world, q, T, 2, is_nn.data());
  EXPECT_EQ(is_nn[0], 1);
  EXPECT_EQ(is_nn[1], 1);
  EXPECT_EQ(is_nn[2], 0);
  MarkNearestNeighbors(space, world, q, T, 3, is_nn.data());
  EXPECT_EQ(is_nn[2], 1);
}

TEST(NnKernelTest, KLargerThanAliveCountMarksAllAlive) {
  StateSpace space({{0, 1}, {0, 2}});
  std::vector<WorldTrajectory> world(2);
  world[0].alive = true;
  world[0].traj.start = 0;
  world[0].traj.states = {0};
  world[1].alive = false;
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{0, 0};
  std::vector<uint8_t> is_nn(2);
  MarkNearestNeighbors(space, world, q, T, 5, is_nn.data());
  EXPECT_EQ(is_nn[0], 1);
  EXPECT_EQ(is_nn[1], 0);  // dead objects are never marked
}

TEST(NnKernelTest, TiesMarkedForAll) {
  StateSpace space({{0, 1}});
  std::vector<WorldTrajectory> world(2);
  for (int i = 0; i < 2; ++i) {
    world[i].alive = true;
    world[i].traj.start = 0;
    world[i].traj.states = {0};
  }
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{0, 0};
  std::vector<uint8_t> is_nn(2);
  MarkNearestNeighbors(space, world, q, T, 1, is_nn.data());
  EXPECT_EQ(is_nn[0], 1);
  EXPECT_EQ(is_nn[1], 1);
}

TEST(KnnQueryTest, K2IsCertainInTwoObjectWorld) {
  // With |D| = 2 every alive object is trivially within the 2 nearest.
  Figure1World world = MakeFigure1World();
  auto estimates = EstimatePnn(*world.db, {world.o1, world.o2},
                               {world.o1, world.o2}, world.q, world.T,
                               Opts(500, 2));
  ASSERT_TRUE(estimates.ok());
  for (const auto& e : estimates.value()) {
    EXPECT_DOUBLE_EQ(e.forall_prob, 1.0);
    EXPECT_DOUBLE_EQ(e.exists_prob, 1.0);
  }
}

TEST(KnnQueryTest, ProbabilitiesMonotoneInK) {
  // P(o within k nearest) grows with k, for both semantics.
  Figure1World world = MakeFigure1World();
  double prev_forall = 0.0, prev_exists = 0.0;
  for (int k = 1; k <= 2; ++k) {
    auto estimates = EstimatePnn(*world.db, {world.o1, world.o2}, {world.o2},
                                 world.q, world.T, Opts(5000, k));
    ASSERT_TRUE(estimates.ok());
    EXPECT_GE(estimates.value()[0].forall_prob + 1e-9, prev_forall);
    EXPECT_GE(estimates.value()[0].exists_prob + 1e-9, prev_exists);
    prev_forall = estimates.value()[0].forall_prob;
    prev_exists = estimates.value()[0].exists_prob;
  }
}

TEST(KnnQueryTest, MatchesEnumerationForKTwoThreeObjects) {
  // Three objects on a line with branching futures.
  auto space = std::make_shared<const StateSpace>(
      std::vector<Point2>{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  auto m = testing::MakeMatrix(
      4, {{{1, 0.5}, {0, 0.5}}, {{2, 0.5}, {1, 0.5}},
          {{3, 0.5}, {2, 0.5}}, {{3, 1.0}}});
  TrajectoryDatabase db(space);
  std::vector<ObjectId> ids;
  for (StateId s : {0u, 1u, 2u}) {
    auto obs = ObservationSeq::Create({{0, s}});
    ASSERT_TRUE(obs.ok());
    ids.push_back(db.AddObject(obs.MoveValue(), m, 2));
  }
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  TimeInterval T{0, 2};
  auto exact = ExactPnnByEnumeration(db, ids, q, T, /*k=*/2);
  auto mc = EstimatePnn(db, ids, ids, q, T, Opts(20000, 2));
  ASSERT_TRUE(exact.ok() && mc.ok());
  const double eps = HoeffdingEpsilon(20000, 0.01);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NEAR(mc.value()[i].forall_prob, exact.value()[i].forall_prob, eps);
    EXPECT_NEAR(mc.value()[i].exists_prob, exact.value()[i].exists_prob, eps);
  }
}

TEST(KnnEngineTest, EngineForallWithKTwo) {
  // Through the full engine: with |D| = 2 and k = 2 every alive-throughout
  // object qualifies with probability 1 at any tau <= 1.
  Figure1World world = MakeFigure1World();
  QuerySession session(*world.db);
  const QueryOutcome result = session.Run(MonteCarloSpec(
      QueryKind::kForall, world.q, world.T, 0.9, Opts(500, 2)));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.pnn.results.size(), 2u);
  for (const auto& r : result.pnn.results) {
    EXPECT_DOUBLE_EQ(r.prob, 1.0);
  }
}

TEST(KnnEngineTest, IndexedKnnAgreesWithUnindexed) {
  Figure1World world = MakeFigure1World();
  auto tree = UstTree::Build(*world.db);
  ASSERT_TRUE(tree.ok());
  QuerySession indexed(*world.db, &tree.value());
  QuerySession plain(*world.db);
  for (int k = 1; k <= 2; ++k) {
    const QuerySpec spec = MonteCarloSpec(QueryKind::kExists, world.q,
                                          world.T, 0.1, Opts(5000, k));
    const QueryOutcome a = indexed.Run(spec);
    const QueryOutcome b = plain.Run(spec);
    ASSERT_TRUE(a.status.ok() && b.status.ok());
    ASSERT_EQ(a.pnn.results.size(), b.pnn.results.size()) << "k=" << k;
    for (size_t i = 0; i < a.pnn.results.size(); ++i) {
      EXPECT_EQ(a.pnn.results[i].object, b.pnn.results[i].object);
      EXPECT_NEAR(a.pnn.results[i].prob, b.pnn.results[i].prob, 0.03);
    }
  }
}

TEST(KnnEngineTest, ContinuousKnnQuery) {
  // PC(k)NNQ (Section 8): with k = 2 in the two-object world, both objects
  // own the full interval with probability 1.
  Figure1World world = MakeFigure1World();
  QuerySession session(*world.db);
  const QueryOutcome result = session.Run(MonteCarloSpec(
      QueryKind::kContinuous, world.q, world.T, 0.9, Opts(500, 2)));
  ASSERT_TRUE(result.status.ok());
  auto maximal = FilterMaximal(result.pcnn.pcnn.entries);
  ASSERT_EQ(maximal.size(), 2u);
  for (const auto& e : maximal) {
    EXPECT_EQ(e.tics, (std::vector<Tic>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(e.prob, 1.0);
  }
}

TEST(KnnQueryTest, SumOfForallKnnBoundedByK) {
  // At each world and tic exactly k objects are marked (when >= k alive and
  // no ties), so the forall probabilities sum to at most k.
  Figure1World world = MakeFigure1World();
  for (int k = 1; k <= 2; ++k) {
    auto estimates = EstimatePnn(*world.db, {world.o1, world.o2},
                                 {world.o1, world.o2}, world.q, world.T,
                                 Opts(2000, k));
    ASSERT_TRUE(estimates.ok());
    double sum = 0.0;
    for (const auto& e : estimates.value()) sum += e.forall_prob;
    EXPECT_LE(sum, k + 1e-9);
  }
}

}  // namespace
}  // namespace ust

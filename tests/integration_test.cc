// End-to-end integration: generated worlds, full pipeline, cross-validation
// of sampling vs exact semantics on small instances, and the effectiveness
// ordering of model-adaptation variants (the paper's Figure 12 claim).
#include <gtest/gtest.h>

#include <cmath>

#include "gen/roadnet.h"
#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "model/adaptation.h"
#include "query/exact.h"
#include "query/session.h"
#include "query/snapshot.h"
#include "test_world.h"
#include "util/stats.h"

namespace ust {
namespace {

using testing::MonteCarloSpec;

TEST(IntegrationTest, FullPipelineOnSyntheticWorld) {
  SyntheticConfig config;
  config.num_states = 800;
  config.num_objects = 30;
  config.lifetime = 30;
  config.obs_interval = 6;
  config.horizon = 50;
  config.seed = 42;
  auto world = GenerateSyntheticWorld(config);
  ASSERT_TRUE(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  ASSERT_TRUE(db.EnsureAllPosteriors().ok());
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  QuerySession session(db, &tree.value());
  Rng rng(1);
  TimeInterval T = BusiestInterval(db, 8);
  MonteCarloOptions options;
  options.num_worlds = 1000;
  int nonempty = 0;
  for (int iter = 0; iter < 5; ++iter) {
    QueryTrajectory q = RandomQueryState(db.space(), rng);
    const QueryOutcome forall =
        session.Run(MonteCarloSpec(QueryKind::kForall, q, T, 0.0, options));
    const QueryOutcome exists =
        session.Run(MonteCarloSpec(QueryKind::kExists, q, T, 0.0, options));
    ASSERT_TRUE(forall.status.ok());
    ASSERT_TRUE(exists.status.ok());
    nonempty += !exists.pnn.results.empty();
    // Global sanity: probabilities in [0,1], exists >= forall per object.
    for (const auto& r : forall.pnn.results) {
      EXPECT_GE(r.prob, 0.0);
      EXPECT_LE(r.prob, 1.0);
    }
    double forall_sum = 0.0;
    for (const auto& r : forall.pnn.results) forall_sum += r.prob;
    EXPECT_LE(forall_sum, 1.0 + 0.05);  // MC slack
  }
  EXPECT_GT(nonempty, 0);
}

TEST(IntegrationTest, SamplingMatchesExactOnTinyWorld) {
  // Three objects over three tics: small enough to enumerate (a fourth tic
  // or a fourth object exceeds the cap).
  SyntheticConfig config;
  config.num_states = 200;
  config.num_objects = 3;
  config.lifetime = 8;
  config.obs_interval = 4;
  config.horizon = 8;
  config.seed = 17;
  auto world = GenerateSyntheticWorld(config);
  ASSERT_TRUE(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  Rng rng(2);
  QueryTrajectory q = RandomQueryState(db.space(), rng);
  TimeInterval T{2, 4};
  std::vector<ObjectId> ids = db.AliveSometime(T.start, T.end);
  ASSERT_FALSE(ids.empty());
  auto exact = ExactPnnByEnumeration(db, ids, q, T, 1, 5000000);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  MonteCarloOptions options;
  options.num_worlds = 20000;
  auto mc = EstimatePnn(db, ids, ids, q, T, options);
  ASSERT_TRUE(mc.ok());
  const double eps = HoeffdingEpsilon(20000, 0.01);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NEAR(mc.value()[i].forall_prob, exact.value()[i].forall_prob, eps);
    EXPECT_NEAR(mc.value()[i].exists_prob, exact.value()[i].exists_prob, eps);
  }
}

TEST(IntegrationTest, AdaptationVariantOrderingOnRoadnet) {
  // Figure 12's qualitative claim: FB <= F <= NO in mean error against
  // held-out ground truth, and FB beats the uniform ablation U.
  RoadnetConfig config;
  config.num_states = 800;
  config.num_objects = 12;
  config.num_training_trips = 80;
  config.lifetime = 48;
  config.obs_interval = 8;
  config.seed = 23;
  auto world = GenerateRoadnetWorld(config);
  ASSERT_TRUE(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  const StateSpace& space = db.space();

  double err_no = 0, err_f = 0, err_fb = 0, err_u = 0;
  size_t count = 0;
  for (size_t i = 0; i < db.size(); ++i) {
    const auto& obj = db.object(static_cast<ObjectId>(i));
    const Trajectory& truth = world.value().ground_truth[i];
    auto posterior = obj.Posterior();
    ASSERT_TRUE(posterior.ok());
    auto forward = ForwardFilterMarginals(obj.matrix(), obj.observations());
    ASSERT_TRUE(forward.ok());
    auto apriori =
        AprioriMarginals(obj.matrix(), obj.observations().first(),
                         posterior.value()->num_slices());
    auto uniform = UniformReachableMarginals(*posterior.value());
    for (Tic t = truth.start; t <= truth.end(); ++t) {
      const Point2& true_pos = space.coord(truth.At(t));
      size_t rel = static_cast<size_t>(t - truth.start);
      err_no += apriori[rel].ExpectedDistanceTo(space, true_pos);
      err_f += forward.value()[rel].ExpectedDistanceTo(space, true_pos);
      err_fb += posterior.value()->MarginalAt(t).ExpectedDistanceTo(space,
                                                                    true_pos);
      err_u += uniform[rel].ExpectedDistanceTo(space, true_pos);
      ++count;
    }
  }
  ASSERT_GT(count, 0u);
  err_no /= count;
  err_f /= count;
  err_fb /= count;
  err_u /= count;
  EXPECT_LT(err_fb, err_f);
  EXPECT_LT(err_f, err_no);
  EXPECT_LT(err_fb, err_u);
}

TEST(IntegrationTest, SnapshotBiasOnGeneratedWorld) {
  // SS systematically underestimates P∀NN relative to the sampler (SA).
  SyntheticConfig config;
  config.num_states = 400;
  config.num_objects = 8;
  config.lifetime = 16;
  config.obs_interval = 4;
  config.horizon = 16;
  config.seed = 31;
  auto world = GenerateSyntheticWorld(config);
  ASSERT_TRUE(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  Rng rng(3);
  TimeInterval T{4, 8};
  std::vector<ObjectId> ids = db.AliveThroughout(T.start, T.end);
  ASSERT_GT(ids.size(), 1u);
  MonteCarloOptions options;
  options.num_worlds = 5000;
  int under = 0, informative = 0;
  for (int iter = 0; iter < 6; ++iter) {
    QueryTrajectory q = RandomQueryState(db.space(), rng);
    auto sa = EstimatePnn(db, ids, ids, q, T, options);
    auto ss = SnapshotEstimatePnn(db, ids, q, T);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(ss.ok());
    for (size_t i = 0; i < ids.size(); ++i) {
      double p_sa = sa.value()[i].forall_prob;
      if (p_sa > 0.05 && p_sa < 0.95) {
        ++informative;
        under += ss.value()[i].forall_prob < p_sa + 0.02;
      }
    }
  }
  if (informative == 0) GTEST_SKIP() << "no informative cases drawn";
  EXPECT_GE(under, informative * 3 / 4);
}

TEST(IntegrationTest, QueryTrajectoryReferenceWorks) {
  // Full pipeline with a moving reference trajectory instead of a point.
  SyntheticConfig config;
  config.num_states = 500;
  config.num_objects = 15;
  config.lifetime = 20;
  config.obs_interval = 5;
  config.horizon = 30;
  config.seed = 53;
  auto world = GenerateSyntheticWorld(config);
  ASSERT_TRUE(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  QuerySession session(db, &tree.value());
  TimeInterval T = BusiestInterval(db, 5);
  Rng rng(4);
  QueryTrajectory q = RandomQueryTrajectory(
      db.space(), *world.value().matrix, T.start, T.length(), rng);
  MonteCarloOptions options;
  options.num_worlds = 800;
  const QueryOutcome forall =
      session.Run(MonteCarloSpec(QueryKind::kForall, q, T, 0.0, options));
  const QueryOutcome exists =
      session.Run(MonteCarloSpec(QueryKind::kExists, q, T, 0.0, options));
  ASSERT_TRUE(forall.status.ok());
  ASSERT_TRUE(exists.status.ok());
  double sum = 0.0;
  for (const auto& r : forall.pnn.results) sum += r.prob;
  EXPECT_LE(sum, 1.05);
}

}  // namespace
}  // namespace ust

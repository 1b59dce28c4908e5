#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "gen/synthetic.h"
#include "io/text_io.h"
#include "test_world.h"

namespace ust {
namespace {

using testing::MakeLineWorld;

TEST(TextIoTest, StateSpaceRoundTrip) {
  StateSpace space({{0.25, 0.75}, {1.5, -2.25}, {1e-9, 3.14159265358979}});
  std::stringstream ss;
  ASSERT_TRUE(SaveStateSpace(space, ss).ok());
  auto loaded = LoadStateSpace(ss);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), space.size());
  for (StateId s = 0; s < space.size(); ++s) {
    EXPECT_DOUBLE_EQ(loaded.value().coord(s).x, space.coord(s).x);
    EXPECT_DOUBLE_EQ(loaded.value().coord(s).y, space.coord(s).y);
  }
}

TEST(TextIoTest, EmptyStateSpaceRoundTrip) {
  StateSpace space;
  std::stringstream ss;
  ASSERT_TRUE(SaveStateSpace(space, ss).ok());
  auto loaded = LoadStateSpace(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

TEST(TextIoTest, TransitionMatrixRoundTrip) {
  auto world = MakeLineWorld(9, 0.3, 0.4);
  std::stringstream ss;
  ASSERT_TRUE(SaveTransitionMatrix(*world.matrix, ss).ok());
  auto loaded = LoadTransitionMatrix(ss);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().num_states(), world.matrix->num_states());
  ASSERT_EQ(loaded.value().num_nonzeros(), world.matrix->num_nonzeros());
  for (StateId s = 0; s < 9; ++s) {
    for (StateId t = 0; t < 9; ++t) {
      EXPECT_DOUBLE_EQ(loaded.value().Prob(s, t), world.matrix->Prob(s, t));
    }
  }
}

TEST(TextIoTest, ObservationsRoundTrip) {
  auto world = MakeLineWorld(9, 0.3, 0.4);
  auto space = world.space;
  TrajectoryDatabase db(space);
  auto obs1 = ObservationSeq::Create({{0, 2}, {5, 6}, {9, 3}});
  auto obs2 = ObservationSeq::Create({{3, 1}});
  ASSERT_TRUE(obs1.ok() && obs2.ok());
  db.AddObject(obs1.MoveValue(), world.matrix);
  db.AddObject(obs2.MoveValue(), world.matrix, /*end_tic=*/7);

  std::stringstream ss;
  ASSERT_TRUE(SaveObservations(db, ss).ok());
  auto loaded = LoadObservations(ss, space, world.matrix);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  const auto& o0 = loaded.value().object(0);
  EXPECT_EQ(o0.observations().size(), 3u);
  EXPECT_EQ(o0.observations()[1].time, 5);
  EXPECT_EQ(o0.observations()[1].state, 6u);
  EXPECT_EQ(o0.last_tic(), 9);
  const auto& o1 = loaded.value().object(1);
  EXPECT_EQ(o1.first_tic(), 3);
  EXPECT_EQ(o1.last_tic(), 7);  // lifetime extension preserved
}

TEST(TextIoTest, TrajectoriesRoundTrip) {
  std::vector<Trajectory> trajectories;
  trajectories.push_back({5, {1, 2, 3, 2}});
  trajectories.push_back({0, {7}});
  std::stringstream ss;
  ASSERT_TRUE(SaveTrajectories(trajectories, ss).ok());
  auto loaded = LoadTrajectories(ss);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].start, 5);
  EXPECT_EQ(loaded.value()[0].states, (std::vector<StateId>{1, 2, 3, 2}));
  EXPECT_EQ(loaded.value()[1].states, (std::vector<StateId>{7}));
}

TEST(TextIoTest, GeneratedWorldRoundTripPreservesQueries) {
  // The acid test: persist a generated world and verify the posterior models
  // built from the reloaded artifacts are identical.
  SyntheticConfig config;
  config.num_states = 300;
  config.num_objects = 6;
  config.lifetime = 20;
  config.obs_interval = 5;
  config.horizon = 20;
  config.seed = 9;
  auto world = GenerateSyntheticWorld(config);
  ASSERT_TRUE(world.ok());

  std::stringstream space_ss, matrix_ss, obs_ss;
  ASSERT_TRUE(SaveStateSpace(*world.value().space, space_ss).ok());
  ASSERT_TRUE(SaveTransitionMatrix(*world.value().matrix, matrix_ss).ok());
  ASSERT_TRUE(SaveObservations(*world.value().db, obs_ss).ok());

  auto space = LoadStateSpace(space_ss);
  auto matrix = LoadTransitionMatrix(matrix_ss);
  ASSERT_TRUE(space.ok() && matrix.ok());
  auto db = LoadObservations(
      obs_ss, std::make_shared<const StateSpace>(space.MoveValue()),
      std::make_shared<const TransitionMatrix>(matrix.MoveValue()));
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db.value().size(), world.value().db->size());
  for (ObjectId id = 0; id < db.value().size(); ++id) {
    auto original = world.value().db->object(id).Posterior();
    auto reloaded = db.value().object(id).Posterior();
    ASSERT_TRUE(original.ok() && reloaded.ok());
    ASSERT_EQ(original.value()->num_slices(), reloaded.value()->num_slices());
    for (Tic t = original.value()->first_tic();
         t <= original.value()->last_tic(); ++t) {
      EXPECT_NEAR(SparseDist::L1Distance(original.value()->MarginalAt(t),
                                         reloaded.value()->MarginalAt(t)),
                  0.0, 1e-12);
    }
  }
}

TEST(TextIoTest, FileRoundTrip) {
  auto world = MakeLineWorld(5);
  const std::string path = ::testing::TempDir() + "/ustq_io_test_matrix.txt";
  ASSERT_TRUE(SaveTransitionMatrixFile(*world.matrix, path).ok());
  auto loaded = LoadTransitionMatrixFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nonzeros(), world.matrix->num_nonzeros());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadTransitionMatrixFile(path).ok());
}

TEST(TextIoTest, MalformedInputsRejected) {
  {
    std::stringstream ss("not a header\n3\n");
    EXPECT_EQ(LoadStateSpace(ss).status().code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::stringstream ss("ustq-statespace v1\n2\n0.5 0.5\n");  // truncated
    EXPECT_FALSE(LoadStateSpace(ss).ok());
  }
  {
    std::stringstream ss("ustq-statespace v1\nxyz\n");
    EXPECT_FALSE(LoadStateSpace(ss).ok());
  }
  {
    std::stringstream ss("ustq-matrix v1\n2 1\n0 5 1.0\n");  // bad target
    EXPECT_FALSE(LoadTransitionMatrix(ss).ok());
  }
  {
    // Non-stochastic row must be rejected by matrix validation.
    std::stringstream ss("ustq-matrix v1\n1 1\n0 0 0.4\n");
    EXPECT_FALSE(LoadTransitionMatrix(ss).ok());
  }
  {
    std::stringstream ss("ustq-observations v1\n1\n9 2\n5 1\n3 0\n");
    auto space = std::make_shared<const StateSpace>(
        std::vector<Point2>{{0, 0}, {1, 1}});
    // Observation times decreasing: ObservationSeq validation must fire.
    EXPECT_FALSE(LoadObservations(ss, space, nullptr).ok());
  }
  // Hostile counts: a loader must neither reserve by a count (which threw
  // std::length_error out of a Result-returning call) nor allocate rows for
  // states a StateId cannot name. 2^62 and -1 (read as 2^64 - 1) exceed
  // the lines present, so they fail as truncated.
  const auto expect_invalid = [](const Status& status, const char* what) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status.ToString();
  };
  for (const char* count : {"-1", "4611686018427387904"}) {
    std::stringstream ss(std::string("ustq-statespace v1\n") + count +
                         "\n0 0\n");
    expect_invalid(LoadStateSpace(ss).status(), count);
  }
  {
    std::stringstream ss(
        "ustq-trajectories v1\n4611686018427387904\n0 1\n3\n");
    expect_invalid(LoadTrajectories(ss).status(), "trajectory count");
  }
  {
    std::stringstream ss(
        "ustq-trajectories v1\n1\n0 4611686018427387904\n3 4\n");
    expect_invalid(LoadTrajectories(ss).status(), "trajectory length");
  }
  for (const char* states : {"4611686018427387904", "4294967296"}) {
    std::stringstream ss(std::string("ustq-matrix v1\n") + states + " 1\n" +
                         "0 0 1.0\n");
    expect_invalid(LoadTransitionMatrix(ss).status(), states);
  }
  {
    std::stringstream ss(
        "ustq-observations v1\n1\n9 4611686018427387904\n3 0\n");
    auto space = std::make_shared<const StateSpace>(
        std::vector<Point2>{{0, 0}, {1, 1}});
    expect_invalid(LoadObservations(ss, space, nullptr).status(),
                   "observation count");
  }
}

TEST(TextIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# generated by a test\n\nustq-statespace v1\n# count\n2\n0 0\n\n1 1\n");
  auto loaded = LoadStateSpace(ss);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 2u);
}

TEST(TextIoTest, ObservationStateOutsideSpaceRejected) {
  std::stringstream ss("ustq-observations v1\n1\n5 1\n5 99\n");
  auto space =
      std::make_shared<const StateSpace>(std::vector<Point2>{{0, 0}});
  EXPECT_FALSE(LoadObservations(ss, space, nullptr).ok());
}

}  // namespace
}  // namespace ust

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "query/pcnn.h"
#include "query/session.h"
#include "test_world.h"
#include "util/stats.h"

namespace ust {
namespace {

using testing::Figure1World;
using testing::MakeFigure1World;
using testing::MonteCarloSpec;

MonteCarloOptions Opts(size_t worlds, uint64_t seed = 42) {
  MonteCarloOptions o;
  o.num_worlds = worlds;
  o.seed = seed;
  return o;
}

// Finds an entry with the given object and timestamp set.
const PcnnEntry* Find(const std::vector<PcnnEntry>& entries, ObjectId o,
                      std::vector<Tic> tics) {
  for (const auto& e : entries) {
    if (e.object == o && e.tics == tics) return &e;
  }
  return nullptr;
}

TEST(PcnnTest, Figure1WorkedExample) {
  Figure1World world = MakeFigure1World();
  QuerySession session(*world.db);
  const QueryOutcome result = session.Run(MonteCarloSpec(
      QueryKind::kContinuous, world.q, world.T, 0.1, Opts(20000)));
  ASSERT_TRUE(result.status.ok());
  const auto& entries = result.pcnn.pcnn.entries;
  // o1 qualifies with the full interval {1,2,3} (P = 0.75).
  const PcnnEntry* full = Find(entries, world.o1, {1, 2, 3});
  ASSERT_NE(full, nullptr);
  EXPECT_NEAR(full->prob, 0.75, HoeffdingEpsilon(20000, 0.01));
  // o2 qualifies with {2,3} (P = 0.125) but not with any set containing 1.
  EXPECT_NE(Find(entries, world.o2, {2, 3}), nullptr);
  EXPECT_EQ(Find(entries, world.o2, {1}), nullptr);
  EXPECT_EQ(Find(entries, world.o2, {1, 2}), nullptr);
  EXPECT_EQ(Find(entries, world.o2, {1, 2, 3}), nullptr);
  // Maximal filtering reproduces the paper's answer set.
  auto maximal = FilterMaximal(entries);
  std::set<std::pair<ObjectId, std::vector<Tic>>> got;
  for (const auto& e : maximal) got.insert({e.object, e.tics});
  std::set<std::pair<ObjectId, std::vector<Tic>>> expected = {
      {world.o1, {1, 2, 3}}, {world.o2, {2, 3}}};
  EXPECT_EQ(got, expected);
}

TEST(PcnnTest, AntiMonotonicityHoldsInOutput) {
  Figure1World world = MakeFigure1World();
  auto table = ComputeNnTable(*world.db, {world.o1, world.o2}, world.q,
                              world.T, Opts(5000));
  ASSERT_TRUE(table.ok());
  PcnnResult result = PcnnForObject(table.value(), 0, 0.05);
  // Every subset of a qualifying set must also qualify (Apriori soundness).
  std::set<std::vector<Tic>> sets;
  for (const auto& e : result.entries) sets.insert(e.tics);
  for (const auto& tics : sets) {
    if (tics.size() <= 1) continue;
    for (size_t skip = 0; skip < tics.size(); ++skip) {
      std::vector<Tic> subset;
      for (size_t i = 0; i < tics.size(); ++i) {
        if (i != skip) subset.push_back(tics[i]);
      }
      EXPECT_TRUE(sets.count(subset)) << "missing subset of a qualifying set";
    }
  }
  // And probabilities decrease with set growth.
  for (const auto& e : result.entries) {
    for (const auto& f : result.entries) {
      if (e.tics.size() < f.tics.size() &&
          std::includes(f.tics.begin(), f.tics.end(), e.tics.begin(),
                        e.tics.end())) {
        EXPECT_GE(e.prob + 1e-12, f.prob);
      }
    }
  }
}

TEST(PcnnTest, HighTauShrinksResult) {
  Figure1World world = MakeFigure1World();
  auto table = ComputeNnTable(*world.db, {world.o1, world.o2}, world.q,
                              world.T, Opts(5000));
  ASSERT_TRUE(table.ok());
  size_t prev = static_cast<size_t>(-1);
  for (double tau : {0.05, 0.3, 0.8, 1.1}) {
    PcnnResult r = PcnnForObject(table.value(), 0, tau);
    EXPECT_LE(r.entries.size(), prev);
    prev = r.entries.size();
  }
  // tau > 1 yields nothing.
  EXPECT_EQ(prev, 0u);
}

TEST(PcnnTest, TauZeroReturnsFullLattice) {
  Figure1World world = MakeFigure1World();
  auto table = ComputeNnTable(*world.db, {world.o1, world.o2}, world.q,
                              world.T, Opts(2000));
  ASSERT_TRUE(table.ok());
  // o1 is NN with positive probability at every tic, so tau=0 returns all
  // 2^3 - 1 nonempty subsets of T.
  PcnnResult r = PcnnForObject(table.value(), 0, 0.0);
  EXPECT_EQ(r.entries.size(), 7u);
}

TEST(PcnnTest, ValidationCountersTrackWork) {
  Figure1World world = MakeFigure1World();
  auto table = ComputeNnTable(*world.db, {world.o1, world.o2}, world.q,
                              world.T, Opts(2000));
  ASSERT_TRUE(table.ok());
  PcnnResult low = PcnnForObject(table.value(), 0, 0.0);
  PcnnResult high = PcnnForObject(table.value(), 0, 0.9);
  EXPECT_GT(low.validations, high.validations);
  EXPECT_GE(low.candidates_generated, low.entries.size());
  // Level 1 always validates |T| singletons.
  EXPECT_GE(high.validations, world.T.length());
}

TEST(PcnnTest, DisconnectedTimestampSetsAllowed) {
  // An object that is NN at tics 1 and 3 but not 2 yields the set {1,3}.
  auto space = std::make_shared<const StateSpace>(
      std::vector<Point2>{{0, 1}, {0, 5}, {0, 2}});
  // a oscillates: near, far, near. b stays at distance 2.
  auto ma = testing::MakeMatrix(
      3, {{{1, 1.0}}, {{0, 1.0}}, {{2, 1.0}}});
  auto mb = testing::MakeMatrix(3, {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}});
  TrajectoryDatabase db(space);
  auto obs_a = ObservationSeq::Create({{1, 0}});
  auto obs_b = ObservationSeq::Create({{1, 2}});
  ASSERT_TRUE(obs_a.ok() && obs_b.ok());
  ObjectId a = db.AddObject(obs_a.MoveValue(), ma, 3);
  ObjectId b = db.AddObject(obs_b.MoveValue(), mb, 3);
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  QuerySession session(db);
  const QueryOutcome result = session.Run(
      MonteCarloSpec(QueryKind::kContinuous, q, {1, 3}, 0.5, Opts(200)));
  ASSERT_TRUE(result.status.ok());
  const auto& entries = result.pcnn.pcnn.entries;
  const PcnnEntry* disconnected = Find(entries, a, {1, 3});
  ASSERT_NE(disconnected, nullptr);
  EXPECT_DOUBLE_EQ(disconnected->prob, 1.0);
  EXPECT_EQ(Find(entries, a, {1, 2, 3}), nullptr);
  // b wins only tic 2.
  EXPECT_NE(Find(entries, b, {2}), nullptr);
  EXPECT_EQ(Find(entries, b, {2, 3}), nullptr);
}

TEST(PcnnTest, FilterMaximalKeepsIncomparableSets) {
  std::vector<PcnnEntry> entries = {
      {0, {1}, 0.9}, {0, {1, 2}, 0.8}, {0, {3}, 0.7}, {1, {1}, 0.6}};
  auto maximal = FilterMaximal(entries);
  // {1} of object 0 is dominated by {1,2}; {3} and object 1's {1} survive.
  ASSERT_EQ(maximal.size(), 3u);
  EXPECT_EQ(maximal[0].tics, (std::vector<Tic>{1, 2}));
  EXPECT_EQ(maximal[1].tics, (std::vector<Tic>{3}));
  EXPECT_EQ(maximal[2].object, 1u);
}

TEST(PcnnTest, CandidateNotAmongParticipantsRejected) {
  Figure1World world = MakeFigure1World();
  auto table = ComputeNnTable(*world.db, {world.o1}, world.q, world.T,
                              Opts(10));
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(PcnnOnTable(table.value(), {world.o2}, 0.5).ok());
}

}  // namespace
}  // namespace ust

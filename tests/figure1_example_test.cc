// End-to-end validation of the paper's Example 1 (Figure 1): all three query
// semantics on the worked two-object world, evaluated exactly, by Monte-Carlo
// sampling, and through the full query engine with and without the UST-tree.
#include <gtest/gtest.h>

#include "index/ust_tree.h"
#include "query/exact.h"
#include "query/pcnn.h"
#include "query/session.h"
#include "test_world.h"
#include "util/stats.h"

namespace ust {
namespace {

using testing::Figure1World;
using testing::MakeFigure1World;
using testing::MonteCarloSpec;

MonteCarloOptions Opts(size_t worlds) {
  MonteCarloOptions o;
  o.num_worlds = worlds;
  o.seed = 1234;
  return o;
}

class Figure1Test : public ::testing::Test {
 protected:
  /// A Monte-Carlo spec of `kind` over the paper's (q, T).
  QuerySpec Spec(QueryKind kind, double tau, size_t worlds) const {
    return MonteCarloSpec(kind, world_.q, world_.T, tau, Opts(worlds));
  }

  Figure1World world_ = MakeFigure1World();
};

TEST_F(Figure1Test, PossibleWorldCountsMatchPaper) {
  auto p1 = world_.db->object(world_.o1).Posterior();
  auto p2 = world_.db->object(world_.o2).Posterior();
  ASSERT_TRUE(p1.ok() && p2.ok());
  auto w1 = EnumerateWindowTrajectories(*p1.value(), 1, 3);
  auto w2 = EnumerateWindowTrajectories(*p2.value(), 1, 3);
  ASSERT_TRUE(w1.ok() && w2.ok());
  EXPECT_EQ(w1.value().size(), 3u);  // tr1,1 tr1,2 tr1,3
  EXPECT_EQ(w2.value().size(), 2u);  // tr2,1 tr2,2
}

TEST_F(Figure1Test, ExactProbabilitiesMatchPaper) {
  auto exact = ExactPnnByEnumeration(*world_.db, {world_.o1, world_.o2},
                                     world_.q, world_.T);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact.value()[0].forall_prob, 0.75, 1e-12);   // P∀NN(o1)
  EXPECT_NEAR(exact.value()[1].exists_prob, 0.25, 1e-12);   // P∃NN(o2)
}

TEST_F(Figure1Test, EngineForallQueryWithoutIndex) {
  QuerySession session(*world_.db);
  const QueryOutcome result = session.Run(Spec(QueryKind::kForall, 0.1, 20000));
  ASSERT_TRUE(result.status.ok());
  // Only o1 passes tau = 0.1 for the whole interval.
  ASSERT_EQ(result.pnn.results.size(), 1u);
  EXPECT_EQ(result.pnn.results[0].object, world_.o1);
  EXPECT_NEAR(result.pnn.results[0].prob, 0.75,
              HoeffdingEpsilon(20000, 0.01));
}

TEST_F(Figure1Test, EngineExistsQueryWithoutIndex) {
  QuerySession session(*world_.db);
  const QueryOutcome result = session.Run(Spec(QueryKind::kExists, 0.1, 20000));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.pnn.results.size(), 2u);
  double p_o2 = 0.0;
  for (const auto& r : result.pnn.results) {
    if (r.object == world_.o2) p_o2 = r.prob;
  }
  EXPECT_NEAR(p_o2, 0.25, HoeffdingEpsilon(20000, 0.01));
}

TEST_F(Figure1Test, EngineMatchesWithUstTreeIndex) {
  auto index = UstTree::Build(*world_.db);
  ASSERT_TRUE(index.ok());
  QuerySession with_index(*world_.db, &index.value());
  QuerySession without_index(*world_.db);
  const QueryOutcome a = with_index.Run(Spec(QueryKind::kForall, 0.1, 20000));
  const QueryOutcome b =
      without_index.Run(Spec(QueryKind::kForall, 0.1, 20000));
  ASSERT_TRUE(a.status.ok() && b.status.ok());
  ASSERT_EQ(a.pnn.results.size(), b.pnn.results.size());
  for (size_t i = 0; i < a.pnn.results.size(); ++i) {
    EXPECT_EQ(a.pnn.results[i].object, b.pnn.results[i].object);
    EXPECT_NEAR(a.pnn.results[i].prob, b.pnn.results[i].prob, 0.02);
  }
  EXPECT_LE(a.pnn.num_candidates, b.pnn.num_candidates);
}

TEST_F(Figure1Test, PcnnMatchesPaperResultSet) {
  QuerySession session(*world_.db);
  const QueryOutcome result =
      session.Run(Spec(QueryKind::kContinuous, 0.1, 20000));
  ASSERT_TRUE(result.status.ok());
  auto maximal = FilterMaximal(result.pcnn.pcnn.entries);
  // "PCNNQ(q, D, {1,2,3}, 0.1) will return the object o1 together with the
  //  interval {1,2,3} and o2 together with the interval {2,3}."
  ASSERT_EQ(maximal.size(), 2u);
  bool saw_o1 = false, saw_o2 = false;
  for (const auto& e : maximal) {
    if (e.object == world_.o1) {
      saw_o1 = true;
      EXPECT_EQ(e.tics, (std::vector<Tic>{1, 2, 3}));
    }
    if (e.object == world_.o2) {
      saw_o2 = true;
      EXPECT_EQ(e.tics, (std::vector<Tic>{2, 3}));
      EXPECT_NEAR(e.prob, 0.125, HoeffdingEpsilon(20000, 0.01));
    }
  }
  EXPECT_TRUE(saw_o1);
  EXPECT_TRUE(saw_o2);
}

TEST_F(Figure1Test, HigherTauDropsO2) {
  QuerySession session(*world_.db);
  const QueryOutcome result =
      session.Run(Spec(QueryKind::kContinuous, 0.3, 5000));
  ASSERT_TRUE(result.status.ok());
  for (const auto& e : result.pcnn.pcnn.entries) {
    EXPECT_EQ(e.object, world_.o1);  // o2's best set has P = 0.125 < 0.3
  }
}

}  // namespace
}  // namespace ust

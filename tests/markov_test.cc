#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "markov/builders.h"
#include "markov/sparse_dist.h"
#include "markov/transition_matrix.h"
#include "test_world.h"
#include "util/rng.h"

namespace ust {
namespace {

using testing::MakeLineWorld;
using testing::MakeMatrix;

// ------------------------------------------------------------ SparseDist ---

TEST(SparseDistTest, ConstructorSortsAndMerges) {
  SparseDist d({{5, 0.2}, {1, 0.3}, {5, 0.1}});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d.ids()[0], 1u);
  EXPECT_DOUBLE_EQ(d.Prob(5), 0.3);
  EXPECT_DOUBLE_EQ(d.Prob(2), 0.0);
}

TEST(SparseDistTest, IndicatorAndUniform) {
  SparseDist ind = SparseDist::Indicator(7);
  EXPECT_DOUBLE_EQ(ind.Prob(7), 1.0);
  EXPECT_EQ(ind.size(), 1u);
  SparseDist uni = SparseDist::Uniform({2, 4, 6, 8});
  EXPECT_DOUBLE_EQ(uni.Prob(4), 0.25);
  EXPECT_DOUBLE_EQ(uni.Mass(), 1.0);
  EXPECT_TRUE(SparseDist::Uniform({}).empty());
}

TEST(SparseDistTest, NormalizeAndCompact) {
  SparseDist d({{0, 2.0}, {1, 6.0}, {2, 0.0}});
  d.Normalize();
  EXPECT_DOUBLE_EQ(d.Prob(0), 0.25);
  EXPECT_DOUBLE_EQ(d.Prob(1), 0.75);
  d.Compact();
  EXPECT_EQ(d.size(), 2u);  // the zero entry is gone
  EXPECT_EQ(d.Support(), (std::vector<StateId>{0, 1}));
}

TEST(SparseDistTest, SampleMatchesProbabilities) {
  SparseDist d({{3, 0.2}, {9, 0.8}});
  Rng rng(4);
  int count9 = 0;
  for (int i = 0; i < 10000; ++i) count9 += d.Sample(rng) == 9 ? 1 : 0;
  EXPECT_NEAR(count9 / 10000.0, 0.8, 0.02);
}

TEST(SparseDistTest, L1Distance) {
  SparseDist a({{0, 0.5}, {1, 0.5}});
  SparseDist b({{1, 0.5}, {2, 0.5}});
  EXPECT_DOUBLE_EQ(SparseDist::L1Distance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(SparseDist::L1Distance(a, a), 0.0);
}

TEST(SparseDistTest, ExpectedDistance) {
  StateSpace space({{0, 0}, {0, 2}});
  SparseDist d({{0, 0.5}, {1, 0.5}});
  EXPECT_DOUBLE_EQ(d.ExpectedDistanceTo(space, {0, 0}), 1.0);
}

// ------------------------------------------------------ TransitionMatrix ---

TEST(TransitionMatrixTest, FromRowsValidatesStochasticity) {
  auto bad = TransitionMatrix::FromRows(2, {{{0, 0.5}, {1, 0.2}}, {{1, 1.0}}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(TransitionMatrixTest, FromRowsRejectsBadTargets) {
  auto bad = TransitionMatrix::FromRows(2, {{{5, 1.0}}, {{1, 1.0}}});
  EXPECT_FALSE(bad.ok());
  auto negative = TransitionMatrix::FromRows(1, {{{0, -1.0}}});
  EXPECT_FALSE(negative.ok());
  auto duplicate = TransitionMatrix::FromRows(1, {{{0, 0.5}, {0, 0.5}}});
  EXPECT_FALSE(duplicate.ok());
}

TEST(TransitionMatrixTest, EmptyRowBecomesAbsorbing) {
  auto m = TransitionMatrix::FromRows(2, {{}, {{0, 1.0}}});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().Prob(0, 0), 1.0);
  EXPECT_EQ(m.value().row_size(0), 1u);
}

TEST(TransitionMatrixTest, ProbLookup) {
  auto m = MakeMatrix(3, {{{1, 0.3}, {2, 0.7}}, {{1, 1.0}}, {{0, 1.0}}});
  EXPECT_DOUBLE_EQ(m->Prob(0, 1), 0.3);
  EXPECT_DOUBLE_EQ(m->Prob(0, 2), 0.7);
  EXPECT_DOUBLE_EQ(m->Prob(0, 0), 0.0);
  EXPECT_EQ(m->num_nonzeros(), 4u);
}

TEST(TransitionMatrixTest, PropagatePerformsOneTransition) {
  auto m = MakeMatrix(3, {{{1, 0.5}, {2, 0.5}}, {{2, 1.0}}, {{2, 1.0}}});
  SparseDist d = SparseDist::Indicator(0);
  SparseDist next = m->Propagate(d);
  EXPECT_DOUBLE_EQ(next.Prob(1), 0.5);
  EXPECT_DOUBLE_EQ(next.Prob(2), 0.5);
  SparseDist two = m->Propagate(next);
  EXPECT_DOUBLE_EQ(two.Prob(2), 1.0);
}

TEST(TransitionMatrixTest, PropagatePreservesMass) {
  auto world = MakeLineWorld(20);
  SparseDist d({{5, 0.25}, {10, 0.75}});
  for (int step = 0; step < 15; ++step) {
    d = world.matrix->Propagate(d);
    EXPECT_NEAR(d.Mass(), 1.0, 1e-9);
  }
}

TEST(TransitionMatrixTest, SupportGraphMirrorsNonzeros) {
  auto m = MakeMatrix(3, {{{1, 0.5}, {2, 0.5}}, {{0, 1.0}}, {{2, 1.0}}});
  const CsrGraph& g = m->Support().forward;
  EXPECT_EQ(g.num_edges(), m->num_nonzeros());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 2));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(TransitionMatrixTest, SupportIsComputedOnceAcrossConcurrentFirstCalls) {
  // Four threads race to the first Support() call of a fresh matrix; all
  // must get the same graphs object (TSan checks the memo's first touch).
  auto world = MakeLineWorld(200);
  auto fresh = std::make_shared<const TransitionMatrix>(
      world.matrix->Uniformized());
  std::atomic<int> arrived{0};
  std::vector<const TransitionMatrix::SupportGraphs*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      while (arrived.load() < static_cast<int>(seen.size())) {
        std::this_thread::yield();
      }
      seen[i] = &fresh->Support();
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto* graphs : seen) EXPECT_EQ(graphs, seen[0]);
  EXPECT_EQ(seen[0], &fresh->Support());
  EXPECT_EQ(seen[0]->forward.num_edges(), fresh->num_nonzeros());
  EXPECT_EQ(seen[0]->reversed.num_edges(), fresh->num_nonzeros());
  EXPECT_TRUE(seen[0]->self_loops);  // every line state may stay

  // A copy holds the same rows and shares the graphs; a matrix lacking one
  // self-loop says so.
  const TransitionMatrix copy = *fresh;
  EXPECT_EQ(&copy.Support(), seen[0]);
  auto loopless = MakeMatrix(2, {{{0, 0.5}, {1, 0.5}}, {{0, 1.0}}});
  EXPECT_FALSE(loopless->Support().self_loops);
}

TEST(TransitionMatrixTest, UniformizedKeepsSupportFlattensProbs) {
  auto m = MakeMatrix(2, {{{0, 0.9}, {1, 0.1}}, {{1, 1.0}}});
  TransitionMatrix u = m->Uniformized();
  EXPECT_DOUBLE_EQ(u.Prob(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(u.Prob(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(u.Prob(1, 1), 1.0);
  EXPECT_EQ(u.num_nonzeros(), m->num_nonzeros());
}

// ---------------------------------------------------------------- Builders --

TEST(BuildersTest, DistanceInverseMatrixIsStochastic) {
  Rng rng(3);
  auto space = GenerateStates(300, rng);
  CsrGraph graph = ConnectByRadius(*space, 8.0);
  auto m = DistanceInverseMatrix(*space, graph, 0.1);
  ASSERT_TRUE(m.ok());
  const TransitionMatrix& matrix = m.value();
  for (StateId s = 0; s < matrix.num_states(); ++s) {
    double sum = 0.0;
    for (const auto* e = matrix.begin(s); e != matrix.end(s); ++e) {
      sum += e->second;
      EXPECT_GT(e->second, 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(BuildersTest, DistanceInverseSelfLoopFraction) {
  Rng rng(3);
  auto space = GenerateStates(200, rng);
  CsrGraph graph = ConnectByRadius(*space, 8.0);
  auto m = DistanceInverseMatrix(*space, graph, 0.25);
  ASSERT_TRUE(m.ok());
  size_t connected = 0;
  for (StateId s = 0; s < m.value().num_states(); ++s) {
    if (graph.degree(s) == 0) continue;
    ++connected;
    EXPECT_NEAR(m.value().Prob(s, s), 0.25, 1e-9);
  }
  EXPECT_GT(connected, 150u);  // most nodes are connected at b=8
}

TEST(BuildersTest, DistanceInverseFavorsCloserNeighbors) {
  // Three collinear states: 1 is near 0, 2 is far from 0.
  StateSpace space({{0, 0}, {0.1, 0}, {1.0, 0}});
  std::vector<std::vector<Edge>> adj(3);
  adj[0] = {{1, 0.1}, {2, 1.0}};
  adj[1] = {{0, 0.1}};
  adj[2] = {{0, 1.0}};
  CsrGraph graph = CsrGraph::FromAdjacency(adj);
  auto m = DistanceInverseMatrix(space, graph, 0.0);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m.value().Prob(0, 1), m.value().Prob(0, 2));
  // Weights 1/0.1 : 1/1.0 = 10 : 1.
  EXPECT_NEAR(m.value().Prob(0, 1), 10.0 / 11.0, 1e-9);
}

TEST(BuildersTest, DistanceInverseRejectsBadArgs) {
  StateSpace space({{0, 0}});
  CsrGraph graph = CsrGraph::FromAdjacency({{}});
  EXPECT_FALSE(DistanceInverseMatrix(space, graph, 1.0).ok());
  CsrGraph mismatch = CsrGraph::FromAdjacency({{}, {}});
  EXPECT_FALSE(DistanceInverseMatrix(space, mismatch, 0.1).ok());
}

TEST(BuildersTest, IsolatedNodeGetsSelfLoop) {
  StateSpace space({{0, 0}, {5, 5}});
  std::vector<std::vector<Edge>> adj(2);
  adj[0] = {};  // isolated
  adj[1] = {{1, 1.0}};
  auto m = DistanceInverseMatrix(space, CsrGraph::FromAdjacency(adj), 0.1);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().Prob(0, 0), 1.0);
}

TEST(BuildersTest, LearnedMatrixRecoversFrequencies) {
  // Path graph 0-1-2 with self loops; training walks strongly prefer 0->1.
  StateSpace space({{0, 0}, {1, 0}, {2, 0}});
  std::vector<std::vector<Edge>> adj(3);
  adj[0] = {{1, 1.0}};
  adj[1] = {{0, 1.0}, {2, 1.0}};
  adj[2] = {{1, 1.0}};
  CsrGraph graph = CsrGraph::FromAdjacency(adj);
  std::vector<std::vector<StateId>> trips;
  for (int i = 0; i < 90; ++i) trips.push_back({0, 1, 2});
  for (int i = 0; i < 10; ++i) trips.push_back({0, 1, 0});
  auto m = LearnTransitionMatrix(space, graph, trips, /*alpha=*/0.0);
  ASSERT_TRUE(m.ok());
  // From 1: 90 transitions to 2, 10 to 0.
  EXPECT_NEAR(m.value().Prob(1, 2), 0.9, 1e-9);
  EXPECT_NEAR(m.value().Prob(1, 0), 0.1, 1e-9);
}

TEST(BuildersTest, LearnedMatrixSmoothingKeepsSupport) {
  StateSpace space({{0, 0}, {1, 0}});
  std::vector<std::vector<Edge>> adj(2);
  adj[0] = {{1, 1.0}};
  adj[1] = {{0, 1.0}};
  CsrGraph graph = CsrGraph::FromAdjacency(adj);
  // Training never uses edge 1->0, but smoothing keeps it possible.
  std::vector<std::vector<StateId>> trips = {{0, 1, 1, 1}};
  auto m = LearnTransitionMatrix(space, graph, trips, /*alpha=*/0.5);
  ASSERT_TRUE(m.ok());
  EXPECT_GT(m.value().Prob(1, 0), 0.0);
  EXPECT_GT(m.value().Prob(1, 1), m.value().Prob(1, 0));
}

TEST(BuildersTest, LearnedMatrixUnvisitedStateUniform) {
  StateSpace space({{0, 0}, {1, 0}, {2, 0}});
  std::vector<std::vector<Edge>> adj(3);
  adj[0] = {{1, 1.0}, {2, 1.0}};
  adj[1] = {};
  adj[2] = {};
  CsrGraph graph = CsrGraph::FromAdjacency(adj);
  auto m = LearnTransitionMatrix(space, graph, {}, /*alpha=*/1.0);
  ASSERT_TRUE(m.ok());
  // State 0 has neighbors {1, 2} plus self-loop; all alpha-smoothed equal.
  EXPECT_NEAR(m.value().Prob(0, 1), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.value().Prob(0, 0), 1.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace ust

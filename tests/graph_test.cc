#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "graph/csr_graph.h"
#include "graph/dijkstra.h"
#include "graph/reachability.h"
#include "util/rng.h"

namespace ust {
namespace {

// A 4-node diamond:  0 -> 1 -> 3, 0 -> 2 -> 3, plus a long edge 0 -> 3.
CsrGraph MakeDiamondGraph() {
  std::vector<std::vector<Edge>> adj(4);
  adj[0] = {{1, 1.0}, {2, 2.0}, {3, 10.0}};
  adj[1] = {{3, 1.0}};
  adj[2] = {{3, 1.0}};
  return CsrGraph::FromAdjacency(adj);
}

TEST(CsrGraphTest, BasicAccessors) {
  CsrGraph g = MakeDiamondGraph();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(3, 0));
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 5.0 / 4.0);
}

TEST(CsrGraphTest, EdgeIterationOrderPreserved) {
  CsrGraph g = MakeDiamondGraph();
  std::vector<StateId> targets;
  for (const Edge* e = g.begin(0); e != g.end(0); ++e) targets.push_back(e->to);
  EXPECT_EQ(targets, (std::vector<StateId>{1, 2, 3}));
}

TEST(CsrGraphTest, ReversedFlipsEdges) {
  CsrGraph g = MakeDiamondGraph();
  CsrGraph r = g.Reversed();
  EXPECT_EQ(r.num_edges(), g.num_edges());
  EXPECT_TRUE(r.HasEdge(3, 0));
  EXPECT_TRUE(r.HasEdge(1, 0));
  EXPECT_FALSE(r.HasEdge(0, 1));
  // Double reversal restores adjacency.
  CsrGraph rr = r.Reversed();
  for (StateId v = 0; v < g.num_nodes(); ++v) {
    for (const Edge* e = g.begin(v); e != g.end(v); ++e) {
      EXPECT_TRUE(rr.HasEdge(v, e->to));
    }
  }
}

TEST(CsrGraphTest, EmptyGraph) {
  CsrGraph g = CsrGraph::FromAdjacency({});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.AverageDegree(), 0.0);
}

TEST(DijkstraTest, ShortestPathPrefersCheapRoute) {
  CsrGraph g = MakeDiamondGraph();
  auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), (std::vector<StateId>{0, 1, 3}));  // cost 2 < 3 < 10
}

TEST(DijkstraTest, PathToSelfIsSingleton) {
  CsrGraph g = MakeDiamondGraph();
  auto path = ShortestPath(g, 2, 2);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), (std::vector<StateId>{2}));
}

TEST(DijkstraTest, UnreachableTargetReportsNotFound) {
  CsrGraph g = MakeDiamondGraph();
  auto path = ShortestPath(g, 3, 0);
  ASSERT_FALSE(path.ok());
  EXPECT_EQ(path.status().code(), StatusCode::kNotFound);
}

TEST(DijkstraTest, DistancesMatchManualValues) {
  CsrGraph g = MakeDiamondGraph();
  auto dist = ShortestDistances(g, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);
  EXPECT_DOUBLE_EQ(dist[3], 2.0);
  auto dist3 = ShortestDistances(g, 3);
  EXPECT_EQ(dist3[0], std::numeric_limits<double>::infinity());
}

TEST(DijkstraTest, RandomGraphPathCostsMatchDistances) {
  Rng rng(17);
  const size_t n = 60;
  std::vector<std::vector<Edge>> adj(n);
  for (StateId v = 0; v < n; ++v) {
    for (int e = 0; e < 4; ++e) {
      StateId u = static_cast<StateId>(rng.UniformInt(n));
      if (u != v) adj[v].push_back({u, rng.Uniform(0.1, 2.0)});
    }
  }
  CsrGraph g = CsrGraph::FromAdjacency(adj);
  auto dist = ShortestDistances(g, 0);
  for (StateId t = 0; t < n; ++t) {
    auto path = ShortestPath(g, 0, t);
    if (dist[t] == std::numeric_limits<double>::infinity()) {
      EXPECT_FALSE(path.ok());
      continue;
    }
    ASSERT_TRUE(path.ok());
    // Path cost equals the Dijkstra distance.
    double cost = 0.0;
    const auto& nodes = path.value();
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (const Edge* e = g.begin(nodes[i]); e != g.end(nodes[i]); ++e) {
        if (e->to == nodes[i + 1]) best = std::min(best, e->weight);
      }
      cost += best;
    }
    EXPECT_NEAR(cost, dist[t], 1e-9);
  }
}

// Path graph 0 - 1 - 2 - 3 - 4 (bidirectional unit edges + self loops).
CsrGraph MakePathGraph(size_t n, bool self_loops) {
  std::vector<std::vector<Edge>> adj(n);
  for (StateId v = 0; v < n; ++v) {
    if (v > 0) adj[v].push_back({v - 1, 1.0});
    if (v + 1 < n) adj[v].push_back({v + 1, 1.0});
    if (self_loops) adj[v].push_back({v, 1.0});
  }
  return CsrGraph::FromAdjacency(adj);
}

TEST(ReachabilityTest, ForwardSetsGrowOneHopPerStep) {
  CsrGraph g = MakePathGraph(7, /*self_loops=*/false);
  auto reach = ForwardReachability(g, 3, 2);
  ASSERT_EQ(reach.size(), 3u);
  EXPECT_EQ(reach[0], (std::vector<StateId>{3}));
  EXPECT_EQ(reach[1], (std::vector<StateId>{2, 4}));
  // Without self loops parity alternates: exactly-2-step set skips odd.
  EXPECT_EQ(reach[2], (std::vector<StateId>{1, 3, 5}));
}

TEST(ReachabilityTest, SelfLoopsMakeSetsMonotone) {
  CsrGraph g = MakePathGraph(7, /*self_loops=*/true);
  auto reach = ForwardReachability(g, 3, 3);
  EXPECT_EQ(reach[1], (std::vector<StateId>{2, 3, 4}));
  EXPECT_EQ(reach[2], (std::vector<StateId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(reach[3], (std::vector<StateId>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ReachabilityTest, DiamondIntersectsForwardAndBackward) {
  CsrGraph g = MakePathGraph(9, /*self_loops=*/true);
  CsrGraph r = g.Reversed();
  // From state 2 to state 6 in 4 steps: exactly the states between.
  auto diamond = DiamondReachability(g, r, 2, 6, 4);
  ASSERT_EQ(diamond.size(), 5u);
  EXPECT_EQ(diamond[0], (std::vector<StateId>{2}));
  EXPECT_EQ(diamond[4], (std::vector<StateId>{6}));
  // Middle tic: states reachable from 2 in 2 hops AND within 2 hops of 6.
  EXPECT_EQ(diamond[2], (std::vector<StateId>{4}));
  // One step in: must head towards 6 fast enough.
  EXPECT_EQ(diamond[1], (std::vector<StateId>{3}));
}

TEST(ReachabilityTest, ImpossibleEndpointGivesEmptySlices) {
  CsrGraph g = MakePathGraph(9, /*self_loops=*/true);
  CsrGraph r = g.Reversed();
  // 2 -> 8 needs 6 hops; only 3 steps available.
  auto diamond = DiamondReachability(g, r, 2, 8, 3);
  EXPECT_TRUE(diamond[1].empty());
  EXPECT_TRUE(diamond[2].empty());
}

TEST(ReachabilityTest, SlackAllowsWiderDiamond) {
  CsrGraph g = MakePathGraph(9, /*self_loops=*/true);
  CsrGraph r = g.Reversed();
  // 6 steps for a 4-hop trip: 2 tics of slack widen middle slices.
  auto tight = DiamondReachability(g, r, 2, 6, 4);
  auto loose = DiamondReachability(g, r, 2, 6, 6);
  EXPECT_GE(loose[2].size(), tight[2].size());
  EXPECT_GE(loose[3].size(), 2u);
}

TEST(ReachabilityTest, ZeroStepsDiamond) {
  CsrGraph g = MakePathGraph(3, true);
  CsrGraph r = g.Reversed();
  auto diamond = DiamondReachability(g, r, 1, 1, 0);
  ASSERT_EQ(diamond.size(), 1u);
  EXPECT_EQ(diamond[0], (std::vector<StateId>{1}));
  auto contradictory = DiamondReachability(g, r, 0, 2, 0);
  EXPECT_TRUE(contradictory[0].empty());
}

// A random digraph on `n` nodes with 0..max_degree out-edges per node
// (duplicates allowed, as CsrGraph permits), plus a self-loop on every node
// when asked.
CsrGraph RandomGraph(Rng& rng, size_t n, int max_degree, bool self_loops) {
  std::vector<std::vector<Edge>> adj(n);
  for (StateId v = 0; v < n; ++v) {
    const int degree = static_cast<int>(rng.UniformInt(max_degree + 1));
    for (int i = 0; i < degree; ++i) {
      adj[v].push_back({static_cast<StateId>(rng.UniformInt(n)), 1.0});
    }
    if (self_loops) adj[v].push_back({v, 1.0});
  }
  return CsrGraph::FromAdjacency(adj);
}

std::vector<StateId> SortedUnion(const std::vector<std::vector<StateId>>& sets) {
  std::vector<StateId> all;
  for (const auto& set : sets) all.insert(all.end(), set.begin(), set.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<StateId> Sorted(std::vector<StateId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(ReachabilityTest, HopKernelsEqualSliceUnionsOnRandomGraphs) {
  // One scratch across every call and graph size, as a build reuses it:
  // the touched-list reset must leave nothing behind between calls.
  HopReachability hop;
  Rng rng(20240917);
  int diamonds = 0, contradictions = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const bool self_loops = trial % 2 == 0;
    const size_t n = 1 + rng.UniformInt(80);
    const CsrGraph g = RandomGraph(rng, n, 1 + trial % 3, self_loops);
    const CsrGraph r = g.Reversed();
    const StateId from = static_cast<StateId>(rng.UniformInt(n));
    const StateId to = static_cast<StateId>(rng.UniformInt(n));
    const int steps = static_cast<int>(rng.UniformInt(21));

    // The cone is the within-k set on any graph.
    EXPECT_EQ(Sorted(hop.Within(g, from, steps)),
              SortedUnion(ForwardReachability(g, from, steps)))
        << "trial " << trial;
    if (!self_loops) continue;

    const auto slices = DiamondReachability(g, r, from, to, steps);
    const bool contradiction =
        std::any_of(slices.begin(), slices.end(),
                    [](const std::vector<StateId>& s) { return s.empty(); });
    const std::vector<StateId> diamond =
        Sorted(hop.Diamond(g, r, from, to, steps));
    EXPECT_EQ(diamond.empty(), contradiction) << "trial " << trial;
    if (!contradiction) {
      EXPECT_EQ(diamond, SortedUnion(slices)) << "trial " << trial;
    }
    ++diamonds;
    contradictions += contradiction;
  }
  // The sweep covers both outcomes.
  EXPECT_GT(contradictions, diamonds / 10);
  EXPECT_LT(contradictions, diamonds * 9 / 10);
}

TEST(ReachabilityTest, HopDiamondIsASupersetWithoutSelfLoops) {
  // Why the UST-tree falls back to the per-slice kernel: on a path without
  // self-loops, 2 -> 4 in 3 steps is impossible (parity), yet 4 is within
  // 3 hops of 2.
  const CsrGraph g = MakePathGraph(7, /*self_loops=*/false);
  const CsrGraph r = g.Reversed();
  const auto slices = DiamondReachability(g, r, 2, 4, 3);
  EXPECT_TRUE(slices[3].empty());
  HopReachability hop;
  EXPECT_FALSE(hop.Diamond(g, r, 2, 4, 3).empty());
}

}  // namespace
}  // namespace ust

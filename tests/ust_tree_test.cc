#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_delta.h"
#include "index/ust_tree.h"
#include "query/exact.h"
#include "query/monte_carlo.h"
#include "test_world.h"
#include "util/rng.h"

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

bool ContainsId(const std::vector<ObjectId>& ids, ObjectId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

struct DefinedPrune {
  std::vector<ObjectId> candidates;   ///< C∀
  std::vector<ObjectId> influencers;  ///< I∀, which is also the P∃NN set
};

// Pruning straight from the formulas atop index/ust_tree.h, over every entry
// of a tree: an object is alive at tic t iff one of its entries covers t;
// there dmin_o(t) is the largest and dmax_o(t) the smallest bound over those
// entries; the pruning distance at t is the k-th smallest dmax over objects
// alive at t (+inf when fewer than k are). I∀ holds the objects with
// dmin_o(t) <= it at some t; C∀ those of I∀ alive throughout T (per their
// entries' span) with dmin_o(t) <= it at every t they are alive. Both
// ascend by id.
DefinedPrune PruneByDefinition(
    const std::vector<UstTree::SegmentEntry>& entries,
    const QueryTrajectory& q, const TimeInterval& T, int k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t len = T.length();
  struct Bounds {
    Tic first_tic, last_tic;
    std::vector<bool> alive;
    std::vector<double> dmin, dmax;
  };
  std::map<ObjectId, Bounds> objects;
  for (const UstTree::SegmentEntry& e : entries) {
    auto [it, fresh] = objects.try_emplace(e.object);
    Bounds& b = it->second;
    if (fresh) {
      b.first_tic = e.t_lo;
      b.last_tic = e.t_hi;
      b.alive.assign(len, false);
      b.dmin.assign(len, -kInf);
      b.dmax.assign(len, kInf);
    }
    b.first_tic = std::min(b.first_tic, e.t_lo);
    b.last_tic = std::max(b.last_tic, e.t_hi);
    for (Tic t = std::max(T.start, e.t_lo); t <= std::min(T.end, e.t_hi);
         ++t) {
      const size_t rel = static_cast<size_t>(t - T.start);
      b.alive[rel] = true;
      b.dmin[rel] = std::max(b.dmin[rel], MinDistance(q.At(t), e.mbr));
      b.dmax[rel] = std::min(b.dmax[rel], MaxDistance(q.At(t), e.mbr));
    }
  }
  std::vector<double> prune(len, kInf);
  for (size_t rel = 0; rel < len; ++rel) {
    std::vector<double> dmax;
    for (const auto& [id, b] : objects) {
      if (b.alive[rel]) dmax.push_back(b.dmax[rel]);
    }
    std::sort(dmax.begin(), dmax.end());
    if (dmax.size() >= static_cast<size_t>(k)) prune[rel] = dmax[k - 1];
  }
  DefinedPrune result;
  for (const auto& [id, b] : objects) {
    bool some = false;
    bool every = true;
    for (size_t rel = 0; rel < len; ++rel) {
      if (!b.alive[rel]) continue;
      if (b.dmin[rel] <= prune[rel]) {
        some = true;
      } else {
        every = false;
      }
    }
    if (!some) continue;
    result.influencers.push_back(id);
    if (every && b.first_tic <= T.start && b.last_tic >= T.end) {
      result.candidates.push_back(id);
    }
  }
  return result;
}

// The order a time slab's per-object runs rely on: ascending object id (so
// each object's entries are contiguous), and ascending t_lo within a run.
void ExpectEntryOrder(const std::vector<UstTree::SegmentEntry>& entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    const UstTree::SegmentEntry& prev = entries[i - 1];
    const UstTree::SegmentEntry& cur = entries[i];
    ASSERT_LE(prev.object, cur.object) << "entry " << i;
    if (prev.object == cur.object) {
      ASSERT_LT(prev.t_lo, cur.t_lo) << "entry " << i;
    }
  }
}

// Both prune calls of `tree` (with `slab`, which may be nullptr, and
// `delta`) against the definition evaluated over `reference`'s entries.
void ExpectPruneMatchesDefinition(const UstTree& tree, const UstTree& reference,
                                  const QueryTrajectory& q,
                                  const TimeInterval& T, int k,
                                  const UstTree::TimeSlab* slab,
                                  const UstDelta* delta) {
  const DefinedPrune expected = PruneByDefinition(reference.entries(), q, T, k);
  const PruneResult forall = tree.PruneForall(q, T, k, slab, delta);
  EXPECT_EQ(forall.candidates, expected.candidates);
  EXPECT_EQ(forall.influencers, expected.influencers);
  const PruneResult exists = tree.PruneExists(q, T, k, slab, delta);
  EXPECT_EQ(exists.candidates, expected.influencers);
  EXPECT_EQ(exists.influencers, expected.influencers);
}

TEST(UstTreeTest, SegmentEntriesPerObservationPair) {
  auto line = MakeLineWorld(9, 0.25, 0.5);
  TrajectoryDatabase db(line.space);
  db.AddObject(Obs({{0, 4}, {3, 6}, {7, 2}}), line.matrix);
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  // Two observation segments, no lifetime extension.
  ASSERT_EQ(tree.value().entries().size(), 2u);
  EXPECT_EQ(tree.value().entries()[0].t_lo, 0);
  EXPECT_EQ(tree.value().entries()[0].t_hi, 3);
  EXPECT_EQ(tree.value().entries()[1].t_lo, 3);
  EXPECT_EQ(tree.value().entries()[1].t_hi, 7);
}

TEST(UstTreeTest, ExtensionSegmentAdded) {
  auto line = MakeLineWorld(9, 0.25, 0.5);
  TrajectoryDatabase db(line.space);
  db.AddObject(Obs({{0, 4}, {3, 6}}), line.matrix, /*end_tic=*/6);
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree.value().entries().size(), 2u);
  EXPECT_EQ(tree.value().entries()[1].t_lo, 3);
  EXPECT_EQ(tree.value().entries()[1].t_hi, 6);
}

TEST(UstTreeTest, SingleObservationEntryIsPoint) {
  auto line = MakeLineWorld(5);
  TrajectoryDatabase db(line.space);
  db.AddObject(Obs({{4, 2}}), line.matrix);
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree.value().entries().size(), 1u);
  const auto& e = tree.value().entries()[0];
  EXPECT_EQ(e.t_lo, 4);
  EXPECT_EQ(e.t_hi, 4);
  EXPECT_DOUBLE_EQ(e.mbr.lo[0], e.mbr.hi[0]);
}

TEST(UstTreeTest, MbrCoversPosteriorSupport) {
  // The conservative diamond MBR must contain every state with nonzero
  // posterior probability at every tic of the segment.
  auto line = MakeLineWorld(15, 0.3, 0.4);
  TrajectoryDatabase db(line.space);
  ObjectId id = db.AddObject(Obs({{0, 7}, {5, 10}, {9, 6}}), line.matrix);
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  auto posterior = db.object(id).Posterior();
  ASSERT_TRUE(posterior.ok());
  for (Tic t = 0; t <= 9; ++t) {
    SparseDist marginal = posterior.value()->MarginalAt(t);
    for (StateId s : marginal.ids()) {
      const Point2& pt = db.space().coord(s);
      bool covered = false;
      for (const auto& e : tree.value().entries()) {
        if (e.t_lo <= t && t <= e.t_hi && e.mbr.Contains({pt.x, pt.y})) {
          covered = true;
          break;
        }
      }
      EXPECT_TRUE(covered) << "state " << s << " at t=" << t;
    }
  }
}

TEST(UstTreeTest, ContradictingObservationsReported) {
  auto line = MakeLineWorld(20, 0.25, 0.5);
  TrajectoryDatabase db(line.space);
  db.AddObject(Obs({{0, 0}, {2, 15}}), line.matrix);  // 15 hops in 2 tics
  auto tree = UstTree::Build(db);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kContradiction);
}

TEST(UstTreeTest, Figure1Pruning) {
  Figure1World world = MakeFigure1World();
  auto tree = UstTree::Build(*world.db);
  ASSERT_TRUE(tree.ok());
  PruneResult forall = tree.value().PruneForall(world.q, world.T);
  // o1 can reach distance-1 states while o2 cannot undercut it for sure:
  // both are candidates here (o2 can be closest at later tics).
  EXPECT_TRUE(ContainsId(forall.influencers, world.o1));
  EXPECT_TRUE(ContainsId(forall.influencers, world.o2));
  PruneResult exists = tree.value().PruneExists(world.q, world.T);
  EXPECT_EQ(exists.candidates.size(), exists.influencers.size());
  EXPECT_TRUE(ContainsId(exists.candidates, world.o1));
}

TEST(UstTreeTest, FarAwayObjectPrunedButNearOnesKept) {
  // Three pinned objects at distances 1, 2 and 50: the far one can never be
  // a 1NN candidate, the near two must be retained.
  auto space = std::make_shared<const StateSpace>(
      std::vector<Point2>{{0, 1}, {0, 2}, {0, 50}});
  auto matrix = testing::MakeMatrix(
      3, {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}});
  TrajectoryDatabase db(space);
  ObjectId near1 = db.AddObject(Obs({{0, 0}, {4, 0}}), matrix);
  db.AddObject(Obs({{0, 1}, {4, 1}}), matrix);  // near2: kept but unasserted
  ObjectId far = db.AddObject(Obs({{0, 2}, {4, 2}}), matrix);
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  PruneResult forall = tree.value().PruneForall(q, {0, 4});
  EXPECT_TRUE(ContainsId(forall.candidates, near1));
  EXPECT_FALSE(ContainsId(forall.candidates, far));
  EXPECT_FALSE(ContainsId(forall.influencers, far));
  PruneResult exists = tree.value().PruneExists(q, {0, 4});
  EXPECT_FALSE(ContainsId(exists.candidates, far));
}

TEST(UstTreeTest, KnnPruningKeepsMoreObjects) {
  auto space = std::make_shared<const StateSpace>(
      std::vector<Point2>{{0, 1}, {0, 2}, {0, 3}});
  auto matrix =
      testing::MakeMatrix(3, {{{0, 1.0}}, {{1, 1.0}}, {{2, 1.0}}});
  TrajectoryDatabase db(space);
  db.AddObject(Obs({{0, 0}, {4, 0}}), matrix);
  db.AddObject(Obs({{0, 1}, {4, 1}}), matrix);
  db.AddObject(Obs({{0, 2}, {4, 2}}), matrix);
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
  PruneResult k1 = tree.value().PruneForall(q, {0, 4}, 1);
  PruneResult k2 = tree.value().PruneForall(q, {0, 4}, 2);
  PruneResult k3 = tree.value().PruneForall(q, {0, 4}, 3);
  EXPECT_EQ(k1.candidates.size(), 1u);
  EXPECT_EQ(k2.candidates.size(), 2u);
  EXPECT_EQ(k3.candidates.size(), 3u);
}

TEST(UstTreeTest, PruningIsSafeOnSyntheticWorlds) {
  // Safety: every object with nonzero exact P∃NN/P∀NN must survive pruning.
  SyntheticConfig config;
  config.num_states = 400;
  config.num_objects = 12;
  config.lifetime = 20;
  config.obs_interval = 5;
  config.horizon = 30;
  config.seed = 3;
  auto world = GenerateSyntheticWorld(config);
  ASSERT_TRUE(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  auto tree = UstTree::Build(db);
  ASSERT_TRUE(tree.ok());
  Rng rng(9);
  for (int iter = 0; iter < 5; ++iter) {
    QueryTrajectory q = RandomQueryState(db.space(), rng);
    TimeInterval T = BusiestInterval(db, 4);
    // Reference: Monte-Carlo over *all* alive objects (no pruning).
    std::vector<ObjectId> alive = db.AliveSometime(T.start, T.end);
    if (alive.empty()) continue;
    MonteCarloOptions options;
    options.num_worlds = 400;
    options.seed = iter;
    auto reference = EstimatePnn(db, alive, alive, q, T, options);
    ASSERT_TRUE(reference.ok());
    PruneResult forall = tree.value().PruneForall(q, T);
    PruneResult exists = tree.value().PruneExists(q, T);
    for (size_t i = 0; i < alive.size(); ++i) {
      const PnnEstimate& e = reference.value()[i];
      if (e.forall_prob > 0.0) {
        EXPECT_TRUE(ContainsId(forall.candidates, e.object))
            << "object " << e.object << " with P∀NN=" << e.forall_prob
            << " was pruned (iter " << iter << ")";
      }
      if (e.exists_prob > 0.0) {
        EXPECT_TRUE(ContainsId(exists.candidates, e.object))
            << "object " << e.object << " with P∃NN=" << e.exists_prob
            << " was pruned (iter " << iter << ")";
      }
    }
    // Structural relations between the prune sets.
    for (ObjectId c : forall.candidates) {
      EXPECT_TRUE(ContainsId(forall.influencers, c));
      EXPECT_TRUE(ContainsId(exists.candidates, c));
    }
  }
}

TEST(UstTreeTest, PruningEqualsItsDefinition) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE(::testing::Message() << "world seed " << seed);
    SyntheticConfig config;
    config.num_states = 400;
    config.num_objects = 16;
    config.lifetime = 20;
    config.obs_interval = 5;
    config.horizon = 40;
    config.seed = seed;
    auto world = GenerateSyntheticWorld(config);
    ASSERT_TRUE(world.ok());
    TrajectoryDatabase& db = *world.value().db;
    const StateSpace& space = db.space();
    auto built = UstTree::Build(db);
    ASSERT_TRUE(built.ok());
    const UstTree& tree = built.value();
    ExpectEntryOrder(tree.entries());

    // Random intervals, each with a query point and a query trajectory.
    Rng rng(seed + 100);
    struct Query {
      QueryTrajectory q;
      TimeInterval T;
    };
    std::vector<Query> queries;
    for (int i = 0; i < 6; ++i) {
      const TimeInterval T = RandomInterval(
          config.horizon, 1 + static_cast<size_t>(rng.UniformInt(6)), rng);
      queries.push_back({RandomQueryState(space, rng), T});
      queries.push_back({RandomQueryTrajectory(space, *world.value().matrix,
                                               T.start, T.length(), rng),
                         T});
    }
    for (const Query& query : queries) {
      const UstTree::TimeSlab slab = tree.MakeTimeSlab(query.T);
      for (int k = 1; k <= 3; ++k) {
        SCOPED_TRACE(::testing::Message() << "T=[" << query.T.start << ", "
                                        << query.T.end << "] k=" << k);
        ExpectPruneMatchesDefinition(tree, tree, query.q, query.T, k, &slab,
                                     nullptr);
        ExpectPruneMatchesDefinition(tree, tree, query.q, query.T, k, nullptr,
                                     nullptr);
      }
    }

    // Writes after the base epoch: two lifetime extensions and two new
    // objects, one with an observation segment plus an extension cone.
    const uint64_t base_version = tree.built_version();
    ASSERT_TRUE(db.ExtendLifetime(1, db.object(1).last_tic() + 6).ok());
    ASSERT_TRUE(db.ExtendLifetime(4, db.object(4).last_tic() + 3).ok());
    const StateId home = db.object(0).observations().items()[0].state;
    for (Tic start : {Tic{8}, Tic{15}}) {
      auto obs = ObservationSeq::Create({{start, home}, {start + 4, home}});
      ASSERT_TRUE(obs.ok());
      db.AddObject(obs.MoveValue(), world.value().matrix, start + 9);
    }
    const DbSnapshot after = db.Snapshot();
    auto delta = UstDelta::Build(after, base_version);
    ASSERT_TRUE(delta.ok());
    auto rebuilt = UstTree::Build(after);
    ASSERT_TRUE(rebuilt.ok());
    ExpectEntryOrder(rebuilt.value().entries());
    for (const Query& query : queries) {
      const UstTree::TimeSlab slab = tree.MakeTimeSlab(query.T);
      for (int k = 1; k <= 3; ++k) {
        SCOPED_TRACE(::testing::Message() << "after writes T=[" << query.T.start
                                        << ", " << query.T.end << "] k=" << k);
        ExpectPruneMatchesDefinition(rebuilt.value(), rebuilt.value(), query.q,
                                     query.T, k, nullptr, nullptr);
        ExpectPruneMatchesDefinition(tree, rebuilt.value(), query.q, query.T,
                                     k, &slab, &delta.value());
        ExpectPruneMatchesDefinition(tree, rebuilt.value(), query.q, query.T,
                                     k, nullptr, &delta.value());
      }
    }
  }
}

}  // namespace
}  // namespace ust

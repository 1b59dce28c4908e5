// Randomized end-to-end property sweep: on freshly generated worlds with
// random queries, every documented invariant of the query stack must hold
// simultaneously. Parameterized over seeds so each instance explores a
// different world.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/adaptive.h"
#include "query/markov_approx.h"
#include "query/pcnn.h"
#include "query/session.h"
#include "query/snapshot.h"
#include "test_world.h"

namespace ust {
namespace {

using testing::MonteCarloSpec;

struct WorldUnderTest {
  SyntheticWorld world;
  std::unique_ptr<UstTree> index;
  TimeInterval T{0, 0};
  QueryTrajectory q = QueryTrajectory::FromPoint({0, 0});
};

WorldUnderTest MakeWorld(uint64_t seed) {
  SyntheticConfig config;
  config.num_states = 500;
  config.num_objects = 14;
  config.lifetime = 20;
  config.obs_interval = 5;
  config.horizon = 28;
  config.seed = 1000 + seed;
  auto world = GenerateSyntheticWorld(config);
  UST_CHECK(world.ok());
  WorldUnderTest wut;
  wut.world = world.MoveValue();
  auto tree = UstTree::Build(*wut.world.db);
  UST_CHECK(tree.ok());
  wut.index = std::make_unique<UstTree>(tree.MoveValue());
  wut.T = BusiestInterval(*wut.world.db, 6);
  Rng rng(seed);
  wut.q = RandomQueryState(*wut.world.space, rng);
  return wut;
}

class InvariantSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvariantSweep, QuerySemanticsInvariants) {
  WorldUnderTest wut = MakeWorld(GetParam());
  const TrajectoryDatabase& db = *wut.world.db;
  QuerySession session(db, wut.index.get());
  MonteCarloOptions options;
  options.num_worlds = 800;
  options.seed = GetParam();
  const QueryOutcome forall = session.Run(
      MonteCarloSpec(QueryKind::kForall, wut.q, wut.T, 0.0, options));
  const QueryOutcome exists = session.Run(
      MonteCarloSpec(QueryKind::kExists, wut.q, wut.T, 0.0, options));
  ASSERT_TRUE(forall.status.ok());
  ASSERT_TRUE(exists.status.ok());

  // (1) Probabilities are valid and P∀ <= P∃ per object.
  std::map<ObjectId, double> exists_probs;
  for (const auto& r : exists.pnn.results) {
    EXPECT_GE(r.prob, 0.0);
    EXPECT_LE(r.prob, 1.0);
    exists_probs[r.object] = r.prob;
  }
  for (const auto& r : forall.pnn.results) {
    if (r.prob > 0.0) {
      ASSERT_TRUE(exists_probs.count(r.object))
          << "forall-positive object missing from exists results";
      EXPECT_LE(r.prob, exists_probs[r.object] + 0.05);
    }
  }

  // (2) Forall probabilities sum to <= 1 (+MC slack).
  double forall_sum = 0.0;
  for (const auto& r : forall.pnn.results) forall_sum += r.prob;
  EXPECT_LE(forall_sum, 1.0 + 0.05);

  // (3) Candidates/influencers consistent.
  EXPECT_LE(forall.pnn.num_candidates, forall.pnn.num_influencers);
}

TEST_P(InvariantSweep, PruningPreservesResults) {
  WorldUnderTest wut = MakeWorld(GetParam());
  const TrajectoryDatabase& db = *wut.world.db;
  QuerySession indexed(db, wut.index.get());
  QuerySession full(db);
  MonteCarloOptions options;
  options.num_worlds = 1500;
  options.seed = 7 * GetParam() + 1;
  const QuerySpec spec =
      MonteCarloSpec(QueryKind::kForall, wut.q, wut.T, 0.1, options);
  const QueryOutcome a = indexed.Run(spec);
  const QueryOutcome b = full.Run(spec);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  std::map<ObjectId, double> pa, pb;
  for (const auto& r : a.pnn.results) pa[r.object] = r.prob;
  for (const auto& r : b.pnn.results) pb[r.object] = r.prob;
  for (const auto& [o, p] : pb) {
    if (p < 0.15) continue;  // threshold-edge objects may flip by MC noise
    EXPECT_TRUE(pa.count(o)) << "object " << o << " lost by pruning";
  }
  for (const auto& [o, p] : pa) {
    if (p < 0.15) continue;
    EXPECT_TRUE(pb.count(o));
    EXPECT_NEAR(pb[o], p, 0.08);
  }
}

TEST_P(InvariantSweep, PcnnLatticeConsistency) {
  WorldUnderTest wut = MakeWorld(GetParam());
  QuerySession session(*wut.world.db, wut.index.get());
  MonteCarloOptions options;
  options.num_worlds = 600;
  options.seed = GetParam() + 99;
  const QueryOutcome pcnn = session.Run(
      MonteCarloSpec(QueryKind::kContinuous, wut.q, wut.T, 0.3, options));
  ASSERT_TRUE(pcnn.status.ok());
  const std::vector<PcnnEntry>& entries = pcnn.pcnn.pcnn.entries;
  // Every reported set respects tau; subsets of reported sets (per object)
  // must be present as well (Apriori completeness at level boundaries).
  std::map<ObjectId, std::set<std::vector<Tic>>> sets;
  for (const auto& e : entries) {
    EXPECT_GE(e.prob, 0.3);
    sets[e.object].insert(e.tics);
  }
  for (const auto& [object, tic_sets] : sets) {
    for (const auto& tics : tic_sets) {
      if (tics.size() <= 1) continue;
      for (size_t skip = 0; skip < tics.size(); ++skip) {
        std::vector<Tic> subset;
        for (size_t i = 0; i < tics.size(); ++i) {
          if (i != skip) subset.push_back(tics[i]);
        }
        EXPECT_TRUE(tic_sets.count(subset))
            << "object " << object << ": qualifying set lacks a subset";
      }
    }
  }
  // Maximal filtering never reports a set that another reported superset of
  // the same object would subsume.
  auto maximal = FilterMaximal(entries);
  for (const auto& m : maximal) {
    for (const auto& e : entries) {
      if (e.object != m.object || e.tics.size() <= m.tics.size()) continue;
      EXPECT_FALSE(std::includes(e.tics.begin(), e.tics.end(),
                                 m.tics.begin(), m.tics.end()))
          << "maximal entry subsumed by a larger qualifying set";
    }
  }
}

TEST_P(InvariantSweep, AdaptiveEpsilonAgreesWithFixedSampling) {
  WorldUnderTest wut = MakeWorld(GetParam());
  const TrajectoryDatabase& db = *wut.world.db;
  std::vector<ObjectId> ids = db.AliveThroughout(wut.T.start, wut.T.end);
  if (ids.empty()) GTEST_SKIP();
  MonteCarloOptions fixed;
  fixed.num_worlds = 4000;
  fixed.seed = GetParam() + 5;
  auto reference = EstimatePnn(db, ids, ids, wut.q, wut.T, fixed);
  ASSERT_TRUE(reference.ok());
  // The epsilon stopping rule reads the hits of one semantics, so each
  // semantics gets its own self-sizing run.
  for (PnnSemantics semantics :
       {PnnSemantics::kForall, PnnSemantics::kExists}) {
    MonteCarloOptions cap;
    cap.num_worlds = 1 << 20;
    cap.seed = GetParam();
    PrecisionTarget precision;
    precision.mode = PrecisionMode::kEpsilon;
    precision.epsilon = 0.03;
    precision.delta = 0.05;
    auto adaptive = EstimatePnnAdaptive(db, ids, ids, wut.q, wut.T, semantics,
                                        0.0, cap, precision, nullptr, nullptr);
    ASSERT_TRUE(adaptive.ok());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (semantics == PnnSemantics::kForall) {
        EXPECT_NEAR(adaptive.value().estimates[i].forall_prob,
                    reference.value()[i].forall_prob, 0.06);
      } else {
        EXPECT_NEAR(adaptive.value().estimates[i].exists_prob,
                    reference.value()[i].exists_prob, 0.06);
      }
    }
  }
}

TEST_P(InvariantSweep, SnapshotBoundsRelativeToSampler) {
  WorldUnderTest wut = MakeWorld(GetParam());
  const TrajectoryDatabase& db = *wut.world.db;
  std::vector<ObjectId> ids = db.AliveThroughout(wut.T.start, wut.T.end);
  if (ids.size() < 2) GTEST_SKIP();
  auto ss = SnapshotEstimatePnn(db, ids, wut.q, wut.T);
  ASSERT_TRUE(ss.ok());
  MonteCarloOptions options;
  options.num_worlds = 3000;
  options.seed = GetParam() + 17;
  auto sa = EstimatePnn(db, ids, ids, wut.q, wut.T, options);
  ASSERT_TRUE(sa.ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    // Certain outcomes must agree exactly; probabilistic ones stay in-range.
    if (sa.value()[i].forall_prob > 0.999) {
      EXPECT_GT(ss.value()[i].forall_prob, 0.95);
    }
    EXPECT_GE(ss.value()[i].forall_prob, -1e-12);
    EXPECT_LE(ss.value()[i].exists_prob, 1.0 + 1e-12);
  }
}

TEST_P(InvariantSweep, MarkovApproxWithinSanityOfSampler) {
  WorldUnderTest wut = MakeWorld(GetParam());
  const TrajectoryDatabase& db = *wut.world.db;
  // The approximation takes targets alive throughout T: the index-pruned
  // P∀NN influencers that are (3 to 11 of them over the seeds) make the
  // competitor set.
  std::vector<ObjectId> ids;
  for (ObjectId id : wut.index->PruneForall(wut.q, wut.T, 1).influencers) {
    if (db.object(id).AliveThroughout(wut.T.start, wut.T.end)) {
      ids.push_back(id);
    }
  }
  ASSERT_GE(ids.size(), 2u);
  MonteCarloOptions options;
  options.num_worlds = 4000;
  options.seed = GetParam() + 23;
  auto sa = EstimatePnn(db, ids, ids, wut.q, wut.T, options);
  ASSERT_TRUE(sa.ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    // A target sampled at exactly 0 or 1 says little about the
    // approximation's error; compare the targets whose outcome is uncertain.
    const double sampled = sa.value()[i].forall_prob;
    if (sampled <= 0.0 || sampled >= 1.0) continue;
    std::vector<ObjectId> competitors;
    for (ObjectId id : ids) {
      if (id != ids[i]) competitors.push_back(id);
    }
    auto ma =
        ApproximateForallNnMarkov(db, ids[i], competitors, wut.q, wut.T);
    ASSERT_TRUE(ma.ok());
    EXPECT_NEAR(ma.value(), sa.value()[i].forall_prob, 0.12)
        << "object " << ids[i];
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep, ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace ust

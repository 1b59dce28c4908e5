#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "test_world.h"
#include "util/rng.h"

namespace ust {
namespace {

using testing::MonteCarloSpec;

MonteCarloOptions Opts(size_t worlds, uint64_t seed = 21) {
  MonteCarloOptions o;
  o.num_worlds = worlds;
  o.seed = seed;
  return o;
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_states = 600;
    config.num_objects = 25;
    config.lifetime = 24;
    config.obs_interval = 6;
    config.horizon = 40;
    config.seed = 77;
    auto world = GenerateSyntheticWorld(config);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SyntheticWorld>(world.MoveValue());
    auto tree = UstTree::Build(*world_->db);
    ASSERT_TRUE(tree.ok());
    index_ = std::make_unique<UstTree>(tree.MoveValue());
    T_ = BusiestInterval(*world_->db, 6);
    Rng rng(5);
    q_ = RandomQueryState(*world_->space, rng);
  }

  /// A Monte-Carlo spec of `kind` over (q_, T_).
  QuerySpec Spec(QueryKind kind, double tau,
                 const MonteCarloOptions& mc) const {
    return MonteCarloSpec(kind, q_, T_, tau, mc);
  }

  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<UstTree> index_;
  TimeInterval T_{0, 0};
  QueryTrajectory q_ = QueryTrajectory::FromPoint({0, 0});
};

TEST_F(EngineTest, IndexedAndUnindexedForallAgree) {
  QuerySession with_index(*world_->db, index_.get());
  QuerySession without_index(*world_->db);
  const QueryOutcome a =
      with_index.Run(Spec(QueryKind::kForall, 0.05, Opts(3000)));
  const QueryOutcome b =
      without_index.Run(Spec(QueryKind::kForall, 0.05, Opts(3000)));
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  // Same qualifying objects; probabilities agree within MC noise.
  std::map<ObjectId, double> probs_a, probs_b;
  for (const auto& r : a.pnn.results) probs_a[r.object] = r.prob;
  for (const auto& r : b.pnn.results) probs_b[r.object] = r.prob;
  for (const auto& [o, p] : probs_b) {
    ASSERT_TRUE(probs_a.count(o)) << "object " << o << " lost by pruning";
    EXPECT_NEAR(probs_a[o], p, 0.06);
  }
  for (const auto& [o, p] : probs_a) EXPECT_TRUE(probs_b.count(o));
  // Pruning reduces the work.
  EXPECT_LE(a.pnn.num_candidates, b.pnn.num_candidates);
  EXPECT_LE(a.pnn.num_influencers, b.pnn.num_influencers);
  EXPECT_GT(a.pnn.num_candidates, 0u);
}

TEST_F(EngineTest, IndexedAndUnindexedExistsAgree) {
  QuerySession with_index(*world_->db, index_.get());
  QuerySession without_index(*world_->db);
  const QueryOutcome a =
      with_index.Run(Spec(QueryKind::kExists, 0.05, Opts(3000)));
  const QueryOutcome b =
      without_index.Run(Spec(QueryKind::kExists, 0.05, Opts(3000)));
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  std::map<ObjectId, double> probs_a, probs_b;
  for (const auto& r : a.pnn.results) probs_a[r.object] = r.prob;
  for (const auto& r : b.pnn.results) probs_b[r.object] = r.prob;
  for (const auto& [o, p] : probs_b) {
    ASSERT_TRUE(probs_a.count(o)) << "object " << o << " lost by pruning";
    EXPECT_NEAR(probs_a[o], p, 0.06);
  }
}

TEST_F(EngineTest, TauFiltersResults) {
  QuerySession session(*world_->db, index_.get());
  const QueryOutcome low =
      session.Run(Spec(QueryKind::kForall, 0.0, Opts(1000)));
  const QueryOutcome high =
      session.Run(Spec(QueryKind::kForall, 0.6, Opts(1000)));
  ASSERT_TRUE(low.status.ok());
  ASSERT_TRUE(high.status.ok());
  EXPECT_GE(low.pnn.results.size(), high.pnn.results.size());
  for (const auto& r : high.pnn.results) EXPECT_GE(r.prob, 0.6);
}

TEST_F(EngineTest, ForallResultsAreSubsetOfExists) {
  QuerySession session(*world_->db, index_.get());
  const QueryOutcome forall =
      session.Run(Spec(QueryKind::kForall, 0.2, Opts(2000)));
  const QueryOutcome exists =
      session.Run(Spec(QueryKind::kExists, 0.2, Opts(2000)));
  ASSERT_TRUE(forall.status.ok());
  ASSERT_TRUE(exists.status.ok());
  std::map<ObjectId, double> exists_probs;
  for (const auto& r : exists.pnn.results) exists_probs[r.object] = r.prob;
  for (const auto& r : forall.pnn.results) {
    ASSERT_TRUE(exists_probs.count(r.object));
    EXPECT_LE(r.prob, exists_probs[r.object] + 0.05);
  }
}

TEST_F(EngineTest, ContinuousQueryEntriesRespectTau) {
  QuerySession session(*world_->db, index_.get());
  const QueryOutcome result =
      session.Run(Spec(QueryKind::kContinuous, 0.4, Opts(1000)));
  ASSERT_TRUE(result.status.ok());
  for (const auto& e : result.pcnn.pcnn.entries) {
    EXPECT_GE(e.prob, 0.4);
    EXPECT_FALSE(e.tics.empty());
    for (Tic t : e.tics) EXPECT_TRUE(T_.Contains(t));
  }
}

TEST_F(EngineTest, ContinuousConsistentWithForall) {
  // If o qualifies for the full interval in PCNN, its P∀NN over T must also
  // pass tau (they are the same probability).
  QuerySession session(*world_->db, index_.get());
  const QueryOutcome pcnn =
      session.Run(Spec(QueryKind::kContinuous, 0.3, Opts(3000, 9)));
  const QueryOutcome forall =
      session.Run(Spec(QueryKind::kForall, 0.3, Opts(3000, 9)));
  ASSERT_TRUE(pcnn.status.ok());
  ASSERT_TRUE(forall.status.ok());
  std::vector<Tic> full = T_.Tics();
  std::map<ObjectId, double> forall_probs;
  for (const auto& r : forall.pnn.results) forall_probs[r.object] = r.prob;
  for (const auto& e : pcnn.pcnn.pcnn.entries) {
    if (e.tics == full) {
      EXPECT_TRUE(forall_probs.count(e.object));
      EXPECT_NEAR(forall_probs[e.object], e.prob, 1e-9);  // same table & seed
    }
  }
}

TEST_F(EngineTest, EmptyCandidateSetShortCircuits) {
  QuerySession session(*world_->db, index_.get());
  // Query far in the future: nobody is alive.
  const QueryOutcome result = session.Run(
      MonteCarloSpec(QueryKind::kForall, q_, {5000, 5010}, 0.0, Opts(100)));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.pnn.results.empty());
  EXPECT_EQ(result.pnn.num_candidates, 0u);
}

TEST_F(EngineTest, TimingCountersPopulated) {
  QuerySession session(*world_->db, index_.get());
  const QueryOutcome result =
      session.Run(Spec(QueryKind::kForall, 0.0, Opts(500)));
  ASSERT_TRUE(result.status.ok());
  EXPECT_GE(result.pnn.prune_millis, 0.0);
  EXPECT_GT(result.pnn.sampling_millis, 0.0);
}

}  // namespace
}  // namespace ust

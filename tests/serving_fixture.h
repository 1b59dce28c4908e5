// Shared pieces of the serving-tier suites (server, overload, arena,
// adaptive-execution and ingest tests): the synthetic world they run on, the
// bitwise outcome comparison, and the one list of lane counts every
// bit-identity suite runs a QueryServer at.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"

namespace ust::testing {

/// Bitwise equality of everything a query answers: status, backend, the
/// (object, probability) lists, the pruning counts and the PCNN entries.
inline bool SameOutcome(const QueryOutcome& a, const QueryOutcome& b) {
  if (a.status.code() != b.status.code()) return false;
  if (a.kind != b.kind || a.executor != b.executor) return false;
  if (a.pnn.results.size() != b.pnn.results.size()) return false;
  for (size_t i = 0; i < a.pnn.results.size(); ++i) {
    if (a.pnn.results[i].object != b.pnn.results[i].object) return false;
    if (a.pnn.results[i].prob != b.pnn.results[i].prob) return false;  // bitwise
  }
  if (a.pnn.num_candidates != b.pnn.num_candidates) return false;
  if (a.pnn.num_influencers != b.pnn.num_influencers) return false;
  if (a.pcnn.pcnn.entries.size() != b.pcnn.pcnn.entries.size()) return false;
  for (size_t i = 0; i < a.pcnn.pcnn.entries.size(); ++i) {
    const PcnnEntry& x = a.pcnn.pcnn.entries[i];
    const PcnnEntry& y = b.pcnn.pcnn.entries[i];
    if (x.object != y.object || x.tics != y.tics || x.prob != y.prob) {
      return false;
    }
  }
  return true;
}

/// Lane counts: one lane runs every group in staging order, more lanes run
/// groups of distinct intervals concurrently, each group whole on one lane.
inline constexpr int kServingLanes[] = {1, 2, 4};

/// \brief A small synthetic world with its UST-tree: 600 states, objects
/// living 24 of 40 tics with an observation every 6, and T_ the busiest
/// 6-tic interval.
class ServingWorldTest : public ::testing::Test {
 protected:
  void BuildWorld(size_t num_objects, uint64_t seed) {
    SyntheticConfig config;
    config.num_states = 600;
    config.num_objects = num_objects;
    config.lifetime = 24;
    config.obs_interval = 6;
    config.horizon = 40;
    config.seed = seed;
    auto world = GenerateSyntheticWorld(config);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SyntheticWorld>(world.MoveValue());
    auto tree = UstTree::Build(*world_->db);
    ASSERT_TRUE(tree.ok());
    index_ = std::make_unique<UstTree>(tree.MoveValue());
    T_ = BusiestInterval(*world_->db, 6);
  }

  TrajectoryDatabase& db() { return *world_->db; }

  /// Append an object observed at `tic` (reusing object 0's motion model and
  /// first observed state, which are valid by construction).
  ObjectId AddObjectAt(Tic tic, Tic end_tic) {
    const UncertainObject& donor = db().object(0);
    auto obs = ObservationSeq::Create(
        {{tic, donor.observations().items()[0].state}});
    EXPECT_TRUE(obs.ok());
    return db().AddObject(obs.MoveValue(), donor.matrix_ptr(), end_tic);
  }

  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<UstTree> index_;
  TimeInterval T_{0, 0};
};

}  // namespace ust::testing

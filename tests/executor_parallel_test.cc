// Tests of the intra-query-parallel refinement backends (DESIGN.md §4.2):
// markov_approx shards per-target chain-rule factors and exact shards
// fixed-size enumeration blocks over the pool — both must reproduce their
// serial bytes exactly at any thread count (the determinism contract).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "query/exact.h"
#include "query/executor.h"
#include "query/markov_approx.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ust {
namespace {

class ExecutorParallelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig config;
    config.num_states = 500;
    config.num_objects = 6;
    config.lifetime = 30;
    config.obs_interval = 4;  // tight diamonds: enumeration stays feasible
    config.horizon = 40;
    config.seed = 31;
    auto world = GenerateSyntheticWorld(config);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SyntheticWorld>(world.MoveValue());
    T_ = BusiestInterval(*world_->db, 4);
    for (size_t i = 0; i < world_->db->size(); ++i) {
      const ObjectId id = static_cast<ObjectId>(i);
      participants_.push_back(id);
      if (world_->db->object(id).AliveThroughout(T_.start, T_.end)) {
        targets_.push_back(id);
      }
    }
    ASSERT_GE(targets_.size(), 2u);
    Rng rng(3);
    q_ = RandomQueryState(*world_->space, rng);
  }

  PnnTask MakeTask(const DbSnapshot& snap) const {
    PnnTask task;
    task.db = &snap;
    task.participants = &participants_;
    task.targets = &targets_;
    task.q = &q_;
    task.T = T_;
    task.mc.k = 1;
    return task;
  }

  std::unique_ptr<SyntheticWorld> world_;
  TimeInterval T_{0, 0};
  std::vector<ObjectId> participants_;
  std::vector<ObjectId> targets_;
  QueryTrajectory q_ = QueryTrajectory::FromPoint({0, 0});
};

TEST_F(ExecutorParallelTest, MarkovParallelMatchesSerialBitwise) {
  DbSnapshot snap = world_->db->Snapshot();
  const PnnTask task = MakeTask(snap);
  const Executor& markov = GetExecutor(ExecutorKind::kMarkovApprox);
  ASSERT_TRUE(markov.Supports(QueryKind::kForall, task));

  ExecContext serial_ctx;  // no pool: the serial reference
  auto serial = markov.Estimate(task, serial_ctx);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial.value().size(), targets_.size());
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    ExecContext ctx;
    ctx.pool = &pool;
    auto parallel = markov.Estimate(task, ctx);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    ASSERT_EQ(parallel.value().size(), serial.value().size());
    for (size_t i = 0; i < serial.value().size(); ++i) {
      EXPECT_EQ(parallel.value()[i].object, serial.value()[i].object);
      // Bitwise: sharding per target must not touch a single float.
      EXPECT_EQ(parallel.value()[i].forall_prob,
                serial.value()[i].forall_prob)
          << "threads=" << threads << " target " << i;
    }
  }
}

TEST_F(ExecutorParallelTest, MarkovBatchMatchesPerTargetCalls) {
  // The batch entry point (shared augmented strips, per-worker workspaces)
  // must equal independent per-target calls — the pre-PR code path.
  DbSnapshot snap = world_->db->Snapshot();
  auto batch = ApproximateForallNnMarkovBatch(snap, targets_, participants_,
                                              q_, T_, nullptr);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < targets_.size(); ++i) {
    std::vector<ObjectId> competitors;
    for (ObjectId p : participants_) {
      if (p != targets_[i]) competitors.push_back(p);
    }
    auto single =
        ApproximateForallNnMarkov(snap, targets_[i], competitors, q_, T_);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(batch.value()[i], single.value()) << "target " << i;
  }
}

/// Greedy subset of `participants_` whose enumeration cross product lands
/// in (kEnumWorldBlock, cap]: big enough to span several blocks (so the
/// parallel reduction is actually exercised), small enough to sweep fast.
std::vector<ObjectId> EnumerableSubset(const DbSnapshot& snap,
                                       const std::vector<ObjectId>& all,
                                       const TimeInterval& T, double cap) {
  std::vector<ObjectId> subset;
  double combinations = 1.0;
  for (ObjectId p : all) {
    auto posterior = snap.object(p).Posterior();
    if (!posterior.ok()) continue;
    Tic ws = std::max(T.start, posterior.value()->first_tic());
    Tic we = std::min(T.end, posterior.value()->last_tic());
    size_t count = 1;
    if (ws <= we) {
      auto worlds = EnumerateWindowTrajectories(*posterior.value(), ws, we,
                                                static_cast<size_t>(cap));
      if (!worlds.ok()) continue;
      count = std::max<size_t>(worlds.value().size(), 1);
    }
    if (combinations * static_cast<double>(count) > cap) continue;
    combinations *= static_cast<double>(count);
    subset.push_back(p);
  }
  EXPECT_GT(combinations, static_cast<double>(kEnumWorldBlock))
      << "workload too small to exercise multi-block reduction";
  return subset;
}

TEST_F(ExecutorParallelTest, ExactParallelMatchesSerialBitwise) {
  DbSnapshot snap = world_->db->Snapshot();
  const std::vector<ObjectId> participants =
      EnumerableSubset(snap, participants_, T_, 300000.0);
  auto serial = ExactPnnByEnumeration(snap, participants, q_, T_, 1,
                                      400000, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().message();

  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    auto parallel = ExactPnnByEnumeration(snap, participants, q_, T_, 1,
                                          400000, &pool);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    ASSERT_EQ(parallel.value().size(), serial.value().size());
    for (size_t i = 0; i < serial.value().size(); ++i) {
      EXPECT_EQ(parallel.value()[i].object, serial.value()[i].object);
      EXPECT_EQ(parallel.value()[i].forall_prob,
                serial.value()[i].forall_prob)
          << "threads=" << threads << " participant " << i;
      EXPECT_EQ(parallel.value()[i].exists_prob,
                serial.value()[i].exists_prob)
          << "threads=" << threads << " participant " << i;
    }
  }
}

TEST_F(ExecutorParallelTest, ExactExecutorUsesPoolAndMatches) {
  DbSnapshot snap = world_->db->Snapshot();
  const std::vector<ObjectId> participants =
      EnumerableSubset(snap, participants_, T_, 300000.0);
  std::vector<ObjectId> targets;
  for (ObjectId p : participants) {
    if (world_->db->object(p).AliveThroughout(T_.start, T_.end)) {
      targets.push_back(p);
    }
  }
  ASSERT_FALSE(targets.empty());
  PnnTask task = MakeTask(snap);
  task.participants = &participants;
  task.targets = &targets;
  task.enum_max_worlds = 400000;
  const Executor& exact = GetExecutor(ExecutorKind::kExact);
  ExecContext serial_ctx;
  auto serial = exact.Estimate(task, serial_ctx);
  ASSERT_TRUE(serial.ok());
  ThreadPool pool(4);
  ExecContext ctx;
  ctx.pool = &pool;
  auto parallel = exact.Estimate(task, ctx);
  ASSERT_TRUE(parallel.ok());
  for (size_t i = 0; i < serial.value().size(); ++i) {
    EXPECT_EQ(parallel.value()[i].forall_prob, serial.value()[i].forall_prob);
    EXPECT_EQ(parallel.value()[i].exists_prob, serial.value()[i].exists_prob);
  }
}

}  // namespace
}  // namespace ust

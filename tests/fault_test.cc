// Tests of the fault-injection registry (util/fault.h) and the chaos test
// of the serving tier (DESIGN.md section 11): with every injection point
// armed — stalled lanes, failing session builds, failing compactions,
// denied arena allocations and a skewed deadline clock — a concurrent
// submit burst racing Stop() must still resolve every promise exactly once
// and keep the request ledger reconciled:
//   submitted == admitted + rejected,
//   rejected  == rejected_queue_full + rejected_shed + rejected_draining,
//   admitted  == completed (one outcome per admission, error or not).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "util/fault.h"
#include "util/rng.h"

namespace ust {
namespace {

class FaultRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::ClearAll(); }
  void TearDown() override { fault::ClearAll(); }
};

TEST_F(FaultRegistryTest, DisarmedProbesAreNoops) {
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldFail("nothing"));
  EXPECT_EQ(fault::SkewNs("nothing"), 0);
  fault::MaybeStall("nothing");  // returns immediately
  EXPECT_EQ(fault::FireCount("nothing"), 0u);
  EXPECT_EQ(fault::ProbeCount("nothing"), 0u);
  EXPECT_TRUE(fault::ArmedPoints().empty());
}

TEST_F(FaultRegistryTest, FireWindowIsDeterministic) {
  fault::FaultSpec spec;
  spec.skip_first = 2;
  spec.max_fires = 3;
  fault::Arm("p", spec);
  EXPECT_TRUE(fault::Enabled());
  // Probes 1-2 pass, 3-5 fire, 6+ pass again — same answer every time.
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(fault::ShouldFail("p"));
  EXPECT_EQ(fired, std::vector<bool>(
                       {false, false, true, true, true, false, false, false}));
  EXPECT_EQ(fault::ProbeCount("p"), 8u);
  EXPECT_EQ(fault::FireCount("p"), 3u);
}

TEST_F(FaultRegistryTest, OnlyTheArmedPointFires) {
  fault::Arm("armed", fault::FaultSpec{});
  EXPECT_TRUE(fault::ShouldFail("armed"));
  // A different point probed while the registry is enabled stays a no-op
  // and is not counted.
  EXPECT_FALSE(fault::ShouldFail("other"));
  EXPECT_EQ(fault::ProbeCount("other"), 0u);
  EXPECT_EQ(fault::ArmedPoints(), std::vector<std::string>({"armed"}));
}

TEST_F(FaultRegistryTest, ReArmingResetsTheWindow) {
  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::Arm("p", spec);
  EXPECT_TRUE(fault::ShouldFail("p"));
  EXPECT_FALSE(fault::ShouldFail("p"));  // window exhausted
  fault::Arm("p", spec);                 // counters reset
  EXPECT_EQ(fault::ProbeCount("p"), 0u);
  EXPECT_TRUE(fault::ShouldFail("p"));
}

TEST_F(FaultRegistryTest, DisarmStopsFiringAndClearAllDropsState) {
  fault::Arm("p", fault::FaultSpec{});
  EXPECT_TRUE(fault::ShouldFail("p"));
  fault::Disarm("p");
  EXPECT_FALSE(fault::Enabled());
  EXPECT_FALSE(fault::ShouldFail("p"));
  // Counters survive a plain Disarm (post-mortem reads)...
  EXPECT_EQ(fault::FireCount("p"), 1u);
  // ...and ClearAll drops everything.
  fault::ClearAll();
  EXPECT_EQ(fault::FireCount("p"), 0u);
  EXPECT_EQ(fault::ProbeCount("p"), 0u);
}

TEST_F(FaultRegistryTest, SkewAppliesPerFire) {
  fault::FaultSpec spec;
  spec.skip_first = 1;
  spec.max_fires = 2;
  spec.skew_ns = 5000;
  fault::Arm("clock", spec);
  EXPECT_EQ(fault::SkewNs("clock"), 0);
  EXPECT_EQ(fault::SkewNs("clock"), 5000);
  EXPECT_EQ(fault::SkewNs("clock"), 5000);
  EXPECT_EQ(fault::SkewNs("clock"), 0);
  EXPECT_EQ(fault::FireCount("clock"), 2u);
}

TEST_F(FaultRegistryTest, StallSleepsOnlyWhenFiring) {
  fault::FaultSpec spec;
  spec.max_fires = 1;
  spec.stall_ms = 20.0;
  fault::Arm("nap", spec);
  const auto t0 = std::chrono::steady_clock::now();
  fault::MaybeStall("nap");
  const double slept_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  EXPECT_GE(slept_ms, 15.0);
  const auto t1 = std::chrono::steady_clock::now();
  fault::MaybeStall("nap");  // window exhausted: no sleep
  const double skipped_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t1)
          .count();
  EXPECT_LT(skipped_ms, 15.0);
  EXPECT_EQ(fault::FireCount("nap"), 1u);
}

// ------------------------------------------------------------- chaos test

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::ClearAll();
    SyntheticConfig config;
    config.num_states = 600;
    config.num_objects = 18;
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
  }
  void TearDown() override { fault::ClearAll(); }

  TrajectoryDatabase& db() { return *world_->db; }

  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<UstTree> index_;
  TimeInterval T_{0, 0};
};

TEST_F(ChaosTest, AllInjectionPointsFireAndTheLedgerReconciles) {
  // Arm every point of the serving-tier taxonomy. Windows are small so the
  // server also proves it *recovers*: later probes pass and serving
  // continues.
  fault::FaultSpec stall;
  stall.skip_first = 1;
  stall.max_fires = 2;
  stall.stall_ms = 1.0;
  fault::Arm("lane_stall", stall);
  fault::FaultSpec build_fail;
  build_fail.max_fires = 1;
  fault::Arm("session_build", build_fail);
  fault::FaultSpec compact_fail;
  compact_fail.max_fires = 1;
  fault::Arm("compaction", compact_fail);
  fault::FaultSpec alloc;
  alloc.max_fires = 2;
  fault::Arm("alloc_limit", alloc);
  fault::FaultSpec skew;
  skew.skip_first = 6;
  skew.max_fires = 4;
  skew.skew_ns = 3600LL * 1000 * 1000 * 1000;  // +1h: whatever is live expires
  fault::Arm("deadline_skew", skew);

  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 0.2;
  options.arena_min_uses = 1;  // every Monte-Carlo group probes alloc_limit
  options.compaction = true;
  options.compaction_interval_ms = 2.0;
  QueryServer server(db(), index_.get(), options);

  // A write gives the compactor a delta to chase; its first rebuild attempt
  // eats the injected failure and the old base stays live.
  const ObjectId last = static_cast<ObjectId>(db().size() - 1);
  ASSERT_TRUE(db().ExtendLifetime(last, db().object(last).last_tic() + 2).ok());

  constexpr int kClients = 3;
  constexpr int kPerClient = 10;
  std::vector<std::future<QueryOutcome>> futures(kClients * kPerClient);
  std::vector<std::thread> clients;
  Rng rng(5);
  std::vector<QuerySpec> specs;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kForall;
    spec.q = RandomQueryState(*world_->space, rng);
    spec.T = i % 2 == 0 ? T_ : TimeInterval{T_.start, T_.end - 2};
    spec.tau = 0.05;
    spec.mc.num_worlds = 200;
    spec.mc.seed = 21 + (i % 4);   // repeated seeds: arena-able groups
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.deadline_ms = 3.6e6;  // 1h: only the injected skew can expire it
    specs.push_back(spec);
  }
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int slot = c * kPerClient + i;
        futures[slot] = server.Submit(specs[slot]);
      }
    });
  }
  for (auto& client : clients) client.join();

  // The compactor polls every 2 ms; give it time to take the failure.
  const auto compact_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fault::FireCount("compaction") == 0 &&
         std::chrono::steady_clock::now() < compact_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Stop mid-stream, racing a few late submits against the drain.
  std::thread stopper([&] { server.Stop(); });
  std::vector<std::future<QueryOutcome>> late(4);
  for (auto& f : late) f = server.Submit(specs[0]);
  stopper.join();

  // Every promise resolves exactly once — a leak would hang right here.
  size_t ok = 0, expired = 0, internal = 0, draining = 0;
  const auto tally = [&](std::future<QueryOutcome>& f) {
    const QueryOutcome outcome = f.get();
    switch (outcome.status.code()) {
      case StatusCode::kOk: ++ok; break;
      case StatusCode::kDeadlineExceeded: ++expired; break;
      case StatusCode::kInternal: ++internal; break;  // failed session build
      case StatusCode::kResourceLimit: ++draining; break;
      default: FAIL() << "unexpected status " << outcome.status.ToString();
    }
  };
  for (auto& f : futures) tally(f);
  for (auto& f : late) tally(f);

  // Every armed point fired at least once (and within its window).
  for (const char* point : {"lane_stall", "session_build", "compaction",
                            "alloc_limit", "deadline_skew"}) {
    EXPECT_GE(fault::FireCount(point), 1u) << point;
  }
  EXPECT_EQ(fault::FireCount("session_build"), 1u);
  EXPECT_EQ(fault::FireCount("compaction"), 1u);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, futures.size() + late.size());
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.rejected, stats.rejected_queue_full + stats.rejected_shed +
                                stats.rejected_draining);
  EXPECT_EQ(stats.admitted, stats.completed);
  // The client-side tally agrees with the server's ledger.
  EXPECT_EQ(ok + expired + internal, stats.admitted);
  EXPECT_EQ(draining, stats.rejected);
  // The injected failures surfaced through their counters.
  EXPECT_EQ(stats.cache.build_failures, 1u);
  EXPECT_GE(stats.compaction_failures, 1u);
  EXPECT_GE(stats.expired_in_queue + stats.expired_on_lane, 1u);
  EXPECT_EQ(expired, stats.expired_in_queue + stats.expired_on_lane);
}

}  // namespace
}  // namespace ust

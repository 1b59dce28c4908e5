// Tests of the serving tier (DESIGN.md section 5): epoch-based snapshot
// isolation of TrajectoryDatabase (online inserts and copy-on-write lifetime
// extension never perturb a pinned epoch), the stale-index guard, the
// epoch-keyed session cache, and the QueryServer front-end —
// whose outcomes must be bit-identical to serial QuerySession::RunAll on the
// same epoch even with concurrent client threads and a concurrent writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "server/session_cache.h"
#include "serving_fixture.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ust {
namespace {

using testing::SameOutcome;

class ServerTest : public testing::ServingWorldTest {
 protected:
  void SetUp() override { BuildWorld(18, 77); }

  /// A mixed request stream: several query points, two intervals, all three
  /// semantics. Backends stay kAuto — the planner is part of the pipeline
  /// under test and is deterministic per spec.
  std::vector<QuerySpec> MakeSpecs(size_t n) const {
    Rng rng(5);
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < n; ++i) {
      QuerySpec spec;
      spec.kind = i % 3 == 0   ? QueryKind::kForall
                  : i % 3 == 1 ? QueryKind::kExists
                               : QueryKind::kContinuous;
      spec.q = RandomQueryState(*world_->space, rng);
      spec.T = i % 2 == 0 ? T_ : TimeInterval{T_.start, T_.end - 2};
      spec.tau = spec.kind == QueryKind::kContinuous ? 0.3 : 0.05;
      spec.mc.num_worlds = 300;
      spec.mc.seed = 21 + i;
      specs.push_back(spec);
    }
    return specs;
  }
};

TEST_F(ServerTest, VersionCountsWritesAndValidatesThem) {
  const uint64_t v0 = db().version();
  EXPECT_GT(v0, 0u);  // one bump per seeded object
  AddObjectAt(T_.start, T_.end);
  EXPECT_EQ(db().version(), v0 + 1);

  const ObjectId last = static_cast<ObjectId>(db().size() - 1);
  const Tic end = db().object(last).last_tic();
  EXPECT_TRUE(db().ExtendLifetime(last, end + 4).ok());
  EXPECT_EQ(db().version(), v0 + 2);
  EXPECT_EQ(db().object(last).last_tic(), end + 4);

  // A no-op extension is not a write.
  EXPECT_TRUE(db().ExtendLifetime(last, end + 4).ok());
  EXPECT_EQ(db().version(), v0 + 2);

  // Shrinking and unknown ids are rejected without bumping the epoch.
  EXPECT_EQ(db().ExtendLifetime(last, end).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db().ExtendLifetime(static_cast<ObjectId>(db().size()), end + 9)
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db().version(), v0 + 2);
}

TEST_F(ServerTest, SnapshotPinsItsEpochAcrossConcurrentInserts) {
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  DbSnapshot snap0 = db().Snapshot();
  // No index: both epochs then prune by alive-time filtering, which keeps
  // the influencer counts directly comparable across the insert.
  QuerySession session(snap0, nullptr);
  const std::vector<QueryOutcome> baseline = session.RunAll(specs);

  // An object alive throughout T_ lands in epoch k+1...
  AddObjectAt(T_.start, T_.end);
  EXPECT_EQ(snap0.version() + 1, db().version());
  EXPECT_EQ(db().Snapshot().size(), snap0.size() + 1);

  // ...and the epoch-k session keeps returning epoch-k bits.
  const std::vector<QueryOutcome> after = session.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(baseline[i], after[i])) << "spec " << i;
  }

  // A session over the new epoch sees the insert: the new object is alive
  // throughout every queried interval, so it joins the influencer sets.
  QuerySession fresh(db().Snapshot(), nullptr);
  const std::vector<QueryOutcome> next_epoch = fresh.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    const size_t before_count = specs[i].kind == QueryKind::kContinuous
                                    ? baseline[i].pcnn.num_influencers
                                    : baseline[i].pnn.num_influencers;
    const size_t after_count = specs[i].kind == QueryKind::kContinuous
                                   ? next_epoch[i].pcnn.num_influencers
                                   : next_epoch[i].pnn.num_influencers;
    EXPECT_EQ(after_count, before_count + 1) << "spec " << i;
  }
}

TEST_F(ServerTest, ExtendLifetimeIsCopyOnWrite) {
  const ObjectId id = 0;
  const Tic old_end = db().object(id).last_tic();
  DbSnapshot snap0 = db().Snapshot();
  ASSERT_TRUE(db().ExtendLifetime(id, old_end + 6).ok());
  // The pinned epoch still holds the shorter object; the live one extended.
  EXPECT_EQ(snap0.object(id).last_tic(), old_end);
  EXPECT_EQ(db().object(id).last_tic(), old_end + 6);
  // The replacement starts with a cold posterior cache (its propagation
  // horizon changed), while the old object's stays warm for old snapshots.
  EXPECT_TRUE(snap0.object(id).EnsurePosterior().ok());
  EXPECT_TRUE(db().object(id).EnsurePosterior().ok());
}

TEST_F(ServerTest, StaleIndexIsDroppedNotTrusted) {
  const std::vector<QuerySpec> specs = MakeSpecs(4);
  AddObjectAt(T_.start, T_.end);  // index_ is now one epoch behind
  // Publishing a fresh base trims the change log past index_, so no delta
  // can patch it: a stale index that cannot be patched must be discarded
  // (and the drop counted), never trusted.
  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  db().PublishIndex(std::make_shared<const UstTree>(rebuilt.MoveValue()));
  SessionOptions options;
  Counter drops;
  options.stale_index_drops = &drops;
  QuerySession with_stale_index(db().Snapshot(), index_.get(), options);
  QuerySession without_index(db().Snapshot(), nullptr);
  EXPECT_TRUE(with_stale_index.dropped_stale_index());
  EXPECT_EQ(drops.value(), 1u);
  const auto a = with_stale_index.RunAll(specs);
  const auto b = without_index.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    // Identical — including the influencer counts, which a trusted stale
    // index would understate by the inserted object.
    EXPECT_TRUE(SameOutcome(a[i], b[i])) << "spec " << i;
  }
}

TEST_F(ServerTest, SessionCacheKeysOnEpochAlone) {
  // A session depends on its epoch alone: the groups of two intervals in
  // one epoch share one session, and a write's next checkout misses once.
  const std::vector<QuerySpec> specs = MakeSpecs(2);
  ASSERT_FALSE(specs[0].T == specs[1].T);
  QueryServer server(db(), index_.get(), ServerOptions{});
  const auto run_each = [&] {
    for (const QuerySpec& spec : specs) {
      EXPECT_TRUE(server.Submit(spec).get().status.ok());
    }
  };
  run_each();
  EXPECT_EQ(server.Stats().cache.misses, 1u);
  EXPECT_EQ(server.Stats().cache.hits, 1u);
  AddObjectAt(T_.start, T_.end);
  run_each();
  EXPECT_EQ(server.Stats().cache.misses, 2u);
  EXPECT_EQ(server.Stats().cache.hits, 2u);
  server.Stop();

  // A late build for an older epoch goes to its caller uncached: the newer
  // epoch's session stays cached, and the older epoch misses again.
  SessionCache cache(SessionOptions{});
  const DbSnapshot older = db().Snapshot();
  AddObjectAt(T_.start, T_.end);
  const DbSnapshot newer = db().Snapshot();
  const auto newer_session = cache.Checkout(newer, index_.get());
  const auto older_session = cache.Checkout(older, index_.get());
  ASSERT_NE(newer_session, nullptr);
  ASSERT_NE(older_session, nullptr);
  EXPECT_EQ(newer_session->db().version(), newer.version());
  EXPECT_EQ(older_session->db().version(), older.version());
  EXPECT_EQ(cache.Checkout(newer, index_.get()), newer_session);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_NE(cache.Checkout(older, index_.get()), nullptr);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST_F(ServerTest, CheckoutsRacingAWriterGetTheirSnapshotsEpoch) {
  // Four threads check sessions out at the epoch they pin while a writer
  // opens new epochs. Every session is its snapshot's epoch, and once the
  // writer stops, a checkout at the final epoch is a hit: a late build for
  // an older epoch never displaced a newer session.
  SessionCache cache(SessionOptions{});
  std::atomic<bool> writing{true};
  std::atomic<int> wrong_epoch{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      // The iteration that sees the writer done pins the final epoch.
      for (bool last = false; !last;) {
        last = !writing.load();
        const DbSnapshot snap = db().Snapshot();
        const auto session = cache.Checkout(snap, index_.get());
        if (session == nullptr) {
          ++failed;
        } else if (session->db().version() != snap.version()) {
          ++wrong_epoch;
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 12; ++i) AddObjectAt(T_.end + 8, T_.end + 12);
    writing = false;
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong_epoch.load(), 0);

  const DbSnapshot final_snap = db().Snapshot();
  const SessionCacheStats before = cache.stats();
  const auto session = cache.Checkout(final_snap, index_.get());
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->db().version(), final_snap.version());
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(cache.stats().misses, before.misses);
}

TEST_F(ServerTest, HotGroupMorselsMatchSerialRunAllBitwise) {
  // One dominant (epoch, interval) group over 2 lanes: whichever lane adopts
  // each batch's group, the outcomes must equal the serial RunAll bytes.
  // Submits are paused into one admission queue so the whole stream
  // flushes as full batches of one hot group each.
  std::vector<QuerySpec> specs = MakeSpecs(18);
  for (QuerySpec& spec : specs) spec.T = T_;  // one hot interval
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 6;
  options.max_batch_delay_ms = 0.5;
  QueryServer server(db(), index_.get(), options);
  server.Pause();
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  server.Resume();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i])) << "spec " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, specs.size());
  // A morsel is one spec: exactly one morsel per request, across all lanes.
  EXPECT_EQ(stats.morsels_executed(), specs.size());
  uint64_t lane_requests = 0;
  for (const LaneStats& lane : stats.lanes) lane_requests += lane.requests;
  EXPECT_EQ(lane_requests, specs.size());
}

TEST_F(ServerTest, GroupRunsWholeOnItsAdoptingLane) {
  // One dominant group of heavy specs next to a tiny one, flushed as one
  // batch to 2 lanes: the lane that adopts the heavy group runs all six of
  // its specs while the other lane runs only the tiny group — no lane takes
  // specs off another's group. The heavy interval sorts first, so it is
  // staged first: whichever lane wakes first adopts it and stays busy for
  // tens of milliseconds, orders of magnitude longer than the other lane
  // takes to wake and adopt the tiny group.
  std::vector<QuerySpec> heavy = MakeSpecs(6);
  for (QuerySpec& spec : heavy) {
    spec.kind = QueryKind::kForall;
    spec.T = T_;
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.mc.num_worlds = 6000;
  }
  QuerySpec tiny = MakeSpecs(1)[0];
  tiny.kind = QueryKind::kForall;
  tiny.T = TimeInterval{T_.start + 2, T_.end};
  tiny.backend = ExecutorKind::kMonteCarlo;
  tiny.mc.num_worlds = 50;

  ServerOptions options;
  options.lanes = 2;
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // everything flushes as one batch: 2 groups
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : heavy) futures.push_back(server.Submit(spec));
  futures.push_back(server.Submit(tiny));
  server.Resume();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  server.Stop();

  const ServerStats stats = server.Stats();
  ASSERT_EQ(stats.lanes.size(), 2u);
  std::vector<uint64_t> requests, morsels;
  for (const LaneStats& lane : stats.lanes) {
    EXPECT_EQ(lane.batches, 1u);
    requests.push_back(lane.requests);
    morsels.push_back(lane.morsels);
  }
  std::sort(requests.begin(), requests.end());
  std::sort(morsels.begin(), morsels.end());
  EXPECT_EQ(requests, (std::vector<uint64_t>{1, heavy.size()}));
  EXPECT_EQ(morsels, (std::vector<uint64_t>{1, heavy.size()}));
}

TEST_F(ServerTest, LateSpecExpiresWhileAnEarlierSpecOfItsGroupRuns) {
  // Expiry is checked just before each spec runs, not once per group: a
  // spec whose budget passes while a heavy spec ahead of it in the same
  // group executes resolves kDeadlineExceeded on the lane, and the heavy
  // spec's bytes are untouched. The batch flushes as soon as both specs are
  // queued, so the budget (20 ms) outlasts staging by far but not the heavy
  // spec's execution (over 100 ms).
  QuerySpec first = MakeSpecs(1)[0];
  first.kind = QueryKind::kForall;
  first.T = T_;
  first.backend = ExecutorKind::kMonteCarlo;
  first.mc.num_worlds = 200000;
  QuerySpec late = MakeSpecs(2)[1];
  late.T = T_;
  late.deadline_ms = 20.0;

  ServerOptions options;
  options.max_batch_size = 2;
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // one batch, one group: first, then late
  std::future<QueryOutcome> first_future = server.Submit(first);
  std::future<QueryOutcome> late_future = server.Submit(late);
  server.Resume();
  const QueryOutcome first_out = first_future.get();
  const QueryOutcome late_out = late_future.get();
  server.Stop();

  ASSERT_TRUE(first_out.status.ok()) << first_out.status.ToString();
  QuerySession serial(db().Snapshot(), index_.get());
  EXPECT_TRUE(SameOutcome(first_out, serial.Run(first)));
  EXPECT_EQ(late_out.status.code(), StatusCode::kDeadlineExceeded)
      << late_out.status.ToString();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.expired_in_queue, 0u);
  EXPECT_EQ(stats.expired_on_lane, 1u);
  EXPECT_EQ(stats.morsels_executed(), 1u);
}

TEST_F(ServerTest, ServerMatchesSerialRunAllAtTwoLanesFourClients) {
  const std::vector<QuerySpec> specs = MakeSpecs(16);
  // Reference: strictly serial session over the same epoch (threads = 1).
  QuerySession reference(db().Snapshot(), index_.get());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.threads = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 2.0;
  QueryServer server(db(), index_.get(), options);
  std::vector<std::future<QueryOutcome>> futures(specs.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < specs.size(); i += 4) {
        futures[i] = server.Submit(specs[i]);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i])) << "spec " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, specs.size());
  EXPECT_EQ(stats.admitted, specs.size());
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.latency_micros.count(), specs.size());
  EXPECT_EQ(stats.queue_micros.count(), specs.size());
  // Per-lane accounting covers every executed morsel and every request.
  ASSERT_EQ(stats.lanes.size(), 2u);
  uint64_t lane_batches = 0, lane_requests = 0, lane_morsels = 0;
  for (const LaneStats& lane : stats.lanes) {
    lane_batches += lane.batches;
    lane_requests += lane.requests;
    lane_morsels += lane.morsels;
    EXPECT_EQ(lane.exec_micros.count(), lane.morsels);
  }
  EXPECT_GE(lane_batches, stats.batches);  // >=: batches split per interval
  EXPECT_GE(lane_morsels, lane_batches);   // every group is >= one morsel
  EXPECT_EQ(lane_requests, specs.size());
  EXPECT_EQ(stats.lane_queue_depth, 0u);  // drained by Stop
  EXPECT_GE(stats.lane_queue_peak, 1u);
}

TEST_F(ServerTest, InvalidSpecResolvesAndTheServerKeepsServing) {
  // An inverted interval must resolve InvalidArgument on its lane, not
  // throw out of it and take the process down; the next spec is served.
  QueryServer server(db(), index_.get());
  QuerySpec bad = MakeSpecs(1)[0];
  bad.T = {10, 5};
  const QueryOutcome bad_out = server.Submit(bad).get();
  EXPECT_EQ(bad_out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_out.status.message(), "empty query interval");
  const QuerySpec good = MakeSpecs(1)[0];
  const QueryOutcome good_out = server.Submit(good).get();
  ASSERT_TRUE(good_out.status.ok()) << good_out.status.ToString();
  QuerySession serial(db(), index_.get());
  EXPECT_TRUE(SameOutcome(good_out, serial.Run(good)));
}

TEST_F(ServerTest, NanPrecisionSpecResolvesAndTheServerKeepsServing) {
  // A NaN delta used to pass the estimator's limit checks and abort the
  // process in the Hoeffding bound, taking every lane with it. It must
  // resolve InvalidArgument on its lane; the next spec is served.
  QueryServer server(db(), index_.get());
  QuerySpec bad = MakeSpecs(1)[0];
  bad.backend = ExecutorKind::kMonteCarlo;
  bad.mc.num_worlds = 2048;
  bad.precision.mode = PrecisionMode::kEpsilon;
  bad.precision.delta = std::numeric_limits<double>::quiet_NaN();
  const QueryOutcome bad_out = server.Submit(bad).get();
  EXPECT_EQ(bad_out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad_out.status.message(), "delta out of range");
  const QuerySpec good = MakeSpecs(1)[0];
  const QueryOutcome good_out = server.Submit(good).get();
  ASSERT_TRUE(good_out.status.ok()) << good_out.status.ToString();
  QuerySession serial(db(), index_.get());
  EXPECT_TRUE(SameOutcome(good_out, serial.Run(good)));
}

TEST_F(ServerTest, OversizedWorldCountResolvesAndTheServerKeepsServing) {
  // A world count whose column size wraps (num_worlds * |window| mod 2^64
  // is tiny) used to overrun a column on the first Monte-Carlo spec of a
  // group, and to walk its lane forever when the group was still cold. Both
  // such specs must resolve InvalidArgument on their lane; the next spec is
  // served.
  ServerOptions options;
  options.arena_min_uses = 1;
  QueryServer server(db(), index_.get(), options);
  for (size_t worlds : {kMaxWorlds + 1, size_t{6148914691236517206u}}) {
    QuerySpec bad = MakeSpecs(1)[0];
    bad.backend = ExecutorKind::kMonteCarlo;
    bad.mc.num_worlds = worlds;
    const QueryOutcome bad_out = server.Submit(bad).get();
    EXPECT_EQ(bad_out.status.code(), StatusCode::kInvalidArgument) << worlds;
    EXPECT_EQ(bad_out.status.message(), "num_worlds exceeds 2^24");
  }
  const QuerySpec good = MakeSpecs(1)[0];
  const QueryOutcome good_out = server.Submit(good).get();
  ASSERT_TRUE(good_out.status.ok()) << good_out.status.ToString();
  QuerySession serial(db(), index_.get());
  EXPECT_TRUE(SameOutcome(good_out, serial.Run(good)));
}

TEST_F(ServerTest, StopDrainsEveryAdmittedRequest) {
  const std::vector<QuerySpec> specs = MakeSpecs(10);
  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 50.0;  // Stop must not wait out the window
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // requests pile up: the drain below is deterministic
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  server.Stop();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(futures[i].get().status.ok()) << "request " << i;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.admitted, specs.size());
  EXPECT_EQ(stats.completed, specs.size());
  EXPECT_GE(stats.flush_drain, 1u);
  EXPECT_EQ(stats.lane_queue_depth, 0u);
  uint64_t lane_requests = 0;
  for (const LaneStats& lane : stats.lanes) lane_requests += lane.requests;
  EXPECT_EQ(lane_requests, specs.size());
}

TEST_F(ServerTest, OversizedBatchDoesNotStallSmallBatchFlush) {
  // Regression test for the pre-lane inline dispatcher: there, the thread
  // that flushed a batch also executed it, so one oversized batch blocked
  // the admission window and every batch behind it until it finished. With
  // execution lanes, the flush cadence is independent of execution time:
  // the small batch below must flush on its deadline and complete while the
  // oversized batch is still running on the other lane.
  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 1.0;
  QueryServer server(db(), index_.get(), options);

  // One oversized batch: heavy Monte-Carlo work, hundreds of milliseconds.
  std::vector<QuerySpec> big = MakeSpecs(4);
  for (QuerySpec& spec : big) {
    spec.kind = QueryKind::kForall;
    spec.T = T_;
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.mc.num_worlds = 50000;
  }
  // One small, fast request over a different interval (its own group).
  QuerySpec small = MakeSpecs(1)[0];
  small.kind = QueryKind::kForall;
  small.T = TimeInterval{T_.start, T_.end - 2};
  small.backend = ExecutorKind::kMonteCarlo;
  small.mc.num_worlds = 50;

  // Pause so all four oversized specs flush as exactly one full batch.
  server.Pause();
  std::vector<std::future<QueryOutcome>> big_futures;
  for (const QuerySpec& spec : big) big_futures.push_back(server.Submit(spec));
  server.Resume();
  std::future<QueryOutcome> small_future = server.Submit(small);

  EXPECT_TRUE(small_future.get().status.ok());
  for (auto& f : big_futures) EXPECT_TRUE(f.get().status.ok());

  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.flush_full, 1u);      // the oversized batch
  EXPECT_GE(stats.flush_deadline, 1u);  // the small one, on time
  // The regression is asserted through the server's own clocks, not through
  // instantaneous future polling — robust against the thread scheduling of
  // an oversubscribed sanitizer CI runner. On the pre-lane inline
  // dispatcher both checks fail: the small request's flush (and hence its
  // whole life) would sit behind the oversized batch's execution, pushing
  // queue_micros.max() and latency_micros.min() up to max_exec.
  double max_exec = 0.0;
  for (const LaneStats& lane : stats.lanes) {
    max_exec = std::max(max_exec, lane.exec_micros.max());
  }
  // Admission-to-flush latency stayed decoupled from execution: even the
  // slowest flush was far quicker than the oversized batch's execution.
  EXPECT_LT(stats.queue_micros.max(), max_exec / 2.0);
  // And the small request (the fastest end-to-end, hence min()) completed
  // well inside the oversized batch's execution window.
  EXPECT_LT(stats.latency_micros.min(), max_exec / 2.0);
}

TEST_F(ServerTest, ServerRejectsWhenAdmissionQueueIsFull) {
  const std::vector<QuerySpec> specs = MakeSpecs(8);
  ServerOptions options;
  options.queue_capacity = 3;
  options.max_batch_size = 64;
  options.max_batch_delay_ms = 5.0;
  QueryServer server(db(), index_.get(), options);
  server.Pause();  // queue fills deterministically while dispatch holds

  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  // First 3 admitted, the rest bounced immediately with kResourceLimit.
  for (size_t i = 3; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[i].get().status.code(), StatusCode::kResourceLimit);
  }
  server.Resume();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(futures[i].get().status.ok()) << "request " << i;
  }
  server.Stop();
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 5u);
  // Every rejection lands in exactly one split bucket (none were draining —
  // the server was live throughout the burst).
  EXPECT_EQ(stats.rejected,
            stats.rejected_queue_full + stats.rejected_shed);
  EXPECT_EQ(stats.rejected_draining, 0u);
  EXPECT_EQ(stats.completed, 3u);

  // After Stop, submits bounce with kResourceLimit — the same backpressure
  // code clients already retry on, not a client-bug code like
  // kInvalidArgument (a draining server is an operational condition).
  auto late = server.Submit(specs[0]);
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(late.get().status.code(), StatusCode::kResourceLimit);
  const ServerStats after = server.Stats();
  EXPECT_EQ(after.rejected_draining, 1u);
  EXPECT_EQ(after.rejected, 6u);
}

TEST_F(ServerTest, ConcurrentWritesNeverTearServedQueries) {
  // The writer only touches lifetimes/objects *outside* every queried
  // interval, so all epochs agree on the correct answer — any deviation in
  // a served outcome would mean a torn read of the live database.
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  // No index on either side: sessions over post-write epochs would drop a
  // pre-write index, and pruning sets must match for bitwise comparison.
  QuerySession reference(db().Snapshot(), nullptr);
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 0.5;
  QueryServer server(db(), nullptr, options);

  std::thread writer([&] {
    for (int i = 0; i < 12; ++i) {
      AddObjectAt(T_.end + 8, T_.end + 12);  // never alive inside T_ or sub-T
    }
  });
  std::vector<std::future<QueryOutcome>> futures;
  for (int round = 0; round < 4; ++round) {
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  }
  writer.join();
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_TRUE(SameOutcome(futures[i].get(), expected[i % specs.size()]))
        << "request " << i;
  }

  // Epoch-keyed invalidation, pinned deterministically: all in-flight work
  // is drained, so the cache holds a session at an epoch <= the current
  // one; one more write then forces the next batch to miss on the new
  // version.
  const SessionCacheStats before = server.Stats().cache;
  AddObjectAt(T_.end + 8, T_.end + 12);
  std::vector<std::future<QueryOutcome>> late;
  for (const QuerySpec& spec : specs) late.push_back(server.Submit(spec));
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT_TRUE(SameOutcome(late[i].get(), expected[i])) << "late " << i;
  }
  server.Stop();
  const SessionCacheStats after = server.Stats().cache;
  EXPECT_GT(after.misses, before.misses);
}

TEST_F(ServerTest, ZeroBatchSizeIsClampedNotStarved) {
  ServerOptions options;
  options.max_batch_size = 0;  // misconfiguration must not starve requests
  options.max_batch_delay_ms = 0.1;
  QueryServer server(db(), index_.get(), options);
  auto future = server.Submit(MakeSpecs(1)[0]);
  EXPECT_TRUE(future.get().status.ok());
}

// With ServerOptions::trace on, one request must be followable
// admission-to-finalize: at least six distinct span names carry its id
// (the ISSUE acceptance bar, checked here without the bench harness).
TEST_F(ServerTest, TraceFollowsRequestAcrossLifecycle) {
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  ServerOptions options;
  options.trace = true;
  {
    QueryServer server(db(), index_.get(), options);
    std::vector<std::future<QueryOutcome>> futures;
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
    for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
    server.Stop();  // joins lanes and disables tracing
  }
  const std::vector<trace::TraceEvent> events = trace::Snapshot();
  ASSERT_FALSE(events.empty());
  std::vector<std::string> names_for_req1;
  for (const trace::TraceEvent& event : events) {
    if (event.arg_name == nullptr || std::string(event.arg_name) != "req") {
      continue;
    }
    if (event.arg != 1) continue;
    const std::string name = event.name;
    if (std::find(names_for_req1.begin(), names_for_req1.end(), name) ==
        names_for_req1.end()) {
      names_for_req1.push_back(name);
    }
  }
  EXPECT_GE(names_for_req1.size(), 6u)
      << "request 1 spans: " << names_for_req1.size();
  for (const char* required : {"admit", "queue", "finalize"}) {
    EXPECT_NE(std::find(names_for_req1.begin(), names_for_req1.end(),
                        std::string(required)),
              names_for_req1.end())
        << "missing span " << required;
  }
  trace::Reset();
}

TEST_F(ServerTest, StatsRenderAsJson) {
  const std::vector<QuerySpec> specs = MakeSpecs(5);
  QueryServer server(db(), index_.get(), ServerOptions{});
  std::vector<std::future<QueryOutcome>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  server.Stop();
  const std::string json = server.Stats().ToJson();
  for (const char* key :
       {"\"submitted\":5", "\"completed\":5", "\"rejected\":0",
        "\"rejected_queue_full\":0", "\"rejected_shed\":0",
        "\"rejected_draining\":0", "\"expired_in_queue\":0",
        "\"expired_on_lane\":0", "\"degraded_requests\":0",
        "\"overload_regime\":", "\"session_build_failures\":0", "\"batches\":",
        "\"cache_misses\":", "\"cache_hits\":", "\"latency_us\":",
        "\"queue_us\":", "\"p50\":", "\"p99\":", "\"lane_queue_depth\":",
        "\"lane_queue_peak\":", "\"morsels_executed\":",
        "\"arena_builds\":", "\"arena_spec_reuses\":", "\"arena_bytes\":",
        "\"arena_resident_bytes\":", "\"arena_evictions\":",
        "\"early_stops\":", "\"worlds_saved\":", "\"worlds_sampled\":",
        "\"trace_dropped\":", "\"lane_idle_us\":",
        "\"lanes\":[{", "\"exec_us\":", "\"morsels\":",
        "\"arena_hits\":", "\"idle_us\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << json << "\nmissing " << key;
  }
}

}  // namespace
}  // namespace ust

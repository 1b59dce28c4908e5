// Tests of online index maintenance (DESIGN.md section 10): the per-epoch
// UstDelta patched alongside a stale base UstTree, the stale-drop fallback
// it replaces, and background compaction publishing a fresh base through
// the snapshot machinery *without* bumping the epoch.
//
// The contract under test everywhere: query outcomes are a pure function
// of (epoch, spec). Base-only, base ∪ delta, dropped-index fallback, and
// any interleaving of writers and compactors must reproduce the index-free
// reference bit for bit (probability bytes; candidate/influencer *counts*
// legitimately differ between indexed and index-free plans, so they are
// deliberately not compared here — unlike server_test's SameOutcome).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_delta.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "serving_fixture.h"
#include "util/rng.h"

namespace ust {
namespace {

// Bitwise agreement on the *answers* (not the plan-shape counters).
::testing::AssertionResult SameResults(const QueryOutcome& a,
                                       const QueryOutcome& b) {
  if (!a.status.ok() || !b.status.ok()) {
    return ::testing::AssertionFailure()
           << "status a=" << a.status.ToString()
           << " b=" << b.status.ToString();
  }
  if (a.kind != b.kind || a.executor != b.executor) {
    return ::testing::AssertionFailure() << "kind/executor mismatch";
  }
  if (a.pnn.results.size() != b.pnn.results.size()) {
    return ::testing::AssertionFailure()
           << "pnn sizes " << a.pnn.results.size() << " vs "
           << b.pnn.results.size();
  }
  for (size_t i = 0; i < a.pnn.results.size(); ++i) {
    if (a.pnn.results[i].object != b.pnn.results[i].object ||
        a.pnn.results[i].prob != b.pnn.results[i].prob) {  // bitwise
      return ::testing::AssertionFailure() << "pnn result " << i;
    }
  }
  if (a.pcnn.pcnn.entries.size() != b.pcnn.pcnn.entries.size()) {
    return ::testing::AssertionFailure() << "pcnn sizes";
  }
  for (size_t i = 0; i < a.pcnn.pcnn.entries.size(); ++i) {
    const PcnnEntry& x = a.pcnn.pcnn.entries[i];
    const PcnnEntry& y = b.pcnn.pcnn.entries[i];
    if (x.object != y.object || x.tics != y.tics || x.prob != y.prob) {
      return ::testing::AssertionFailure() << "pcnn entry " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

class IngestTest : public testing::ServingWorldTest {
 protected:
  void SetUp() override { BuildWorld(18, 91); }

  /// Monte-Carlo-pinned specs with tau > 0: the regime where indexed and
  /// index-free plans are bit-identical (tau = 0 would surface the
  /// zero-probability objects pruning removes; kAuto could route the two
  /// plans — whose candidate counts differ — to different backends).
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
      spec.backend = ExecutorKind::kMonteCarlo;
      spec.mc.num_worlds = 200;
      spec.mc.seed = 31 + i;
      specs.push_back(spec);
    }
    return specs;
  }

  /// Some writes the queries can see: appended objects alive throughout T_
  /// plus a lifetime extension of an indexed object (the delta's replace
  /// path — its base entries go stale, not just missing).
  void ApplyWrites() {
    AddObjectAt(T_.start, T_.end);
    AddObjectAt(T_.start > 0 ? T_.start - 1 : T_.start, T_.end + 2);
    const Tic end = db().object(1).last_tic();
    ASSERT_TRUE(db().ExtendLifetime(1, end + 4).ok());
  }
};

TEST_F(IngestTest, DeltaProbeMatchesIndexFreeFallbackBitwise) {
  ApplyWrites();
  const DbSnapshot snapshot = db().Snapshot();
  const std::vector<QuerySpec> specs = MakeSpecs(12);

  QuerySession reference(snapshot, nullptr);
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  // The delta path: stale base + per-epoch patch, no drop.
  QuerySession patched(snapshot, index_.get());
  EXPECT_FALSE(patched.dropped_stale_index());
  EXPECT_EQ(patched.delta_depth(), 3u);  // two inserts + one extension
  const std::vector<QueryOutcome> via_delta = patched.RunAll(specs);

  // Where no delta is possible — a published base trimmed the change log
  // past the stale tree — the session drops the index entirely. The
  // publication leaves the epoch unchanged, so `expected` still applies.
  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  db().PublishIndex(std::make_shared<const UstTree>(rebuilt.MoveValue()));
  ASSERT_EQ(db().Snapshot().version(), snapshot.version());
  SessionOptions options;
  Counter drops;
  options.stale_index_drops = &drops;
  QuerySession dropped(db().Snapshot(), index_.get(), options);
  EXPECT_TRUE(dropped.dropped_stale_index());
  EXPECT_EQ(drops.value(), 1u);
  EXPECT_EQ(dropped.delta_depth(), 0u);
  const std::vector<QueryOutcome> via_drop = dropped.RunAll(specs);

  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(via_delta[i], expected[i])) << "delta spec " << i;
    EXPECT_TRUE(SameResults(via_drop[i], expected[i])) << "drop spec " << i;
  }
}

TEST_F(IngestTest, FreshIndexNeedsNoDeltaAndOldIndexIsDroppedPastFloor) {
  // A fresh tree at the current epoch: no patch, no drop.
  QuerySession fresh(db().Snapshot(), index_.get());
  EXPECT_FALSE(fresh.dropped_stale_index());
  EXPECT_EQ(fresh.delta_depth(), 0u);

  ApplyWrites();
  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  db().PublishIndex(std::make_shared<const UstTree>(rebuilt.MoveValue()));

  // PublishIndex trimmed the change log up to the new base: the records the
  // old pre-write tree would need are gone, so it must be dropped — a
  // half-patched probe would silently miss the trimmed writes.
  Counter drops;
  SessionOptions options;
  options.stale_index_drops = &drops;
  QuerySession old_base(db().Snapshot(), index_.get(), options);
  EXPECT_TRUE(old_base.dropped_stale_index());
  EXPECT_EQ(drops.value(), 1u);

  // The published base itself rides for free at its own epoch.
  const DbSnapshot snapshot = db().Snapshot();
  ASSERT_NE(snapshot.base_index(), nullptr);
  QuerySession published(snapshot, snapshot.base_index().get());
  EXPECT_FALSE(published.dropped_stale_index());
  EXPECT_EQ(published.delta_depth(), 0u);

  const std::vector<QuerySpec> specs = MakeSpecs(9);
  QuerySession reference(snapshot, nullptr);
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);
  const std::vector<QueryOutcome> results = published.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(results[i], expected[i])) << "spec " << i;
  }
}

TEST_F(IngestTest, PublishIndexIsEpochInvisibleAndIgnoresOlderBases) {
  const DbSnapshot seed_snapshot = db().Snapshot();
  ApplyWrites();
  const uint64_t version = db().version();
  const DbSnapshot before = db().Snapshot();

  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  auto base = std::make_shared<const UstTree>(rebuilt.MoveValue());
  db().PublishIndex(base);

  // The index is a cache, not state: publication must not move the epoch,
  // and a snapshot pinned before publication stays valid.
  EXPECT_EQ(db().version(), version);
  EXPECT_EQ(db().Snapshot().version(), version);
  EXPECT_EQ(db().Snapshot().base_index().get(), base.get());

  // Same epoch, before vs after publication: bit-identical answers — the
  // atomicity claim, observable through the query path.
  const std::vector<QuerySpec> specs = MakeSpecs(6);
  QuerySession pre(before, index_.get());
  QuerySession post(db().Snapshot(), db().Snapshot().base_index().get());
  const std::vector<QueryOutcome> a = pre.RunAll(specs);
  const std::vector<QueryOutcome> b = post.RunAll(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(a[i], b[i])) << "spec " << i;
  }

  // Re-publishing an older base is a no-op: freshest wins (a slow
  // compactor finishing after a fast one must not roll the cache back).
  auto stale_rebuild = UstTree::Build(seed_snapshot);
  ASSERT_TRUE(stale_rebuild.ok());
  db().PublishIndex(
      std::make_shared<const UstTree>(stale_rebuild.MoveValue()));
  EXPECT_EQ(db().Snapshot().base_index().get(), base.get());
}

TEST_F(IngestTest, DeltaDepthCountsDistinctObjectsAndDrainsOnPublish) {
  const uint64_t v0 = db().version();
  const ObjectId extended = 2;
  const Tic end = db().object(extended).last_tic();
  ASSERT_TRUE(db().ExtendLifetime(extended, end + 2).ok());
  ASSERT_TRUE(db().ExtendLifetime(extended, end + 4).ok());
  const ObjectId added = AddObjectAt(T_.start, T_.end);

  // Two distinct rewritten objects, not three log records.
  DbSnapshot snapshot = db().Snapshot();
  EXPECT_EQ(snapshot.DeltaDepth(v0), 2u);
  const std::vector<ObjectId> changed = snapshot.ChangedSince(v0);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0], extended);
  EXPECT_EQ(changed[1], added);

  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  db().PublishIndex(std::make_shared<const UstTree>(rebuilt.MoveValue()));

  // Drained: nothing is stale relative to the published base...
  snapshot = db().Snapshot();
  ASSERT_NE(snapshot.base_index(), nullptr);
  const uint64_t built = snapshot.base_index()->built_version();
  EXPECT_EQ(built, db().version());
  EXPECT_EQ(snapshot.DeltaDepth(built), 0u);
  EXPECT_TRUE(snapshot.ChangedSince(built).empty());
  // ...and a base from *before* the trimmed log reads as "rebuild
  // everything" rather than pretending the gap is empty.
  EXPECT_EQ(snapshot.DeltaDepth(v0), snapshot.size());
}

TEST_F(IngestTest, ConcurrentWriterAndCompactorKeepEveryEpochBitIdentical) {
  // A writer lands objects while a compactor loop rebuilds and publishes as
  // fast as it can. After each write the main thread pins that epoch and
  // checks: whatever base ∪ delta combination the session picks up at that
  // instant must match the index-free fallback bit for bit.
  const std::vector<QuerySpec> specs = MakeSpecs(4);
  std::atomic<bool> stop{false};
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      DbSnapshot snapshot = db().Snapshot();
      const UstTree* base = snapshot.base_index() != nullptr
                                ? snapshot.base_index().get()
                                : index_.get();
      if (base->built_version() == snapshot.version()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      auto tree = UstTree::Build(snapshot);
      ASSERT_TRUE(tree.ok());
      db().PublishIndex(std::make_shared<const UstTree>(tree.MoveValue()));
    }
  });

  for (int round = 0; round < 6; ++round) {
    AddObjectAt(T_.start, T_.end + round);
    const DbSnapshot snapshot = db().Snapshot();
    const UstTree* base = snapshot.base_index() != nullptr
                              ? snapshot.base_index().get()
                              : index_.get();
    Counter drops;
    SessionOptions options;
    options.stale_index_drops = &drops;
    QuerySession indexed(snapshot, base, options);
    QuerySession reference(snapshot, nullptr);
    // The base was read from this very snapshot (or is the seed tree over
    // an untrimmed log), so the delta patch can never be blocked by the
    // floor: no drops, whatever the compactor did in between.
    EXPECT_FALSE(indexed.dropped_stale_index());
    EXPECT_EQ(drops.value(), 0u);
    const std::vector<QueryOutcome> a = indexed.RunAll(specs);
    const std::vector<QueryOutcome> b = reference.RunAll(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_TRUE(SameResults(a[i], b[i]))
          << "round " << round << " spec " << i;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  compactor.join();
}

TEST_F(IngestTest, ServerCompactsInBackgroundAndMatchesSerialReference) {
  ApplyWrites();
  const std::vector<QuerySpec> specs = MakeSpecs(12);
  QuerySession reference(db().Snapshot(), nullptr);
  ASSERT_TRUE(reference.Prepare().ok());
  const std::vector<QueryOutcome> expected = reference.RunAll(specs);

  ServerOptions options;
  options.lanes = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_ms = 1.0;
  options.compaction = true;
  options.compaction_interval_ms = 1.0;
  QueryServer server(db(), index_.get(), options);

  // Queries racing the compactor on the stale post-write epoch: every
  // outcome must match the serial index-free reference regardless of
  // whether its session rode the seed tree + delta or an already-published
  // compacted base.
  std::vector<std::future<QueryOutcome>> futures(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    futures[i] = server.Submit(specs[i]);
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(futures[i].get(), expected[i])) << "spec " << i;
  }

  // The compactor folds the writes into a published base...
  for (int spin = 0; db().Snapshot().base_index() == nullptr ||
                     db().Snapshot().base_index()->built_version() <
                         db().version();
       ++spin) {
    ASSERT_LT(spin, 2000) << "compactor never caught up";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // ...after which the same stream still returns the same bits.
  for (size_t i = 0; i < specs.size(); ++i) {
    futures[i] = server.Submit(specs[i]);
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(SameResults(futures[i].get(), expected[i]))
        << "post-compaction spec " << i;
  }
  server.Stop();

  const ServerStats stats = server.Stats();
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.compaction_failures, 0u);
  EXPECT_EQ(stats.delta_depth, 0u);
  EXPECT_EQ(stats.cache.stale_index_drops, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.completed, 2 * specs.size());

  // The maintenance instruments ride the self-enumerating metrics dump.
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"compactions\""), std::string::npos);
  EXPECT_NE(json.find("\"compaction_failures\""), std::string::npos);
  EXPECT_NE(json.find("\"delta_depth\""), std::string::npos);
  EXPECT_NE(json.find("\"stale_index_drops\""), std::string::npos);
}

TEST_F(IngestTest, WritesRebuildOnlyTheColumnsOfTheObjectsTheyChanged) {
  // One hot (T, seed) group served by a 2-lane server across writes. The
  // column store outlives epochs and keys columns by posterior-model
  // instance, so each epoch's session reads the columns earlier epochs
  // built for every object no write touched: arena_bytes grows by exactly
  // the written objects' columns — and every outcome stays bitwise equal
  // to a live serial session at its epoch. No index, so every spec's
  // participants are all objects alive in T and each write lands on them.
  constexpr size_t kWorlds = 200;
  Rng rng(9);
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < 8; ++i) {
    QuerySpec spec;
    spec.kind = i % 3 == 0   ? QueryKind::kForall
                : i % 3 == 1 ? QueryKind::kExists
                             : QueryKind::kContinuous;
    spec.q = RandomQueryState(*world_->space, rng);
    spec.T = T_;
    spec.tau = spec.kind == QueryKind::kContinuous ? 0.3 : 0.05;
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.mc.num_worlds = kWorlds;
    spec.mc.seed = 4242;
    specs.push_back(spec);
  }
  ServerOptions options;
  options.lanes = 2;
  options.arena_min_uses = 1;
  options.max_batch_size = specs.size();
  QueryServer server(db(), /*index=*/nullptr, options);

  const auto column_bytes = [&](ObjectId id) -> uint64_t {
    const UncertainObject& object = db().object(id);
    const Tic ws = std::max(T_.start, object.first_tic());
    const Tic we = std::min(T_.end, object.last_tic());
    if (ws > we) return 0;
    return kWorlds * static_cast<uint64_t>(we - ws + 1) * sizeof(uint32_t);
  };
  // Serves the specs at the live epoch, checks them against a live serial
  // session at that epoch, and returns the bytes of columns built so far.
  const auto serve = [&](const char* epoch) -> uint64_t {
    SessionOptions live;
    live.arena_min_uses = 0;
    QuerySession reference(db().Snapshot(), nullptr, live);
    const std::vector<QueryOutcome> expected = reference.RunAll(specs);
    server.Pause();
    std::vector<std::future<QueryOutcome>> futures;
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
    server.Resume();
    for (size_t i = 0; i < specs.size(); ++i) {
      const QueryOutcome out = futures[i].get();
      EXPECT_TRUE(testing::SameOutcome(out, expected[i]))
          << epoch << " spec " << i;
      EXPECT_TRUE(out.used_arena) << epoch << " spec " << i;
    }
    return server.Stats().cache.arena_bytes;
  };

  uint64_t bytes = serve("epoch 0");
  EXPECT_GT(bytes, 0u);

  // An appended object whose lifetime ends inside T.
  const ObjectId added = AddObjectAt(T_.start, T_.start + 2);
  uint64_t next = serve("after AddObject");
  EXPECT_EQ(next - bytes, column_bytes(added));
  bytes = next;

  // A lifetime extension of an existing participant that leaves its
  // window within T unchanged: its model is new, so its column is too.
  ObjectId beyond = 0;
  bool found = false;
  for (ObjectId id = 0; id < added && !found; ++id) {
    const UncertainObject& object = db().object(id);
    if (object.first_tic() <= T_.end && object.last_tic() > T_.end) {
      beyond = id;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no object outlives T";
  const uint64_t window_bytes = column_bytes(beyond);
  ASSERT_TRUE(
      db().ExtendLifetime(beyond, db().object(beyond).last_tic() + 3).ok());
  ASSERT_EQ(column_bytes(beyond), window_bytes);
  next = serve("after ExtendLifetime, same window");
  EXPECT_EQ(next - bytes, window_bytes);
  bytes = next;

  // Two writes between batches: an extension that grows the appended
  // object's window to all of T, and another appended object.
  ASSERT_TRUE(db().ExtendLifetime(added, T_.end + 2).ok());
  const ObjectId added_again = AddObjectAt(T_.start, T_.end);
  next = serve("after two writes");
  EXPECT_EQ(next - bytes, column_bytes(added) + column_bytes(added_again));
  server.Stop();

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache.arena_builds, 1u);  // one group turned hot, once
  EXPECT_EQ(stats.arena_hits(), stats.completed);
}

TEST_F(IngestTest, UstDeltaBuildRecordsChangedObjectsInIdOrder) {
  const uint64_t v0 = db().version();
  const ObjectId added = AddObjectAt(T_.start, T_.end);
  const Tic end = db().object(0).last_tic();
  ASSERT_TRUE(db().ExtendLifetime(0, end + 3).ok());

  auto delta = UstDelta::Build(db().Snapshot(), v0);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().depth(), 2u);
  EXPECT_FALSE(delta.value().empty());
  EXPECT_TRUE(delta.value().Contains(0));
  EXPECT_TRUE(delta.value().Contains(added));
  EXPECT_FALSE(delta.value().Contains(1));
  ASSERT_EQ(delta.value().objects().size(), 2u);
  // Ascending by id — the merge in BuildProfiles depends on it.
  EXPECT_EQ(delta.value().objects()[0].object, 0u);
  EXPECT_EQ(delta.value().objects()[1].object, added);
  // The extension's delta entries tile the object's *entire* (extended)
  // lifetime, replacing its stale base entries outright.
  EXPECT_EQ(delta.value().objects()[0].first_tic,
            db().object(0).first_tic());
  EXPECT_EQ(delta.value().objects()[0].last_tic, end + 3);
  EXPECT_FALSE(delta.value().objects()[0].entries.empty());
}

TEST_F(IngestTest, UstDeltaBuildRejectsABaseTheLogCannotBridge) {
  // A base at `stale`, then a publish at `published` that trims the change
  // log up to it, then one more write.
  AddObjectAt(T_.start, T_.end);
  const uint64_t stale = db().version();
  const ObjectId trimmed = AddObjectAt(T_.start, T_.end + 1);
  auto rebuilt = UstTree::Build(db());
  ASSERT_TRUE(rebuilt.ok());
  const uint64_t published = rebuilt.value().built_version();
  db().PublishIndex(std::make_shared<const UstTree>(rebuilt.MoveValue()));
  AddObjectAt(T_.start, T_.end + 2);
  const DbSnapshot snapshot = db().Snapshot();
  ASSERT_EQ(snapshot.delta_floor(), published);

  // The log no longer holds the write that produced `published`, so a delta
  // over `stale` would miss object `trimmed` (and prune with its stale base
  // rectangles); one over a base newer than the snapshot describes nothing.
  for (uint64_t base : {stale, snapshot.version() + 1}) {
    auto delta = UstDelta::Build(snapshot, base);
    ASSERT_FALSE(delta.ok()) << "base " << base;
    EXPECT_EQ(delta.status().code(), StatusCode::kOutOfRange);
  }
  // Both ends of the bridgeable range still build.
  auto at_floor = UstDelta::Build(snapshot, published);
  ASSERT_TRUE(at_floor.ok());
  EXPECT_EQ(at_floor.value().depth(), 1u);
  EXPECT_FALSE(at_floor.value().Contains(trimmed));
  auto at_epoch = UstDelta::Build(snapshot, snapshot.version());
  ASSERT_TRUE(at_epoch.ok());
  EXPECT_TRUE(at_epoch.value().empty());
}

TEST_F(IngestTest, SplicedBaseEqualsRebuildAcrossPublishRounds) {
  // Three rounds of seeded writes, each folded into the next base by a
  // splice and published, as the compactor does. Every round extends one
  // object twice; the first two add objects, and from the second round on
  // an object added after the first base is extended. The last round adds
  // nothing, so its splice also copies unchanged runs after the last
  // changed object.
  Rng rng(4711);
  const size_t seed_objects = db().Snapshot().size();
  const UstTree* base = index_.get();
  for (int round = 0; round < 3; ++round) {
    const bool adds = round < 2;
    for (int w = 0; w < 6; ++w) {
      const size_t n = adds ? db().Snapshot().size() : seed_objects;
      if (adds && rng.Bernoulli(0.4)) {
        const Tic start = T_.start + static_cast<Tic>(rng.UniformInt(3));
        AddObjectAt(start, start + 2 + static_cast<Tic>(rng.UniformInt(8)));
      } else {
        const ObjectId id = static_cast<ObjectId>(rng.UniformInt(n));
        const Tic end = db().object(id).last_tic();
        ASSERT_TRUE(db().ExtendLifetime(
                        id, end + 1 + static_cast<Tic>(rng.UniformInt(4)))
                        .ok());
      }
    }
    const ObjectId twice = static_cast<ObjectId>(rng.UniformInt(seed_objects));
    for (Tic more : {2, 3}) {
      ASSERT_TRUE(
          db().ExtendLifetime(twice, db().object(twice).last_tic() + more)
              .ok());
    }
    if (adds) AddObjectAt(T_.start, T_.end + round);
    if (round > 0) {
      const ObjectId late = static_cast<ObjectId>(seed_objects);
      ASSERT_TRUE(
          db().ExtendLifetime(late, db().object(late).last_tic() + 1).ok());
    }

    const DbSnapshot snapshot = db().Snapshot();
    auto spliced = UstTree::Splice(snapshot, *base);
    auto rebuilt = UstTree::Build(snapshot);
    ASSERT_TRUE(spliced.ok());
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(spliced.value().built_version(), snapshot.version());
    EXPECT_EQ(spliced.value().built_version(),
              rebuilt.value().built_version());
    // Field by field, the MBR by its bits (SegmentEntry has padding, so no
    // memcmp of the array).
    const auto& a = spliced.value().entries();
    const auto& b = rebuilt.value().entries();
    ASSERT_EQ(a.size(), b.size()) << "round " << round;
    for (size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "round " << round << " entry " << i);
      EXPECT_EQ(a[i].object, b[i].object);
      EXPECT_EQ(a[i].t_lo, b[i].t_lo);
      EXPECT_EQ(a[i].t_hi, b[i].t_hi);
      for (int axis = 0; axis < 2; ++axis) {
        EXPECT_EQ(Bits(a[i].mbr.lo[axis]), Bits(b[i].mbr.lo[axis]));
        EXPECT_EQ(Bits(a[i].mbr.hi[axis]), Bits(b[i].mbr.hi[axis]));
      }
    }
    db().PublishIndex(std::make_shared<const UstTree>(spliced.MoveValue()));
    base = db().Snapshot().base_index().get();
    ASSERT_EQ(base->built_version(), snapshot.version());
  }
}

}  // namespace
}  // namespace ust

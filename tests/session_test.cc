// Tests of the plan-based batched pipeline (query/session.h): RunAll
// results bit-identical to per-spec Run calls at any thread count, planner
// backend selection with the per-spec override and its runtime fallback,
// scratch reuse without cross-query state leaks, parallel posterior
// adaptation, and the packed NnTable probability reductions.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "test_world.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ust {
namespace {

using testing::MakeFigure1World;

bool SamePnn(const PnnQueryResult& a, const PnnQueryResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].object != b.results[i].object) return false;
    if (a.results[i].prob != b.results[i].prob) return false;  // bitwise
  }
  return a.num_candidates == b.num_candidates &&
         a.num_influencers == b.num_influencers;
}

bool SamePcnn(const PcnnQueryResult& a, const PcnnQueryResult& b) {
  if (a.pcnn.entries.size() != b.pcnn.entries.size()) return false;
  for (size_t i = 0; i < a.pcnn.entries.size(); ++i) {
    const PcnnEntry& x = a.pcnn.entries[i];
    const PcnnEntry& y = b.pcnn.entries[i];
    if (x.object != y.object || x.tics != y.tics || x.prob != y.prob) {
      return false;
    }
  }
  return a.pcnn.validations == b.pcnn.validations &&
         a.pcnn.candidates_generated == b.pcnn.candidates_generated;
}

class SessionTest : public ::testing::Test {
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
  }

  /// A mixed batch over several query points, intervals and semantics, all
  /// pinned to the Monte-Carlo backend.
  std::vector<QuerySpec> MakeBatch(size_t n) const {
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
      spec.mc.num_worlds = 500 + 100 * (i % 2);
      spec.mc.seed = 21 + i;
      spec.backend = ExecutorKind::kMonteCarlo;
      specs.push_back(spec);
    }
    return specs;
  }

  std::unique_ptr<SyntheticWorld> world_;
  std::unique_ptr<UstTree> index_;
  TimeInterval T_{0, 0};
};

TEST_F(SessionTest, RunAllBitIdenticalToPerSpecRunAtAnyThreadCount) {
  const std::vector<QuerySpec> specs = MakeBatch(9);
  // Reference: one throwaway single-threaded session per spec.
  std::vector<QueryOutcome> ref(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ref[i] = QuerySession(*world_->db, index_.get()).Run(specs[i]);
    ASSERT_TRUE(ref[i].status.ok()) << ref[i].status.ToString();
  }
  for (int threads : {1, 2, 4}) {
    SessionOptions options;
    options.threads = threads;
    QuerySession session(*world_->db, index_.get(), options);
    auto outcomes = session.RunAll(specs);
    ASSERT_EQ(outcomes.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(outcomes[i].status.ok())
          << "threads=" << threads << " query " << i << ": "
          << outcomes[i].status.ToString();
      EXPECT_EQ(outcomes[i].executor, ExecutorKind::kMonteCarlo);
      if (specs[i].kind == QueryKind::kContinuous) {
        EXPECT_TRUE(SamePcnn(outcomes[i].pcnn, ref[i].pcnn))
            << "threads=" << threads << " query " << i;
      } else {
        EXPECT_TRUE(SamePnn(outcomes[i].pnn, ref[i].pnn))
            << "threads=" << threads << " query " << i;
      }
    }
  }
}

TEST_F(SessionTest, LoneQueryShardsWorldsWithoutChangingBits) {
  // A single spec routes through per-query world sharding instead of
  // cross-query sharding; the bits must not notice.
  QuerySpec spec = MakeBatch(1)[0];
  spec.mc.num_worlds = 2048;  // several 512-world chunks to shard
  SessionOptions serial_opts;
  QuerySession serial(*world_->db, index_.get(), serial_opts);
  QueryOutcome ref = serial.Run(spec);
  ASSERT_TRUE(ref.status.ok());
  for (int threads : {2, 4}) {
    SessionOptions options;
    options.threads = threads;
    QuerySession session(*world_->db, index_.get(), options);
    auto outcomes = session.RunAll({spec});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].status.ok());
    EXPECT_TRUE(SamePnn(outcomes[0].pnn, ref.pnn)) << "threads=" << threads;
  }
}

TEST_F(SessionTest, PlannerPicksExactForTinyCandidateSets) {
  auto fig = MakeFigure1World();
  QuerySession session(*fig.db, nullptr);
  QuerySpec spec;
  spec.kind = QueryKind::kForall;
  spec.q = fig.q;
  spec.T = fig.T;
  spec.tau = 0.0;
  QueryOutcome out = session.Run(spec);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.executor, ExecutorKind::kExact);
  // Enumeration reproduces the paper's ground truth exactly.
  double o1_prob = -1.0;
  for (const auto& r : out.pnn.results) {
    if (r.object == fig.o1) o1_prob = r.prob;
  }
  EXPECT_DOUBLE_EQ(o1_prob, 0.75);
}

TEST_F(SessionTest, PlannerPicksMonteCarloForLargeCandidateSets) {
  QuerySpec spec = MakeBatch(1)[0];
  spec.kind = QueryKind::kForall;
  spec.backend = ExecutorKind::kAuto;
  QuerySession session(*world_->db, index_.get());
  QueryOutcome out = session.Run(spec);
  ASSERT_TRUE(out.status.ok());
  ASSERT_GT(out.pnn.num_candidates, 3u);  // filter output is not tiny
  EXPECT_EQ(out.executor, ExecutorKind::kMonteCarlo);
}

TEST_F(SessionTest, PerQueryOverrideBeatsThePlanner) {
  auto fig = MakeFigure1World();
  QuerySession session(*fig.db, nullptr);
  QuerySpec spec;
  spec.kind = QueryKind::kForall;
  spec.q = fig.q;
  spec.T = fig.T;
  spec.tau = 0.0;
  spec.mc.num_worlds = 4000;
  spec.backend = ExecutorKind::kMonteCarlo;  // tiny set, but MC is forced
  QueryOutcome out = session.Run(spec);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.executor, ExecutorKind::kMonteCarlo);
}

TEST_F(SessionTest, PerSpecForceAndMarkovBackend) {
  auto fig = MakeFigure1World();
  QuerySession session(*fig.db, nullptr);
  QuerySpec spec;
  spec.kind = QueryKind::kForall;
  spec.q = fig.q;
  spec.T = fig.T;
  spec.tau = 0.0;
  spec.backend = ExecutorKind::kMarkovApprox;
  QueryOutcome out = session.Run(spec);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.executor, ExecutorKind::kMarkovApprox);
  // With one competitor the approximation is exact (it is just Lemma 2).
  double o1_prob = -1.0;
  for (const auto& r : out.pnn.results) {
    if (r.object == fig.o1) o1_prob = r.prob;
  }
  EXPECT_NEAR(o1_prob, 0.75, 1e-12);
  // An explicitly forced backend that cannot honor the semantics is an
  // error, not a silent fallback.
  QuerySpec exists = spec;
  exists.kind = QueryKind::kExists;
  QueryOutcome bad = session.Run(exists);
  EXPECT_FALSE(bad.status.ok());
  // Continuous queries only run on the Monte-Carlo table; forcing another
  // backend is the same contract violation.
  QuerySpec continuous = spec;
  continuous.kind = QueryKind::kContinuous;
  continuous.backend = ExecutorKind::kExact;
  QueryOutcome bad_pcnn = session.Run(continuous);
  EXPECT_FALSE(bad_pcnn.status.ok());
}

TEST_F(SessionTest, BatchSurvivesUnrelatedContradictoryObject) {
  // A database object whose observations contradict its model breaks
  // Prepare(), but queries that never touch it must still succeed — RunAll
  // degrades to the lazy serial path instead of failing the batch.
  auto line = testing::MakeLineWorld(12);  // ±1 step per tic
  TrajectoryDatabase db(line.space);
  auto good_obs = ObservationSeq::Create({{0, 2}, {4, 4}});
  ASSERT_TRUE(good_obs.ok());
  db.AddObject(good_obs.MoveValue(), line.matrix, /*end_tic=*/6);
  // Unreachable: state 2 -> state 9 in one tic. Alive window [50, 51] keeps
  // it out of every query below.
  auto bad_obs = ObservationSeq::Create({{50, 2}, {51, 9}});
  ASSERT_TRUE(bad_obs.ok());
  db.AddObject(bad_obs.MoveValue(), line.matrix, /*end_tic=*/51);
  ASSERT_FALSE(db.EnsureAllPosteriors().ok());

  std::vector<QuerySpec> specs(2);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].kind = QueryKind::kForall;
    specs[i].q = QueryTrajectory::FromPoint({static_cast<double>(i), 0.0});
    specs[i].T = TimeInterval{1, 4};
    specs[i].mc.num_worlds = 200;
    specs[i].backend = ExecutorKind::kMonteCarlo;
  }
  SessionOptions serial_opts;
  QuerySession serial(db, nullptr, serial_opts);
  auto ref = serial.RunAll(specs);
  SessionOptions par_opts;
  par_opts.threads = 2;
  QuerySession parallel(db, nullptr, par_opts);
  auto got = parallel.RunAll(specs);
  ASSERT_EQ(got.size(), ref.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(ref[i].status.ok()) << ref[i].status.ToString();
    ASSERT_TRUE(got[i].status.ok()) << got[i].status.ToString();
    EXPECT_TRUE(SamePnn(got[i].pnn, ref[i].pnn)) << i;
  }
}

TEST_F(SessionTest, PlannerMisfireFallsBackToMonteCarlo) {
  // Three objects over four tics: within every enumeration threshold, so
  // the planner picks enumeration, but their possible worlds' cross product
  // exceeds the enumeration cap. The cap trips at runtime and the query
  // degrades to sampling.
  SyntheticConfig config;
  config.num_states = 200;
  config.num_objects = 3;
  config.lifetime = 8;
  config.obs_interval = 4;
  config.horizon = 8;
  config.seed = 17;
  auto tiny = GenerateSyntheticWorld(config);
  ASSERT_TRUE(tiny.ok());
  QuerySession session(*tiny.value().db, nullptr);
  Rng rng(2);
  QuerySpec spec;
  spec.kind = QueryKind::kForall;
  spec.q = RandomQueryState(*tiny.value().space, rng);
  spec.T = TimeInterval{2, 5};
  spec.mc.num_worlds = 500;
  ASSERT_LE(spec.T.length(), kExactMaxInterval);
  QueryOutcome out = session.Run(spec);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  ASSERT_LE(out.pnn.num_candidates, kExactMaxCandidates);
  ASSERT_LE(out.pnn.num_influencers, kExactMaxParticipants);
  EXPECT_EQ(out.executor, ExecutorKind::kMonteCarlo);
  // Forcing enumeration is a user decision: the cap is an error, not a
  // silent switch to sampling.
  spec.backend = ExecutorKind::kExact;
  QueryOutcome forced = session.Run(spec);
  EXPECT_EQ(forced.status.code(), StatusCode::kResourceLimit)
      << forced.status.ToString();
}

TEST_F(SessionTest, ScratchReuseDoesNotLeakStateAcrossQueries) {
  std::vector<QuerySpec> specs = MakeBatch(6);
  // Fresh session per query vs one session running interleaved repeats:
  // identical bits prove the per-worker scratch resets between queries.
  QuerySession shared(*world_->db, index_.get());
  std::vector<QueryOutcome> first, second;
  for (const QuerySpec& s : specs) first.push_back(shared.Run(s));
  for (const QuerySpec& s : specs) second.push_back(shared.Run(s));
  for (size_t i = 0; i < specs.size(); ++i) {
    QuerySession fresh(*world_->db, index_.get());
    QueryOutcome ref = fresh.Run(specs[i]);
    ASSERT_TRUE(ref.status.ok());
    for (const auto* got : {&first[i], &second[i]}) {
      ASSERT_TRUE(got->status.ok());
      if (specs[i].kind == QueryKind::kContinuous) {
        EXPECT_TRUE(SamePcnn(got->pcnn, ref.pcnn)) << i;
      } else {
        EXPECT_TRUE(SamePnn(got->pnn, ref.pnn)) << i;
      }
    }
  }
}

TEST_F(SessionTest, ParallelEnsureAllPosteriorsMatchesSerial) {
  // Two identical databases; adapt one serially, one on a pool. The cached
  // posteriors must agree distribution-for-distribution.
  SyntheticConfig config;
  config.num_states = 400;
  config.num_objects = 12;
  config.lifetime = 20;
  config.obs_interval = 5;
  config.horizon = 30;
  config.seed = 99;
  auto w1 = GenerateSyntheticWorld(config);
  auto w2 = GenerateSyntheticWorld(config);
  ASSERT_TRUE(w1.ok() && w2.ok());
  const TrajectoryDatabase& a = *w1.value().db;
  const TrajectoryDatabase& b = *w2.value().db;
  ASSERT_TRUE(a.EnsureAllPosteriors().ok());
  ThreadPool pool(4);
  ASSERT_TRUE(b.EnsureAllPosteriors(&pool).ok());
  for (ObjectId id = 0; id < a.size(); ++id) {
    auto pa = a.object(id).Posterior();
    auto pb = b.object(id).Posterior();
    ASSERT_TRUE(pa.ok() && pb.ok());
    ASSERT_EQ(pa.value()->first_tic(), pb.value()->first_tic());
    ASSERT_EQ(pa.value()->num_slices(), pb.value()->num_slices());
    for (Tic t = pa.value()->first_tic(); t <= pa.value()->last_tic(); ++t) {
      const auto& sa = pa.value()->SliceAt(t);
      const auto& sb = pb.value()->SliceAt(t);
      ASSERT_EQ(sa.support, sb.support);
      ASSERT_EQ(sa.marginal, sb.marginal);  // bitwise: same op order
      ASSERT_EQ(sa.targets, sb.targets);
      ASSERT_EQ(sa.tprobs, sb.tprobs);
    }
  }
}

TEST_F(SessionTest, PackedNnTableMatchesPerBitProbes) {
  // The word-wide AND/OR reductions must agree with brute-force IsNn scans.
  auto ids = world_->db->AliveSometime(T_.start, T_.end);
  ASSERT_GT(ids.size(), 2u);
  Rng rng(11);
  QueryTrajectory q = RandomQueryState(*world_->space, rng);
  MonteCarloOptions options;
  options.num_worlds = 777;  // deliberately not a multiple of 64
  auto table = ComputeNnTable(*world_->db, ids, q, T_, options);
  ASSERT_TRUE(table.ok());
  const NnTable& t = table.value();
  const std::vector<Tic> all = T_.Tics();
  const std::vector<Tic> subset = {T_.start, static_cast<Tic>(T_.start + 2)};
  for (size_t idx = 0; idx < ids.size(); ++idx) {
    size_t forall_all = 0, exists_all = 0, forall_sub = 0, exists_sub = 0;
    std::vector<size_t> single(T_.length(), 0);
    for (size_t w = 0; w < options.num_worlds; ++w) {
      bool all_all = true, any_all = false, all_sub = true, any_sub = false;
      for (Tic tic = T_.start; tic <= T_.end; ++tic) {
        const bool nn = t.IsNn(idx, w, tic);
        all_all &= nn;
        any_all |= nn;
        single[static_cast<size_t>(tic - T_.start)] += nn ? 1 : 0;
        if (tic == subset[0] || tic == subset[1]) {
          all_sub &= nn;
          any_sub |= nn;
        }
      }
      forall_all += all_all;
      exists_all += any_all;
      forall_sub += all_sub;
      exists_sub += any_sub;
    }
    const double W = static_cast<double>(options.num_worlds);
    EXPECT_DOUBLE_EQ(t.ForallProb(idx), forall_all / W);
    EXPECT_DOUBLE_EQ(t.ExistsProb(idx), exists_all / W);
    EXPECT_DOUBLE_EQ(t.ForallProb(idx, all), forall_all / W);
    EXPECT_DOUBLE_EQ(t.ExistsProb(idx, all), exists_all / W);
    EXPECT_DOUBLE_EQ(t.ForallProb(idx, subset), forall_sub / W);
    EXPECT_DOUBLE_EQ(t.ExistsProb(idx, subset), exists_sub / W);
    for (Tic tic = T_.start; tic <= T_.end; ++tic) {
      EXPECT_DOUBLE_EQ(t.ProbAt(idx, tic),
                       single[static_cast<size_t>(tic - T_.start)] / W);
    }
  }
}

TEST_F(SessionTest, FailureIsolationInBatches) {
  // One bad query (a forced backend that cannot honor its semantics) must
  // not poison its batchmates.
  std::vector<QuerySpec> specs = MakeBatch(3);
  specs[1].kind = QueryKind::kExists;
  specs[1].backend = ExecutorKind::kMarkovApprox;  // P∀NN-only backend
  QuerySession session(*world_->db, index_.get());
  auto outcomes = session.RunAll(specs);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_FALSE(outcomes[1].status.ok());
  EXPECT_TRUE(outcomes[2].status.ok());
}

TEST_F(SessionTest, InvalidSpecsFailBeforePruningWithOrWithoutIndex) {
  // A malformed spec resolves to InvalidArgument with the sampler's own
  // message before pruning, so the index (which sizes per-tic arrays by T
  // and reads q at every tic of it) never sees it, and the status is the
  // same whether or not the session has an index.
  const Point2 p = world_->space->coord(0);
  const QueryTrajectory point = QueryTrajectory::FromPoint(p);
  struct Case {
    const char* name;
    TimeInterval T;
    int k;
    QueryTrajectory q;
    const char* message;
    size_t num_worlds = 200;
    double tau = 0.1;
    PrecisionTarget precision = {};
  };
  // Hostile precision fields: a NaN is false under every comparison, so
  // each must be rejected by a range check, not slip past a limit check
  // (a NaN delta used to abort the process in the stop rule).
  // num_worlds * 3 wraps to 2: a column over a 3-tic window used to be
  // sized 2 and overrun by its batch walk.
  const size_t kWrappingWorlds = 6148914691236517206u;
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<Point2> moving(T_.length(), p);
  moving[moving.size() / 2] = {kNaN, p.y};
  const QueryTrajectory nan_at_one_tic =
      QueryTrajectory::FromPoints(T_.start, moving);
  const PrecisionMode kEps = PrecisionMode::kEpsilon;
  const PrecisionMode kThr = PrecisionMode::kThreshold;
  struct PrecisionCase {
    const char* name;
    double tau;
    PrecisionTarget precision;
    const char* message;
  };
  const std::vector<PrecisionCase> precision_cases = {
      {"NaN tau", kNaN, {}, "tau must be finite"},
      {"infinite tau", kInf, {}, "tau must be finite"},
      {"NaN tau, threshold", kNaN, {kThr, 0.01, 0.05}, "tau must be finite"},
      {"NaN delta, epsilon", 0.1, {kEps, 0.01, kNaN}, "delta out of range"},
      {"NaN delta, threshold", 0.1, {kThr, 0.01, kNaN}, "delta out of range"},
      {"delta = 1, epsilon", 0.1, {kEps, 0.01, 1.0}, "delta out of range"},
      {"NaN epsilon", 0.1, {kEps, kNaN, 0.05}, "epsilon must be positive"},
      {"zero epsilon", 0.1, {kEps, 0.0, 0.05}, "epsilon must be positive"},
      {"tau above 1, threshold", 1.5, {kThr, 0.01, 0.05},
       "tau out of [0, 1]"},
  };
  std::vector<Case> cases = {
      {"inverted interval", {10, 5}, 1, point, "empty query interval"},
      {"interval ending before it starts", {10, 9}, 1, point,
       "empty query interval"},
      {"k = 0", T_, 0, point, "k must be >= 1"},
      {"k = -1", T_, -1, point, "k must be >= 1"},
      {"q starts after T", T_, 1,
       QueryTrajectory::FromPoints(T_.start + 1,
                                   std::vector<Point2>(T_.length(), p)),
       "query trajectory does not cover the query interval"},
      {"q ends before T", T_, 1, QueryTrajectory::FromPoints(T_.start, {p}),
       "query trajectory does not cover the query interval"},
      {"zero worlds", T_, 1, point, "num_worlds must be positive", 0},
      {"worlds past the cap", T_, 1, point, "num_worlds exceeds 2^24",
       kMaxWorlds + 1},
      {"worlds wrapping a column's size", T_, 1, point,
       "num_worlds exceeds 2^24", kWrappingWorlds},
      // Non-finite squared distances: +inf to every object made each one a
      // P∀NN result without an index (inf <= inf) and pruned all with one.
      {"infinite query position", T_, 1, QueryTrajectory::FromPoint({kInf, 0}),
       "query position is not finite"},
      {"query position whose squared distances overflow", T_, 1,
       QueryTrajectory::FromPoint({1e308, -1e308}),
       "query position too far from the state space"},
      {"NaN query position", T_, 1, QueryTrajectory::FromPoint({kNaN, kNaN}),
       "query position is not finite"},
      {"NaN at one tic of a moving q", T_, 1, nan_at_one_tic,
       "query position is not finite"},
  };
  for (const PrecisionCase& c : precision_cases) {
    cases.push_back({c.name, T_, 1, point, c.message, 200, c.tau,
                     c.precision});
  }
  const auto check = [](const TrajectoryDatabase& db, const UstTree* index,
                        const QuerySpec& spec, const std::string& what,
                        const char* message, int arena_min_uses = 2) {
    std::string statuses[2];
    for (bool with_index : {false, true}) {
      SessionOptions options;
      options.arena_min_uses = arena_min_uses;
      QuerySession session(db, with_index ? index : nullptr, options);
      const QueryOutcome out = session.Run(spec);
      EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument)
          << what << " index=" << with_index << ": " << out.status.ToString();
      EXPECT_EQ(out.status.message(), message)
          << what << " index=" << with_index;
      statuses[with_index] = out.status.ToString();
    }
    EXPECT_EQ(statuses[0], statuses[1]) << what;
  };
  const std::pair<QueryKind, const char*> kinds[] = {
      {QueryKind::kForall, "forall"},
      {QueryKind::kExists, "exists"},
      {QueryKind::kContinuous, "pcnn"}};
  for (const auto& [kind, kind_name] : kinds) {
    for (const Case& c : cases) {
      QuerySpec spec;
      spec.kind = kind;
      spec.q = c.q;
      spec.T = c.T;
      spec.tau = c.tau;
      spec.precision = c.precision;
      spec.mc.k = c.k;
      spec.mc.num_worlds = c.num_worlds;
      check(*world_->db, index_.get(), spec,
            std::string(kind_name) + " / " + c.name, c.message);
    }
  }
  // On the Figure 1 world the planner routes P∀/P∃NN to enumeration, whose
  // kernel requires k >= 1 and never reads num_worlds.
  auto fig = MakeFigure1World();
  auto fig_index = UstTree::Build(*fig.db);
  ASSERT_TRUE(fig_index.ok());
  for (const auto& [kind, kind_name] : kinds) {
    for (int k : {0, -1}) {
      QuerySpec spec;
      spec.kind = kind;
      spec.q = fig.q;
      spec.T = fig.T;
      spec.mc.k = k;
      check(*fig.db, &fig_index.value(), spec,
            std::string("figure 1 / ") + kind_name + " / k=" + std::to_string(k),
            "k must be >= 1");
    }
    QuerySpec spec;
    spec.kind = kind;
    spec.q = fig.q;
    spec.T = fig.T;
    spec.mc.num_worlds = 0;
    check(*fig.db, &fig_index.value(), spec,
          std::string("figure 1 / ") + kind_name + " / zero worlds",
          "num_worlds must be positive");
    // Forced Monte-Carlo with columns from the first use: the column build
    // is where num_worlds * |window| wrapped.
    for (size_t worlds : {kMaxWorlds + 1, kWrappingWorlds}) {
      QuerySpec huge = spec;
      huge.mc.num_worlds = worlds;
      huge.backend = ExecutorKind::kMonteCarlo;
      check(*fig.db, &fig_index.value(), huge,
            std::string("figure 1 / ") + kind_name + " / " +
                std::to_string(worlds) + " worlds",
            "num_worlds exceeds 2^24", /*arena_min_uses=*/1);
    }
    // Forced Monte-Carlo at 2 048 worlds: past the first 512-world chunk,
    // where the stop rule would read the precision fields.
    for (const PrecisionCase& c : precision_cases) {
      QuerySpec forced;
      forced.kind = kind;
      forced.q = fig.q;
      forced.T = fig.T;
      forced.tau = c.tau;
      forced.precision = c.precision;
      forced.mc.num_worlds = 2048;
      forced.backend = ExecutorKind::kMonteCarlo;
      check(*fig.db, &fig_index.value(), forced,
            std::string("figure 1 / ") + kind_name + " / " + c.name,
            c.message);
    }
  }
}

}  // namespace
}  // namespace ust

#include <gtest/gtest.h>

#include <limits>

#include "query/adaptive.h"
#include "test_world.h"
#include "util/stats.h"

namespace ust {
namespace {

using testing::Figure1World;
using testing::MakeFigure1World;

TEST(WilsonIntervalTest, CoversPointEstimate) {
  Interval ci = WilsonInterval(500, 1000, 0.05);
  EXPECT_LT(ci.lo, 0.5);
  EXPECT_GT(ci.hi, 0.5);
  EXPECT_NEAR(ci.hi - ci.lo, 2 * 1.96 * std::sqrt(0.25 / 1000.0), 0.002);
}

TEST(WilsonIntervalTest, EdgeCounts) {
  Interval zero = WilsonInterval(0, 100, 0.05);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_LT(zero.hi, 0.1);
  Interval all = WilsonInterval(100, 100, 0.05);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  EXPECT_GT(all.lo, 0.9);
}

TEST(WilsonIntervalTest, ShrinksWithSamples) {
  Interval small = WilsonInterval(30, 100, 0.05);
  Interval big = WilsonInterval(3000, 10000, 0.05);
  EXPECT_LT(big.hi - big.lo, small.hi - small.lo);
}

TEST(WilsonIntervalTest, WidensWithConfidence) {
  Interval loose = WilsonInterval(50, 200, 0.2);
  Interval tight = WilsonInterval(50, 200, 0.001);
  EXPECT_LT(loose.hi - loose.lo, tight.hi - tight.lo);
}

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-5);
  EXPECT_NEAR(NormalQuantile(0.999), 3.090232, 1e-5);
  EXPECT_NEAR(NormalQuantile(1e-6), -4.753424, 1e-4);
}

// One serial EstimatePnnAdaptive call over the Figure 1 world (truth:
// P∀NN = {0.75, 0} and P∃NN = {1.0, 0.25} for {o1, o2}).
Result<AdaptivePnnResult> Adaptive(const Figure1World& world,
                                   const std::vector<ObjectId>& targets,
                                   PnnSemantics semantics, double tau,
                                   PrecisionMode mode, double epsilon,
                                   size_t cap, double delta = 0.05) {
  MonteCarloOptions mc;
  mc.num_worlds = cap;
  mc.seed = 11;
  PrecisionTarget precision{mode, epsilon, delta};
  return EstimatePnnAdaptive(*world.db, {world.o1, world.o2}, targets,
                             world.q, world.T, semantics, tau, mc, precision,
                             nullptr, nullptr);
}

TEST(AdaptiveEpsilonTest, StopsWithinAChunkOfHoeffdingTarget) {
  Figure1World world = MakeFigure1World();
  const size_t needed = HoeffdingSampleCount(0.02, 0.05);
  for (PnnSemantics semantics :
       {PnnSemantics::kForall, PnnSemantics::kExists}) {
    auto result = Adaptive(world, {world.o1, world.o2}, semantics, 0.0,
                           PrecisionMode::kEpsilon, 0.02, 1 << 20);
    ASSERT_TRUE(result.ok());
    // Hoeffding caps the stop at the a-priori count rounded up to one
    // 512-world chunk; the per-target Wilson check may stop earlier.
    EXPECT_LE(result.value().worlds_used, needed + WorldSampler::kWorldChunk);
    EXPECT_TRUE(result.value().early_stopped);
    // And the estimates are within the requested epsilon of the truth.
    const std::vector<PnnEstimate>& e = result.value().estimates;
    if (semantics == PnnSemantics::kForall) {
      EXPECT_NEAR(e[0].forall_prob, 0.75, 0.02);
      EXPECT_NEAR(e[1].forall_prob, 0.0, 0.02);
    } else {
      EXPECT_NEAR(e[0].exists_prob, 1.0, 0.02);
      EXPECT_NEAR(e[1].exists_prob, 0.25, 0.02);
    }
  }
}

TEST(AdaptiveEpsilonTest, NumWorldsCapRespected) {
  Figure1World world = MakeFigure1World();
  auto result = Adaptive(world, {world.o1}, PnnSemantics::kForall, 0.0,
                         PrecisionMode::kEpsilon, 0.001, 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().worlds_used, 1000u);  // a short final chunk
  EXPECT_FALSE(result.value().early_stopped);    // cap hit, target unmet
}

TEST(AdaptiveEpsilonTest, InvalidOptionsRejected) {
  Figure1World world = MakeFigure1World();
  const PnnSemantics kForall = PnnSemantics::kForall;
  const PrecisionMode kEps = PrecisionMode::kEpsilon;
  EXPECT_FALSE(Adaptive(world, {world.o1}, kForall, 0, kEps, 0.0, 100).ok());
  EXPECT_FALSE(
      Adaptive(world, {world.o1}, kForall, 0, kEps, 0.1, 100, 1.5).ok());
  EXPECT_FALSE(Adaptive(world, {world.o1}, kForall, 0, kEps, 0.1, 0).ok());
  // A fixed count is the stop rule that never fires: it runs to the cap.
  auto fixed =
      Adaptive(world, {world.o1}, kForall, 0, PrecisionMode::kFixedWorlds,
               0.1, 100);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(fixed.value().worlds_used, 100u);
  EXPECT_FALSE(fixed.value().early_stopped);
  EXPECT_FALSE(Adaptive(world, {world.o1}, kForall, 1.5,
                        PrecisionMode::kThreshold, 0.1, 100)
                   .ok());
  const ObjectId stranger = world.o2 + 1;  // not a participant
  EXPECT_FALSE(Adaptive(world, {stranger}, kForall, 0, kEps, 0.1, 100).ok());
  // NaN is false under every comparison: each check must be a range check.
  // A NaN delta used to reach the Hoeffding/Wilson bounds and abort; a NaN
  // epsilon used to stop at the first chunk; a NaN tau never decided.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const PrecisionMode kThr = PrecisionMode::kThreshold;
  for (const auto& result :
       {Adaptive(world, {world.o1}, kForall, 0, kEps, 0.1, 2048, kNaN),
        Adaptive(world, {world.o1}, kForall, 0.5, kThr, 0.1, 2048, kNaN),
        Adaptive(world, {world.o1}, kForall, 0, kEps, kNaN, 2048),
        Adaptive(world, {world.o1}, kForall, kNaN, kThr, 0.1, 2048)}) {
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AdaptiveThresholdTest, ClearCasesDecideEarly) {
  Figure1World world = MakeFigure1World();
  // tau = 0.5: P∀NN(o1) = 0.75 (clearly above), P∀NN(o2) = 0 (clearly below).
  auto result = Adaptive(world, {world.o1, world.o2}, PnnSemantics::kForall,
                         0.5, PrecisionMode::kThreshold, 0.01, 1 << 20);
  ASSERT_TRUE(result.ok());
  const auto& e = result.value().estimates;
  EXPECT_EQ(result.value().undecided, 0u);
  EXPECT_GE(e[0].forall_prob, 0.5);
  EXPECT_LT(e[1].forall_prob, 0.5);
  // Early stopping: far fewer worlds than the epsilon=0.01 Hoeffding count
  // (18445 at delta=0.05).
  EXPECT_LT(result.value().worlds_used, 5000u);
}

TEST(AdaptiveThresholdTest, BorderlineCaseFallsBackToEstimate) {
  Figure1World world = MakeFigure1World();
  // tau exactly at P∀NN(o1) = 0.75: the CI straddles tau forever.
  auto result = Adaptive(world, {world.o1}, PnnSemantics::kForall, 0.75,
                         PrecisionMode::kThreshold, 0.01, 4096);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().estimates[0].forall_prob, 0.75, 0.05);
  // Either undecided at the cap, or decided after scraping past tau — both
  // are valid outcomes at the boundary; undecided is the typical one.
  if (result.value().undecided > 0) {
    EXPECT_EQ(result.value().worlds_used, 4096u);
  }
}

TEST(AdaptiveThresholdTest, DecisionsMatchFigure1TruthUnderBothSemantics) {
  Figure1World world = MakeFigure1World();
  for (PnnSemantics semantics :
       {PnnSemantics::kForall, PnnSemantics::kExists}) {
    const bool forall = semantics == PnnSemantics::kForall;
    const double truth[2] = {forall ? 0.75 : 1.0, forall ? 0.0 : 0.25};
    for (double tau : {0.1, 0.4, 0.9}) {
      auto result = Adaptive(world, {world.o1, world.o2}, semantics, tau,
                             PrecisionMode::kThreshold, 0.01, 1 << 18);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result.value().undecided, 0u) << "tau=" << tau;
      // A decided target's estimate is frozen inside its Wilson interval,
      // so `p >= tau` reproduces the interval decision.
      for (size_t i = 0; i < 2; ++i) {
        const PnnEstimate& e = result.value().estimates[i];
        EXPECT_EQ((forall ? e.forall_prob : e.exists_prob) >= tau,
                  truth[i] >= tau)
            << "forall=" << forall << " tau=" << tau << " target " << i;
      }
    }
  }
}

}  // namespace
}  // namespace ust

#include <gtest/gtest.h>

#include <cmath>

#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace ust {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Contradiction("x").code(), StatusCode::kContradiction);
  EXPECT_EQ(Status::ResourceLimit("x").code(), StatusCode::kResourceLimit);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveValueTransfersOwnership) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = r.MoveValue();
  EXPECT_EQ(v.size(), 3u);
}

Status FailingHelper() { return Status::OutOfRange("nope"); }
Status PropagatingHelper() {
  UST_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(PropagatingHelper().code(), StatusCode::kOutOfRange);
}

Result<int> GiveFive() { return 5; }
Status UseAssignOrReturn(int* out) {
  UST_ASSIGN_OR_RETURN(*out, GiveFive());
  return Status::OK();
}

TEST(StatusTest, AssignOrReturnMacroAssigns) {
  int x = 0;
  ASSERT_TRUE(UseAssignOrReturn(&x).ok());
  EXPECT_EQ(x, 5);
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Uniform(), b.Uniform());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Uniform() == b.Uniform() ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(5);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 6000; ++i) ++counts[rng.UniformInt(6)];
  for (int c : counts) EXPECT_GT(c, 700);  // each ~1000 expected
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(6);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(7);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[3] / 20000.0, 0.6, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.Fork();
  // Child stream differs from the parent continuation.
  int equal = 0;
  for (int i = 0; i < 50; ++i) equal += parent.Uniform() == child.Uniform();
  EXPECT_LT(equal, 3);
}

// ----------------------------------------------------------------- Stats ---

TEST(StatsTest, HoeffdingSampleCountMatchesFormula) {
  // n >= ln(2/delta) / (2 eps^2); for eps=0.01, delta=0.05: ~18445.
  EXPECT_EQ(HoeffdingSampleCount(0.01, 0.05), 18445u);
  // Bigger tolerance needs fewer samples.
  EXPECT_LT(HoeffdingSampleCount(0.05, 0.05), HoeffdingSampleCount(0.01, 0.05));
}

TEST(StatsTest, HoeffdingEpsilonInvertsSampleCount) {
  size_t n = HoeffdingSampleCount(0.02, 0.1);
  double eps = HoeffdingEpsilon(n, 0.1);
  EXPECT_LE(eps, 0.02 + 1e-4);
  EXPECT_GE(eps, 0.015);
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(StdDev(xs), 2.138, 1e-3);  // unbiased (n-1)
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({1.0}), 0.0);
}

TEST(StatsTest, RmseAndSignedError) {
  std::vector<double> a = {1, 2, 3}, b = {1, 1, 5};
  EXPECT_NEAR(Rmse(a, b), std::sqrt((0.0 + 1.0 + 4.0) / 3.0), 1e-12);
  EXPECT_NEAR(MeanSignedError(a, b), (0.0 + 1.0 - 2.0) / 3.0, 1e-12);
}

TEST(StatsTest, PearsonCorrelation) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
  std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_EQ(PearsonCorrelation(a, flat), 0.0);
}

// ----------------------------------------------------------------- Flags ---

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--states=100", "--objects", "25", "--verbose"};
  Flags flags = Flags::Parse(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("states", 0), 100);
  EXPECT_EQ(flags.GetInt("objects", 0), 25);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", -1), -1);
}

TEST(FlagsTest, TypedGetters) {
  const char* argv[] = {"prog", "--tau=0.5", "--name=hello", "--flag=false"};
  Flags flags = Flags::Parse(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.GetDouble("tau", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "hello");
  EXPECT_FALSE(flags.GetBool("flag", true));
  EXPECT_TRUE(flags.Has("tau"));
  EXPECT_FALSE(flags.Has("other"));
}

TEST(FlagsDeathTest, MalformedNumbersExitNamingTheFlag) {
  // A value that does not parse in full, or overflows, is a usage error:
  // strtoll would read "1e4" as 1 and "abc" as 0 and run on silently.
  const char* argv[] = {"prog",           "--worlds=1e4",
                        "--objects=abc",  "--states=",
                        "--seed=99999999999999999999",
                        "--tau=0.5x",     "--seconds=1e999",
                        "--lanes=2",      "--delta=1e-3"};
  Flags flags = Flags::Parse(9, const_cast<char**>(argv));
  const auto exits = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(flags.GetInt("worlds", 0), exits,
              "invalid value for --worlds: '1e4'");
  EXPECT_EXIT(flags.GetInt("objects", 0), exits, "--objects: 'abc'");
  EXPECT_EXIT(flags.GetInt("states", 0), exits, "--states: ''");
  EXPECT_EXIT(flags.GetInt("seed", 0), exits, "--seed");
  EXPECT_EXIT(flags.GetDouble("tau", 0.0), exits, "--tau: '0.5x'");
  EXPECT_EXIT(flags.GetDouble("seconds", 0.0), exits, "--seconds");
  // Well-formed values still parse, in either getter's syntax.
  EXPECT_EQ(flags.GetInt("lanes", 0), 2);
  EXPECT_DOUBLE_EQ(flags.GetDouble("delta", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lanes", 0.0), 2.0);
}

// ------------------------------------------------------------------- Csv ---

TEST(CsvTest, PrintsHeaderAndRows) {
  CsvTable table({"a", "b"});
  table.AddRow({1.0, 2.5});
  table.AddRow({3.0, 4.0});
  std::ostringstream os;
  table.Print(os, "Title");
  EXPECT_EQ(os.str(), "# Title\na,b\n1,2.5\n3,4\n");
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(CsvTest, FormatDoubleTrimsIntegers) {
  EXPECT_EQ(FormatDouble(42.0), "42");
  EXPECT_EQ(FormatDouble(0.125), "0.125");
  EXPECT_EQ(FormatDouble(1e6), "1000000");
}

TEST(LatencyHistogramTest, EmptyAndSingleSample) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.Record(250.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 250.0);
  EXPECT_EQ(h.max(), 250.0);
  EXPECT_EQ(h.mean(), 250.0);
  // One sample: every quantile is clamped into [min, max] = {250}.
  EXPECT_EQ(h.Quantile(0.0), 250.0);
  EXPECT_EQ(h.Quantile(0.99), 250.0);
}

TEST(LatencyHistogramTest, QuantilesOfUniformSamples) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Log-scale buckets have ~19% relative resolution; quantiles must land in
  // the right neighborhood, monotonically.
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 120.0);
  EXPECT_NEAR(h.Quantile(0.99), 990.0, 120.0);
  EXPECT_LE(h.Quantile(0.1), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.9));
  EXPECT_LE(h.Quantile(0.9), h.Quantile(1.0));
  EXPECT_EQ(h.Quantile(1.0), 1000.0);
}

TEST(LatencyHistogramTest, ClampsGarbageAndMerges) {
  LatencyHistogram a;
  a.Record(-5.0);  // clamped to 0
  a.Record(std::numeric_limits<double>::quiet_NaN());  // clamped to 0
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
  LatencyHistogram b;
  b.Record(100.0);
  b.Record(200.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.max(), 200.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_NEAR(a.mean(), 75.0, 1e-9);
}

// ------------------------------------------------------------------ Simd ---

TEST(SimdTest, ForceRejectsUnsupportedLevels) {
  // Forcing scalar always works; forcing the detected level always works;
  // forcing anything above detection must fail and leave the table usable.
  EXPECT_TRUE(ForceSimdLevel(SimdLevel::kScalar));
  EXPECT_TRUE(ForceSimdLevel(DetectSimdLevel()));
  if (DetectSimdLevel() != SimdLevel::kAvx2) {
    EXPECT_FALSE(ForceSimdLevel(SimdLevel::kAvx2));
  }
  EXPECT_TRUE(ForceSimdLevel(DetectSimdLevel()));
}

TEST(SimdTest, KernelsBitwiseEqualAcrossLevels) {
  // Popcount sums are integers, so both levels must agree exactly — at 1 to
  // 3 rows and ragged word counts that exercise the vector/scalar seam.
  Rng rng(1234);
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 13u, 31u, 64u, 100u}) {
    std::vector<std::vector<uint64_t>> words(3, std::vector<uint64_t>(n));
    for (size_t i = 0; i < n; ++i) {
      words[0][i] = rng() | (rng() << 1);
      words[1][i] = rng() ^ (rng() >> 3);
      words[2][i] = rng() | rng();
    }
    const std::vector<const uint64_t*> rows = {
        words[0].data(), words[1].data(), words[2].data()};
    for (size_t num_rows = 1; num_rows <= rows.size(); ++num_rows) {
      ASSERT_TRUE(ForceSimdLevel(SimdLevel::kScalar));
      const uint64_t and_s = AndRowsPopcount(rows.data(), num_rows, n);
      const uint64_t or_s = OrRowsPopcount(rows.data(), num_rows, n);
      ASSERT_TRUE(ForceSimdLevel(DetectSimdLevel()));
      EXPECT_EQ(AndRowsPopcount(rows.data(), num_rows, n), and_s) << n;
      EXPECT_EQ(OrRowsPopcount(rows.data(), num_rows, n), or_s) << n;
    }
  }
}

TEST(SimdTest, RowReductionEdgeCases) {
  const std::vector<uint64_t> ones(4, ~uint64_t{0});
  const uint64_t* row = ones.data();
  // Zero rows: AND over nothing is all-ones (64 bits per word), OR is empty.
  EXPECT_EQ(AndRowsPopcount(nullptr, 0, 4), 256u);
  EXPECT_EQ(OrRowsPopcount(nullptr, 0, 4), 0u);
  EXPECT_EQ(AndRowsPopcount(&row, 1, 4), 256u);
  EXPECT_EQ(OrRowsPopcount(&row, 1, 4), 256u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  double t0 = timer.Seconds();
  EXPECT_GE(t0, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(timer.Seconds(), t0);
  timer.Reset();
  EXPECT_LT(timer.Millis(), 1000.0);
}

}  // namespace
}  // namespace ust

// Equivalence tests of the optimized sampling/propagation hot path against
// naive reference implementations:
//  * Propagate / GroupNormalize — bit-identical to an encounter-order
//    map-based reference (the workspace scatter-accumulate adds in the same
//    order, so even the floating-point rounding must agree).
//  * Alias samplers — chi-square agreement with the exact distribution.
//  * EstimatePnn — same seed => identical output, batched and world-at-a-time
//    sampling produce the same worlds, and estimates match enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "markov/alias_table.h"
#include "markov/propagate_workspace.h"
#include "markov/sparse_dist.h"
#include "markov/transition_matrix.h"
#include "model/adaptation.h"
#include "query/exact.h"
#include "query/monte_carlo.h"
#include "test_world.h"
#include "util/rng.h"

namespace ust {
namespace {

using testing::Figure1World;
using testing::MakeFigure1World;
using testing::MakeLineWorld;

// Reference propagation: scatter into a map, accumulating duplicate targets
// in encounter order (the same addition order as the dense workspace).
SparseDist ReferencePropagate(const TransitionMatrix& m, const SparseDist& d) {
  std::map<StateId, double> acc;
  for (size_t i = 0; i < d.size(); ++i) {
    const StateId from = d.ids()[i];
    const double p = d.probs()[i];
    for (const auto* e = m.begin(from); e != m.end(from); ++e) {
      auto [it, inserted] = acc.emplace(e->first, e->second * p);
      if (!inserted) it->second += e->second * p;
    }
  }
  std::vector<StateId> ids;
  std::vector<double> probs;
  for (const auto& [s, p] : acc) {
    ids.push_back(s);
    probs.push_back(p);
  }
  return SparseDist::FromSorted(std::move(ids), std::move(probs));
}

TEST(PropagateEquivalenceTest, PropagateBitIdenticalToReference) {
  auto world = MakeLineWorld(31, 0.27, 0.46);
  SparseDist dist = SparseDist::Indicator(15);
  PropagateWorkspace ws(31);
  for (int step = 0; step < 12; ++step) {
    SparseDist reference = ReferencePropagate(*world.matrix, dist);
    SparseDist optimized = world.matrix->Propagate(dist, &ws);
    ASSERT_EQ(optimized.size(), reference.size()) << "step " << step;
    for (size_t i = 0; i < optimized.size(); ++i) {
      EXPECT_EQ(optimized.ids()[i], reference.ids()[i]);
      // Bit-identical, not just close: same addition order by construction.
      EXPECT_EQ(optimized.probs()[i], reference.probs()[i])
          << "step " << step << " state " << optimized.ids()[i];
    }
    dist = optimized;
    dist.Normalize();
  }
}

TEST(PropagateEquivalenceTest, GroupNormalizeMatchesReference) {
  // Triples with shuffled keys and repeated members across keys.
  Rng rng(77);
  std::vector<StateId> keys;
  std::vector<uint32_t> members;
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(static_cast<StateId>(rng.UniformInt(40)));
    members.push_back(static_cast<uint32_t>(rng.UniformInt(17)));
    values.push_back(rng.Uniform() + 1e-3);
  }
  // Reference: group by key preserving encounter order within each group.
  std::map<StateId, std::vector<std::pair<uint32_t, double>>> groups;
  std::map<StateId, double> sums;
  for (size_t i = 0; i < keys.size(); ++i) {
    groups[keys[i]].push_back({members[i], values[i]});
    auto [it, inserted] = sums.emplace(keys[i], values[i]);
    if (!inserted) it->second += values[i];
  }

  PropagateWorkspace ws;
  std::vector<StateId> out_keys;
  std::vector<double> out_sums;
  std::vector<uint32_t> out_offsets;
  std::vector<uint32_t> out_members;
  std::vector<double> out_values;
  GroupNormalize(keys, members, values, &ws, &out_keys, &out_sums,
                 &out_offsets, &out_members, &out_values);

  ASSERT_EQ(out_keys.size(), groups.size());
  size_t row = 0;
  for (const auto& [key, entries] : groups) {
    EXPECT_EQ(out_keys[row], key);
    EXPECT_EQ(out_sums[row], sums[key]);  // bit-identical sums
    ASSERT_EQ(out_offsets[row + 1] - out_offsets[row], entries.size());
    for (size_t j = 0; j < entries.size(); ++j) {
      EXPECT_EQ(out_members[out_offsets[row] + j], entries[j].first);
      EXPECT_EQ(out_values[out_offsets[row] + j],
                entries[j].second / sums[key]);
    }
    ++row;
  }
}

// Chi-square statistic of observed counts vs expected probabilities.
double ChiSquare(const std::vector<size_t>& observed,
                 const std::vector<double>& probs, size_t n) {
  double chi2 = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    const double expected = probs[i] * static_cast<double>(n);
    const double diff = static_cast<double>(observed[i]) - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

TEST(PropagateEquivalenceTest, AliasTableChiSquare) {
  const std::vector<double> weights = {0.5, 1.0, 0.25, 3.0, 0.01, 1.24};
  double total = 0.0;
  for (double w : weights) total += w;
  AliasTable table;
  table.Build(weights);
  Rng rng(123);
  const size_t n = 200000;
  std::vector<size_t> counts(weights.size(), 0);
  for (size_t i = 0; i < n; ++i) ++counts[table.Sample(rng)];
  std::vector<double> probs;
  for (double w : weights) probs.push_back(w / total);
  // df = 5; the 0.999 quantile of chi2(5) is ~20.5.
  EXPECT_LT(ChiSquare(counts, probs, n), 20.5);
}

TEST(PropagateEquivalenceTest, PosteriorSamplerChiSquareAgainstMarginal) {
  auto world = MakeLineWorld(9, 0.25, 0.5);
  auto obs = ObservationSeq::Create({{0, 4}, {8, 4}});
  ASSERT_TRUE(obs.ok());
  auto model = AdaptTransitionMatrices(*world.matrix, obs.value());
  ASSERT_TRUE(model.ok());
  // The mid-window marginal has the widest support.
  const Tic probe = 4;
  SparseDist marginal = model.value().MarginalAt(probe);
  Rng rng(5);
  const size_t n = 200000;
  std::map<StateId, size_t> hist;
  for (size_t i = 0; i < n; ++i) ++hist[model.value().SampleAt(probe, rng)];
  std::vector<size_t> counts;
  std::vector<double> probs;
  for (size_t i = 0; i < marginal.size(); ++i) {
    counts.push_back(hist[marginal.ids()[i]]);
    probs.push_back(marginal.probs()[i]);
    hist.erase(marginal.ids()[i]);
  }
  EXPECT_TRUE(hist.empty()) << "sampled a state outside the support";
  // Generous 0.999-quantile bound for the support size at hand.
  EXPECT_LT(ChiSquare(counts, probs, n),
            static_cast<double>(counts.size()) * 6.0 + 16.0);
}

TEST(PropagateEquivalenceTest, ExtensionSkipsExplicitZeroProbabilityEdges) {
  // FromRows accepts explicit 0.0-probability entries; states reachable only
  // through such edges must be dropped from the extended support (they carry
  // no mass) without aborting or misaligning the remaining target indices.
  auto matrix = testing::MakeMatrix(
      3, {{{0, 0.5}, {1, 0.0}, {2, 0.5}}, {{1, 1.0}}, {{2, 1.0}}});
  auto obs = ObservationSeq::Create({{0, 0}});
  ASSERT_TRUE(obs.ok());
  auto model = AdaptTransitionMatrices(*matrix, obs.value(),
                                       /*extend_until=*/2);
  ASSERT_TRUE(model.ok());
  for (Tic t = 1; t <= 2; ++t) {
    SparseDist marginal = model.value().MarginalAt(t);
    EXPECT_DOUBLE_EQ(marginal.Prob(1), 0.0) << "t=" << t;
    EXPECT_NEAR(marginal.Mass(), 1.0, 1e-12) << "t=" << t;
  }
  EXPECT_DOUBLE_EQ(model.value().MarginalAt(2).Prob(2), 0.75);
  // Rows over the surviving support stay stochastic.
  for (Tic t = 0; t < 2; ++t) {
    const auto& slice = model.value().SliceAt(t);
    for (size_t i = 0; i < slice.support.size(); ++i) {
      double sum = 0.0;
      for (uint32_t e = slice.row_offsets[i]; e < slice.row_offsets[i + 1];
           ++e) {
        sum += slice.tprobs[e];
      }
      EXPECT_NEAR(sum, 1.0, 1e-12) << "t=" << t;
    }
  }
}

TEST(PropagateEquivalenceTest, EstimatePnnSameSeedIsDeterministic) {
  Figure1World w = MakeFigure1World();
  std::vector<ObjectId> all = {w.o1, w.o2};
  MonteCarloOptions options;
  options.num_worlds = 2000;
  options.seed = 99;
  auto a = EstimatePnn(*w.db, all, all, w.q, w.T, options);
  auto b = EstimatePnn(*w.db, all, all, w.q, w.T, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].forall_prob, b.value()[i].forall_prob);
    EXPECT_EQ(a.value()[i].exists_prob, b.value()[i].exists_prob);
  }
}

TEST(PropagateEquivalenceTest, BatchedWorldsMatchWorldAtATime) {
  // One batched fill and one-world-at-a-time fills from one cursor must
  // produce the *same* worlds (per-participant RNG streams are
  // chunk-independent).
  Figure1World w = MakeFigure1World();
  std::vector<ObjectId> all = {w.o1, w.o2};
  const size_t num_worlds = 700;  // exercises a partial trailing chunk
  const size_t stride = all.size() * w.T.length();

  auto sampler = WorldSampler::Create(*w.db, all, w.q, w.T, 1, 4242);
  ASSERT_TRUE(sampler.ok());
  WorldSampler::Scratch scratch;
  std::vector<Rng> batched_cursor = sampler.value().InitialRngs();
  std::vector<uint8_t> batched_bits(num_worlds * stride);
  sampler.value().FillWorlds(0, num_worlds, /*arena=*/nullptr,
                             &batched_cursor, batched_bits.data(), stride,
                             &scratch);

  std::vector<Rng> stepped_cursor = sampler.value().InitialRngs();
  std::vector<uint8_t> stepped_bits(num_worlds * stride);
  for (size_t world = 0; world < num_worlds; ++world) {
    sampler.value().FillWorlds(world, 1, /*arena=*/nullptr, &stepped_cursor,
                               stepped_bits.data() + world * stride, stride,
                               &scratch);
  }
  EXPECT_EQ(batched_bits, stepped_bits);
}

TEST(PropagateEquivalenceTest, EstimatePnnMatchesEnumeration) {
  Figure1World w = MakeFigure1World();
  std::vector<ObjectId> all = {w.o1, w.o2};
  auto exact = ExactPnnByEnumeration(*w.db, all, w.q, w.T, 1, 100000);
  ASSERT_TRUE(exact.ok());
  MonteCarloOptions options;
  options.num_worlds = 20000;
  options.seed = 7;
  auto mc = EstimatePnn(*w.db, all, all, w.q, w.T, options);
  ASSERT_TRUE(mc.ok());
  ASSERT_EQ(mc.value().size(), exact.value().size());
  for (size_t i = 0; i < mc.value().size(); ++i) {
    EXPECT_EQ(mc.value()[i].object, exact.value()[i].object);
    EXPECT_NEAR(mc.value()[i].forall_prob, exact.value()[i].forall_prob, 0.02);
    EXPECT_NEAR(mc.value()[i].exists_prob, exact.value()[i].exists_prob, 0.02);
  }
}

}  // namespace
}  // namespace ust

// Reproducible experiment pipeline: generate a world once, persist it to
// disk, reload it in an "analysis" phase, and answer a threshold query with
// the adaptive estimator in threshold mode — the workflow of a user running
// the paper's queries over a frozen dataset.
#include <cstdio>
#include <string>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "io/text_io.h"
#include "query/adaptive.h"
#include "util/stats.h"

using namespace ust;

int main() {
  const std::string dir = "/tmp";
  const std::string space_path = dir + "/ustq_demo_space.txt";
  const std::string matrix_path = dir + "/ustq_demo_matrix.txt";
  const std::string obs_path = dir + "/ustq_demo_observations.txt";

  // ---- Acquisition phase: build a world and freeze it to disk. -----------
  {
    SyntheticConfig config;
    config.num_states = 2000;
    config.num_objects = 30;
    config.lifetime = 40;
    config.obs_interval = 8;
    config.horizon = 60;
    config.seed = 4;
    auto world = GenerateSyntheticWorld(config);
    UST_CHECK(world.ok());
    UST_CHECK(SaveStateSpaceFile(*world.value().space, space_path).ok());
    UST_CHECK(
        SaveTransitionMatrixFile(*world.value().matrix, matrix_path).ok());
    UST_CHECK(SaveObservationsFile(*world.value().db, obs_path).ok());
    std::printf("frozen world: %zu states, %zu objects -> %s/ustq_demo_*\n",
                world.value().space->size(), world.value().db->size(),
                dir.c_str());
  }

  // ---- Analysis phase: reload and query. ---------------------------------
  auto space = LoadStateSpaceFile(space_path);
  auto matrix = LoadTransitionMatrixFile(matrix_path);
  UST_CHECK(space.ok() && matrix.ok());
  auto space_ptr = std::make_shared<const StateSpace>(space.MoveValue());
  auto matrix_ptr =
      std::make_shared<const TransitionMatrix>(matrix.MoveValue());
  auto db = LoadObservationsFile(obs_path, space_ptr, matrix_ptr);
  UST_CHECK(db.ok());

  TimeInterval T = BusiestInterval(db.value(), 8);
  Rng rng(12);
  QueryTrajectory q = RandomQueryState(*space_ptr, rng);
  std::vector<ObjectId> alive =
      db.value().AliveSometime(T.start, T.end);
  std::printf("query at (%.3f, %.3f), T = [%d, %d], %zu objects alive\n",
              q.At(T.start).x, q.At(T.start).y, T.start, T.end, alive.size());

  // "Which objects were the NN at some point with probability >= 0.3?"
  // Decided sequentially: clear cases stop after a few hundred worlds
  // instead of the ~18k a fixed Hoeffding sizing would dictate.
  const double tau = 0.3;
  MonteCarloOptions mc;
  mc.num_worlds = 1 << 20;  // cap only: the decision stops far earlier
  mc.seed = 99;
  PrecisionTarget precision;
  precision.mode = PrecisionMode::kThreshold;
  precision.delta = 0.05;
  auto decision = EstimatePnnAdaptive(
      db.value(), alive, alive, q, T, PnnSemantics::kExists, tau, mc,
      precision, /*pool=*/nullptr, /*scratch=*/nullptr);
  UST_CHECK(decision.ok());
  std::printf("sequential decision used %zu worlds (fixed sizing at "
              "eps=0.01: %zu), %zu object(s) undecided at the cap\n",
              decision.value().worlds_used, HoeffdingSampleCount(0.01, 0.05),
              decision.value().undecided);
  for (const PnnEstimate& e : decision.value().estimates) {
    if (e.exists_prob < tau) continue;
    std::printf("  object %3u qualifies: p ~ %.3f\n", e.object,
                e.exists_prob);
  }
  return 0;
}

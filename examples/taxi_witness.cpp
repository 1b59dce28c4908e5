// Taxi-witness search — the paper's running application.
//
// A bank robbery happened at a known location during a known time window.
// GPS-tracked taxis report their position only sporadically, so their
// whereabouts during the robbery are uncertain. We ask:
//   * P∃NNQ  — which taxis might have been the closest cab at SOME moment of
//              the robbery (potential partial witnesses)?
//   * P∀NNQ  — which taxi was plausibly closest during the WHOLE robbery
//              (a witness of the entire crime scene)?
//   * PCNNQ  — which sub-intervals does each taxi cover with high
//              probability (to synchronize multiple partial witnesses)?
#include <cstdio>

#include "gen/roadnet.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/pcnn.h"
#include "query/session.h"

using namespace ust;

int main() {
  // A city-like road network with taxis whose motion model was learned from
  // historical trips (T-Drive-style pipeline; see DESIGN.md).
  RoadnetConfig config;
  config.num_states = 3000;
  config.num_objects = 60;
  config.num_training_trips = 150;
  config.lifetime = 80;
  config.obs_interval = 8;
  config.horizon = 120;
  config.seed = 2024;
  auto world = GenerateRoadnetWorld(config);
  UST_CHECK(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  std::printf("city: %zu intersections, %zu taxis, observations every %d tics\n",
              db.space().size(), db.size(), config.obs_interval);

  // The bank: a fixed location. The robbery: 12 tics (2 minutes at 10 s/tic)
  // inside the busiest part of the database horizon.
  TimeInterval robbery = BusiestInterval(db, 12);
  Rng rng(7);
  QueryTrajectory bank = RandomQueryState(db.space(), rng);
  std::printf("robbery at (%.3f, %.3f) during tics [%d, %d]\n",
              bank.At(robbery.start).x, bank.At(robbery.start).y,
              robbery.start, robbery.end);

  // Index the taxi diamonds and query them through one session.
  auto index = UstTree::Build(db);
  UST_CHECK(index.ok());
  QuerySession session(db, &index.value());
  QuerySpec spec;
  spec.q = bank;
  spec.T = robbery;
  spec.mc.num_worlds = 2000;
  spec.backend = ExecutorKind::kMonteCarlo;

  spec.kind = QueryKind::kExists;
  spec.tau = 0.2;
  const QueryOutcome partial = session.Run(spec);
  UST_CHECK(partial.status.ok());
  std::printf("\npruning kept %zu candidates / %zu influencers out of %zu taxis\n",
              partial.pnn.num_candidates, partial.pnn.num_influencers,
              db.size());
  std::printf("potential witnesses (P-exists-NN >= 0.2):\n");
  for (const auto& r : partial.pnn.results) {
    std::printf("  taxi %3u  p = %.3f\n", r.object, r.prob);
  }

  spec.kind = QueryKind::kForall;
  spec.tau = 0.1;
  const QueryOutcome full = session.Run(spec);
  UST_CHECK(full.status.ok());
  std::printf("full-scene witnesses (P-forall-NN >= 0.1):\n");
  if (full.pnn.results.empty()) std::printf("  (none)\n");
  for (const auto& r : full.pnn.results) {
    std::printf("  taxi %3u  p = %.3f\n", r.object, r.prob);
  }

  spec.kind = QueryKind::kContinuous;
  spec.tau = 0.3;
  const QueryOutcome continuous = session.Run(spec);
  UST_CHECK(continuous.status.ok());
  auto maximal = FilterMaximal(continuous.pcnn.pcnn.entries);
  std::printf("witness schedule (maximal tic sets with P-forall-NN >= 0.3):\n");
  for (const auto& e : maximal) {
    std::printf("  taxi %3u covers {", e.object);
    for (size_t i = 0; i < e.tics.size(); ++i) {
      std::printf("%s%d", i ? "," : "", e.tics[i]);
    }
    std::printf("}  p = %.3f\n", e.prob);
  }
  return 0;
}

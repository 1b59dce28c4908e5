// Geo-social network: "who were my nearest friends during the concert?"
//
// Users of a geo-social network publish sparse check-ins. For a past event
// (a time interval and a venue), we retrieve the friends most likely to have
// been nearby — the paper's motivating GSN application — using the
// k-nearest-neighbor extension (Section 8): a friend qualifies when they
// were plausibly among the k closest users during the event.
#include <cstdio>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"

using namespace ust;

int main() {
  // A city modeled as a geometric network; users check in every ~15 tics.
  SyntheticConfig config;
  config.num_states = 5000;
  config.branching = 8.0;
  config.num_objects = 80;   // friends of the asking user
  config.lifetime = 90;
  config.obs_interval = 15;  // sparse check-ins
  config.lag = 0.6;          // people wander, not shortest-path robots
  config.horizon = 120;
  config.seed = 99;
  auto world = GenerateSyntheticWorld(config);
  UST_CHECK(world.ok());
  const TrajectoryDatabase& db = *world.value().db;

  // The concert: 10 tics at a fixed venue.
  TimeInterval concert = BusiestInterval(db, 10);
  Rng rng(3);
  QueryTrajectory venue = RandomQueryState(db.space(), rng);
  std::printf(
      "concert at (%.3f, %.3f), tics [%d, %d]; %zu friends with check-ins\n",
      venue.At(concert.start).x, venue.At(concert.start).y, concert.start,
      concert.end, db.size());

  auto index = UstTree::Build(db);
  UST_CHECK(index.ok());
  QuerySession session(db, &index.value());

  for (int k : {1, 3}) {
    QuerySpec spec;
    spec.q = venue;
    spec.T = concert;
    spec.mc.num_worlds = 2000;
    spec.mc.k = k;
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.kind = QueryKind::kExists;
    spec.tau = 0.3;
    const QueryOutcome sometime = session.Run(spec);
    UST_CHECK(sometime.status.ok());
    std::printf("\nfriends plausibly among the %d closest at some moment "
                "(P >= 0.3): %zu\n",
                k, sometime.pnn.results.size());
    for (const auto& r : sometime.pnn.results) {
      std::printf("  friend %3u  p = %.3f\n", r.object, r.prob);
    }
    spec.kind = QueryKind::kForall;
    spec.tau = 0.2;
    const QueryOutcome whole = session.Run(spec);
    UST_CHECK(whole.status.ok());
    std::printf("friends plausibly among the %d closest for the whole "
                "concert (P >= 0.2): %zu\n",
                k, whole.pnn.results.size());
    for (const auto& r : whole.pnn.results) {
      std::printf("  friend %3u  p = %.3f\n", r.object, r.prob);
    }
  }
  return 0;
}

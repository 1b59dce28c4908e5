// Figure 14: PCNN queries, varying the probability threshold tau.
// Paper series: CPU time of TS and SA, and the number of result timestamp
// sets, for tau in {0.1, 0.5, 0.9}.
// Expected shape: runtime and #timestamp sets explode as tau -> 0.1 (the
// candidate lattice grows exponentially), shrink towards tau = 0.9.
#include "bench_common.h"
#include "query/pcnn.h"

using namespace ust;
using namespace ust::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const size_t states = flags.GetInt("states", 20000);
  const size_t objects = flags.GetInt("objects", 500);
  const size_t samples = flags.GetInt("samples", 1000);
  const size_t queries = flags.GetInt("queries", 5);
  const size_t interval = flags.GetInt("interval", 10);

  PrintConfig("Figure 14: PCNN, varying the probability threshold tau", flags,
              "states=" + std::to_string(states) + " objects=" +
                  std::to_string(objects) + " samples=" +
                  std::to_string(samples));

  SyntheticConfig config;
  config.num_states = states;
  config.branching = 8.0;
  config.num_objects = objects;
  config.lifetime = 100;
  config.obs_interval = 10;
  config.horizon = 1000;
  config.seed = 7;
  auto world = GenerateSyntheticWorld(config);
  UST_CHECK(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  auto tree = UstTree::Build(db);
  UST_CHECK(tree.ok());

  db.InvalidatePosteriors();
  Timer ts_timer;
  UST_CHECK(db.EnsureAllPosteriors().ok());
  const double ts_seconds = ts_timer.Seconds();

  TimeInterval T = BusiestInterval(db, interval);
  CsvTable table({"tau", "ts_s", "sa_s", "timestamp_sets", "validations"});
  for (double tau : {0.1, 0.5, 0.9}) {
    Rng rng(47);
    MonteCarloOptions options;
    options.num_worlds = samples;
    double sa_seconds = 0, sets = 0, validations = 0;
    for (size_t i = 0; i < queries; ++i) {
      QueryTrajectory q = RandomQueryState(db.space(), rng);
      options.seed = 400 + i;
      Timer sa_timer;
      const QueryOutcome result = QuerySession(db, &tree.value())
          .Run(MonteCarloSpec(QueryKind::kContinuous, q, T, tau, options));
      sa_seconds += sa_timer.Seconds();
      UST_CHECK(result.status.ok());
      sets += static_cast<double>(result.pcnn.pcnn.entries.size());
      validations += static_cast<double>(result.pcnn.pcnn.validations);
    }
    table.AddRow({tau, ts_seconds, sa_seconds,
                  sets / static_cast<double>(queries),
                  validations / static_cast<double>(queries)});
  }
  table.Print(std::cout, "Figure 14 series");
  return 0;
}

// Figure 13: PCNN queries, varying the number of objects |D|.
// Paper series (left): CPU time of TS (model adaptation) and NNA (the
// Apriori + sampling evaluation); (right): number of (unprocessed) result
// timestamp sets. Paper: |D| in {1k, 10k, 20k}, tau = 0.5.
// Scaled default: {100, 500, 1000}.
// Expected shape: TS grows with |D|; #timestamp sets DECREASES with |D|
// (more pruners lower each candidate's probabilities).
#include "bench_common.h"
#include "query/pcnn.h"

using namespace ust;
using namespace ust::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const size_t states = flags.GetInt("states", 20000);
  const size_t samples = flags.GetInt("samples", 1000);
  const size_t queries = flags.GetInt("queries", 5);
  const size_t interval = flags.GetInt("interval", 10);
  const double tau = flags.GetDouble("tau", 0.5);
  std::vector<int64_t> sweep = {flags.GetInt("objects1", 100),
                                flags.GetInt("objects2", 500),
                                flags.GetInt("objects3", 1000)};

  PrintConfig("Figure 13: PCNN, varying the number of objects |D|", flags,
              "states=" + std::to_string(states) + " tau=" +
                  std::to_string(tau) + " samples=" + std::to_string(samples));
  CsvTable table({"objects", "ts_s", "nna_s", "timestamp_sets"});
  for (int64_t n : sweep) {
    SyntheticConfig config;
    config.num_states = states;
    config.branching = 8.0;
    config.num_objects = static_cast<size_t>(n);
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
    double ts_seconds = ts_timer.Seconds();

    Rng rng(46);
    TimeInterval T = BusiestInterval(db, interval);
    MonteCarloOptions options;
    options.num_worlds = samples;
    double nna_seconds = 0;
    double sets = 0;
    for (size_t i = 0; i < queries; ++i) {
      QueryTrajectory q = RandomQueryState(db.space(), rng);
      options.seed = 300 + i;
      Timer nna_timer;
      const QueryOutcome result = QuerySession(db, &tree.value())
          .Run(MonteCarloSpec(QueryKind::kContinuous, q, T, tau, options));
      nna_seconds += nna_timer.Seconds();
      UST_CHECK(result.status.ok());
      sets += static_cast<double>(result.pcnn.pcnn.entries.size());
    }
    table.AddRow({static_cast<double>(n), ts_seconds, nna_seconds,
                  sets / static_cast<double>(queries)});
  }
  table.Print(std::cout, "Figure 13 series");
  return 0;
}

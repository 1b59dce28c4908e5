// Ablation: what does the UST-tree pruning actually buy?
// Compares, per database size: query latency and the number of objects that
// enter the sampling phase, with the index versus the no-index fallback
// (every alive object participates). Also reports index build time.
#include "bench_common.h"

using namespace ust;
using namespace ust::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const size_t states = flags.GetInt("states", 20000);
  const size_t samples = flags.GetInt("samples", 1000);
  const size_t queries = flags.GetInt("queries", 5);
  const size_t interval = flags.GetInt("interval", 10);
  std::vector<int64_t> sweep = {flags.GetInt("objects1", 200),
                                flags.GetInt("objects2", 1000)};

  PrintConfig("Ablation: UST-tree pruning on vs off", flags,
              "states=" + std::to_string(states) +
                  " samples=" + std::to_string(samples));
  CsvTable table({"objects", "build_s", "query_indexed_s", "query_full_s",
                  "participants_indexed", "participants_full"});
  for (int64_t n : sweep) {
    SyntheticConfig config;
    config.num_states = states;
    config.num_objects = static_cast<size_t>(n);
    config.lifetime = 100;
    config.obs_interval = 10;
    config.horizon = 1000;
    config.seed = 7;
    auto world = GenerateSyntheticWorld(config);
    UST_CHECK(world.ok());
    const TrajectoryDatabase& db = *world.value().db;
    UST_CHECK(db.EnsureAllPosteriors().ok());

    Timer build_timer;
    auto tree = UstTree::Build(db);
    UST_CHECK(tree.ok());
    const double build_s = build_timer.Seconds();

    Rng rng(8);
    TimeInterval T = BusiestInterval(db, interval);
    MonteCarloOptions options;
    options.num_worlds = samples;
    double indexed_s = 0, full_s = 0, parts_indexed = 0, parts_full = 0;
    for (size_t i = 0; i < queries; ++i) {
      QueryTrajectory q = RandomQueryState(db.space(), rng);
      options.seed = 500 + i;
      const QuerySpec spec =
          MonteCarloSpec(QueryKind::kForall, q, T, 0.0, options);
      Timer t1;
      const QueryOutcome a = QuerySession(db, &tree.value()).Run(spec);
      indexed_s += t1.Seconds();
      UST_CHECK(a.status.ok());
      Timer t2;
      const QueryOutcome b = QuerySession(db).Run(spec);
      full_s += t2.Seconds();
      UST_CHECK(b.status.ok());
      parts_indexed += static_cast<double>(a.pnn.num_influencers);
      parts_full += static_cast<double>(b.pnn.num_influencers);
    }
    table.AddRow({static_cast<double>(n), build_s, indexed_s, full_s,
                  parts_indexed / queries, parts_full / queries});
  }
  table.Print(std::cout, "Pruning ablation");
  std::printf("# expected: indexed query time and participants orders of "
              "magnitude below the full scan\n");
  return 0;
}

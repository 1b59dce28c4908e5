// Ablation: how many sampled worlds do the estimators actually need?
//  (a) RMSE of fixed-size sampling against a high-accuracy reference, versus
//      the number of worlds — the empirical counterpart of the Hoeffding
//      bound the paper cites [29].
//  (b) Worlds consumed by the adaptive threshold decision (Wilson
//      intervals, EstimatePnnAdaptive in kThreshold mode) versus the
//      a-priori Hoeffding count — adaptive stopping decides clear cases
//      orders of magnitude earlier.
#include "bench_common.h"
#include "query/adaptive.h"
#include "util/stats.h"

using namespace ust;
using namespace ust::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const size_t states = flags.GetInt("states", 3000);
  const size_t objects = flags.GetInt("objects", 8);
  const size_t ref_worlds = flags.GetInt("ref_worlds", 200000);

  PrintConfig("Ablation: sample-count requirements", flags,
              "states=" + std::to_string(states) +
                  " objects=" + std::to_string(objects));

  SyntheticConfig config;
  config.num_states = states;
  config.num_objects = objects;
  config.lifetime = 20;
  config.obs_interval = 10;
  config.lag = 0.3;
  config.horizon = 20;
  config.seed = 21;
  auto world = GenerateSyntheticWorld(config);
  UST_CHECK(world.ok());
  const TrajectoryDatabase& db = *world.value().db;
  TimeInterval T{5, 12};
  std::vector<ObjectId> ids = db.AliveThroughout(T.start, T.end);
  UST_CHECK(ids.size() >= 2);
  Rng rng(5);

  // Scan for an informative query: one where some object's P∀NN is genuinely
  // uncertain (otherwise every estimator is trivially exact).
  QueryTrajectory q = RandomQueryState(db.space(), rng);
  Result<std::vector<PnnEstimate>> ref = Status::Internal("unset");
  for (int attempt = 0; attempt < 64; ++attempt) {
    QueryTrajectory candidate = RandomQueryState(db.space(), rng);
    MonteCarloOptions probe_opts;
    probe_opts.num_worlds = 2000;
    probe_opts.seed = 999;
    auto probe = EstimatePnn(db, ids, ids, candidate, T, probe_opts);
    UST_CHECK(probe.ok());
    bool informative = false;
    for (const auto& e : probe.value()) {
      if (e.forall_prob > 0.1 && e.forall_prob < 0.9) informative = true;
    }
    if (informative || attempt == 63) {
      q = candidate;
      MonteCarloOptions ref_opts;
      ref_opts.num_worlds = ref_worlds;
      ref_opts.seed = 999;
      ref = EstimatePnn(db, ids, ids, q, T, ref_opts);
      break;
    }
  }
  UST_CHECK(ref.ok());

  // (a) RMSE vs number of worlds, averaged over repetitions.
  CsvTable rmse_table({"worlds", "rmse_forall", "hoeffding_eps_99"});
  for (size_t worlds : {100u, 400u, 1600u, 6400u, 25600u}) {
    std::vector<double> est, truth;
    for (uint64_t rep = 0; rep < 5; ++rep) {
      MonteCarloOptions opts;
      opts.num_worlds = worlds;
      opts.seed = 1000 + rep;
      auto sa = EstimatePnn(db, ids, ids, q, T, opts);
      UST_CHECK(sa.ok());
      for (size_t i = 0; i < ids.size(); ++i) {
        est.push_back(sa.value()[i].forall_prob);
        truth.push_back(ref.value()[i].forall_prob);
      }
    }
    rmse_table.AddRow({static_cast<double>(worlds), Rmse(est, truth),
                       HoeffdingEpsilon(worlds, 0.01)});
  }
  rmse_table.Print(std::cout, "Sampling error vs world count");
  std::printf("# expected: RMSE ~ 1/sqrt(worlds), well below the Hoeffding "
              "worst case\n\n");

  // (b) Sequential decision cost vs the fixed Hoeffding sizing.
  CsvTable seq_table({"tau", "sequential_worlds", "hoeffding_worlds"});
  for (double tau : {0.1, 0.3, 0.5, 0.9}) {
    MonteCarloOptions mc;
    mc.num_worlds = 1 << 20;  // cap only: the decision stops far earlier
    mc.seed = 77;
    PrecisionTarget precision;
    precision.mode = PrecisionMode::kThreshold;
    precision.delta = 0.05;
    auto decision = EstimatePnnAdaptive(
        db, ids, ids, q, T, PnnSemantics::kForall, tau, mc, precision,
        /*pool=*/nullptr, /*scratch=*/nullptr);
    UST_CHECK(decision.ok());
    seq_table.AddRow({tau,
                      static_cast<double>(decision.value().worlds_used),
                      static_cast<double>(HoeffdingSampleCount(0.01, 0.05))});
  }
  seq_table.Print(std::cout, "Sequential threshold decisions");
  std::printf("# expected: sequential worlds far below the 18k Hoeffding "
              "sizing whenever probabilities are far from tau\n");
  return 0;
}

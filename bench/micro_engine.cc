// Query-throughput microbenchmark of the plan-based pipeline: the same
// 50-query P∀NNQ batch evaluated three ways —
//
//   single_shot : the pre-session pattern — every query constructs the full
//                 stack from scratch (posteriors invalidated, fresh
//                 QueryEngine), paying adaptation, sampler warm-up and
//                 scratch allocation per query;
//   warm_engine : one QueryEngine over a warm database — posterior caches
//                 amortize, but the session and sampling scratch are
//                 still rebuilt per call;
//   session     : QuerySession::Prepare + RunAll — shared immutable state,
//                 per-worker scratch, planner on.
//
// Emits BENCH_engine.json (queries/sec for each mode plus the speedups) so
// engine throughput is tracked machine-readably across PRs, like
// BENCH_sampling.json for the sampling hot path.
//
// --executor selects the refinement backend under measurement:
//   mc     — the three-mode Monte-Carlo comparison above;
//   markov — the chain-rule backend on its own scaled-down workload (cost
//            is ~quadratic in the participant count), one session.Run per
//            query so the per-target sharding over the session pool is the
//            path measured; emits qps_markov_approx;
//   exact  — possible-world enumeration on a tiny workload (enumeration is
//            only ever planned for tiny filter outputs), block-sharded over
//            the pool; emits qps_exact;
//   all    — (default) every backend, one tracked qps line each.
// The markov/exact phases also pin parallel-vs-serial bitwise equality:
// the threaded session must reproduce the 1-thread bytes exactly.
//
// --arena {on,off} gates the shared-world-arena phase (on by default, mc
// executor only): a hot spec stream — every query sharing one
// (interval, seed) group — is evaluated twice, world columns disabled vs
// enabled, both warmed by an untimed pass. The column run must reproduce
// the live sampling bytes exactly; emits qps_arena_on / qps_arena_off /
// arena_speedup (the skip-the-alias-walk amortization under measurement).
// qps_session_batch, qps_arena_off and qps_arena_on each time the median
// of 5 passes.
//
// --adaptive {on,off} gates the adaptive-precision phase (on by default, mc
// executor only): the query stream re-cast as tau = 0.5 threshold decisions
// under an oversized --adaptive_worlds cap, evaluated with fixed sampling vs
// the sequential stopping rule (DESIGN.md section 8). Emits qps_adaptive_on /
// qps_adaptive_off / adaptive_speedup / mean_worlds_used, and pins the
// revised determinism contract: identical stop decisions — and identical
// bytes — at any thread count.
//
// Flags (defaults sized for a single CI core):
//   --states=10000 --objects=48 --lifetime=96 --obs_interval=12
//   --horizon=120 --interval=10 --worlds=500 --queries=50 --threads=1
//   --executor=all --arena=on --adaptive=on --adaptive_worlds=8192
//   --markov_objects=8 --markov_interval=6
//   --markov_queries=6 --exact_objects=3 --exact_interval=3
//   --exact_queries=6 --json_out=BENCH_engine.json --trace=<path>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/engine.h"
#include "query/session.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/trace.h"

using namespace ust;
using namespace ust::bench;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  SyntheticConfig config;
  config.num_states = flags.GetInt("states", 10000);
  config.num_objects = flags.GetInt("objects", 48);
  config.lifetime = static_cast<Tic>(flags.GetInt("lifetime", 96));
  config.obs_interval = static_cast<Tic>(flags.GetInt("obs_interval", 12));
  config.horizon = static_cast<Tic>(flags.GetInt("horizon", 120));
  config.seed = 6;
  const size_t interval_length = flags.GetInt("interval", 10);
  const size_t num_worlds = flags.GetInt("worlds", 500);
  const size_t num_queries = flags.GetInt("queries", 50);
  const int threads = flags.GetInt("threads", 1);
  const std::string executor = flags.GetString("executor", "all");
  const bool run_mc = executor == "all" || executor == "mc";
  const bool run_markov = executor == "all" || executor == "markov";
  const bool run_exact = executor == "all" || executor == "exact";
  UST_CHECK(run_mc || run_markov || run_exact);
  const std::string arena_mode = flags.GetString("arena", "on");
  UST_CHECK(arena_mode == "on" || arena_mode == "off");
  const bool run_arena = run_mc && arena_mode == "on";
  const std::string adaptive_mode = flags.GetString("adaptive", "on");
  UST_CHECK(adaptive_mode == "on" || adaptive_mode == "off");
  const bool run_adaptive = run_mc && adaptive_mode == "on";
  const size_t adaptive_worlds =
      static_cast<size_t>(flags.GetInt("adaptive_worlds", 8192));
  const std::string json_out = flags.GetString("json_out", "BENCH_engine.json");
  const std::string trace_out = flags.GetString("trace", "");
  // Record the whole engine run (session warm-up, arena builds, per-backend
  // exec spans) when a dump path is given; exported at exit as Chrome
  // trace_event JSON.
  if (!trace_out.empty()) ust::trace::Enable();

  PrintConfig("micro_engine: plan-based query pipeline throughput", flags,
              "states=" + std::to_string(config.num_states) +
                  " objects=" + std::to_string(config.num_objects) +
                  " worlds=" + std::to_string(num_worlds) +
                  " queries=" + std::to_string(num_queries) +
                  " threads=" + std::to_string(threads));

  auto world_result = GenerateSyntheticWorld(config);
  UST_CHECK(world_result.ok());
  SyntheticWorld world = world_result.MoveValue();
  TrajectoryDatabase& db = *world.db;
  auto tree = UstTree::Build(db);
  UST_CHECK(tree.ok());

  const TimeInterval T = BusiestInterval(db, interval_length);
  Rng qrng(3);
  std::vector<QuerySpec> specs;
  specs.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kForall;
    spec.q = RandomQueryState(db.space(), qrng);
    spec.T = T;
    spec.tau = 0.0;
    spec.mc.num_worlds = num_worlds;
    spec.mc.seed = 1000 + i;
    // Pin the backend: the harness asserts bitwise equality against the
    // Monte-Carlo-only QueryEngine modes, so a planner routing a small
    // --objects run to enumeration must not change the session's numbers.
    spec.backend = ExecutorKind::kMonteCarlo;
    specs.push_back(spec);
  }

  // ---- Mode 1: repeated single-shot QueryEngine construction. ----
  // Every query builds the stack cold: posteriors (and their samplers) are
  // dropped, a fresh engine is constructed, all scratch reallocates.
  double single_shot_seconds = 0.0;
  std::vector<PnnQueryResult> single_shot_results(num_queries);
  if (run_mc) {
    Timer t;
    for (size_t i = 0; i < num_queries; ++i) {
      db.InvalidatePosteriors();
      QueryEngine engine(db, &tree.value());
      auto r = engine.Forall(specs[i].q, specs[i].T, specs[i].tau, specs[i].mc);
      UST_CHECK(r.ok());
      single_shot_results[i] = r.MoveValue();
    }
    single_shot_seconds = t.Seconds();
  }

  // ---- Mode 2: one QueryEngine over a warm database. ----
  double warm_engine_seconds = 0.0;
  std::vector<PnnQueryResult> warm_results(num_queries);
  if (run_mc) {
    UST_CHECK(db.EnsureAllPosteriors().ok());
    QueryEngine engine(db, &tree.value());
    Timer t;
    for (size_t i = 0; i < num_queries; ++i) {
      auto r = engine.Forall(specs[i].q, specs[i].T, specs[i].tau, specs[i].mc);
      UST_CHECK(r.ok());
      warm_results[i] = r.MoveValue();
    }
    warm_engine_seconds = t.Seconds();
  }

  // The gated session and arena throughputs are each the median time of
  // kTimedPasses passes: one 25-spec pass takes 3-17 ms at the CI flags, so
  // a single pass lets one host hiccup move the gate.
  constexpr int kTimedPasses = 5;
  const auto median_pass_seconds = [](const auto& pass) {
    std::vector<double> seconds;
    for (int i = 0; i < kTimedPasses; ++i) {
      Timer t;
      pass();
      seconds.push_back(t.Seconds());
    }
    return Median(seconds);
  };

  // ---- Mode 3: QuerySession batch. Prepare (the one-time warm-up) is
  // timed separately — the warm-engine mode gets its posteriors for free
  // outside its timer, so the symmetric comparison is RunAll vs the warm
  // query loop; prepare_seconds quantifies the amortized one-time cost.
  double session_prepare_seconds = 0.0;
  double session_seconds = 0.0;
  std::vector<QueryOutcome> session_results;
  if (run_mc) {
    db.InvalidatePosteriors();  // the session rebuilds its own shared state
    SessionOptions options;
    options.threads = threads;
    // Every pass samples live, as the QueryEngine modes do: the repeated
    // passes would otherwise turn each spec's group hot from the second on.
    // The arena phase below measures world columns.
    options.arena_min_uses = 0;
    QuerySession session(db, &tree.value(), options);
    Timer prep;
    UST_CHECK(session.Prepare().ok());
    session_prepare_seconds = prep.Seconds();
    session_seconds =
        median_pass_seconds([&] { session_results = session.RunAll(specs); });
  }

  // The three modes must agree bit for bit (same seeds, same backend):
  // the session batch is the serial engine, just cheaper.
  for (size_t i = 0; run_mc && i < num_queries; ++i) {
    UST_CHECK(session_results[i].status.ok());
    const auto& a = session_results[i].pnn.results;
    const auto& b = single_shot_results[i].results;
    const auto& c = warm_results[i].results;
    UST_CHECK(a.size() == b.size() && a.size() == c.size());
    for (size_t j = 0; j < a.size(); ++j) {
      UST_CHECK(a[j].object == b[j].object && a[j].prob == b[j].prob);
      UST_CHECK(a[j].object == c[j].object && a[j].prob == c[j].prob);
    }
  }

  // ---- Modes 4/5: the intra-query-parallel backends, each on its own
  // scaled-down workload (the chain rule is ~quadratic in participants;
  // enumeration is exponential — both are only ever planned for small
  // filter outputs, and the workload mirrors that). Queries run one at a
  // time through session.Run: the lone-query path hands the session pool to
  // the executor, which is exactly the per-target / per-block sharding
  // under measurement. The threaded pass must reproduce the 1-thread bytes.
  const auto run_backend = [&](SyntheticConfig mini_config,
                               ExecutorKind backend, size_t mini_interval,
                               size_t mini_queries, size_t mini_worlds) {
    auto mini_world = GenerateSyntheticWorld(mini_config);
    UST_CHECK(mini_world.ok());
    SyntheticWorld mini = mini_world.MoveValue();
    TrajectoryDatabase& mdb = *mini.db;
    // No index: P∀NN candidates then come from alive-time filtering
    // (alive throughout T), which is what the markov backend supports.
    const TimeInterval T = BusiestInterval(mdb, mini_interval);
    Rng mini_rng(9);
    std::vector<QuerySpec> mini_specs;
    mini_specs.reserve(mini_queries);
    for (size_t i = 0; i < mini_queries; ++i) {
      QuerySpec spec;
      spec.kind = QueryKind::kForall;
      spec.q = RandomQueryState(mdb.space(), mini_rng);
      spec.T = T;
      spec.tau = 0.0;
      spec.mc.num_worlds = mini_worlds;
      spec.mc.seed = 7000 + i;
      spec.backend = backend;
      mini_specs.push_back(spec);
    }
    std::vector<QueryOutcome> reference(mini_queries);
    {
      SessionOptions serial;
      serial.threads = 1;
      QuerySession session(mdb, nullptr, serial);
      UST_CHECK(session.Prepare().ok());
      for (size_t i = 0; i < mini_queries; ++i) {
        reference[i] = session.Run(mini_specs[i]);
      }
    }
    SessionOptions options;
    options.threads = threads;
    QuerySession session(mdb, nullptr, options);
    UST_CHECK(session.Prepare().ok());
    Timer t;
    std::vector<QueryOutcome> outcomes(mini_queries);
    for (size_t i = 0; i < mini_queries; ++i) {
      outcomes[i] = session.Run(mini_specs[i]);
    }
    const double seconds = t.Seconds();
    for (size_t i = 0; i < mini_queries; ++i) {
      UST_CHECK(outcomes[i].status.ok());
      const auto& a = outcomes[i].pnn.results;
      const auto& b = reference[i].pnn.results;
      UST_CHECK(a.size() == b.size());
      for (size_t j = 0; j < a.size(); ++j) {
        UST_CHECK(a[j].object == b[j].object);
        UST_CHECK(a[j].prob == b[j].prob);  // bitwise: parallel == serial
      }
    }
    return static_cast<double>(mini_queries) / seconds;
  };

  // ---- Arena phase: one hot (interval, seed) group, arenas off vs on. ----
  // The hot stream reuses the query points above but shares a single seed,
  // so every spec keys the same arena group — the serving tier's hot-group
  // shape. Both sessions are warmed by an untimed RunAll (the off pass gets
  // warm samplers, the on pass gets its world columns built), so the timed
  // passes compare steady-state throughput: alias-walk sampling vs column
  // reads.
  double qps_arena_on = 0.0;
  double qps_arena_off = 0.0;
  if (run_arena) {
    std::vector<QuerySpec> hot = specs;
    for (QuerySpec& spec : hot) spec.mc.seed = 4242;
    std::vector<QueryOutcome> off_results, on_results;
    {
      SessionOptions options;
      options.threads = threads;
      options.arena_min_uses = 0;  // arenas disabled: live sampling
      QuerySession session(db, &tree.value(), options);
      UST_CHECK(session.Prepare().ok());
      session.RunAll(hot);  // warm-up, untimed
      qps_arena_off =
          static_cast<double>(hot.size()) /
          median_pass_seconds([&] { off_results = session.RunAll(hot); });
      UST_CHECK(session.arena_stats().builds == 0);
    }
    {
      SessionOptions options;
      options.threads = threads;
      options.arena_min_uses = 1;  // build on first use
      QuerySession session(db, &tree.value(), options);
      UST_CHECK(session.Prepare().ok());
      session.RunAll(hot);  // warm-up: builds the columns, untimed
      const uint64_t warm_bytes = session.arena_stats().bytes;
      qps_arena_on =
          static_cast<double>(hot.size()) /
          median_pass_seconds([&] { on_results = session.RunAll(hot); });
      const ArenaStats stats = session.arena_stats();
      UST_CHECK(stats.builds == 1);
      // The timed passes ran entirely against the built columns.
      UST_CHECK(stats.spec_reuses >= kTimedPasses * hot.size());
      UST_CHECK(stats.bytes > 0 && stats.bytes == warm_bytes);
      for (const QueryOutcome& out : on_results) UST_CHECK(out.used_arena);
    }
    // The arena determinism contract: evaluate-against-arena reproduces
    // live sampling bit for bit.
    for (size_t i = 0; i < hot.size(); ++i) {
      UST_CHECK(off_results[i].status.ok() && on_results[i].status.ok());
      const auto& a = off_results[i].pnn.results;
      const auto& b = on_results[i].pnn.results;
      UST_CHECK(a.size() == b.size());
      for (size_t j = 0; j < a.size(); ++j) {
        UST_CHECK(a[j].object == b[j].object && a[j].prob == b[j].prob);
      }
    }
  }

  // ---- Adaptive phase: threshold precision vs fixed sampling. ----
  // The same query points, re-cast as easy decision queries ("is P∀NN >= 0.5
  // with 95% confidence?") under a deliberately oversized world cap: the
  // fixed pass draws every one of the --adaptive_worlds worlds, the adaptive
  // pass stops at the first 512-world chunk boundary where every target's
  // Wilson interval clears tau. World columns are off in both timed
  // sessions (the warm-up pass would make every group hot for the timed
  // one) — the phase measures the stopping rule, not arena reuse. A
  // 1-thread re-run pins the determinism contract: identical stop decisions
  // and bits at any pool size.
  double qps_adaptive_on = 0.0;
  double qps_adaptive_off = 0.0;
  double mean_worlds_used = 0.0;
  if (run_adaptive) {
    UST_CHECK(adaptive_worlds >= WorldSampler::kWorldChunk);
    std::vector<QuerySpec> easy = specs;
    for (size_t i = 0; i < easy.size(); ++i) {
      easy[i].tau = 0.5;
      easy[i].mc.num_worlds = adaptive_worlds;
      easy[i].mc.seed = 86000 + i;
      easy[i].precision.mode = PrecisionMode::kThreshold;
      easy[i].precision.delta = 0.05;
    }
    std::vector<QuerySpec> fixed = easy;
    for (QuerySpec& spec : fixed) {
      spec.precision.mode = PrecisionMode::kFixedWorlds;
    }
    std::vector<QueryOutcome> off_results, on_results;
    {
      SessionOptions options;
      options.threads = threads;
      options.arena_min_uses = 0;
      QuerySession session(db, &tree.value(), options);
      UST_CHECK(session.Prepare().ok());
      session.RunAll(fixed);  // warm-up, untimed
      Timer t;
      off_results = session.RunAll(fixed);
      qps_adaptive_off = static_cast<double>(fixed.size()) / t.Seconds();
      for (const QueryOutcome& out : off_results) {
        UST_CHECK(out.status.ok());
        UST_CHECK(out.worlds_used == adaptive_worlds && !out.early_stopped);
      }
    }
    {
      SessionOptions options;
      options.threads = threads;
      options.arena_min_uses = 0;
      QuerySession session(db, &tree.value(), options);
      UST_CHECK(session.Prepare().ok());
      session.RunAll(easy);  // warm-up, untimed
      Timer t;
      on_results = session.RunAll(easy);
      qps_adaptive_on = static_cast<double>(easy.size()) / t.Seconds();
      size_t early_stops = 0, worlds_total = 0;
      for (const QueryOutcome& out : on_results) {
        UST_CHECK(out.status.ok());
        UST_CHECK(out.worlds_used <= adaptive_worlds);
        worlds_total += out.worlds_used;
        if (out.early_stopped) ++early_stops;
      }
      // An easy workload must mostly stop early — that's the phase. (A few
      // queries can land a target genuinely near tau and run to the cap;
      // that fallback is correct, not a failure.)
      UST_CHECK(early_stops * 4 >= easy.size() * 3);
      mean_worlds_used =
          static_cast<double>(worlds_total) / static_cast<double>(easy.size());
    }
    // Determinism: the stop decision is taken at the same chunk boundary at
    // any thread count, so a 1-thread session reproduces worlds_used and
    // every estimate bit for bit.
    {
      SessionOptions serial;
      serial.threads = 1;
      QuerySession session(db, &tree.value(), serial);
      UST_CHECK(session.Prepare().ok());
      std::vector<QueryOutcome> serial_results = session.RunAll(easy);
      for (size_t i = 0; i < easy.size(); ++i) {
        UST_CHECK(serial_results[i].status.ok());
        UST_CHECK(serial_results[i].worlds_used == on_results[i].worlds_used);
        UST_CHECK(serial_results[i].early_stopped ==
                  on_results[i].early_stopped);
        const auto& a = serial_results[i].pnn.results;
        const auto& b = on_results[i].pnn.results;
        UST_CHECK(a.size() == b.size());
        for (size_t j = 0; j < a.size(); ++j) {
          UST_CHECK(a[j].object == b[j].object && a[j].prob == b[j].prob);
        }
      }
    }
    // Decision agreement: the adaptive qualifying set (frozen CI-backed
    // estimates) matches the fixed-cap qualifying set on this workload.
    for (size_t i = 0; i < easy.size(); ++i) {
      const auto& a = on_results[i].pnn.results;
      const auto& b = off_results[i].pnn.results;
      UST_CHECK(a.size() == b.size());
      for (size_t j = 0; j < a.size(); ++j) {
        UST_CHECK(a[j].object == b[j].object);
      }
    }
  }

  double qps_markov = 0.0;
  size_t markov_objects = 0, markov_queries = 0;
  if (run_markov) {
    SyntheticConfig mini_config = config;
    markov_objects =
        static_cast<size_t>(flags.GetInt("markov_objects", 8));
    markov_queries =
        static_cast<size_t>(flags.GetInt("markov_queries", 6));
    mini_config.num_objects = static_cast<int>(markov_objects);
    qps_markov = run_backend(
        mini_config, ExecutorKind::kMarkovApprox,
        static_cast<size_t>(flags.GetInt("markov_interval", 6)),
        markov_queries, num_worlds);
  }
  double qps_exact = 0.0;
  size_t exact_objects = 0, exact_queries = 0;
  if (run_exact) {
    SyntheticConfig mini_config = config;
    exact_objects = static_cast<size_t>(flags.GetInt("exact_objects", 3));
    exact_queries = static_cast<size_t>(flags.GetInt("exact_queries", 6));
    mini_config.num_objects = static_cast<int>(exact_objects);
    // Denser observations keep the posterior diamonds — and with them the
    // enumeration cross product — inside the executor's world cap.
    mini_config.obs_interval = static_cast<Tic>(
        flags.GetInt("exact_obs_interval", 4));
    qps_exact = run_backend(
        mini_config, ExecutorKind::kExact,
        static_cast<size_t>(flags.GetInt("exact_interval", 3)),
        exact_queries, num_worlds);
  }

  const double n = static_cast<double>(num_queries);
  const double qps_single_shot = run_mc ? n / single_shot_seconds : 0.0;
  const double qps_warm_engine = run_mc ? n / warm_engine_seconds : 0.0;
  const double qps_session = run_mc ? n / session_seconds : 0.0;

  CsvTable table({"metric", "value"});
  if (run_mc) {
    table.AddRow({"qps_single_shot", std::to_string(qps_single_shot)});
    table.AddRow({"qps_warm_engine", std::to_string(qps_warm_engine)});
    table.AddRow({"qps_session_batch", std::to_string(qps_session)});
    table.AddRow(
        {"session_prepare_seconds", std::to_string(session_prepare_seconds)});
    table.AddRow({"speedup_vs_single_shot",
                  std::to_string(qps_session / qps_single_shot)});
    table.AddRow({"speedup_vs_warm_engine",
                  std::to_string(qps_session / qps_warm_engine)});
  }
  if (run_arena) {
    table.AddRow({"qps_arena_off", std::to_string(qps_arena_off)});
    table.AddRow({"qps_arena_on", std::to_string(qps_arena_on)});
    table.AddRow(
        {"arena_speedup", std::to_string(qps_arena_on / qps_arena_off)});
  }
  if (run_adaptive) {
    table.AddRow({"qps_adaptive_off", std::to_string(qps_adaptive_off)});
    table.AddRow({"qps_adaptive_on", std::to_string(qps_adaptive_on)});
    table.AddRow({"adaptive_speedup",
                  std::to_string(qps_adaptive_on / qps_adaptive_off)});
    table.AddRow({"mean_worlds_used", std::to_string(mean_worlds_used)});
  }
  if (run_markov) {
    table.AddRow({"qps_markov_approx", std::to_string(qps_markov)});
  }
  if (run_exact) {
    table.AddRow({"qps_exact", std::to_string(qps_exact)});
  }
  table.Print(std::cout, "micro_engine results");

  bench::JsonWriter json;
  json.Add("benchmark", std::string("micro_engine"));
  json.Add("executor", executor);
  json.Add("arena", arena_mode);
  json.Add("adaptive", adaptive_mode);
  json.Add("adaptive_worlds", static_cast<double>(adaptive_worlds));
  json.Add("num_states", static_cast<double>(config.num_states));
  json.Add("num_objects", static_cast<double>(config.num_objects));
  json.Add("num_worlds", static_cast<double>(num_worlds));
  json.Add("num_queries", static_cast<double>(num_queries));
  json.Add("interval_length", static_cast<double>(interval_length));
  json.Add("threads", static_cast<double>(threads));
  if (run_mc) {
    json.Add("qps_single_shot", qps_single_shot);
    json.Add("qps_warm_engine", qps_warm_engine);
    json.Add("qps_session_batch", qps_session);
    json.Add("session_prepare_seconds", session_prepare_seconds);
    json.Add("speedup_vs_single_shot", qps_session / qps_single_shot);
    json.Add("speedup_vs_warm_engine", qps_session / qps_warm_engine);
  }
  if (run_arena) {
    json.Add("qps_arena_off", qps_arena_off);
    json.Add("qps_arena_on", qps_arena_on);
    json.Add("arena_speedup", qps_arena_on / qps_arena_off);
  }
  if (run_adaptive) {
    json.Add("qps_adaptive_off", qps_adaptive_off);
    json.Add("qps_adaptive_on", qps_adaptive_on);
    json.Add("adaptive_speedup", qps_adaptive_on / qps_adaptive_off);
    json.Add("mean_worlds_used", mean_worlds_used);
  }
  if (run_markov) {
    json.Add("markov_objects", static_cast<double>(markov_objects));
    json.Add("markov_queries", static_cast<double>(markov_queries));
    json.Add("qps_markov_approx", qps_markov);
  }
  if (run_exact) {
    json.Add("exact_objects", static_cast<double>(exact_objects));
    json.Add("exact_queries", static_cast<double>(exact_queries));
    json.Add("qps_exact", qps_exact);
  }
  if (!trace_out.empty()) {
    ust::trace::Disable();
    if (!ust::trace::DumpJson(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("# wrote %s (%llu events)\n", trace_out.c_str(),
                static_cast<unsigned long long>(ust::trace::RecordedCount()));
  }
  if (!json.WriteFile(json_out)) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", json_out.c_str());
  return 0;
}

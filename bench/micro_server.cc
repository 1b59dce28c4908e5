// Serving-tier microbenchmark: the same P∀NNQ request stream evaluated
// three ways —
//
//   cold_session : the no-server pattern for independent callers — every
//                  request builds its own QuerySession from a cold database
//                  (posteriors invalidated), paying adaptation and
//                  sampler warm-up per request;
//   direct_runall: one prepared QuerySession evaluating the whole stream as
//                  a single RunAll batch — the PR 2 upper bound (no
//                  queueing, no batching window);
//   server       : QueryServer — client threads submit single specs, the
//                  dispatcher micro-batches them through the epoch-keyed
//                  session cache onto the execution-lane pool; per-request
//                  latency comes from the server's own histograms.
//
// The server mode runs twice: at 1 lane and at --lanes lanes, over a
// *mixed-interval* stream (specs round-robin --intervals distinct query
// intervals, so every micro-batch splits into that many lane jobs). At one
// lane those jobs serialize; at N lanes they execute concurrently — the
// lane_speedup column is the tentpole metric of PR 4 (≈1 on a single
// hardware core, ≥1.5 expected on multi-core).
//
// The *arena* phase serves a skewed stream — interval popularity
// follows a Zipf-ish law (weight of interval k ∝ (k+1)^-skew), and every
// spec shares one Monte-Carlo seed — with world columns off and on, and
// reports the qps ratio `arena_speedup`.
//
// The *adaptive* phase (PR 7, --adaptive {on,off}) serves the mixed stream
// re-cast as tau = 0.5 threshold decisions under an oversized
// --adaptive_worlds cap, fixed sampling vs the sequential stopping rule
// (DESIGN.md section 8). Both runs must reproduce a prepared-session RunAll
// reference bit for bit — worlds_used and early_stopped included, pinning
// the stop decision across the queue and the lanes — and the ServerStats
// early_stops / worlds_saved / worlds_sampled counters must account for
// exactly the observed savings.
// Emits qps_adaptive_on / qps_adaptive_off / adaptive_speedup /
// mean_worlds_used.
//
// All server outcomes are checked bit-identical to direct_runall (the PR 2
// determinism contract extended across the admission queue and the lane
// pool). Emits BENCH_server.json (qps of each mode, speedups, p50/p99
// latency per lane count) so serving throughput is tracked
// machine-readably across PRs.
//
// Flags (defaults sized for a single CI core):
//   --states=10000 --objects=48 --lifetime=96 --obs_interval=12
//   --horizon=120 --interval=10 --intervals=2 --worlds=500 --queries=50
//   --threads=1 --lanes=2 --clients=4 --batch=16 --delay_ms=2
//   --skew=1.5 --adaptive=on --adaptive_worlds=8192
//   --json_out=BENCH_server.json --trace=<path>
//
// The *traced* phase (PR 8) re-runs the mixed stream at --lanes lanes with
// the event tracer recording (ServerOptions::trace): qps_trace_on and the
// ratio trace_overhead — the median over 5 (traced, untraced) pairs of run
// time, alternating which runs first — gate the cost of a live probe
// (≤10%; tracing-off probes are a single branch and are covered by the
// qps_server band itself). --trace=<path> additionally exports the
// recorded events as Chrome trace_event JSON (chrome://tracing,
// ui.perfetto.dev).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/trace.h"

using namespace ust;
using namespace ust::bench;

namespace {

// Outcomes must agree bit for bit across modes (same epoch, same specs) —
// including the adaptive stop decision: worlds_used and early_stopped are
// part of the determinism contract, not just the estimates.
void CheckSameOutcome(const QueryOutcome& a, const QueryOutcome& b) {
  UST_CHECK(a.status.ok() && b.status.ok());
  UST_CHECK(a.executor == b.executor);
  UST_CHECK(a.worlds_used == b.worlds_used);
  UST_CHECK(a.early_stopped == b.early_stopped);
  UST_CHECK(a.pnn.results.size() == b.pnn.results.size());
  for (size_t j = 0; j < a.pnn.results.size(); ++j) {
    UST_CHECK(a.pnn.results[j].object == b.pnn.results[j].object);
    UST_CHECK(a.pnn.results[j].prob == b.pnn.results[j].prob);
  }
}

struct ServerRun {
  double seconds = 0.0;
  ServerStats stats;
};

}  // namespace

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
  const size_t num_intervals = std::max<size_t>(1, flags.GetInt("intervals", 2));
  const size_t num_worlds = flags.GetInt("worlds", 500);
  const size_t num_queries = flags.GetInt("queries", 50);
  const int threads = flags.GetInt("threads", 1);
  const int lanes = std::max(1, static_cast<int>(flags.GetInt("lanes", 2)));
  const int clients = static_cast<int>(flags.GetInt("clients", 4));
  const size_t max_batch = flags.GetInt("batch", 16);
  const double delay_ms = flags.GetDouble("delay_ms", 2.0);
  const double skew = flags.GetDouble("skew", 1.5);
  const std::string adaptive_mode = flags.GetString("adaptive", "on");
  UST_CHECK(adaptive_mode == "on" || adaptive_mode == "off");
  const bool run_adaptive = adaptive_mode == "on";
  const size_t adaptive_worlds =
      static_cast<size_t>(flags.GetInt("adaptive_worlds", 8192));
  const std::string json_out = flags.GetString("json_out", "BENCH_server.json");
  const std::string trace_out = flags.GetString("trace", "");

  PrintConfig("micro_server: serving-tier throughput and latency", flags,
              "states=" + std::to_string(config.num_states) +
                  " objects=" + std::to_string(config.num_objects) +
                  " worlds=" + std::to_string(num_worlds) +
                  " queries=" + std::to_string(num_queries) +
                  " threads=" + std::to_string(threads) +
                  " lanes=" + std::to_string(lanes) +
                  " clients=" + std::to_string(clients));

  auto world_result = GenerateSyntheticWorld(config);
  UST_CHECK(world_result.ok());
  SyntheticWorld world = world_result.MoveValue();
  TrajectoryDatabase& db = *world.db;
  auto tree = UstTree::Build(db);
  UST_CHECK(tree.ok());

  // A mixed-interval request stream: specs round-robin `num_intervals`
  // shifted copies of the busiest interval, so every micro-batch splits into
  // that many (epoch, interval) groups — the workload that serializes at one
  // lane and spreads across the pool at N.
  const TimeInterval T1 = BusiestInterval(db, interval_length);
  const Tic shift = std::max<Tic>(1, static_cast<Tic>(interval_length) / 2);
  std::vector<TimeInterval> intervals;
  intervals.reserve(num_intervals);
  for (size_t k = 0; k < num_intervals; ++k) {
    TimeInterval T = T1;
    const Tic offset = static_cast<Tic>(k) * shift;
    if (T.start >= offset) {
      T.start -= offset;
      T.end -= offset;
    } else {
      T.start += offset;
      T.end += offset;
    }
    UST_CHECK(k == 0 || !(T == intervals.front()));
    intervals.push_back(T);
  }
  Rng qrng(3);
  std::vector<QuerySpec> specs;
  specs.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kForall;
    spec.q = RandomQueryState(db.space(), qrng);
    spec.T = intervals[i % num_intervals];
    spec.tau = 0.0;
    spec.mc.num_worlds = num_worlds;
    spec.mc.seed = 1000 + i;
    specs.push_back(spec);
  }

  SessionOptions session_options;
  session_options.threads = threads;

  // ---- Mode 1: per-request cold sessions (every caller on its own). ----
  double cold_seconds = 0.0;
  std::vector<QueryOutcome> cold_results(num_queries);
  {
    Timer t;
    for (size_t i = 0; i < num_queries; ++i) {
      db.InvalidatePosteriors();
      QuerySession session(db, &tree.value(), session_options);
      cold_results[i] = session.Run(specs[i]);
    }
    cold_seconds = t.Seconds();
  }

  // ---- Mode 2: one prepared session, the whole stream as one batch. ----
  double prepare_seconds = 0.0;
  double runall_seconds = 0.0;
  std::vector<QueryOutcome> runall_results;
  {
    db.InvalidatePosteriors();
    QuerySession session(db, &tree.value(), session_options);
    Timer prep;
    UST_CHECK(session.Prepare().ok());
    prepare_seconds = prep.Seconds();
    Timer t;
    runall_results = session.RunAll(specs);
    runall_seconds = t.Seconds();
  }

  // ---- Mode 3: QueryServer with concurrent clients, at 1 and N lanes. ----
  // Steady-state serving: posteriors stay warm (mode 2 keeps its Prepare
  // outside the timer for the same reason — the one-time warm-up cost is
  // reported as prepare_seconds, the per-request anti-pattern as
  // qps_cold_session).
  const auto run_server = [&](const std::vector<QuerySpec>& stream,
                              const std::vector<QueryOutcome>& reference,
                              int lane_count, int arena_min_uses,
                              bool trace = false) {
    ServerRun run;
    ServerOptions options;
    options.lanes = lane_count;
    options.threads = threads;
    options.max_batch_size = max_batch;
    options.max_batch_delay_ms = delay_ms;
    options.arena_min_uses = arena_min_uses;
    options.trace = trace;
    // Smoke-scale rings (4096 slots ≈ 230 KB/thread vs 3.7 MB at the 1<<16
    // serving default): the workload emits a few hundred events, and the
    // client threads' first-probe ring allocation would otherwise dominate
    // a ~10 ms run and corrupt the trace_overhead ratio.
    options.trace_events_per_thread = 1 << 12;
    QueryServer server(db, &tree.value(), options);
    const size_t n_stream = stream.size();
    std::vector<std::future<QueryOutcome>> futures(n_stream);
    Timer t;
    std::vector<std::thread> client_threads;
    client_threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      client_threads.emplace_back([&, c] {
        for (size_t i = static_cast<size_t>(c); i < n_stream;
             i += static_cast<size_t>(clients)) {
          futures[i] = server.Submit(stream[i]);
        }
      });
    }
    for (auto& thread : client_threads) thread.join();
    std::vector<QueryOutcome> results(n_stream);
    for (size_t i = 0; i < n_stream; ++i) results[i] = futures[i].get();
    run.seconds = t.Seconds();
    run.stats = server.Stats();

    // The serving tier is the batch pipeline behind a queue and a lane
    // pool: outcomes must agree bit for bit with the direct RunAll
    // reference.
    for (size_t i = 0; i < n_stream; ++i) {
      CheckSameOutcome(results[i], reference[i]);
    }
    UST_CHECK(run.stats.rejected == 0);
    UST_CHECK(run.stats.completed == n_stream);
    return run;
  };

  // The mixed phase uses unique per-spec seeds, so no arena group ever
  // repeats: arena_min_uses=2 (the serving default) makes it measure
  // exactly what it measured pre-arena.
  const ServerRun lane1 = run_server(specs, runall_results, 1, 2);
  const ServerRun laneN =
      lanes > 1 ? run_server(specs, runall_results, lanes, 2) : lane1;
  // ---- The trace_overhead pair: tracing on vs off, identical config. ----
  // Outcomes must still match bit for bit (probes observe, never steer),
  // and the qps ratio is gated at 10% (tools/check_bench.py). A 10% band
  // needs a measurement tighter than the mixed stream alone can give: at
  // smoke scale a run is ~10 ms and one flush deadline (~delay_ms) landing
  // differently swings it by 20%. So the overhead pair runs the mixed
  // stream repeated 3x (one deadline is noise against ~30 ms), and the
  // ratio is the median over kOverheadPairs (traced, plain) pairs, the
  // side that runs first alternating from pair to pair: with a fixed order
  // the ratio reads process-lifetime drift (warming caches, a neighbour's
  // load) as much as tracing, while alternation charges it to both sides.
  std::vector<QuerySpec> overhead_specs;
  std::vector<QueryOutcome> overhead_reference;
  overhead_specs.reserve(3 * specs.size());
  overhead_reference.reserve(3 * specs.size());
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (size_t i = 0; i < specs.size(); ++i) {
      overhead_specs.push_back(specs[i]);
      overhead_reference.push_back(runall_results[i]);
    }
  }
  constexpr int kOverheadPairs = 5;  // odd: the last pair runs traced first
  std::vector<double> overhead_ratios, traced_runs;
  ServerRun lane_traced;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const bool traced_first = pair % 2 == 0;
    ServerRun first = run_server(overhead_specs, overhead_reference, lanes,
                                 2, traced_first);
    ServerRun second = run_server(overhead_specs, overhead_reference, lanes,
                                  2, !traced_first);
    ServerRun& traced = traced_first ? first : second;
    const ServerRun& plain = traced_first ? second : first;
    overhead_ratios.push_back(traced.seconds / plain.seconds);
    traced_runs.push_back(traced.seconds);
    // Enabling the tracer clears its rings, and an untraced run never
    // touches them, so --trace dumps the last traced run.
    lane_traced = std::move(traced);
  }
  // Cross-check the mixed stream against the cold per-request mode too.
  for (size_t i = 0; i < num_queries; ++i) {
    CheckSameOutcome(runall_results[i], cold_results[i]);
  }

  // ---- Mode 4: the shared world arena on a hot-group skewed stream. ----
  // Interval popularity is Zipf-ish (weight of interval k ∝ (k+1)^-skew), so
  // most specs land on interval 0, and every spec shares one Monte-Carlo
  // seed: the dominant interval becomes one (interval, seed) arena group.
  // The stream runs twice — arenas disabled vs build-on-first-use — and both
  // must reproduce the arena-off RunAll reference bit for bit; the qps ratio
  // is the amortization of sampling a hot group's worlds once.
  std::vector<double> cumulative(num_intervals, 0.0);
  double weight_sum = 0.0;
  for (size_t k = 0; k < num_intervals; ++k) {
    weight_sum += std::pow(static_cast<double>(k + 1), -skew);
    cumulative[k] = weight_sum;
  }
  // 3x the mixed stream's length, so one batch's scheduling accident does
  // not decide the qps ratio.
  const size_t num_arena_queries = 3 * num_queries;
  // The committed BENCH_server.json baseline was cut with the stream's
  // query positions drawn after this many earlier draws from qrng; skipping
  // them keeps the stream the one the baseline measured.
  for (size_t i = 0; i < num_arena_queries; ++i) {
    RandomQueryState(db.space(), qrng);
  }
  Rng arena_rng(23);
  std::vector<QuerySpec> arena_specs;
  arena_specs.reserve(num_arena_queries);
  for (size_t i = 0; i < num_arena_queries; ++i) {
    const double u = arena_rng.Uniform() * weight_sum;
    size_t pick = 0;
    while (pick + 1 < num_intervals && cumulative[pick] < u) ++pick;
    QuerySpec spec;
    spec.kind = QueryKind::kForall;
    spec.q = RandomQueryState(db.space(), qrng);
    spec.T = intervals[pick];
    spec.tau = 0.0;
    spec.mc.num_worlds = num_worlds;
    // One shared seed: the whole stream keys `num_intervals` arena groups.
    spec.mc.seed = 4242;
    // Pinned backend: the arena serves only the sampling path, and the
    // planner must not route anything to enumeration at small scales.
    spec.backend = ExecutorKind::kMonteCarlo;
    arena_specs.push_back(spec);
  }
  std::vector<QueryOutcome> arena_reference;
  {
    SessionOptions reference_options = session_options;
    reference_options.arena_min_uses = 0;
    QuerySession session(db, &tree.value(), reference_options);
    UST_CHECK(session.Prepare().ok());
    arena_reference = session.RunAll(arena_specs);
  }
  const ServerRun arena_off =
      run_server(arena_specs, arena_reference, lanes, 0);
  const ServerRun arena_on = run_server(arena_specs, arena_reference, lanes, 1);
  UST_CHECK(arena_off.stats.cache.arena_builds == 0);
  UST_CHECK(arena_off.stats.arena_hits() == 0);
  UST_CHECK(arena_on.stats.cache.arena_builds >= 1);
  UST_CHECK(arena_on.stats.cache.arena_spec_reuses >= 1);
  UST_CHECK(arena_on.stats.cache.arena_bytes > 0);
  UST_CHECK(arena_on.stats.arena_hits() ==
            arena_on.stats.cache.arena_spec_reuses);

  // ---- Mode 5: adaptive precision through the serving tier. ----
  // The mixed-interval stream re-cast as tau = 0.5 threshold decisions under
  // an oversized world cap, served twice: fixed sampling (every spec draws
  // all --adaptive_worlds worlds) vs the sequential stopping rule. Both runs
  // reproduce a prepared-session RunAll reference bit for bit — including
  // worlds_used and early_stopped, so the stop decision is pinned across the
  // admission queue and the lane pool. The
  // ServerStats early-stop counters must account for exactly the observed
  // savings.
  double qps_adaptive_off = 0.0;
  double qps_adaptive_on = 0.0;
  double mean_worlds_used = 0.0;
  uint64_t server_early_stops = 0;
  uint64_t server_worlds_saved = 0;
  if (run_adaptive) {
    std::vector<QuerySpec> adaptive_specs = specs;
    for (size_t i = 0; i < adaptive_specs.size(); ++i) {
      adaptive_specs[i].tau = 0.5;
      adaptive_specs[i].mc.num_worlds = adaptive_worlds;
      adaptive_specs[i].mc.seed = 86000 + i;
      adaptive_specs[i].precision.mode = PrecisionMode::kThreshold;
      adaptive_specs[i].precision.delta = 0.05;
      // Pinned backend: the stopping rule lives in the Monte-Carlo executor.
      adaptive_specs[i].backend = ExecutorKind::kMonteCarlo;
    }
    std::vector<QuerySpec> fixed_specs = adaptive_specs;
    for (QuerySpec& spec : fixed_specs) {
      spec.precision.mode = PrecisionMode::kFixedWorlds;
    }
    std::vector<QueryOutcome> fixed_reference, adaptive_reference;
    {
      QuerySession session(db, &tree.value(), session_options);
      UST_CHECK(session.Prepare().ok());
      fixed_reference = session.RunAll(fixed_specs);
      adaptive_reference = session.RunAll(adaptive_specs);
    }
    const ServerRun adaptive_off =
        run_server(fixed_specs, fixed_reference, lanes, 2);
    const ServerRun adaptive_on =
        run_server(adaptive_specs, adaptive_reference, lanes, 2);
    const double n_adaptive = static_cast<double>(adaptive_specs.size());
    qps_adaptive_off = n_adaptive / adaptive_off.seconds;
    qps_adaptive_on = n_adaptive / adaptive_on.seconds;

    // The counters must match the outcomes exactly.
    UST_CHECK(adaptive_off.stats.early_stops == 0);
    UST_CHECK(adaptive_off.stats.worlds_saved == 0);
    UST_CHECK(adaptive_off.stats.worlds_sampled() ==
              static_cast<uint64_t>(adaptive_specs.size()) * adaptive_worlds);
    uint64_t expected_stops = 0, expected_saved = 0, expected_sampled = 0;
    for (size_t i = 0; i < adaptive_reference.size(); ++i) {
      expected_sampled += adaptive_reference[i].worlds_used;
      if (adaptive_reference[i].early_stopped) {
        ++expected_stops;
        expected_saved += adaptive_worlds - adaptive_reference[i].worlds_used;
      }
    }
    server_early_stops = adaptive_on.stats.early_stops;
    server_worlds_saved = adaptive_on.stats.worlds_saved;
    UST_CHECK(server_early_stops == expected_stops);
    UST_CHECK(server_worlds_saved == expected_saved);
    UST_CHECK(adaptive_on.stats.worlds_sampled() == expected_sampled);
    // Most of the easy stream actually stops early — that's the phase.
    UST_CHECK(server_early_stops * 4 >= adaptive_specs.size() * 3);
    mean_worlds_used = static_cast<double>(expected_sampled) / n_adaptive;
  }

  const double n = static_cast<double>(num_queries);
  const double qps_cold = n / cold_seconds;
  const double qps_runall = n / runall_seconds;
  const double qps_server_1lane = n / lane1.seconds;
  const double qps_server = n / laneN.seconds;
  // >1 means tracing cost throughput; gated at 10% (tools/check_bench.py).
  // Medians over the alternating pairs on the tripled stream (see the
  // overhead pair comment above).
  const double qps_trace_on =
      static_cast<double>(overhead_specs.size()) / Median(traced_runs);
  const double trace_overhead = Median(overhead_ratios);
  const auto p_ms = [](const ServerRun& run, double q) {
    return run.stats.latency_micros.Quantile(q) / 1000.0;
  };

  const double n_arena = static_cast<double>(arena_specs.size());
  const double qps_arena_off = n_arena / arena_off.seconds;
  const double qps_arena_on = n_arena / arena_on.seconds;
  const double arena_speedup =
      qps_arena_off > 0.0 ? qps_arena_on / qps_arena_off : 1.0;

  CsvTable table({"metric", "value"});
  table.AddRow({"qps_cold_session", std::to_string(qps_cold)});
  table.AddRow({"qps_direct_runall", std::to_string(qps_runall)});
  table.AddRow({"qps_server_1lane", std::to_string(qps_server_1lane)});
  table.AddRow({"qps_server", std::to_string(qps_server)});
  table.AddRow({"lane_speedup", std::to_string(qps_server / qps_server_1lane)});
  table.AddRow({"speedup_server_vs_cold", std::to_string(qps_server / qps_cold)});
  table.AddRow({"latency_p50_ms_1lane", std::to_string(p_ms(lane1, 0.50))});
  table.AddRow({"latency_p99_ms_1lane", std::to_string(p_ms(lane1, 0.99))});
  table.AddRow({"latency_p50_ms", std::to_string(p_ms(laneN, 0.50))});
  table.AddRow({"latency_p99_ms", std::to_string(p_ms(laneN, 0.99))});
  table.AddRow({"qps_arena_off", std::to_string(qps_arena_off)});
  table.AddRow({"qps_arena_on", std::to_string(qps_arena_on)});
  table.AddRow({"arena_speedup", std::to_string(arena_speedup)});
  table.AddRow({"arena_builds",
                std::to_string(arena_on.stats.cache.arena_builds)});
  table.AddRow({"arena_spec_reuses",
                std::to_string(arena_on.stats.cache.arena_spec_reuses)});
  if (run_adaptive) {
    table.AddRow({"qps_adaptive_off", std::to_string(qps_adaptive_off)});
    table.AddRow({"qps_adaptive_on", std::to_string(qps_adaptive_on)});
    table.AddRow({"adaptive_speedup",
                  std::to_string(qps_adaptive_on / qps_adaptive_off)});
    table.AddRow({"mean_worlds_used", std::to_string(mean_worlds_used)});
    table.AddRow({"early_stops", std::to_string(server_early_stops)});
    table.AddRow({"worlds_saved", std::to_string(server_worlds_saved)});
  }
  table.AddRow({"morsels_executed",
                std::to_string(laneN.stats.morsels_executed())});
  table.AddRow({"batches", std::to_string(laneN.stats.batches)});
  table.AddRow({"qps_trace_on", std::to_string(qps_trace_on)});
  table.AddRow({"trace_overhead", std::to_string(trace_overhead)});
  table.Print(std::cout, "micro_server results");
  std::printf("# server stats (lanes=%d): %s\n", lanes,
              laneN.stats.ToJson().c_str());

  bench::JsonWriter json;
  json.Add("benchmark", std::string("micro_server"));
  json.Add("num_states", static_cast<double>(config.num_states));
  json.Add("num_objects", static_cast<double>(config.num_objects));
  json.Add("num_worlds", static_cast<double>(num_worlds));
  json.Add("num_queries", static_cast<double>(num_queries));
  json.Add("num_intervals", static_cast<double>(num_intervals));
  json.Add("threads", static_cast<double>(threads));
  json.Add("lanes", static_cast<double>(lanes));
  json.Add("clients", static_cast<double>(clients));
  json.Add("max_batch_size", static_cast<double>(max_batch));
  json.Add("max_batch_delay_ms", delay_ms);
  json.Add("skew", skew);
  json.Add("adaptive", adaptive_mode);
  json.Add("adaptive_worlds", static_cast<double>(adaptive_worlds));
  json.Add("qps_cold_session", qps_cold);
  json.Add("qps_direct_runall", qps_runall);
  json.Add("qps_server_1lane", qps_server_1lane);
  json.Add("qps_server", qps_server);
  json.Add("lane_speedup", qps_server / qps_server_1lane);
  json.Add("speedup_server_vs_cold", qps_server / qps_cold);
  json.Add("speedup_server_vs_runall", qps_server / qps_runall);
  json.Add("prepare_seconds", prepare_seconds);
  json.Add("latency_p50_ms_1lane", p_ms(lane1, 0.50));
  json.Add("latency_p99_ms_1lane", p_ms(lane1, 0.99));
  json.Add("latency_p50_ms", p_ms(laneN, 0.50));
  json.Add("latency_p99_ms", p_ms(laneN, 0.99));
  json.Add("latency_mean_ms", laneN.stats.latency_micros.mean() / 1000.0);
  json.Add("qps_arena_off", qps_arena_off);
  json.Add("qps_arena_on", qps_arena_on);
  json.Add("arena_speedup", arena_speedup);
  json.Add("arena_builds",
           static_cast<double>(arena_on.stats.cache.arena_builds));
  json.Add("arena_spec_reuses",
           static_cast<double>(arena_on.stats.cache.arena_spec_reuses));
  json.Add("arena_bytes",
           static_cast<double>(arena_on.stats.cache.arena_bytes));
  if (run_adaptive) {
    json.Add("qps_adaptive_off", qps_adaptive_off);
    json.Add("qps_adaptive_on", qps_adaptive_on);
    json.Add("adaptive_speedup", qps_adaptive_on / qps_adaptive_off);
    json.Add("mean_worlds_used", mean_worlds_used);
    json.Add("early_stops", static_cast<double>(server_early_stops));
    json.Add("worlds_saved", static_cast<double>(server_worlds_saved));
  }
  json.Add("morsels_executed",
           static_cast<double>(laneN.stats.morsels_executed()));
  json.Add("batches", static_cast<double>(laneN.stats.batches));
  json.Add("lane_queue_peak", static_cast<double>(laneN.stats.lane_queue_peak));
  json.Add("cache_hits", static_cast<double>(laneN.stats.cache.hits));
  json.Add("cache_misses", static_cast<double>(laneN.stats.cache.misses));
  json.Add("qps_trace_on", qps_trace_on);
  json.Add("trace_overhead", trace_overhead);
  json.Add("trace_events", static_cast<double>(trace::RecordedCount()));
  json.Add("trace_dropped",
           static_cast<double>(lane_traced.stats.trace_dropped));
  if (!trace_out.empty()) {
    // The traced run's rings survive its server (Stop only disables
    // recording); later untraced runs never touch them.
    if (!trace::DumpJson(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("# wrote %s (%llu events, %llu dropped)\n", trace_out.c_str(),
                static_cast<unsigned long long>(trace::RecordedCount()),
                static_cast<unsigned long long>(trace::DroppedCount()));
  }
  if (!json.WriteFile(json_out)) {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    return 1;
  }
  std::printf("# wrote %s\n", json_out.c_str());
  return 0;
}

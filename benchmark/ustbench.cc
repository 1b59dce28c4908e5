// ustbench — the repository benchmark (benchmark/README.md).
//
// One invocation runs one workload in one process against the public API:
//
//   ustbench --workload=<hot_arena|cold_live|ingest|exact_small> --seed=<n>
//            [--seconds=<s>] [--scale=smoke] [--trace=<chrome.json>]
//
// Phases of a run:
//   1. Set-up: generate the world from the seed, build the UST-tree, adapt
//      every posterior on a 4-thread pool, start a QueryServer and warm it
//      with sequential requests (session cache filled, hot arenas built).
//      The first set-up serves the run; kSetups - 1 more run after it, and
//      setup_s is the median of all.
//   2. A closed loop of `clients` threads (qps).
//   3. An open loop: Poisson arrivals at the workload's fixed rate from one
//      sender thread (at real-time priority where the process may set it),
//      completions observed by one poller thread that polls
//      the futures with wait_for(0) every ~0.1 ms. A request's latency runs
//      from its *scheduled* send time to the observed completion; a failed
//      or refused request counts as +inf (p50_ms / p99_ms over every
//      request of the phase).
//   The `ingest` workload adds one writer thread that lands AddObject /
//   ExtendLifetime calls at a fixed pace through both phases.
//
// Correctness checks (any failure: "correct": false and exit code 1):
//   - sampled replay: every 16th OK outcome equals, bit for bit, a serial
//     QuerySession::Run of its spec over the same epoch (ingest: re-served
//     and replayed at the final epoch, after the writer stopped);
//   - calibration (exact_small): Monte Carlo at 10^4 worlds lies within the
//     Hoeffding epsilon (delta = 1e-3, Bonferroni-split) of every exact
//     answer;
//   - ledger: submitted == completed + rejected, every future resolved.
// Generator validity: the open-loop sender's p99 lag behind its schedule is
// <= 5 ms, else the measurement does not count ("valid": false, exit code 1;
// run.py records it and runs the measurement again).
//
// With --trace=<path> the run is the *traced* variant: an untraced closed
// loop, then the event tracer is switched on for a traced closed loop and a
// shorter open loop (trace_overhead = untraced qps / traced qps), the server
// statistics become server.* metrics, and a single-threaded probe re-runs a
// fixed 64-spec sample through the public layer calls (MakeTimeSlab,
// PruneForall/Exists, PlanExecutor, executors, ComputeNnTableScratch,
// WorldArena::Build, NnTable reductions, PcnnOnTable, writes, Snapshot,
// UstDelta::Build), each wrapped in a trace::Span named <module>.<call>.
// The Chrome trace is written to <path> for benchmark/layers.py.
//
// The last line of stdout is one JSON object: workload, seed, correct,
// valid, whether the sender ran at real-time priority, attempted, failed,
// the failed checks, and every metric with its unit.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_delta.h"
#include "index/ust_tree.h"
#include "markov/builders.h"
#include "query/executor.h"
#include "query/pcnn.h"
#include "query/session.h"
#include "query/world_arena.h"
#include "server/query_server.h"
#include "state/grid_index.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/trace.h"

using namespace ust;

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Worker threads of the set-up pool (EnsureAllPosteriors): the machine's 4.
constexpr int kSetupThreads = 4;
/// Every kReplayStride-th OK outcome is replayed serially.
constexpr size_t kReplayStride = 16;
/// Fixed per-layer probe sample: the first kProbeSpecs specs of the stream.
constexpr size_t kProbeSpecs = 64;
/// Open-loop validity limit on the sender's p99 lag behind its schedule.
constexpr double kMaxGenLagMs = 5.0;
/// Monte-Carlo worlds and failure probability of the calibration pass.
constexpr size_t kCalibWorlds = 10000;
constexpr double kCalibDelta = 1e-3;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank quantile of an unsorted sample; +inf entries (failed
/// requests) sort last, so failures can only raise the upper quantiles.
double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return xs[rank - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

// ----------------------------------------------------------------- workloads

enum class Workload { kHotArena, kColdLive, kIngest, kExactSmall };

/// The shape of one workload. The open-loop rates are frozen at 0.40-0.45
/// of the seed code's median closed-loop qps on the reference machine
/// (benchmark/README.md): latency at a fixed, moderate load, below the knee
/// where queueing would amplify the machine's own speed drift.
struct Shape {
  size_t states = 0;   ///< synthetic state-space size
  size_t objects = 0;  ///< database objects (exact_small: fixed groups)
  Tic lifetime = 96;
  Tic obs_interval = 12;
  Tic horizon = 120;
  size_t worlds = 0;     ///< Monte-Carlo num_worlds of every spec
  size_t intervals = 0;  ///< distinct query intervals of the stream
  size_t min_len = 10;   ///< query interval length range, tics
  size_t max_len = 10;
  double rate = 0.0;        ///< open-loop arrivals/s; 0 = closed loop only
  double write_rate = 0.0;  ///< ingest writes/s
  int lanes = 2;
  int clients = 2;  ///< closed-loop client threads
};

// exact_small: groups of objects in disjoint time windows over one network.
// Without an index every query sees exactly its group, so the planner routes
// the 3-object groups to enumeration, and the 5-6-object groups serve the
// forced Markov-approximation specs.
constexpr size_t kExactGroups = 6;
constexpr size_t kMarkovGroups = 2;
constexpr Tic kGroupStride = 8;
constexpr size_t kExactPool = 256;  ///< distinct specs, cycled

Shape ShapeOf(Workload w, bool smoke) {
  Shape s;
  switch (w) {
    case Workload::kHotArena:
      s.states = smoke ? 4000 : 10000;
      s.objects = smoke ? 80 : 200;
      s.worlds = 1024;
      s.intervals = 4;
      s.rate = smoke ? 100.0 : 220.0;
      break;
    case Workload::kColdLive:
      s.states = smoke ? 4000 : 10000;
      s.objects = smoke ? 80 : 200;
      s.worlds = 1024;
      s.intervals = 32;
      s.min_len = 10;
      s.max_len = 30;
      s.rate = smoke ? 50.0 : 80.0;
      break;
    case Workload::kIngest:
      s.states = smoke ? 4000 : 10000;
      s.objects = smoke ? 80 : 200;
      s.obs_interval = 6;
      s.worlds = 1024;
      s.intervals = 2;
      s.rate = smoke ? 100.0 : 240.0;
      s.write_rate = 4.0;
      break;
    case Workload::kExactSmall:
      // Four observations per object, two tics apart: a 3-tic window pinned
      // between two observations enumerates about a hundred worlds.
      s.states = 2000;
      s.lifetime = 6;
      s.obs_interval = 2;
      s.worlds = 1000;
      s.intervals = kExactGroups + kMarkovGroups;
      s.lanes = 1;
      s.clients = 1;
      break;
  }
  return s;
}

// ------------------------------------------------------------------ checks

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
      std::fprintf(stderr, "ustbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Bitwise agreement of two outcomes: status, backend, world count, stop
/// decision, pruning counts and every reported probability byte.
bool SameOutcome(const QueryOutcome& a, const QueryOutcome& b) {
  if (!a.status.ok() || !b.status.ok()) return false;
  if (a.kind != b.kind || a.executor != b.executor ||
      a.worlds_used != b.worlds_used || a.early_stopped != b.early_stopped) {
    return false;
  }
  if (a.kind == QueryKind::kContinuous) {
    const auto& x = a.pcnn;
    const auto& y = b.pcnn;
    if (x.num_candidates != y.num_candidates ||
        x.num_influencers != y.num_influencers ||
        x.pcnn.entries.size() != y.pcnn.entries.size()) {
      return false;
    }
    for (size_t i = 0; i < x.pcnn.entries.size(); ++i) {
      const PcnnEntry& e = x.pcnn.entries[i];
      const PcnnEntry& f = y.pcnn.entries[i];
      if (e.object != f.object || e.tics != f.tics || e.prob != f.prob) {
        return false;
      }
    }
    return true;
  }
  const auto& x = a.pnn;
  const auto& y = b.pnn;
  if (x.num_candidates != y.num_candidates ||
      x.num_influencers != y.num_influencers ||
      x.results.size() != y.results.size()) {
    return false;
  }
  for (size_t i = 0; i < x.results.size(); ++i) {
    if (x.results[i].object != y.results[i].object ||
        x.results[i].prob != y.results[i].prob) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------------ system

struct SetupTimes {
  double gen_s = 0.0;
  double index_s = 0.0;
  double adapt_s = 0.0;
  double adapt_us_per_object = 0.0;
  double warm_s = 0.0;
  double total_s = 0.0;
};

/// One write of the ingest writer (or the probe): append a generated object
/// or extend an existing object's lifetime.
struct PendingWrite {
  bool extend = false;
  ObjectId id = 0;
  Tic end_tic = 0;
  ObservationSeq observations;
};

/// One set-up of the system under test. Member order is destruction order
/// reversed: the server (which points at the tree and the database) goes
/// first.
struct System {
  Workload workload = Workload::kHotArena;
  Shape shape;
  SyntheticConfig config;
  std::shared_ptr<const StateSpace> space;
  CsrGraph graph;
  TransitionMatrixPtr matrix;
  std::shared_ptr<TrajectoryDatabase> db;
  std::unique_ptr<GridIndex> grid;
  std::optional<UstTree> tree;  // none for exact_small
  std::vector<QuerySpec> stream;
  Clock::time_point server_started;
  std::unique_ptr<QueryServer> server;
  uint64_t submits = 0;  ///< every Submit the benchmark made (the ledger)
  SetupTimes times;

  std::future<QueryOutcome> Submit(const QuerySpec& spec) {
    ++submits;
    return server->Submit(spec);
  }
};

Status GenerateWorld(System* sys, uint64_t seed) {
  const Shape& s = sys->shape;
  SyntheticConfig& config = sys->config;
  config.num_states = s.states;
  config.num_objects = s.objects;
  config.lifetime = s.lifetime;
  config.obs_interval = s.obs_interval;
  config.horizon = s.horizon;
  config.seed = seed;
  if (sys->workload != Workload::kExactSmall) {
    auto world = GenerateSyntheticWorld(config);
    if (!world.ok()) return world.status();
    SyntheticWorld w = world.MoveValue();
    sys->space = w.space;
    sys->graph = std::move(w.graph);
    sys->matrix = w.matrix;
    sys->db = w.db;
    return Status::OK();
  }
  Rng rng(seed);
  sys->space = GenerateStates(s.states, rng);
  sys->graph = ConnectByRadius(*sys->space, config.branching);
  auto matrix = DistanceInverseMatrix(*sys->space, sys->graph, config.self_loop);
  if (!matrix.ok()) return matrix.status();
  sys->matrix = std::make_shared<const TransitionMatrix>(matrix.MoveValue());
  sys->db = std::make_shared<TrajectoryDatabase>(sys->space);
  sys->grid = std::make_unique<GridIndex>(GridIndex::Build(*sys->space));
  for (size_t g = 0; g < kExactGroups + kMarkovGroups; ++g) {
    const size_t size =
        g < kExactGroups ? 3 : 5 + static_cast<size_t>(rng.UniformInt(2));
    for (size_t o = 0; o < size; ++o) {
      auto obs = GenerateObjectObservations(*sys->space, sys->graph,
                                            sys->grid.get(), config,
                                            static_cast<Tic>(g) * kGroupStride,
                                            rng);
      if (!obs.ok()) return obs.status();
      sys->db->AddObject(obs.MoveValue(), sys->matrix);
    }
  }
  return Status::OK();
}

/// `s.intervals` distinct intervals with starts in [lo, hi], placed by
/// Latin-hypercube sampling: lengths evenly spaced over [min_len, max_len],
/// each paired with a start drawn from its own randomly assigned stratum of
/// the admissible range. Stratifying keeps a seed from drawing, say, mostly
/// long intervals, which would move the workload's cost with the seed.
std::vector<TimeInterval> PlaceIntervals(const Shape& s, Tic lo, Tic hi,
                                         Rng& rng) {
  const size_t n = s.intervals;
  std::vector<size_t> strata(n);
  for (size_t k = 0; k < n; ++k) strata[k] = k;
  for (size_t k = n; k > 1; --k) {
    std::swap(strata[k - 1], strata[rng.UniformInt(k)]);
  }
  std::vector<TimeInterval> intervals;
  for (size_t k = 0; k < n; ++k) {
    const size_t len =
        n > 1 ? s.min_len + (s.max_len - s.min_len) * k / (n - 1) : s.min_len;
    const Tic last_start = std::max<Tic>(lo, hi - static_cast<Tic>(len) + 1);
    for (;;) {
      const double frac =
          (static_cast<double>(strata[k]) + rng.Uniform()) / static_cast<double>(n);
      const Tic start = lo + static_cast<Tic>(frac * (last_start - lo + 1));
      const TimeInterval T{start, start + static_cast<Tic>(len) - 1};
      if (std::find(intervals.begin(), intervals.end(), T) == intervals.end()) {
        intervals.push_back(T);
        break;
      }
    }
  }
  return intervals;
}

/// The workload's request stream, a pure function of (world, seed).
std::vector<QuerySpec> MakeStream(const System& sys, uint64_t seed) {
  const Shape& s = sys.shape;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5851f42d4c957f2dULL);
  const StateSpace& space = *sys.space;
  // Every object of the synthetic worlds is alive throughout
  // [horizon - lifetime, lifetime]; hot and ingest intervals sit there.
  const Tic populated_lo = s.horizon - s.lifetime;
  const Tic populated_hi = s.lifetime;
  std::vector<QuerySpec> stream;
  const auto base = [&](QueryKind kind, const TimeInterval& T) {
    QuerySpec spec;
    spec.kind = kind;
    spec.q = RandomQueryState(space, rng);
    spec.T = T;
    spec.tau = 0.0;
    spec.mc.num_worlds = s.worlds;
    return spec;
  };
  switch (sys.workload) {
    case Workload::kHotArena:
    case Workload::kIngest: {
      const std::vector<TimeInterval> intervals =
          PlaceIntervals(s, populated_lo, populated_hi, rng);
      // hot_arena: Zipf(1.5) interval popularity; ingest: uniform.
      const double skew = sys.workload == Workload::kHotArena ? 1.5 : 0.0;
      const double forall_share =
          sys.workload == Workload::kHotArena ? 0.7 : 0.8;
      std::vector<double> weights;
      for (size_t k = 0; k < intervals.size(); ++k) {
        weights.push_back(std::pow(static_cast<double>(k + 1), -skew));
      }
      for (size_t i = 0; i < 8192; ++i) {
        const TimeInterval& T = intervals[rng.Categorical(weights)];
        const QueryKind kind = rng.Uniform() < forall_share ? QueryKind::kForall
                                                            : QueryKind::kExists;
        // mc.seed stays at its default: clients that never set a seed share
        // one (interval, seed) arena group per interval.
        stream.push_back(base(kind, T));
      }
      break;
    }
    case Workload::kColdLive: {
      const std::vector<TimeInterval> intervals =
          PlaceIntervals(s, 0, s.horizon, rng);
      for (size_t i = 0; i < 8192; ++i) {
        const TimeInterval& T = intervals[rng.UniformInt(intervals.size())];
        // 40% P∀NN fixed, 20% P∃NN fixed, 20% P∀NN epsilon, 20% PCNN.
        const double u = rng.Uniform();
        QueryKind kind = QueryKind::kForall;
        if (u >= 0.4 && u < 0.6) kind = QueryKind::kExists;
        if (u >= 0.8) kind = QueryKind::kContinuous;
        QuerySpec spec = base(kind, T);
        if (u >= 0.6 && u < 0.8) {
          spec.precision.mode = PrecisionMode::kEpsilon;
          spec.precision.epsilon = 0.02;
          spec.precision.delta = 0.05;
        } else if (u >= 0.8) {
          // Algorithm 1's timestamp-set lattice is exponential in |T| (an
          // object that is likely NN throughout 30 tics qualifies on 2^30
          // sets), so PCNN asks about the interval's first 10 tics.
          spec.tau = 0.5;
          spec.T.end = std::min(spec.T.end, spec.T.start + 9);
        }
        spec.mc.seed = seed * 1000003ULL + i;  // unique: no arena reuse
        stream.push_back(spec);
      }
      break;
    }
    case Workload::kExactSmall: {
      // One fixed interval per group (8 intervals: the session cache holds
      // them all), starting at the group's first observation: every window
      // is pinned by observations at both ends, so enumeration sizes do not
      // swing with the placement. Enumeration groups: 3 tics, P∀NN/P∃NN
      // alternating; Markov groups: 5 tics, P∀NN forced onto markov_approx.
      std::vector<TimeInterval> group_T;
      for (size_t g = 0; g < kExactGroups + kMarkovGroups; ++g) {
        const Tic start = static_cast<Tic>(g) * kGroupStride;
        const Tic len = g < kExactGroups ? 3 : 5;
        group_T.push_back({start, start + len - 1});
      }
      for (size_t i = 0; i < kExactPool; ++i) {
        if (i % 4 == 3) {
          QuerySpec spec = base(
              QueryKind::kForall,
              group_T[kExactGroups + rng.UniformInt(kMarkovGroups)]);
          spec.backend = ExecutorKind::kMarkovApprox;
          stream.push_back(spec);
        } else {
          stream.push_back(base(i % 2 == 0 ? QueryKind::kForall
                                           : QueryKind::kExists,
                                group_T[rng.UniformInt(kExactGroups)]));
        }
      }
      break;
    }
  }
  return stream;
}

ServerOptions ServerOptionsOf(const System& sys) {
  ServerOptions options;
  options.lanes = sys.shape.lanes;
  options.threads = 1;
  options.compaction = sys.workload == Workload::kIngest;
  return options;
}

/// Untimed-by-the-latency-metrics warm-up (it is part of setup_s): two
/// sequential requests on each of the stream's first intervals, up to the
/// session-cache capacity — the sessions get built and every hot
/// (interval, seed) group reaches the arena's build-on-second-use policy.
Status WarmUp(System* sys) {
  const size_t capacity = ServerOptions{}.session_cache_capacity;
  std::vector<std::pair<TimeInterval, int>> seen;
  for (const QuerySpec& spec : sys->stream) {
    auto it = std::find_if(seen.begin(), seen.end(),
                           [&](const auto& e) { return e.first == spec.T; });
    if (it == seen.end()) {
      if (seen.size() >= capacity) continue;
      seen.push_back({spec.T, 0});
      it = seen.end() - 1;
    }
    if (it->second >= 2) continue;
    ++it->second;
    const QueryOutcome out = sys->Submit(spec).get();
    if (!out.status.ok()) return out.status;
    if (std::all_of(seen.begin(), seen.end(),
                    [](const auto& e) { return e.second >= 2; }) &&
        (seen.size() >= capacity || seen.size() >= sys->shape.intervals)) {
      break;
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<System>> SetUp(Workload workload, const Shape& shape,
                                      uint64_t seed, ThreadPool* pool) {
  auto sys = std::make_unique<System>();
  sys->workload = workload;
  sys->shape = shape;
  const Clock::time_point t0 = Clock::now();
  {
    trace::Span span("gen.world");
    UST_RETURN_NOT_OK(GenerateWorld(sys.get(), seed));
  }
  const Clock::time_point t1 = Clock::now();
  if (workload != Workload::kExactSmall) {
    trace::Span span("index.build");
    auto tree = UstTree::Build(*sys->db);
    if (!tree.ok()) return tree.status();
    sys->tree.emplace(tree.MoveValue());
  }
  const Clock::time_point t2 = Clock::now();
  {
    trace::Span span("model.adapt");
    UST_RETURN_NOT_OK(sys->db->EnsureAllPosteriors(pool));
  }
  const Clock::time_point t3 = Clock::now();
  sys->stream = MakeStream(*sys, seed);  // load generator input: untimed
  const Clock::time_point t4 = Clock::now();
  {
    trace::Span span("query.warm");
    sys->server_started = Clock::now();
    sys->server = std::make_unique<QueryServer>(
        *sys->db, sys->tree ? &*sys->tree : nullptr, ServerOptionsOf(*sys));
    UST_RETURN_NOT_OK(WarmUp(sys.get()));
  }
  const Clock::time_point t5 = Clock::now();
  sys->times.gen_s = Seconds(t1 - t0);
  sys->times.index_s = Seconds(t2 - t1);
  sys->times.adapt_s = Seconds(t3 - t2);
  sys->times.adapt_us_per_object =
      sys->times.adapt_s * 1e6 / static_cast<double>(sys->db->size());
  sys->times.warm_s = Seconds(t5 - t4);
  sys->times.total_s = Seconds((t3 - t0) + (t5 - t4));
  return sys;
}

/// Pre-generate `count` writes alternating AddObject (observations from the
/// world's generator) and ExtendLifetime of an existing object.
std::vector<PendingWrite> MakeWrites(System* sys, size_t count, Rng& rng) {
  if (sys->grid == nullptr) {
    sys->grid = std::make_unique<GridIndex>(GridIndex::Build(*sys->space));
  }
  const DbSnapshot snap = sys->db->Snapshot();
  std::map<ObjectId, Tic> planned_end;
  std::vector<PendingWrite> writes;
  while (writes.size() < count) {
    PendingWrite w;
    if (writes.size() % 2 == 1) {
      w.extend = true;
      w.id = static_cast<ObjectId>(rng.UniformInt(snap.size()));
      auto it = planned_end.find(w.id);
      const Tic end =
          it != planned_end.end() ? it->second : snap.object(w.id).last_tic();
      w.end_tic = end + 1 + static_cast<Tic>(rng.UniformInt(3));
      planned_end[w.id] = w.end_tic;
    } else {
      const Tic start =
          sys->workload == Workload::kExactSmall
              ? static_cast<Tic>(rng.UniformInt(kExactGroups + kMarkovGroups)) *
                    kGroupStride
              : static_cast<Tic>(rng.UniformInt(
                    static_cast<uint64_t>(sys->config.horizon -
                                          sys->config.lifetime) + 1));
      auto obs = GenerateObjectObservations(*sys->space, sys->graph,
                                            sys->grid.get(), sys->config,
                                            start, rng);
      if (!obs.ok()) continue;  // unroutable pocket: draw again
      w.observations = obs.MoveValue();
    }
    writes.push_back(std::move(w));
  }
  return writes;
}

Status ApplyWrite(TrajectoryDatabase& db, const TransitionMatrixPtr& matrix,
                  const PendingWrite& w) {
  if (w.extend) return db.ExtendLifetime(w.id, w.end_tic);
  db.AddObject(w.observations, matrix);
  return Status::OK();
}

// ----------------------------------------------------------------- serving

/// One request as the client saw it.
struct Record {
  size_t index = 0;  ///< position in the (cycled) stream
  double latency_ms = 0.0;
  double done_s = 0.0;  ///< completion, seconds since the phase started
  QueryOutcome outcome;
};

struct Phase {
  double seconds = 0.0;
  std::vector<Record> records;
  std::vector<double> lag_ms;     ///< open loop: sender behind schedule
  std::vector<double> submit_us;  ///< bench-timed Submit calls
  bool realtime_sender = false;   ///< open loop: sender ran at SCHED_FIFO
  /// OK completions within the phase per second of the phase.
  double qps() const {
    double ok = 0.0;
    for (const Record& r : records) {
      if (r.outcome.status.ok() && r.done_s <= seconds) ok += 1.0;
    }
    return ok / seconds;
  }
  /// Latency quantile `q` over every request of the phase.
  double latency(double q) const {
    std::vector<double> xs;
    for (const Record& r : records) xs.push_back(r.latency_ms);
    return Quantile(std::move(xs), q);
  }
};

/// `clients` threads, each submitting its next request when the previous one
/// completed, until `seconds` elapsed. Latency is submit-to-completion.
Phase RunClosedLoop(System* sys, std::atomic<size_t>* cursor, double seconds) {
  const int clients = sys->shape.clients;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Phase> per_client(static_cast<size_t>(clients));
  std::atomic<uint64_t> submits{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      trace::PrepareThisThread();
      Phase& mine = per_client[static_cast<size_t>(c)];
      while (Clock::now() < stop) {
        const size_t i = cursor->fetch_add(1);
        const QuerySpec& spec = sys->stream[i % sys->stream.size()];
        const Clock::time_point t0 = Clock::now();
        std::future<QueryOutcome> future = sys->server->Submit(spec);
        const Clock::time_point t1 = Clock::now();
        submits.fetch_add(1);
        Record r;
        r.index = i;
        r.outcome = future.get();
        const Clock::time_point t2 = Clock::now();
        r.latency_ms = r.outcome.status.ok() ? Millis(t2 - t0) : kInf;
        r.done_s = Seconds(t2 - start);
        mine.submit_us.push_back(Millis(t1 - t0) * 1e3);
        mine.records.push_back(std::move(r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.seconds = seconds;
  sys->submits += submits.load();
  for (Phase& p : per_client) {
    for (Record& r : p.records) phase.records.push_back(std::move(r));
    phase.submit_us.insert(phase.submit_us.end(), p.submit_us.begin(),
                           p.submit_us.end());
  }
  std::sort(phase.records.begin(), phase.records.end(),
            [](const Record& a, const Record& b) { return a.index < b.index; });
  return phase;
}

/// Poisson arrivals at `rate`/s for `seconds`: one sender thread submits on
/// schedule without blocking, one poller thread observes completions by
/// polling wait_for(0) over the outstanding futures every ~0.1 ms.
Phase RunOpenLoop(System* sys, std::atomic<size_t>* cursor, double rate,
                  double seconds, uint64_t seed, Checks* checks) {
  Rng rng(seed ^ 0xa0761d6478bd642fULL);
  std::vector<double> offsets;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  const size_t n = offsets.size();
  const size_t first = cursor->fetch_add(n);
  std::vector<std::future<QueryOutcome>> futures(n);
  std::vector<Clock::time_point> scheduled(n), done(n);
  std::vector<QueryOutcome> outcomes(n);
  Phase phase;
  phase.lag_ms.resize(n);
  phase.submit_us.resize(n);
  std::atomic<size_t> published{0};
  std::atomic<bool> drained_in_time{true};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < n; ++i) {
    scheduled[i] = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(offsets[i]));
  }
  std::thread sender([&] {
    trace::PrepareThisThread();
    // Real-time priority where the process may take it: the server's lanes
    // keep the 4 cores busy, and a sleeping sender woken behind them could
    // start sends milliseconds late, which the validity limit rejects. The
    // sender stands for independent clients, which the server's load does
    // not delay.
    sched_param param{};
    param.sched_priority = 1;
    phase.realtime_sender =
        pthread_setschedparam(pthread_self(), SCHED_FIFO, &param) == 0;
    for (size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(scheduled[i]);
      const Clock::time_point t0 = Clock::now();
      phase.lag_ms[i] = Millis(t0 - scheduled[i]);
      futures[i] = sys->server->Submit(sys->stream[(first + i) % sys->stream.size()]);
      phase.submit_us[i] = Millis(Clock::now() - t0) * 1e3;
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::thread poller([&] {
    std::vector<size_t> pending;
    size_t seen = 0;
    Clock::time_point give_up = Clock::time_point::max();
    for (;;) {
      const size_t upto = published.load(std::memory_order_acquire);
      for (; seen < upto; ++seen) pending.push_back(seen);
      for (size_t k = 0; k < pending.size();) {
        const size_t i = pending[k];
        if (futures[i].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          done[i] = Clock::now();
          outcomes[i] = futures[i].get();
          pending[k] = pending.back();
          pending.pop_back();
        } else {
          ++k;
        }
      }
      if (seen == n) {
        if (pending.empty()) break;
        if (give_up == Clock::time_point::max()) {
          give_up = Clock::now() + std::chrono::seconds(60);
        } else if (Clock::now() > give_up) {
          drained_in_time.store(false);
          for (size_t i : pending) futures[i].wait();  // Stop() resolves them
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  sender.join();
  poller.join();
  phase.seconds = Seconds(Clock::now() - start);
  sys->submits += n;
  checks->Expect(drained_in_time.load(),
                 "every open-loop request resolves within 60 s");
  for (size_t i = 0; i < n; ++i) {
    Record r;
    r.index = first + i;
    r.outcome = std::move(outcomes[i]);
    r.latency_ms = r.outcome.status.ok() ? Millis(done[i] - scheduled[i]) : kInf;
    r.done_s = Seconds(done[i] - start);
    phase.records.push_back(std::move(r));
  }
  return phase;
}

/// The ingest writer: pre-generated writes landed at a fixed pace until
/// stopped.
class Writer {
 public:
  Writer(System* sys, std::vector<PendingWrite> writes, double rate)
      : sys_(sys), writes_(std::move(writes)), rate_(rate) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  size_t failed() const { return failed_; }

 private:
  void Loop() {
    trace::PrepareThisThread();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < writes_.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / rate_));
        if (cv_.wait_until(lock, due, [this] { return stop_; })) break;
      }
      const Clock::time_point t0 = Clock::now();
      Status st;
      {
        trace::Span span("model.write");
        st = ApplyWrite(*sys_->db, sys_->matrix, writes_[i]);
      }
      latencies_ms_.push_back(st.ok() ? Millis(Clock::now() - t0) : kInf);
      if (!st.ok()) ++failed_;
    }
  }

  System* sys_;
  std::vector<PendingWrite> writes_;
  double rate_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mu_
  std::vector<double> latencies_ms_;
  size_t failed_ = 0;
  std::thread thread_;
};

// ------------------------------------------------------------------ checks

/// The freshest index a session over the current epoch would use: the
/// compacted base the database publishes, else the set-up tree.
const UstTree* FreshestIndex(const System& sys, const DbSnapshot& snap) {
  if (snap.base_index() != nullptr &&
      (!sys.tree || snap.base_index()->built_version() >
                        sys.tree->built_version())) {
    return snap.base_index().get();
  }
  return sys.tree ? &*sys.tree : nullptr;
}

/// Replay every kReplayStride-th OK outcome through a serial QuerySession
/// over `epoch`, the epoch the outcomes were served at. `reserve` = true
/// re-serves each sampled spec first, at the live epoch (ingest: the served
/// outcomes span many epochs).
void ReplayCheck(System* sys, const std::vector<const Record*>& served,
                 const DbSnapshot& epoch, bool reserve, Checks* checks,
                 size_t* replayed) {
  const DbSnapshot snap = reserve ? sys->db->Snapshot() : epoch;
  SessionOptions options;
  options.threads = 1;
  options.arena_min_uses = 0;  // the reference samples live
  QuerySession reference(snap, FreshestIndex(*sys, snap), options);
  size_t ok_seen = 0, mismatches = 0;
  for (const Record* r : served) {
    if (!r->outcome.status.ok() || ok_seen++ % kReplayStride != 0) continue;
    const QuerySpec& spec = sys->stream[r->index % sys->stream.size()];
    const QueryOutcome served_outcome =
        reserve ? sys->Submit(spec).get() : r->outcome;
    if (!SameOutcome(served_outcome, reference.Run(spec))) ++mismatches;
    ++*replayed;
  }
  checks->Expect(*replayed > 0, "sampled replay ran");
  checks->Expect(mismatches == 0,
                 "sampled replay: " + std::to_string(mismatches) + " of " +
                     std::to_string(*replayed) +
                     " outcomes differ from serial QuerySession::Run");
}

/// exact_small: every enumeration-routed spec, re-run on Monte Carlo at
/// kCalibWorlds worlds, must land within the Hoeffding epsilon of the exact
/// probabilities (delta Bonferroni-split over all estimates compared).
double CalibrationCheck(System* sys, const std::vector<const Record*>& served,
                        const DbSnapshot& epoch, Checks* checks) {
  std::map<size_t, const QueryOutcome*> exact_by_spec;
  for (const Record* r : served) {
    if (r->outcome.status.ok() && r->outcome.executor == ExecutorKind::kExact) {
      exact_by_spec.emplace(r->index % sys->stream.size(), &r->outcome);
    }
  }
  SessionOptions options;
  options.threads = 1;
  QuerySession mc_session(epoch, nullptr, options);
  std::vector<double> errors;
  size_t mismatched = 0;
  for (const auto& [spec_index, exact] : exact_by_spec) {
    QuerySpec spec = sys->stream[spec_index];
    spec.backend = ExecutorKind::kMonteCarlo;
    spec.mc.num_worlds = kCalibWorlds;
    const QueryOutcome mc = mc_session.Run(spec);
    // tau = 0: both backends report every candidate, in candidate order.
    const auto& want = exact->pnn.results;
    const auto& got = mc.pnn.results;
    if (!mc.status.ok() || got.size() != want.size()) {
      ++mismatched;
      continue;
    }
    for (size_t j = 0; j < want.size(); ++j) {
      if (got[j].object != want[j].object) {
        ++mismatched;
        break;
      }
      errors.push_back(std::fabs(got[j].prob - want[j].prob));
    }
  }
  checks->Expect(mismatched == 0,
                 "calibration: " + std::to_string(mismatched) +
                     " Monte-Carlo reruns answer other objects");
  checks->Expect(!errors.empty(), "calibration compared at least one estimate");
  const double max_err =
      errors.empty() ? 0.0 : *std::max_element(errors.begin(), errors.end());
  const double epsilon = HoeffdingEpsilon(
      kCalibWorlds, kCalibDelta / static_cast<double>(std::max<size_t>(1, errors.size())));
  checks->Expect(max_err <= epsilon,
                 "calibration: max |P_MC - P_exact| = " + std::to_string(max_err) +
                     " exceeds Hoeffding epsilon " + std::to_string(epsilon));
  return max_err;
}

// ------------------------------------------------------------------- probe

/// Sum and count of one layer call's durations.
struct LayerTime {
  double total_us = 0.0;
  size_t calls = 0;
  double mean_us() const { return calls == 0 ? 0.0 : total_us / calls; }
};

/// Runs `fn` inside a trace span named `name`, adds its duration to `into`
/// and returns its result.
template <typename Fn>
auto Timed(const char* name, LayerTime* into, Fn&& fn) {
  const trace::Span span(name);
  const Clock::time_point t0 = Clock::now();
  auto result = fn();
  into->total_us += Millis(Clock::now() - t0) * 1e3;
  ++into->calls;
  return result;
}

struct ProbeResult {
  LayerTime slab, prune, delta_build, write, snapshot, sample, arena_build,
      arena_eval, reduce, pcnn, refine;
  double index_build_s = 0.0;  ///< the probe's own tree (exact_small)
  double candidates = 0.0, influencers = 0.0, prune_ratio = 0.0;
  double delta_depth = 0.0, arena_bytes = 0.0, worlds = 0.0;
  double planned_exact = 0.0, specs = 0.0;
};

/// PcnnOnTable is timed on intervals of at most this many tics: Algorithm
/// 1's timestamp-set lattice grows exponentially with |T| (see MakeStream).
constexpr size_t kPcnnMaxTics = 10;

std::vector<ObjectId> UnionIds(std::vector<ObjectId> a,
                               const std::vector<ObjectId>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

/// Re-run the fixed sample through the public layer calls on one thread.
/// Every layer is timed on every workload, whether or not its serving path
/// uses it, so a layer a workload bypasses reads what it would cost there
/// (live sampling on hot_arena, the arena on cold_live):
///  - index: a slab per interval and pruning (exact_small serves without an
///    index, so the probe builds one over the same database);
///  - query: the live Monte-Carlo table; the same worlds evaluated against
///    an arena of the spec's (interval, seed) group; the P∀NN/P∃NN
///    reduction and PCNN's Algorithm 1 on the table; and the executor the
///    session would pick (planner, overrides, enumeration fallback), on the
///    arena when the group recurs in the sample, as serving would build it;
///  - model and index: kProbeSpecs writes, the snapshot after each, and the
///    delta that patches the index over all of them.
/// An untimed first pass warms what serving left cold (the posteriors of
/// objects the ingest writer changed).
ProbeResult Probe(System* sys, Rng& rng) {
  ProbeResult r;
  const DbSnapshot snap = sys->db->Snapshot();
  std::optional<UstTree> own_tree;
  const UstTree* index = FreshestIndex(*sys, snap);
  if (index == nullptr) {
    LayerTime build;
    auto tree = Timed("index.build", &build,
                      [&] { return UstTree::Build(*sys->db); });
    r.index_build_s = build.total_us / 1e6;
    if (!tree.ok()) return r;
    own_tree.emplace(tree.MoveValue());
    index = &*own_tree;
  }
  std::optional<UstDelta> delta;
  if (index->built_version() != snap.version()) {
    auto built = UstDelta::Build(snap, index->built_version());
    if (built.ok()) delta.emplace(built.MoveValue());
  }
  const UstDelta* delta_ptr = delta ? &*delta : nullptr;

  // The sample's (interval, seed) groups; each arena is released after the
  // group's last spec, so cold_live holds one at a time.
  struct Group {
    TimeInterval T;
    uint64_t seed = 0;
    size_t uses = 0;
    size_t last = 0;
    std::unique_ptr<WorldArena> arena;
  };
  const size_t n = std::min(kProbeSpecs, sys->stream.size());
  std::vector<Group> groups;
  std::vector<size_t> group_of(n);
  for (size_t i = 0; i < n; ++i) {
    const QuerySpec& spec = sys->stream[i];
    auto g = std::find_if(groups.begin(), groups.end(), [&](const Group& e) {
      return e.T == spec.T && e.seed == spec.mc.seed;
    });
    if (g == groups.end()) {
      groups.push_back({spec.T, spec.mc.seed, 0, 0, nullptr});
      g = groups.end() - 1;
    }
    ++g->uses;
    g->last = i;
    group_of[i] = static_cast<size_t>(g - groups.begin());
  }

  std::vector<std::pair<TimeInterval, std::unique_ptr<UstTree::TimeSlab>>> slabs;
  WorldSampler::Scratch scratch;
  std::vector<uint8_t> rows;
  for (const bool timed : {false, true}) {
    for (size_t i = 0; i < n; ++i) {
      const QuerySpec& spec = sys->stream[i];
      const bool forall = spec.kind == QueryKind::kForall;
      auto it = std::find_if(slabs.begin(), slabs.end(),
                             [&](const auto& e) { return e.first == spec.T; });
      if (it == slabs.end()) {
        slabs.emplace_back(spec.T, Timed("index.slab", &r.slab, [&] {
                             return std::make_unique<UstTree::TimeSlab>(
                                 index->MakeTimeSlab(spec.T));
                           }));
        it = slabs.end() - 1;
      }
      // As the session prunes: PCNN candidates are the P∃NN candidates.
      const auto prune = [&] {
        return forall ? index->PruneForall(spec.q, spec.T, spec.mc.k,
                                           it->second.get(), delta_ptr)
                      : index->PruneExists(spec.q, spec.T, spec.mc.k,
                                           it->second.get(), delta_ptr);
      };
      PruneResult pruned =
          timed ? Timed("index.prune", &r.prune, prune) : prune();
      const std::vector<ObjectId> alive =
          snap.AliveSometime(spec.T.start, spec.T.end);
      if (timed) {
        r.specs += 1;
        r.candidates += static_cast<double>(pruned.candidates.size());
        r.influencers += static_cast<double>(pruned.influencers.size());
        if (!alive.empty()) {
          r.prune_ratio += static_cast<double>(pruned.influencers.size()) /
                           static_cast<double>(alive.size());
        }
      }
      if (!sys->tree) {
        // exact_small's sessions have no index: they refine over every
        // object alive in T, and so does the probe.
        pruned.influencers = alive;
        pruned.candidates =
            forall ? snap.AliveThroughout(spec.T.start, spec.T.end) : alive;
      }
      if (pruned.candidates.empty()) continue;
      const std::vector<ObjectId> sampled =
          forall ? UnionIds(pruned.candidates, pruned.influencers)
                 : pruned.influencers;
      const auto table_over = [&](const WorldArena* arena) {
        return ComputeNnTableScratch(snap, sampled, spec.q, spec.T, spec.mc,
                                     nullptr, &scratch, &rows, arena);
      };
      if (!timed) {
        (void)table_over(nullptr);
        continue;
      }

      const Result<NnTable> table =
          Timed("query.sample", &r.sample, [&] { return table_over(nullptr); });
      if (!table.ok()) continue;
      r.worlds += static_cast<double>(spec.mc.num_worlds);
      Group& group = groups[group_of[i]];
      if (group.arena == nullptr) {
        auto arena = Timed("query.arena_build", &r.arena_build, [&] {
          return WorldArena::Build(snap, alive, spec.T, spec.mc.seed,
                                   spec.mc.num_worlds);
        });
        if (arena.ok()) {
          group.arena = std::make_unique<WorldArena>(arena.MoveValue());
          r.arena_bytes += static_cast<double>(group.arena->bytes());
        }
      }
      if (group.arena != nullptr) {
        (void)Timed("query.arena_eval", &r.arena_eval,
                    [&] { return table_over(group.arena.get()); });
      }

      const NnTable& nn = table.value();
      if (spec.kind == QueryKind::kContinuous ||
          spec.T.length() <= kPcnnMaxTics) {
        const double tau = spec.kind == QueryKind::kContinuous ? spec.tau : 0.5;
        (void)Timed("query.pcnn", &r.pcnn,
                    [&] { return PcnnOnTable(nn, pruned.candidates, tau); });
      }
      if (spec.kind != QueryKind::kContinuous) {
        (void)Timed("query.reduce", &r.reduce, [&] {
          double sum = 0.0;
          for (ObjectId o : pruned.candidates) {
            const size_t idx = nn.IndexOf(o);
            if (idx == NnTable::npos) continue;
            sum += forall ? nn.ForallProb(idx) : nn.ExistsProb(idx);
          }
          return sum;
        });

        PnnTask task;
        task.db = &snap;
        task.participants = &sampled;
        task.targets = &pruned.candidates;
        task.q = &spec.q;
        task.T = spec.T;
        task.mc = spec.mc;
        task.precision = spec.precision;
        task.kind = spec.kind;
        task.tau = spec.tau;
        ExecutorKind choice = spec.backend;
        if (choice == ExecutorKind::kAuto) {
          choice = PlanExecutor(spec.kind, pruned.candidates.size(),
                                sampled.size(), spec.T.length(),
                                spec.mc.num_worlds, spec.mc.k, PlannerOptions{});
        }
        if (!GetExecutor(choice).Supports(spec.kind, task)) {
          choice = ExecutorKind::kMonteCarlo;
        }
        if (choice == ExecutorKind::kExact) r.planned_exact += 1;
        ExecContext ctx;
        ctx.sampler_scratch = &scratch;
        ctx.row_buffer = &rows;
        const WorldArena* served_arena =
            group.uses > 1 ? group.arena.get() : nullptr;
        if (choice == ExecutorKind::kMonteCarlo) ctx.arena = served_arena;
        (void)Timed("query.refine", &r.refine, [&] {
          auto estimates = GetExecutor(choice).Estimate(task, ctx);
          if (!estimates.ok() && choice == ExecutorKind::kExact &&
              estimates.status().code() == StatusCode::kResourceLimit) {
            ctx.arena = served_arena;  // the session's enumeration fallback
            estimates = GetExecutor(ExecutorKind::kMonteCarlo).Estimate(task, ctx);
          }
          return estimates;
        });
      }
      if (group.last == i) group.arena.reset();
    }
  }

  // Writes, the epoch snapshot each one forces, and the delta that patches
  // the index over all of them.
  const uint64_t base_version = index->built_version();
  const std::vector<PendingWrite> writes = MakeWrites(sys, kProbeSpecs, rng);
  for (const PendingWrite& w : writes) {
    (void)Timed("model.write", &r.write,
                [&] { return ApplyWrite(*sys->db, sys->matrix, w); });
    (void)Timed("model.snapshot", &r.snapshot,
                [&] { return sys->db->Snapshot(); });
  }
  const DbSnapshot after = sys->db->Snapshot();
  if (base_version >= after.delta_floor()) {
    auto built = Timed("index.delta_build", &r.delta_build,
                       [&] { return UstDelta::Build(after, base_version); });
    if (built.ok()) r.delta_depth = static_cast<double>(built.value().depth());
  }
  return r;
}

// ------------------------------------------------------------------ output

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    // JSON has no infinity: a +inf latency (a failed request at the
    // quantile) is reported as a very large finite number.
    if (!std::isfinite(value)) value = 1e12;
    JsonWriter m;
    m.Double("value", value, "%.12g");
    m.String("unit", unit);
    metrics_.Raw(name, m.Render());
  }
  std::string Render() const { return metrics_.Render(); }

 private:
  JsonWriter metrics_;
};

}  // namespace

int main(int argc, char** argv) {
#ifdef M_MMAP_THRESHOLD
  // Pin glibc's mmap threshold at its default: with the dynamic threshold,
  // freeing one large buffer (an arena slab, a sampling scratch) raises it
  // and later ones come from the heap, so peak RSS would depend on the
  // interleaving of allocations rather than on what the system holds.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  const Flags flags = Flags::Parse(argc, argv);
  const std::string name = flags.GetString("workload", "");
  Workload workload;
  if (name == "hot_arena") {
    workload = Workload::kHotArena;
  } else if (name == "cold_live") {
    workload = Workload::kColdLive;
  } else if (name == "ingest") {
    workload = Workload::kIngest;
  } else if (name == "exact_small") {
    workload = Workload::kExactSmall;
  } else {
    std::fprintf(stderr,
                 "usage: ustbench --workload=<hot_arena|cold_live|ingest|"
                 "exact_small> --seed=<n> [--seconds=<s>] [--scale=smoke] "
                 "[--trace=<path>]\n");
    return 2;
  }
  const std::string scale = flags.GetString("scale", "bench");
  if (scale != "bench" && scale != "smoke") {
    std::fprintf(stderr, "ustbench: --scale must be bench or smoke\n");
    return 2;
  }
  const bool smoke = scale == "smoke";
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", smoke ? 2.0 : 20.0);
  if (!(seconds > 0.0)) {
    std::fprintf(stderr, "ustbench: --seconds must be positive\n");
    return 2;
  }
  const std::string trace_path = flags.GetString("trace", "");
  const bool traced = !trace_path.empty();
  const Shape shape = ShapeOf(workload, smoke);
  const bool open_loop = shape.rate > 0.0;
  const bool writes = shape.write_rate > 0.0;

  // ---- 1. set-up. The first set-up serves the run; the other kSetups - 1
  // run after it (setup_s is the median of all), so peak_rss_mb reads the
  // high-water mark of one set-up plus the run.
  ThreadPool pool(kSetupThreads);
  const int setups = smoke ? 1 : kSetups;
  std::vector<SetupTimes> times;
  const auto set_up = [&]() -> std::unique_ptr<System> {
    auto next = SetUp(workload, shape, seed, &pool);
    if (!next.ok()) {
      std::fprintf(stderr, "ustbench: set-up failed: %s\n",
                   next.status().ToString().c_str());
      return nullptr;
    }
    std::unique_ptr<System> made = next.MoveValue();
    times.push_back(made->times);
    std::fprintf(stderr,
                 "ustbench: %s set-up %zu: %.3f s (gen %.3f, index %.3f, "
                 "adapt %.3f, warm %.3f)\n",
                 name.c_str(), times.size(), made->times.total_s,
                 made->times.gen_s, made->times.index_s, made->times.adapt_s,
                 made->times.warm_s);
    return made;
  };
  std::unique_ptr<System> sys = set_up();
  if (sys == nullptr) return 2;

  Checks checks;
  Rng write_rng(seed ^ 0x2545f4914f6cdd1dULL);
  std::unique_ptr<Writer> writer;
  if (writes) {
    const size_t count =
        static_cast<size_t>(shape.write_rate * (seconds + 2.0)) + 16;
    writer = std::make_unique<Writer>(sys.get(),
                                      MakeWrites(sys.get(), count, write_rng),
                                      shape.write_rate);
    writer->Start();
  }

  // ---- 2./3. the measured phases.
  std::atomic<size_t> cursor{0};
  std::vector<Phase> phases;
  double qps = 0.0, qps_untraced = 0.0;
  if (!traced) {
    const double closed_s = open_loop ? 0.3 * seconds : seconds;
    phases.push_back(RunClosedLoop(sys.get(), &cursor, closed_s));
    if (open_loop) {
      phases.push_back(RunOpenLoop(sys.get(), &cursor, shape.rate,
                                   seconds - closed_s, seed, &checks));
    }
    qps = phases[0].qps();
  } else {
    // Untraced, then traced closed loop of equal length (trace_overhead),
    // then the shorter traced open loop.
    const double closed_s = (open_loop ? 0.25 : 0.5) * seconds;
    phases.push_back(RunClosedLoop(sys.get(), &cursor, closed_s));
    qps_untraced = phases[0].qps();
    trace::Enable();
    phases.push_back(RunClosedLoop(sys.get(), &cursor, closed_s));
    qps = phases[1].qps();
    if (open_loop) {
      phases.push_back(RunOpenLoop(sys.get(), &cursor, shape.rate,
                                   seconds - 2 * closed_s, seed, &checks));
    }
  }
  const Phase& latency_phase = phases.back();
  if (writer) writer->Stop();

  size_t attempted = 0, failed = 0;
  std::vector<const Record*> served;
  std::vector<double> submit_us;
  for (const Phase& p : phases) {
    for (const Record& r : p.records) {
      served.push_back(&r);
      ++attempted;
      if (!r.outcome.status.ok()) ++failed;
    }
    submit_us.insert(submit_us.end(), p.submit_us.begin(), p.submit_us.end());
  }
  std::vector<double> write_ms;
  if (writer) {
    write_ms = writer->latencies_ms();
    attempted += write_ms.size();
    failed += writer->failed();
    checks.Expect(write_ms.size() >= 2, "the writer landed writes");
  }

  // The server's view of the serving: warm-up and the measured phases.
  const ServerStats stats = sys->server->Stats();
  const double server_wall_s = Seconds(Clock::now() - sys->server_started);

  // ---- generator validity and correctness checks.
  // No lag samples (0) on closed-loop-only workloads.
  const double gen_lag_p50 = Quantile(latency_phase.lag_ms, 0.50);
  const double gen_lag_p99 = Quantile(latency_phase.lag_ms, 0.99);
  const bool valid = gen_lag_p99 <= kMaxGenLagMs;
  if (!valid) {
    std::fprintf(stderr,
                 "ustbench: INVALID: open-loop sender p99 lag %.3f ms "
                 "exceeds %.1f ms\n",
                 gen_lag_p99, kMaxGenLagMs);
  }
  if (workload == Workload::kIngest) {
    // Let the compactor fold the writer's tail into a published base before
    // the sampled specs are re-served at the final epoch.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    for (;;) {
      const DbSnapshot snap = sys->db->Snapshot();
      if (snap.base_index() != nullptr &&
          snap.base_index()->built_version() == snap.version()) {
        break;
      }
      if (Clock::now() > give_up) {
        checks.Expect(false, "compaction caught up with the writer");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  // The epoch the static workloads were served at; the probe's writes come
  // after it, the replay and calibration read it.
  const DbSnapshot served_epoch = sys->db->Snapshot();
  std::optional<ProbeResult> probe;
  if (traced) {
    // Still traced, so the probe's spans land in the same dump as serving;
    // the checks below are not traced.
    probe = Probe(sys.get(), write_rng);
    trace::Disable();
    if (!trace::DumpJson(trace_path)) {
      std::fprintf(stderr, "ustbench: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }
  size_t replayed = 0;
  ReplayCheck(sys.get(), served, served_epoch, workload == Workload::kIngest,
              &checks, &replayed);
  double calib_max_err = 0.0;
  if (workload == Workload::kExactSmall) {
    calib_max_err = CalibrationCheck(sys.get(), served, served_epoch, &checks);
  }
  sys->server->Stop();
  const ServerStats final_stats = sys->server->Stats();
  checks.Expect(final_stats.submitted == sys->submits,
                "ledger: the server saw every Submit the benchmark made");
  checks.Expect(
      final_stats.submitted == final_stats.completed + final_stats.rejected,
      "ledger: submitted == completed + rejected");

  // Outcome-derived waste ratios of the Monte-Carlo layer.
  double worlds_used = 0.0, worlds_cap = 0.0, adaptive = 0.0, stops = 0.0;
  for (const Record* r : served) {
    const QueryOutcome& o = r->outcome;
    if (!o.status.ok() || o.executor != ExecutorKind::kMonteCarlo ||
        o.worlds_used == 0) {
      continue;
    }
    const QuerySpec& spec = sys->stream[r->index % sys->stream.size()];
    worlds_used += static_cast<double>(o.worlds_used);
    worlds_cap += static_cast<double>(spec.mc.num_worlds);
    if (spec.precision.mode != PrecisionMode::kFixedWorlds &&
        o.kind != QueryKind::kContinuous) {
      adaptive += 1.0;
      if (o.early_stopped) stops += 1.0;
    }
  }
  const double peak_rss_mb = PeakRssMb();
  sys.reset();
  while (static_cast<int>(times.size()) < setups) {
    if (set_up() == nullptr) return 2;
  }
  const auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> xs;
    for (const SetupTimes& t : times) xs.push_back(t.*field);
    return Quantile(xs, 0.5);
  };

  Report report;
  report.Add("setup_s", median_of(&SetupTimes::total_s), "s");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  if (!traced) {
    report.Add("qps", qps, "1/s");
    report.Add("p50_ms", latency_phase.latency(0.50), "ms");
    report.Add("p99_ms", latency_phase.latency(0.99), "ms");
  } else {
    report.Add("client.qps_traced", qps, "1/s");
    report.Add("client.trace_overhead", qps > 0.0 ? qps_untraced / qps : 0.0,
               "ratio");
    report.Add("client.p50_ms", latency_phase.latency(0.50), "ms");
    report.Add("client.p99_ms", latency_phase.latency(0.99), "ms");
  }
  // Client-side numbers that are not comparable across every workload (or
  // are 0 on a healthy run), so they are not gated end-to-end metrics.
  report.Add("client.gen_lag_p50_ms", gen_lag_p50, "ms");
  report.Add("client.gen_lag_p99_ms", gen_lag_p99, "ms");
  report.Add("client.write_p50_ms", Quantile(write_ms, 0.50), "ms");
  report.Add("client.write_p99_ms", Quantile(write_ms, 0.99), "ms");
  report.Add("client.fail_ratio",
             attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
             "ratio");
  report.Add("client.calib_max_err", calib_max_err, "prob");
  if (traced) {
    // ---- per-layer metrics: set-up layers (median over the set-ups), the
    // traced server's statistics, and the probe.
    report.Add("gen.world_s", median_of(&SetupTimes::gen_s), "s");
    report.Add("index.build_s",
               workload == Workload::kExactSmall ? probe->index_build_s
                                                 : median_of(&SetupTimes::index_s),
               "s");
    report.Add("model.adapt_s", median_of(&SetupTimes::adapt_s), "s");
    report.Add("model.adapt_us_per_object",
               median_of(&SetupTimes::adapt_us_per_object), "us");
    report.Add("query.warm_s", median_of(&SetupTimes::warm_s), "s");

    report.Add("query.worlds_used_ratio",
               worlds_cap > 0.0 ? worlds_used / worlds_cap : 0.0, "ratio");
    report.Add("query.early_stop_ratio", adaptive > 0.0 ? stops / adaptive : 0.0,
               "ratio");

    LatencyHistogram exec;
    double exec_us = 0.0, idle_us = 0.0;
    for (const LaneStats& lane : stats.lanes) {
      exec.Merge(lane.exec_micros);
      exec_us += lane.exec_micros.mean() *
                 static_cast<double>(lane.exec_micros.count());
      idle_us += static_cast<double>(lane.idle_micros);
    }
    const double lane_us =
        server_wall_s * 1e6 * static_cast<double>(stats.lanes.size());
    const double lookups =
        static_cast<double>(stats.cache.hits + stats.cache.misses);
    report.Add("server.submit_us", Quantile(submit_us, 0.99), "us");
    report.Add("server.queue_p50_ms", stats.queue_micros.Quantile(0.50) / 1e3, "ms");
    report.Add("server.queue_p99_ms", stats.queue_micros.Quantile(0.99) / 1e3, "ms");
    report.Add("server.exec_p50_ms", exec.Quantile(0.50) / 1e3, "ms");
    report.Add("server.exec_p99_ms", exec.Quantile(0.99) / 1e3, "ms");
    report.Add("server.lane_busy_ratio", exec_us / lane_us, "ratio");
    report.Add("server.lane_idle_ratio", idle_us / lane_us, "ratio");
    report.Add("server.steals", static_cast<double>(stats.lane_steals()), "count");
    report.Add("server.morsels", static_cast<double>(stats.morsels_executed()),
               "count");
    report.Add("server.batches", static_cast<double>(stats.batches), "count");
    report.Add("server.lane_queue_peak",
               static_cast<double>(stats.lane_queue_peak), "count");
    report.Add("server.cache_hit_ratio",
               lookups > 0.0 ? stats.cache.hits / lookups : 0.0, "ratio");
    report.Add("server.session_builds", static_cast<double>(stats.cache.misses),
               "count");
    report.Add("server.build_failures",
               static_cast<double>(stats.cache.build_failures), "count");
    report.Add("server.arena_hit_ratio",
               stats.completed > 0
                   ? static_cast<double>(stats.arena_hits()) / stats.completed
                   : 0.0,
               "ratio");
    report.Add("server.arena_builds",
               static_cast<double>(stats.cache.arena_builds), "count");
    report.Add("server.worlds_sampled",
               static_cast<double>(stats.worlds_sampled()), "count");
    report.Add("server.rejected", static_cast<double>(stats.rejected), "count");
    report.Add("server.expired",
               static_cast<double>(stats.expired_in_queue + stats.expired_on_lane),
               "count");
    report.Add("server.degraded", static_cast<double>(stats.degraded_requests),
               "count");
    report.Add("server.compactions", static_cast<double>(stats.compactions),
               "count");
    report.Add("server.compaction_failures",
               static_cast<double>(stats.compaction_failures), "count");

    const ProbeResult& p = *probe;
    const double specs = std::max(1.0, p.specs);
    report.Add("index.slab_us", p.slab.mean_us(), "us");
    report.Add("index.prune_us", p.prune.mean_us(), "us");
    report.Add("index.candidates", p.candidates / specs, "count");
    report.Add("index.influencers", p.influencers / specs, "count");
    report.Add("index.prune_ratio", p.prune_ratio / specs, "ratio");
    report.Add("index.delta_build_us", p.delta_build.mean_us(), "us");
    report.Add("index.delta_depth", p.delta_depth, "count");
    report.Add("model.write_us", p.write.mean_us(), "us");
    report.Add("model.snapshot_us", p.snapshot.mean_us(), "us");
    report.Add("query.sample_us", p.sample.mean_us(), "us");
    report.Add("query.worlds_per_s",
               p.sample.total_us > 0.0 ? p.worlds * 1e6 / p.sample.total_us : 0.0,
               "1/s");
    report.Add("query.arena_build_s", p.arena_build.mean_us() / 1e6, "s");
    report.Add("query.arena_bytes",
               p.arena_build.calls > 0 ? p.arena_bytes / p.arena_build.calls : 0.0,
               "bytes");
    report.Add("query.arena_eval_us", p.arena_eval.mean_us(), "us");
    report.Add("query.reduce_us", p.reduce.mean_us(), "us");
    report.Add("query.pcnn_us", p.pcnn.mean_us(), "us");
    report.Add("query.refine_us", p.refine.mean_us(), "us");
    report.Add("query.plan_exact_share", p.planned_exact / specs, "ratio");
  }

  JsonWriter out;
  out.String("workload", name);
  out.Uint("seed", seed);
  out.String("scale", scale);
  out.Double("seconds", seconds);
  out.String("mode", traced ? "traced" : "untraced");
  out.Raw("correct", checks.ok() ? "true" : "false");
  out.Raw("valid", valid ? "true" : "false");
  out.Raw("realtime_sender", latency_phase.realtime_sender ? "true" : "false");
  out.Uint("attempted", attempted);
  out.Uint("failed", failed);
  out.Uint("replayed", replayed);
  std::vector<std::string> failures;
  for (const std::string& f : checks.failures()) {
    failures.push_back("\"" + JsonWriter::Escape(f) + "\"");
  }
  out.Raw("failed_checks", JsonWriter::Array(failures));
  out.Raw("metrics", report.Render());
  std::printf("%s\n", out.Render().c_str());
  return checks.ok() && valid ? 0 : 1;
}

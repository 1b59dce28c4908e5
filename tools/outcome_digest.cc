// Outcome digest: the byte-identity check of the query pipeline, as a tool.
//
// Evaluates one fixed spec matrix over three seeded worlds — the paper's
// Figure 1 world, a synthetic world, and a synthetic world whose writes
// since its UST-tree was built are patched by a delta — in every execution
// mode, and hashes (FNV-1a-64) each outcome's status, kind, backend,
// worlds_used, early_stopped, pruning counts, raw probability bits and PCNN
// entries, in spec order. `used_arena` and the *_millis timers are left out:
// they describe how an outcome was computed, not what it is.
//
// The matrix: P∀NN / P∃NN / PCNN at k = 1 and 2; fixed, epsilon and
// threshold precision; the auto and Monte-Carlo backends; 300 and 1 024
// worlds; two query points per world. The modes: per-spec
// QuerySession::Run, RunAll at 1 and 4 threads, and a 2-lane QueryServer
// with overload control off (so no spec is degraded), each with world
// columns off and built from the first use.
//
// Prints one digest per section and one overall. Exits 1 when two modes of
// a section disagree — the schedule half of the determinism contract, run
// as a ctest. For the cross-commit half, build and run the tool at two
// commits and compare the printed digests: a change that keeps outcomes
// byte-identical leaves every line equal.
//
// Usage: outcome_digest   (no flags; about 1 s in Release)
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "gen/workload.h"
#include "index/ust_tree.h"
#include "query/session.h"
#include "server/query_server.h"
#include "test_world.h"
#include "util/check.h"
#include "util/rng.h"

using namespace ust;

namespace {

/// FNV-1a, 64-bit.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void HashOutcome(const QueryOutcome& out, Fnv64* h) {
  h->U64(static_cast<uint64_t>(out.status.code()));
  h->Str(out.status.message());
  h->U64(static_cast<uint64_t>(out.kind));
  h->U64(static_cast<uint64_t>(out.executor));
  h->U64(out.worlds_used);
  h->U64(out.early_stopped ? 1 : 0);
  h->U64(out.pnn.num_candidates);
  h->U64(out.pnn.num_influencers);
  h->U64(out.pnn.results.size());
  for (const PnnResultEntry& r : out.pnn.results) {
    h->U64(r.object);
    h->F64(r.prob);
  }
  h->U64(out.pcnn.num_candidates);
  h->U64(out.pcnn.num_influencers);
  h->U64(out.pcnn.pcnn.validations);
  h->U64(out.pcnn.pcnn.candidates_generated);
  h->U64(out.pcnn.pcnn.entries.size());
  for (const PcnnEntry& e : out.pcnn.pcnn.entries) {
    h->U64(e.object);
    h->U64(e.tics.size());
    for (Tic t : e.tics) h->U64(static_cast<uint64_t>(t));
    h->F64(e.prob);
  }
}

uint64_t Digest(const std::vector<QueryOutcome>& outcomes) {
  Fnv64 h;
  for (const QueryOutcome& out : outcomes) HashOutcome(out, &h);
  return h.value();
}

/// What the matrix exercised: specs enumerated, stopped early, and failed.
std::string Coverage(const std::vector<QueryOutcome>& outcomes) {
  size_t exact = 0, early = 0, failed = 0;
  for (const QueryOutcome& out : outcomes) {
    exact += out.status.ok() && out.executor == ExecutorKind::kExact;
    early += out.early_stopped;
    failed += !out.status.ok();
  }
  return "exact " + std::to_string(exact) + "  early stops " +
         std::to_string(early) + "  failed " + std::to_string(failed);
}

/// The spec matrix over (q, T) for each query point.
std::vector<QuerySpec> Matrix(const std::vector<QueryTrajectory>& points,
                              const TimeInterval& T) {
  std::vector<QuerySpec> specs;
  uint64_t seed = 42;
  for (const QueryTrajectory& q : points) {
    ++seed;
    for (QueryKind kind : {QueryKind::kForall, QueryKind::kExists,
                           QueryKind::kContinuous}) {
      for (int k : {1, 2}) {
        for (PrecisionMode mode :
             {PrecisionMode::kFixedWorlds, PrecisionMode::kEpsilon,
              PrecisionMode::kThreshold}) {
          for (ExecutorKind backend :
               {ExecutorKind::kAuto, ExecutorKind::kMonteCarlo}) {
            for (size_t worlds : {300, 1024}) {
              QuerySpec spec;
              spec.kind = kind;
              spec.q = q;
              spec.T = T;
              spec.tau = kind == QueryKind::kContinuous ? 0.3 : 0.1;
              spec.mc.num_worlds = worlds;
              spec.mc.k = k;
              spec.mc.seed = seed;
              spec.precision.mode = mode;
              spec.precision.epsilon = 0.05;
              spec.precision.delta = 0.05;
              spec.backend = backend;
              specs.push_back(spec);
            }
          }
        }
      }
    }
  }
  return specs;
}

/// Digest of `specs` in every mode; prints the section line and returns
/// false when two modes disagree.
bool RunSection(const char* name, const TrajectoryDatabase& db,
                const UstTree* index, const std::vector<QuerySpec>& specs,
                Fnv64* overall) {
  struct Mode {
    std::string name;
    uint64_t digest;
  };
  std::vector<Mode> modes;
  std::string coverage;
  for (int arena_min_uses : {0, 1}) {
    const std::string columns =
        arena_min_uses == 0 ? "columns off" : "columns from first use";
    SessionOptions options;
    options.arena_min_uses = arena_min_uses;
    {
      QuerySession session(db, index, options);
      std::vector<QueryOutcome> outcomes;
      outcomes.reserve(specs.size());
      for (const QuerySpec& spec : specs) outcomes.push_back(session.Run(spec));
      modes.push_back({"per-spec Run, " + columns, Digest(outcomes)});
      coverage = Coverage(outcomes);
    }
    for (int threads : {1, 4}) {
      options.threads = threads;
      QuerySession session(db, index, options);
      modes.push_back({"RunAll at " + std::to_string(threads) +
                           " threads, " + columns,
                       Digest(session.RunAll(specs))});
    }
    ServerOptions server_options;
    server_options.lanes = 2;
    server_options.arena_min_uses = arena_min_uses;
    server_options.overload.enabled = false;
    QueryServer server(db, index, server_options);
    std::vector<std::future<QueryOutcome>> futures;
    futures.reserve(specs.size());
    for (const QuerySpec& spec : specs) futures.push_back(server.Submit(spec));
    std::vector<QueryOutcome> outcomes;
    outcomes.reserve(specs.size());
    for (auto& f : futures) outcomes.push_back(f.get());
    server.Stop();
    modes.push_back({"2-lane QueryServer, " + columns, Digest(outcomes)});
  }
  bool agree = true;
  for (const Mode& m : modes) agree &= m.digest == modes.front().digest;
  std::printf("section %-9s  digest %016" PRIx64
              "  specs %zu  modes %zu  %s%s\n",
              name, modes.front().digest, specs.size(), modes.size(),
              coverage.c_str(), agree ? "" : "  MODES DISAGREE");
  if (!agree) {
    for (const Mode& m : modes) {
      std::printf("  %016" PRIx64 "  %s\n", m.digest, m.name.c_str());
    }
  }
  overall->U64(modes.front().digest);
  return agree;
}

SyntheticWorld MakeSyntheticWorld(uint64_t seed) {
  SyntheticConfig config;
  config.num_states = 1000;
  config.num_objects = 16;
  config.lifetime = 24;
  config.obs_interval = 6;
  config.horizon = 40;
  config.seed = seed;
  auto world = GenerateSyntheticWorld(config);
  UST_CHECK(world.ok());
  return world.MoveValue();
}

std::vector<QueryTrajectory> RandomPoints(const StateSpace& space,
                                          uint64_t seed) {
  Rng rng(seed);
  return {RandomQueryState(space, rng), RandomQueryState(space, rng)};
}

}  // namespace

int main() {
  Fnv64 overall;
  bool agree = true;

  const testing::Figure1World fig = testing::MakeFigure1World();
  agree &= RunSection(
      "figure1", *fig.db, nullptr,
      Matrix({fig.q, QueryTrajectory::FromPoint({0, 2.5})}, fig.T), &overall);

  const SyntheticWorld synthetic = MakeSyntheticWorld(7);
  auto synthetic_index = UstTree::Build(*synthetic.db);
  UST_CHECK(synthetic_index.ok());
  agree &= RunSection(
      "synthetic", *synthetic.db, &synthetic_index.value(),
      Matrix(RandomPoints(*synthetic.space, 1),
             BusiestInterval(*synthetic.db, 6)),
      &overall);

  // Writes after the index was built: an insert alive throughout T and a
  // lifetime extension. Every mode patches the stale index with a delta.
  const SyntheticWorld written = MakeSyntheticWorld(8);
  auto stale_index = UstTree::Build(*written.db);
  UST_CHECK(stale_index.ok());
  TrajectoryDatabase& db = *written.db;
  const TimeInterval T = BusiestInterval(db, 6);
  const UncertainObject& donor = db.object(0);
  auto obs =
      ObservationSeq::Create({{T.start, donor.observations().items()[0].state}});
  UST_CHECK(obs.ok());
  db.AddObject(obs.MoveValue(), donor.matrix_ptr(), T.end);
  const ObjectId extended = 1;
  UST_CHECK(db.ExtendLifetime(extended, db.object(extended).last_tic() + 6)
                .ok());
  UST_CHECK(QuerySession(db, &stale_index.value()).delta_depth() > 0);
  agree &= RunSection("delta", db, &stale_index.value(),
                      Matrix(RandomPoints(*written.space, 2), T), &overall);

  std::printf("overall            digest %016" PRIx64 "\n", overall.value());
  return agree ? 0 : 1;
}

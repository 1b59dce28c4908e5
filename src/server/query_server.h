// The serving tier's front-end (DESIGN.md section 5): many client threads
// submit single QuerySpecs; a dispatcher thread coalesces them into
// micro-batches under a latency deadline; a fixed pool of *execution lanes*
// runs the batches on the QuerySession pipeline, through the SessionCache's
// one shared session per epoch.
//
//   Submit(spec) -> future<QueryOutcome>
//     bounded admission: requests beyond `queue_capacity` in flight are
//     rejected immediately with kResourceLimit (backpressure, never
//     blocking).
//   dispatcher
//     flushes a batch when it holds max_batch_size specs or
//     max_batch_delay_ms elapsed since the batch opened, pins the database
//     epoch for the whole batch (db->Snapshot()), groups specs by query
//     interval, stages each group on the lane queue over pre-sized per-spec
//     result slots, and returns to the admission window immediately. Flush
//     cadence is therefore independent of batch execution time: one
//     oversized batch can no longer stall the deadline of the batches
//     behind it.
//   lanes (options.lanes threads; DESIGN.md §5.5)
//     a lane pops the oldest staged group off the lane queue, checks its
//     epoch's shared const session out of the SessionCache and runs the
//     whole group itself, one spec at a time. Groups of distinct intervals
//     run concurrently on distinct lanes; one group never spans two lanes.
//
// Because a query's result is a pure function of (epoch, spec) — the PR 2
// determinism contract — batching, the cache, the thread pool and the lane
// pool never change a bit of any outcome: every spec is executed exactly
// once into its own slot by QuerySession::Execute (itself bit-identical at
// any pool size), so Submit(spec).get() equals a serial
// QuerySession::Run(spec) over the same epoch at any lane count.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "model/trajectory_database.h"
#include "server/overload.h"
#include "server/session_cache.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ust {

/// \brief Serving-tier knobs.
struct ServerOptions {
  /// Execution lanes: groups for distinct intervals run concurrently on
  /// this many worker threads. 1 is a single execution stream, just off
  /// the dispatcher thread.
  int lanes = 1;
  /// Worker threads of each lane's private world pool (one query's world
  /// chunks sharded per spec) and of each cached session's Prepare pass.
  int threads = 1;
  /// Flush a micro-batch at this many specs...
  size_t max_batch_size = 64;
  /// ...or this many milliseconds after it opened, whichever first.
  double max_batch_delay_ms = 1.0;
  /// Admission bound on *in-flight* requests (admitted, not yet completed —
  /// queued, staged for a lane, or executing). Submits beyond it are
  /// rejected, so lane backlogs surface as backpressure exactly like
  /// dispatcher backlogs did pre-lanes.
  size_t queue_capacity = 4096;
  /// Not a setting: the session cache holds one session, the newest
  /// epoch's. benchmark/ustbench.cc still sizes its warm-up (how many
  /// intervals it warms) by this count.
  static constexpr size_t session_cache_capacity = 8;
  /// World-column policy handed to every session (see
  /// SessionOptions::arena_min_uses): a hot (interval, seed) group's
  /// participants' worlds are materialized once per object in the server's
  /// column store, and every later Monte-Carlo spec reads them —
  /// bit-identically — instead of re-sampling, across epochs too. 0
  /// disables columns; the default 2 caches once a group proved hot.
  int arena_min_uses = 2;
  /// Enable the process-wide event tracer (util/trace.h) for this server's
  /// lifetime: every request is followed admission-to-finalize by the span
  /// taxonomy of DESIGN.md section 9. Stop() quiesces the recorders, after
  /// which DumpTrace() exports Chrome trace_event JSON. Off by default —
  /// a disabled probe is one relaxed load.
  bool trace = false;
  /// Ring capacity per traced thread (events; oldest overwritten on wrap,
  /// surfaced as the trace_dropped metric).
  size_t trace_events_per_thread = 1 << 16;
  /// Run the background compaction thread: periodically bring the base
  /// UstTree up to the current epoch and publish it through the database
  /// (TrajectoryDatabase::PublishIndex), so session deltas stay shallow
  /// under sustained writes. The new base is spliced from the freshest one
  /// and the written objects' entries (UstTree::Splice), so a pass costs
  /// O(changed objects). Publication never bumps the epoch — outcomes are
  /// bit-identical whether a query lands before or after it.
  bool compaction = false;
  /// Compaction poll period. Each wake-up publishes a new base if any
  /// object was written since the freshest one.
  double compaction_interval_ms = 10.0;
  /// Overload controller thresholds and degradation policy (DESIGN.md
  /// section 11): watermarks on in-flight utilization and queue-delay EWMA
  /// drive normal -> degrade -> shed. The defaults keep a server under the
  /// admission bound in kNormal — existing workloads see no behavior change.
  OverloadOptions overload;
};

/// \brief Per-lane execution counters and timing.
struct LaneStats {
  uint64_t batches = 0;   ///< groups this lane adopted
  /// Specs of the groups this lane adopted: each one it executed, expired
  /// or failed with its group's session build.
  uint64_t requests = 0;
  /// Specs this lane executed. A morsel is one spec, run through
  /// QuerySession::Execute.
  uint64_t morsels = 0;
  /// Specs this lane evaluated with every alive participant's worlds read
  /// from a world column instead of sampled live
  /// (QueryOutcome::used_arena).
  uint64_t arena_hits = 0;
  /// Monte-Carlo worlds this lane actually drew or evaluated
  /// (QueryOutcome::worlds_used summed over its specs) — with adaptive
  /// precision this is the real sampling work, not the num_worlds caps.
  uint64_t worlds_sampled = 0;
  /// Microseconds this lane spent parked on the lane queue waiting for a
  /// group to adopt (the idle complement of exec_micros: a loaded server
  /// with high idle_micros has a scheduling problem, not a load problem).
  uint64_t idle_micros = 0;
  /// Wall time of each executed spec, microseconds.
  LatencyHistogram exec_micros;
};

/// \brief Snapshot of one QueryServer's instruments (the registry's values
/// at Stats() time, plus the named fields tests and benches read
/// programmatically — both views of the same counters).
struct ServerStats {
  uint64_t submitted = 0;  ///< all Submit calls
  uint64_t admitted = 0;   ///< entered the queue
  uint64_t rejected = 0;   ///< bounced — always the sum of the split below
  /// The rejection reasons, split (DESIGN.md section 11): the admission
  /// bound, the overload controller's shed regime, and the drain window.
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_shed = 0;
  uint64_t rejected_draining = 0;
  uint64_t completed = 0;  ///< outcomes delivered (deadline misses included)
  /// Admitted requests whose deadline expired while still queued: the
  /// dispatcher resolved them kDeadlineExceeded without staging a lane job.
  uint64_t expired_in_queue = 0;
  /// Staged specs whose deadline expired before they ran: the lane checked
  /// each one just before its turn and resolved it kDeadlineExceeded,
  /// unexecuted.
  uint64_t expired_on_lane = 0;
  /// Specs the degrade regime switched from implicit fixed-worlds precision
  /// to the server-default epsilon target.
  uint64_t degraded_requests = 0;
  /// Gauge: OverloadRegime at the last admission (0 normal / 1 degrade /
  /// 2 shed).
  size_t overload_regime = 0;
  uint64_t batches = 0;    ///< micro-batches dispatched
  uint64_t flush_full = 0;      ///< flushed because the batch filled
  uint64_t flush_deadline = 0;  ///< flushed by the latency deadline
  uint64_t flush_drain = 0;     ///< flushed by shutdown drain
  size_t lane_queue_depth = 0;  ///< gauge: groups awaiting adoption right now
  size_t lane_queue_peak = 0;   ///< high-water mark of that queue
  /// Specs whose adaptive stopping rule fired before the num_worlds cap.
  uint64_t early_stops = 0;
  /// Worlds the early stops did not have to draw: sum of
  /// (num_worlds - worlds_used) over early-stopped Monte-Carlo outcomes.
  uint64_t worlds_saved = 0;
  /// Trace events overwritten by ring wrap since tracing was enabled
  /// (0 when tracing is off — see util/trace.h).
  uint64_t trace_dropped = 0;
  /// Base-tree rebuilds the compaction thread published.
  uint64_t compactions = 0;
  /// Rebuild attempts that failed (e.g. contradicting observations); the
  /// previous base stays published.
  uint64_t compaction_failures = 0;
  /// Gauge: rewritten objects not yet folded into the freshest base, as of
  /// the compactor's last look (0 with compaction off).
  size_t delta_depth = 0;
  SessionCacheStats cache;
  /// Every registered instrument in registration order — what ToJson
  /// enumerates, so an instrument added anywhere in the serving tier
  /// appears in the dump without touching serialization code.
  std::vector<MetricSample> metrics;
  /// Submit-to-completion latency per request, in microseconds.
  LatencyHistogram latency_micros;
  /// Submit-to-flush (admission window to lane handoff) per request, in
  /// microseconds. Independent of execution time by construction — the
  /// regression test for the pre-lane inline dispatcher pins this.
  LatencyHistogram queue_micros;
  /// One entry per execution lane.
  std::vector<LaneStats> lanes;

  /// Always 0: a group runs whole on the lane that adopts it, so no lane
  /// takes work off another. Kept because benchmark/ustbench.cc reports it
  /// as `server.steals`.
  uint64_t lane_steals() const { return 0; }
  /// Sum of LaneStats::morsels — the specs the lanes executed.
  uint64_t morsels_executed() const;
  /// Sum of LaneStats::arena_hits — specs served off a shared world arena.
  uint64_t arena_hits() const;
  /// Sum of LaneStats::worlds_sampled — Monte-Carlo worlds actually drawn.
  uint64_t worlds_sampled() const;
  /// Sum of LaneStats::idle_micros — lane time parked waiting for groups.
  uint64_t lane_idle_micros() const;

  /// Render as a JSON object: the registered instruments (self-enumerated
  /// from `metrics`, so only QueryServer::Stats() snapshots render them),
  /// the derived aggregates, and a per-lane array. Built on ust::JsonWriter,
  /// so empty lane arrays and escaping are structurally correct.
  std::string ToJson() const;
};

/// \brief Micro-batching admission front-end over one live database.
///
/// Submit() is thread-safe and non-blocking. Write traffic goes directly to
/// the TrajectoryDatabase (its writers are internally synchronized); the
/// dispatcher pins the then-current epoch per batch, so a write becomes
/// visible at the next batch boundary and never torn mid-batch.
class QueryServer {
 public:
  explicit QueryServer(const TrajectoryDatabase& db,
                       const UstTree* index = nullptr,
                       ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Enqueue one query. The future resolves with the outcome — or resolves
  /// immediately with kResourceLimit when the request is bounced: in-flight
  /// bound hit, shed by the overload controller, or the server is draining
  /// after Stop(). A spec with deadline_ms > 0 may instead resolve
  /// kDeadlineExceeded when its budget expires before execution (checked
  /// only in the queue and just before the spec runs on its lane — an
  /// executed spec is always bit-identical to the deadline-free run).
  std::future<QueryOutcome> Submit(QuerySpec spec);

  /// Hold dispatching (submits keep queueing up to the admission bound;
  /// lanes finish what they already hold). Lets operators drain write
  /// bursts — and tests fill the queue deterministically.
  void Pause();
  /// Resume dispatching.
  void Resume();

  /// Stop accepting, run every queued request to completion, join the
  /// dispatcher and every lane. Idempotent; called by the destructor.
  void Stop();

  /// Consistent copy of the counters and histograms.
  ServerStats Stats() const;

  /// Export the recorded trace as Chrome trace_event JSON (see
  /// util/trace.h). Call after Stop(): the exporter requires quiesced
  /// recorders, and Stop joins every lane and the dispatcher. False when
  /// the file cannot be written.
  bool DumpTrace(const std::string& path) const;

  const ServerOptions& options() const { return options_; }

 private:
  struct Request {
    QuerySpec spec;
    std::promise<QueryOutcome> promise;
    std::chrono::steady_clock::time_point submitted_at;
    /// Admission-ordered id carried by every span of this request's
    /// lifecycle (args {"req": id} — the join key across threads).
    uint64_t id = 0;
    /// Absolute expiry (admission time + spec.deadline_ms), valid only when
    /// has_deadline. Fixed at admission so queueing time counts against the
    /// budget — deadline propagation, not per-stage timeouts.
    std::chrono::steady_clock::time_point deadline_at;
    bool has_deadline = false;
  };

  /// One interval group of one flushed batch. The snapshot pins the batch's
  /// admission epoch all the way to execution, and the session is that
  /// epoch's; `outcomes` are the pre-sized per-spec result slots. The lane
  /// that pops a group off `groups_` owns it alone.
  struct GroupTask {
    DbSnapshot snapshot;
    std::vector<Request> requests;       ///< promise + submit time, in order
    std::vector<QuerySpec> specs;        ///< specs[i] from requests[i]
    std::vector<QueryOutcome> outcomes;  ///< slot i belongs to specs[i]
    /// Set by the adopting lane; const, so the lane runs it only through the
    /// read-only Execute path.
    std::shared_ptr<const QuerySession> session;
  };

  void DispatcherLoop();
  void LaneLoop(int lane);
  /// Pin the epoch, group by interval, stage each group on the lane queue.
  void StageBatch(std::vector<Request>* batch);
  /// Run every spec of `group` in order through its shared session — a spec
  /// whose deadline passed before its turn resolves kDeadlineExceeded
  /// unexecuted — then finalize the group.
  void RunGroup(GroupTask* group, int lane, ThreadPool* world_pool,
                WorldSampler::Scratch* scratch);
  /// Deliver outcomes to the promises, record completion stats, release the
  /// group's hold on its session.
  void FinalizeGroup(GroupTask* group);
  /// The expiry clock: now, plus any injected "deadline_skew" fault offset.
  /// Read once per decision point (queue shed pass, each spec on a lane).
  static std::chrono::steady_clock::time_point DeadlineNow();
  /// True when the degrade regime may coarsen this spec: a non-continuous
  /// query on the implicit fixed-worlds default (an explicit precision ask
  /// is a client contract the server honors even under overload).
  static bool Degradable(const QuerySpec& spec);

  const TrajectoryDatabase* db_;
  const UstTree* index_;
  ServerOptions options_;
  SessionCache cache_;  ///< thread-safe; lanes check sessions out

  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< admission queue -> dispatcher
  std::condition_variable lane_cv_;  ///< staged groups -> lanes
  std::deque<Request> queue_;
  /// The lane queue: staged groups in staging order. A lane adopts a group
  /// by popping it off the front.
  std::deque<GroupTask> groups_;
  bool stopping_ = false;        ///< no new admissions; dispatcher drains
  bool lanes_stopping_ = false;  ///< set after the dispatcher exits
  bool paused_ = false;
  uint64_t in_flight_ = 0;         ///< admitted, not yet completed
  uint64_t next_request_id_ = 0;   ///< guarded by mu_
  std::vector<LaneStats> lane_stats_;  ///< guarded by mu_
  /// Regime state machine (DESIGN.md section 11); guarded by mu_ — Submit
  /// feeds it utilization, the dispatcher feeds it queue delays.
  OverloadController overload_;

  /// The server's instruments (DESIGN.md section 9). Lifecycle counters and
  /// histograms live here instead of ad-hoc struct fields; the cache's and
  /// its column store's tallies register into the same registry, so
  /// Stats()/ToJson enumerate every signal of the serving tier from one
  /// place.
  MetricRegistry metrics_;
  Counter* c_submitted_;
  Counter* c_admitted_;
  Counter* c_rejected_;
  Counter* c_rejected_queue_full_;
  Counter* c_rejected_shed_;
  Counter* c_rejected_draining_;
  Counter* c_completed_;
  Counter* c_expired_in_queue_;
  Counter* c_expired_on_lane_;
  Counter* c_degraded_;
  Counter* c_batches_;
  Counter* c_flush_full_;
  Counter* c_flush_deadline_;
  Counter* c_flush_drain_;
  Counter* c_early_stops_;
  Counter* c_worlds_saved_;
  Gauge* g_lane_queue_peak_;
  Gauge* g_overload_regime_;
  Gauge* g_trace_dropped_;
  Counter* c_compactions_;
  Counter* c_compaction_failures_;
  Gauge* g_delta_depth_;
  HistogramMetric* h_latency_;
  HistogramMetric* h_queue_;
  bool owns_trace_ = false;  ///< this server enabled the global tracer

  /// One compaction pass: when objects were written since the freshest
  /// base, splice a base at the current epoch and publish it.
  void CompactOnce();
  void CompactionLoop();
  std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  bool compact_stop_ = false;

  std::mutex join_mu_;  ///< serializes Stop()'s joins
  std::thread dispatcher_;
  std::thread compactor_;
  std::vector<std::thread> lanes_;
};

}  // namespace ust

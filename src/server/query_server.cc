#include "server/query_server.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/fault.h"
#include "util/trace.h"

namespace ust {

namespace {

QueryOutcome RejectedOutcome(Status status, QueryKind kind) {
  QueryOutcome out;
  out.status = std::move(status);
  out.kind = kind;
  return out;
}

SessionOptions MakeSessionOptions(const ServerOptions& options) {
  SessionOptions session_options;
  session_options.threads = options.threads;
  session_options.planner = options.planner;
  session_options.arena_min_uses = options.arena_min_uses;
  return session_options;
}

}  // namespace

uint64_t ServerStats::lane_steals() const {
  uint64_t total = 0;
  for (const LaneStats& lane : lanes) total += lane.steals;
  return total;
}

uint64_t ServerStats::morsels_executed() const {
  uint64_t total = 0;
  for (const LaneStats& lane : lanes) total += lane.morsels;
  return total;
}

uint64_t ServerStats::arena_hits() const {
  uint64_t total = 0;
  for (const LaneStats& lane : lanes) total += lane.arena_hits;
  return total;
}

uint64_t ServerStats::worlds_sampled() const {
  uint64_t total = 0;
  for (const LaneStats& lane : lanes) total += lane.worlds_sampled;
  return total;
}

uint64_t ServerStats::lane_idle_micros() const {
  uint64_t total = 0;
  for (const LaneStats& lane : lanes) total += lane.idle_micros;
  return total;
}

std::string ServerStats::ToJson() const {
  JsonWriter w;
  // The instruments, self-enumerated: a counter registered anywhere in the
  // serving tier shows up here without this function changing.
  for (const MetricSample& sample : metrics) {
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        w.Uint(sample.name, sample.counter);
        break;
      case MetricSample::Kind::kGauge:
        w.Int(sample.name, sample.gauge);
        break;
      case MetricSample::Kind::kHistogram:
        w.Raw(sample.name, sample.histogram.ToJson());
        break;
    }
  }
  // Derived aggregates (functions of the snapshot, not instruments).
  w.Double("avg_batch_size",
           batches == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(batches),
           "%.3f");
  w.Uint("lane_queue_depth", lane_queue_depth);
  w.Uint("lane_steals", lane_steals());
  w.Uint("morsels_executed", morsels_executed());
  w.Uint("lane_idle_us", lane_idle_micros());
  w.Uint("worlds_sampled", worlds_sampled());
  std::vector<std::string> lane_objects;
  lane_objects.reserve(lanes.size());
  for (const LaneStats& lane : lanes) {
    JsonWriter lw;
    lw.Uint("batches", lane.batches);
    lw.Uint("requests", lane.requests);
    lw.Uint("morsels", lane.morsels);
    lw.Uint("steals", lane.steals);
    lw.Uint("arena_hits", lane.arena_hits);
    lw.Uint("worlds_sampled", lane.worlds_sampled);
    lw.Uint("idle_us", lane.idle_micros);
    lw.Raw("exec_us", lane.exec_micros.ToJson());
    lane_objects.push_back(lw.Render());
  }
  w.Raw("lanes", JsonWriter::Array(lane_objects));
  return w.Render();
}

QueryServer::QueryServer(const TrajectoryDatabase& db, const UstTree* index,
                         ServerOptions options)
    : db_(&db), index_(index), options_(options),
      cache_(options.session_cache_capacity, MakeSessionOptions(options)),
      overload_(options.overload) {
  // A zero batch size would dispatch empty batches forever while admitted
  // requests starve, a zero queue capacity would bounce all traffic, and a
  // zero-lane pool would stage jobs nobody executes; a server always admits,
  // batches and executes at least one spec at a time.
  options_.lanes = std::max(1, options_.lanes);
  options_.max_batch_size = std::max<size_t>(1, options_.max_batch_size);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  options_.morsel_specs = std::max<size_t>(1, options_.morsel_specs);
  lane_stats_.resize(static_cast<size_t>(options_.lanes));
  // Instrument registration order is JSON field order (ToJson enumerates
  // the registry).
  c_submitted_ = metrics_.NewCounter("submitted");
  c_admitted_ = metrics_.NewCounter("admitted");
  c_rejected_ = metrics_.NewCounter("rejected");
  c_rejected_queue_full_ = metrics_.NewCounter("rejected_queue_full");
  c_rejected_shed_ = metrics_.NewCounter("rejected_shed");
  c_rejected_draining_ = metrics_.NewCounter("rejected_draining");
  c_completed_ = metrics_.NewCounter("completed");
  c_expired_in_queue_ = metrics_.NewCounter("expired_in_queue");
  c_expired_on_lane_ = metrics_.NewCounter("expired_on_lane");
  c_degraded_ = metrics_.NewCounter("degraded_requests");
  c_batches_ = metrics_.NewCounter("batches");
  c_flush_full_ = metrics_.NewCounter("flush_full");
  c_flush_deadline_ = metrics_.NewCounter("flush_deadline");
  c_flush_drain_ = metrics_.NewCounter("flush_drain");
  c_early_stops_ = metrics_.NewCounter("early_stops");
  c_worlds_saved_ = metrics_.NewCounter("worlds_saved");
  g_lane_queue_peak_ = metrics_.NewGauge("lane_queue_peak");
  g_overload_regime_ = metrics_.NewGauge("overload_regime");
  g_trace_dropped_ = metrics_.NewGauge("trace_dropped");
  c_compactions_ = metrics_.NewCounter("compactions");
  c_compaction_failures_ = metrics_.NewCounter("compaction_failures");
  g_delta_depth_ = metrics_.NewGauge("delta_depth");
  cache_.RegisterMetrics(&metrics_);
  h_latency_ = metrics_.NewHistogram("latency_us");
  h_queue_ = metrics_.NewHistogram("queue_us");
  if (options_.trace) {
    trace::Enable(options_.trace_events_per_thread);
    owns_trace_ = true;
  }
  lanes_.reserve(static_cast<size_t>(options_.lanes));
  for (int lane = 0; lane < options_.lanes; ++lane) {
    lanes_.emplace_back([this, lane] { LaneLoop(lane); });
  }
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  if (options_.compaction) {
    compactor_ = std::thread([this] { CompactionLoop(); });
  }
}

QueryServer::~QueryServer() { Stop(); }

std::future<QueryOutcome> QueryServer::Submit(QuerySpec spec) {
  trace::Span admit_span("admit");
  std::promise<QueryOutcome> promise;
  std::future<QueryOutcome> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    c_submitted_->Increment();
    if (stopping_) {
      // Deterministic drain contract: every Submit racing (or following)
      // Stop() resolves immediately with the same tagged backpressure
      // status a full queue produces — retryable, never ambiguous.
      c_rejected_->Increment();
      c_rejected_draining_->Increment();
      admit_span.set_tag("rejected");
      promise.set_value(RejectedOutcome(
          Status::ResourceLimit("query server is draining"), spec.kind));
      return future;
    }
    if (in_flight_ >= options_.queue_capacity) {
      // Backpressure: bounce immediately instead of blocking the client —
      // the caller sees kResourceLimit and can retry with its own policy.
      // Counting *in-flight* requests (not just the admission queue) keeps
      // the bound meaningful now that flushed batches wait in the lane
      // queue: execution backlog is still backlog.
      c_rejected_->Increment();
      c_rejected_queue_full_->Increment();
      admit_span.set_tag("rejected");
      promise.set_value(RejectedOutcome(
          Status::ResourceLimit("admission queue full"), spec.kind));
      return future;
    }
    // Overload control (DESIGN.md section 11), well before the hard bound:
    // the regime is re-evaluated on every admission from the in-flight
    // utilization (the queue-delay EWMA side is fed by the dispatcher).
    const OverloadRegime regime =
        overload_.Update(in_flight_, options_.queue_capacity);
    g_overload_regime_->Set(static_cast<int64_t>(regime));
    if (regime == OverloadRegime::kShed &&
        spec.priority <= overload_.options().shed_max_priority) {
      // Shed the lowest class early: cheaper for everyone than letting it
      // queue up, expire, and still cost a dispatcher pass.
      c_rejected_->Increment();
      c_rejected_shed_->Increment();
      admit_span.set_tag("shed");
      promise.set_value(RejectedOutcome(
          Status::ResourceLimit("shed under overload"), spec.kind));
      return future;
    }
    if (regime != OverloadRegime::kNormal && Degradable(spec)) {
      // Graceful degradation: coarsen the *implicit* precision default to
      // the server's overload epsilon. Epsilon-mode early stopping is
      // deterministic per spec, so the degraded spec is itself a perfectly
      // reproducible query — just a cheaper one than the client's default.
      spec.precision.mode = PrecisionMode::kEpsilon;
      spec.precision.epsilon = overload_.options().degrade_epsilon;
      spec.precision.delta = overload_.options().degrade_delta;
      c_degraded_->Increment();
    }
    c_admitted_->Increment();
    ++in_flight_;
    const uint64_t id = ++next_request_id_;
    admit_span.set_arg(id);
    Request request;
    request.spec = std::move(spec);
    request.promise = std::move(promise);
    request.submitted_at = std::chrono::steady_clock::now();
    request.id = id;
    if (request.spec.deadline_ms > 0.0) {
      // The budget starts at admission and covers queueing + staging +
      // execution wait: propagation, not a per-stage timer. A budget past
      // the clock's range (1e18 ms, +inf) is no deadline at all: converting
      // it would overflow into an instant already expired. The millisecond
      // of slack absorbs the double-to-tick rounding.
      const auto headroom =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::time_point::max() -
              request.submitted_at);
      if (request.spec.deadline_ms <
          static_cast<double>(headroom.count() - 1)) {
        request.has_deadline = true;
        request.deadline_at =
            request.submitted_at +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::milli>(
                    request.spec.deadline_ms));
      }
    }
    queue_.push_back(std::move(request));
  }
  cv_.notify_all();
  return future;
}

void QueryServer::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void QueryServer::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void QueryServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Serialize the joins: concurrent Stop() callers (say, an explicit Stop
  // racing the destructor) all block here until the pipeline has fully
  // drained, and exactly one of them performs each join.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  // The compactor can go at any point (it only rebuilds a cache); stopping
  // it first keeps tree builds from competing with the drain.
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compact_stop_ = true;
  }
  compact_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  // Dispatcher next: it drains the admission queue into lane jobs, so only
  // after it exits is the lane queue complete...
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    lanes_stopping_ = true;
  }
  lane_cv_.notify_all();
  // ...then the lanes run the lane queue dry: every admitted request
  // resolves before Stop returns.
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
  if (owns_trace_) {
    // Recording stops with the pipeline; the rings keep their contents for
    // DumpTrace. (Submitters may outlive Stop, but their probes now take
    // the single-branch disabled path.)
    trace::Disable();
  }
}

ServerStats QueryServer::Stats() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.lanes = lane_stats_;
    stats.lane_queue_depth = 0;
    for (const auto& group : groups_) {
      if (!group->adopted) ++stats.lane_queue_depth;
    }
  }
  // Refresh the wrap tally before snapshotting so the dump is current.
  g_trace_dropped_->Set(static_cast<int64_t>(trace::DroppedCount()));
  stats.metrics = metrics_.Snapshot();
  stats.submitted = c_submitted_->value();
  stats.admitted = c_admitted_->value();
  stats.rejected = c_rejected_->value();
  stats.rejected_queue_full = c_rejected_queue_full_->value();
  stats.rejected_shed = c_rejected_shed_->value();
  stats.rejected_draining = c_rejected_draining_->value();
  stats.completed = c_completed_->value();
  stats.expired_in_queue = c_expired_in_queue_->value();
  stats.expired_on_lane = c_expired_on_lane_->value();
  stats.degraded_requests = c_degraded_->value();
  stats.overload_regime = static_cast<size_t>(g_overload_regime_->value());
  stats.batches = c_batches_->value();
  stats.flush_full = c_flush_full_->value();
  stats.flush_deadline = c_flush_deadline_->value();
  stats.flush_drain = c_flush_drain_->value();
  stats.early_stops = c_early_stops_->value();
  stats.worlds_saved = c_worlds_saved_->value();
  stats.lane_queue_peak = static_cast<size_t>(g_lane_queue_peak_->value());
  stats.trace_dropped = static_cast<uint64_t>(g_trace_dropped_->value());
  stats.compactions = c_compactions_->value();
  stats.compaction_failures = c_compaction_failures_->value();
  stats.delta_depth = static_cast<size_t>(g_delta_depth_->value());
  stats.latency_micros = h_latency_->Snapshot();
  stats.queue_micros = h_queue_->Snapshot();
  stats.cache = cache_.stats();
  return stats;
}

bool QueryServer::DumpTrace(const std::string& path) const {
  return trace::DumpJson(path);
}

void QueryServer::DispatcherLoop() {
  trace::PrepareThisThread();  // ring allocation off the request path
  const auto delay = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double,
                                                                 std::milli>(
      std::max(0.0, options_.max_batch_delay_ms)));
  for (;;) {
    std::vector<Request> batch;
    const char* flush_tag = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stopping_ || (!queue_.empty() && !paused_);
      });
      if (queue_.empty() && stopping_) return;
      if (!stopping_) {
        // Micro-batching window: the batch opened when the first spec was
        // seen; hold it open until it fills or the deadline passes. Late
        // submits keep landing in queue_ and are picked up by the drain.
        const auto deadline = std::chrono::steady_clock::now() + delay;
        while (!stopping_ && queue_.size() < options_.max_batch_size) {
          if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
            break;
          }
        }
      }
      const size_t n = std::min(queue_.size(), options_.max_batch_size);
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      Counter* flush_counter;
      if (stopping_) {
        flush_counter = c_flush_drain_;
        flush_tag = "drain";
      } else if (n >= options_.max_batch_size) {
        flush_counter = c_flush_full_;
        flush_tag = "full";
      } else {
        flush_counter = c_flush_deadline_;
        flush_tag = "deadline";
      }
      flush_counter->Increment();
      c_batches_->Increment();
    }
    if (!batch.empty()) {
      trace::Span flush_span("flush", batch.front().id, trace::kReqArg,
                             flush_tag);
      StageBatch(&batch);
    }
  }
}

std::chrono::steady_clock::time_point QueryServer::DeadlineNow() {
  return std::chrono::steady_clock::now() +
         std::chrono::nanoseconds(fault::SkewNs("deadline_skew"));
}

bool QueryServer::Degradable(const QuerySpec& spec) {
  return spec.kind != QueryKind::kContinuous &&
         spec.precision.mode == PrecisionMode::kFixedWorlds;
}

void QueryServer::StageBatch(std::vector<Request>* batch) {
  // Queue-side deadline shed: a request already past its budget resolves
  // here, before it costs a snapshot pin, a group slot or any lane time.
  // One clock read governs the whole pass.
  std::vector<Request> expired;
  {
    const auto now = DeadlineNow();
    size_t kept = 0;
    for (size_t i = 0; i < batch->size(); ++i) {
      Request& request = (*batch)[i];
      if (request.has_deadline && now >= request.deadline_at) {
        expired.push_back(std::move(request));
      } else {
        if (kept != i) (*batch)[kept] = std::move(request);
        ++kept;
      }
    }
    batch->resize(kept);
  }
  if (!expired.empty()) {
    const auto done = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= expired.size();
      for (const Request& request : expired) {
        // Their queue phase ended here too — and an expiring queue is
        // exactly the delay signal the overload controller must see.
        const double queue_us =
            std::chrono::duration<double, std::micro>(done -
                                                      request.submitted_at)
                .count();
        h_queue_->Record(queue_us);
        overload_.NoteQueueDelay(queue_us);
      }
    }
    for (Request& request : expired) {
      // Expired requests still resolve and still count as completed: every
      // admitted request delivers exactly one outcome (the reconciliation
      // invariant the chaos test pins).
      c_expired_in_queue_->Increment();
      c_completed_->Increment();
      h_latency_->Record(std::chrono::duration<double, std::micro>(
                             done - request.submitted_at)
                             .count());
      trace::Instant("expire_queue", request.id);
      request.promise.set_value(RejectedOutcome(
          Status::DeadlineExceeded("deadline expired in admission queue"),
          request.spec.kind));
    }
    if (batch->empty()) return;
  }

  // Admission point: the whole batch reads the epoch current at dispatch —
  // a concurrent writer's new epoch becomes visible only to later batches.
  // The snapshot rides inside each GroupTask, so the pin survives any
  // staging delay.
  DbSnapshot snapshot = db_->Snapshot();
  cache_.EvictStale(snapshot.version());

  // Group by query interval (the session cache key), preserving submit
  // order within each group. Outcomes are per-spec pure, so grouping never
  // changes results — only which session executes them. Each group is
  // published as a deque of spec-range morsels over pre-sized outcome
  // slots; distinct keys — and, with stealing, morsels of one key — may
  // execute concurrently.
  std::map<std::pair<Tic, Tic>, std::vector<size_t>> by_interval;
  for (size_t i = 0; i < batch->size(); ++i) {
    const TimeInterval& T = (*batch)[i].spec.T;
    by_interval[{T.start, T.end}].push_back(i);
  }

  std::vector<std::shared_ptr<GroupTask>> staged;
  staged.reserve(by_interval.size());
  for (auto& [key, indices] : by_interval) {
    auto group = std::make_shared<GroupTask>();
    group->snapshot = snapshot;
    group->T = TimeInterval{key.first, key.second};
    group->requests.reserve(indices.size());
    group->specs.reserve(indices.size());
    for (size_t i : indices) {
      group->requests.push_back(std::move((*batch)[i]));
      // Moved, not copied: nothing reads Request::spec after execution, and
      // a spec can carry a full query trajectory.
      group->specs.push_back(std::move(group->requests.back().spec));
    }
    group->outcomes.resize(group->specs.size());
    group->deque.Reset(0, group->specs.size(), options_.morsel_specs);
    staged.push_back(std::move(group));
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = std::chrono::steady_clock::now();
    size_t waiting = 0;
    for (auto& group : staged) {
      for (const Request& request : group->requests) {
        // Submit-to-flush latency: how long admission held the request.
        // Recorded at handoff, so it never includes execution time — the
        // whole point of the lane tier.
        const double queue_us =
            std::chrono::duration<double, std::micro>(now -
                                                      request.submitted_at)
                .count();
        h_queue_->Record(queue_us);
        overload_.NoteQueueDelay(queue_us);
        trace::Complete("queue", request.submitted_at, now, request.id);
      }
      groups_.push_back(std::move(group));
    }
    for (const auto& group : groups_) {
      if (!group->adopted) ++waiting;
    }
    g_lane_queue_peak_->MaxWith(static_cast<int64_t>(waiting));
  }
  lane_cv_.notify_all();
}

void QueryServer::LaneLoop(int lane) {
  trace::PrepareThisThread();  // ring allocation off the request path
  // Per-lane execution resources, reused across every morsel, group and
  // session this lane ever runs: the sampling scratch and (threads > 1) a
  // private world pool — shared sessions are read-only under RunMorsel, so
  // world sharding must come from lane-owned workers, never the session's.
  QuerySession::ExecScratch scratch;
  std::unique_ptr<ThreadPool> world_pool;
  if (options_.threads > 1) {
    world_pool = std::make_unique<ThreadPool>(options_.threads);
  }
  // The group whose deque this lane currently drains (owner affinity: its
  // session stays hot in cache between morsels).
  std::shared_ptr<GroupTask> own;
  for (;;) {
    std::shared_ptr<GroupTask> group;
    size_t begin = 0;
    size_t end = 0;
    bool adopt = false;
    bool stolen = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        // 1. Pop the next morsel of the lane's own group.
        if (own != nullptr && own->deque.PopFront(&begin, &end)) {
          group = own;
          break;
        }
        own.reset();
        // 2. Adopt the oldest unadopted group (FIFO keeps queue latency
        //    fair across intervals).
        for (const auto& candidate : groups_) {
          if (!candidate->adopted) {
            candidate->adopted = true;
            group = candidate;
            adopt = true;
            break;
          }
        }
        if (group != nullptr) break;
        // 3. Idle: steal the back half of the most-loaded ready group.
        //    (Groups still checking their session out are skipped — their
        //    owner publishes session_ready and wakes us when joinable.)
        std::shared_ptr<GroupTask> victim;
        size_t most_loaded = 0;
        for (const auto& candidate : groups_) {
          if (!candidate->session_ready) continue;
          const size_t remaining = candidate->deque.remaining();
          if (remaining > most_loaded) {
            most_loaded = remaining;
            victim = candidate;
          }
        }
        if (victim != nullptr && victim->deque.StealHalf(&begin, &end)) {
          ++lane_stats_[static_cast<size_t>(lane)].steals;
          trace::Instant("steal", victim->requests.front().id);
          group = victim;
          stolen = true;
          break;
        }
        if (lanes_stopping_) return;  // nothing claimable, drain complete
        // Idle accounting: this lane has nothing claimable. The clock reads
        // bracket only the wait (both under mu_, so the tally is exact and
        // race-free).
        const auto idle_start = std::chrono::steady_clock::now();
        lane_cv_.wait(lock);
        lane_stats_[static_cast<size_t>(lane)].idle_micros +=
            static_cast<uint64_t>(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - idle_start)
                    .count());
      }
      if (adopt) {
        ++lane_stats_[static_cast<size_t>(lane)].batches;
        trace::Instant("lane_adopt", group->requests.front().id);
      }
    }
    if (adopt) {
      // Check the session out (build or join — possibly expensive, so
      // outside the server mutex), then open the deque to thieves.
      {
        UST_TRACE_SCOPE("session_checkout", group->requests.front().id);
        group->session = cache_.Checkout(group->snapshot, group->T, index_);
      }
      if (!group->session) {
        // Build failed (injected or real). The deque was never opened to
        // thieves (session_ready stays false), so this lane owns every
        // spec: resolve the whole group with the error — promises must
        // never leak on a failure path.
        FailGroup(group, Status::Internal(
                             "session build failed for interval group"));
        continue;
      }
      bool claimed = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        group->session_ready = true;
        // The adopter claims its first morsel in the same critical section
        // that opens the deque: a one-morsel group always runs on the lane
        // that checked its session out, never on a thief.
        claimed = group->deque.PopFront(&begin, &end);
      }
      lane_cv_.notify_all();
      own = group;
      if (!claimed) continue;
    } else if (stolen) {
      // A stolen half-range is the thief's private deque: drain it morsel
      // by morsel (each commits + re-checks completion independently).
      for (size_t b = begin; b < end; b += options_.morsel_specs) {
        ExecuteMorsel(group, b, std::min(b + options_.morsel_specs, end),
                      lane, world_pool.get(), &scratch);
      }
      continue;
    }
    ExecuteMorsel(group, begin, end, lane, world_pool.get(), &scratch);
  }
}

void QueryServer::ExecuteMorsel(const std::shared_ptr<GroupTask>& group,
                                size_t begin, size_t end, int lane,
                                ThreadPool* world_pool,
                                QuerySession::ExecScratch* scratch) {
  fault::MaybeStall("lane_stall");
  const auto exec_start = std::chrono::steady_clock::now();
  // Morsel-boundary deadline check: ONE clock read governs every spec of
  // this morsel — expiry never interrupts a running spec, so any spec that
  // does execute is bit-identical to the deadline-free run at any schedule.
  // Expired slots get their outcome written directly; the survivors run as
  // contiguous sub-ranges (RunMorsel is per-spec pure, so splitting the
  // range changes nothing).
  uint64_t expired_here = 0;
  {
    const auto now = DeadlineNow();
    size_t run_start = begin;
    for (size_t i = begin; i <= end; ++i) {
      const bool expired = i < end && group->requests[i].has_deadline &&
                           now >= group->requests[i].deadline_at;
      if (i < end && !expired) continue;
      if (i > run_start) {
        group->session->RunMorsel(group->specs, run_start, i,
                                  group->outcomes.data(), world_pool,
                                  scratch);
      }
      if (i < end) {
        QueryOutcome& out = group->outcomes[i];
        out.status = Status::DeadlineExceeded(
            "deadline expired before lane execution");
        out.kind = group->specs[i].kind;
        trace::Instant("expire_lane", group->requests[i].id);
        ++expired_here;
      }
      run_start = i + 1;
    }
  }
  c_expired_on_lane_->Increment(expired_here);
  const auto exec_end = std::chrono::steady_clock::now();
  const double exec_micros =
      std::chrono::duration<double, std::micro>(exec_end - exec_start)
          .count();
  // The backend tag reflects the first spec of the morsel (morsels are
  // planner-homogeneous in practice; mixed ones still show where the bulk
  // of the time went).
  trace::Complete("morsel_exec", exec_start, exec_end,
                  group->requests[begin].id, trace::kReqArg,
                  ExecutorKindName(group->outcomes[begin].executor));
  uint64_t arena_hits = 0;
  uint64_t early_stops = 0;
  uint64_t worlds_saved = 0;
  uint64_t worlds_sampled = 0;
  for (size_t i = begin; i < end; ++i) {
    const QueryOutcome& outcome = group->outcomes[i];
    if (outcome.used_arena) ++arena_hits;
    worlds_sampled += outcome.worlds_used;
    if (outcome.early_stopped) {
      ++early_stops;
      worlds_saved += group->specs[i].mc.num_worlds - outcome.worlds_used;
    }
  }
  c_early_stops_->Increment(early_stops);
  c_worlds_saved_->Increment(worlds_saved);
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    LaneStats& lane_stats = lane_stats_[static_cast<size_t>(lane)];
    ++lane_stats.morsels;
    lane_stats.requests += end - begin;
    lane_stats.arena_hits += arena_hits;
    lane_stats.worlds_sampled += worlds_sampled;
    lane_stats.exec_micros.Record(exec_micros);
    group->completed += end - begin;
    last = group->completed == group->specs.size();
    if (last) {
      for (auto it = groups_.begin(); it != groups_.end(); ++it) {
        if (it->get() == group.get()) {
          groups_.erase(it);
          break;
        }
      }
    }
  }
  // The lane committing the group's final morsel delivers the whole group:
  // every slot was written before `completed` reached the total (each
  // writer bumped it under the mutex after writing), so the reads below
  // are ordered after every write.
  if (last) FinalizeGroup(group.get());
}

void QueryServer::CompactionLoop() {
  trace::PrepareThisThread();
  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double,
                                                                 std::milli>(
      std::max(0.1, options_.compaction_interval_ms)));
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(compact_mu_);
      if (compact_cv_.wait_for(lock, period, [&] { return compact_stop_; })) {
        return;
      }
    }
    // Outside the lock: a rebuild can be long, and Stop() must not wait for
    // more than the pass in flight.
    CompactOnce();
  }
}

void QueryServer::CompactOnce() {
  DbSnapshot snapshot = db_->Snapshot();
  // The freshest base wins: a previously compacted tree published through
  // the snapshot supersedes the seed tree the server was constructed with.
  const UstTree* base = snapshot.base_index() != nullptr
                            ? snapshot.base_index().get()
                            : index_;
  const size_t depth = base == nullptr
                           ? snapshot.size()
                           : snapshot.DeltaDepth(base->built_version());
  g_delta_depth_->Set(static_cast<int64_t>(depth));
  if (depth == 0) return;  // also when the base is at this epoch already
  UST_TRACE_SCOPE("compact", depth, "objects");
  if (fault::ShouldFail("compaction")) {
    // Injected rebuild failure, taken exactly like a real one: the
    // previous base stays published and serving continues on deltas.
    c_compaction_failures_->Increment();
    return;
  }
  // Splice the written objects into the base; build in full only when no
  // base can be bridged (none yet, or the change log no longer reaches it).
  auto tree = base == nullptr ? UstTree::Build(snapshot)
                              : UstTree::Splice(snapshot, *base);
  if (!tree.ok() && tree.status().code() == StatusCode::kOutOfRange) {
    tree = UstTree::Build(snapshot);
  }
  if (!tree.ok()) {
    // The previous base stays published; sessions keep patching it with
    // deltas (or fall back) exactly as before this attempt.
    c_compaction_failures_->Increment();
    return;
  }
  db_->PublishIndex(std::make_shared<const UstTree>(tree.MoveValue()));
  c_compactions_->Increment();
  g_delta_depth_->Set(
      static_cast<int64_t>(db_->Snapshot().DeltaDepth(snapshot.version())));
}

void QueryServer::FailGroup(const std::shared_ptr<GroupTask>& group,
                            Status status) {
  for (size_t i = 0; i < group->specs.size(); ++i) {
    QueryOutcome& out = group->outcomes[i];
    out.status = status;
    out.kind = group->specs[i].kind;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    group->completed = group->specs.size();
    for (auto it = groups_.begin(); it != groups_.end(); ++it) {
      if (it->get() == group.get()) {
        groups_.erase(it);
        break;
      }
    }
  }
  FinalizeGroup(group.get());
}

void QueryServer::FinalizeGroup(GroupTask* group) {
  UST_TRACE_SCOPE("finalize", group->requests.front().id);
  // Hand the session back before resolving futures: a waiting client's
  // next request should find it in the cache (or join it), not race it.
  group->session.Release();
  const auto done = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ -= group->requests.size();
  }
  // Count before resolving the futures: a client that saw its outcome must
  // also see it reflected in Stats(). The instruments are atomic, so the
  // server mutex is no longer needed for this.
  for (const Request& request : group->requests) {
    c_completed_->Increment();
    h_latency_->Record(std::chrono::duration<double, std::micro>(
                           done - request.submitted_at)
                           .count());
  }
  for (size_t i = 0; i < group->requests.size(); ++i) {
    group->requests[i].promise.set_value(std::move(group->outcomes[i]));
  }
}

}  // namespace ust

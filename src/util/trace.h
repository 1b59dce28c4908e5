// Low-overhead event tracing for the serving pipeline (DESIGN.md section 9):
// per-thread lock-free ring buffers of fixed-size event slots, registered
// with one process-wide TraceSession, exported as Chrome trace_event /
// Perfetto-compatible JSON (open a dump in chrome://tracing or ui.perfetto.dev).
//
// Cost model: when tracing is disabled every probe is a single relaxed
// atomic load and a predictable branch — no clock read, no store. When
// enabled, a probe is that branch plus one steady_clock read and one slot
// write into the calling thread's own ring (no sharing, no locks, no
// allocation after registration). Compiling with UST_TRACE_DISABLED removes
// the probes entirely (macros and inline bodies collapse to nothing), which
// is the belt-and-braces guarantee behind the trace_overhead bench gate.
//
// Concurrency contract: each ring is written only by its owning thread;
// readers (Snapshot/ToJson/DumpJson) must run after writers have quiesced —
// Disable() first, or join the traced threads — exactly how the serving
// tier uses it (QueryServer::Stop joins every lane before DumpTrace).
// The ring wraps by overwriting the oldest events; the overwritten count is
// surfaced as the `trace_dropped` metric so silent truncation is visible.
//
// Span taxonomy (the serving tier's request lifecycle): `admit`, `queue`,
// `flush`, `lane_adopt`, `session_checkout`, `session_build`, `arena_build`,
// `morsel_exec` (one per executed spec, tagged with the refining backend),
// `finalize`, plus per-backend `exec_mc` / `exec_markov` / `exec_exact`
// spans. Spans
// that belong to a request carry its id in args ("req"), so one request can
// be followed admission-to-finalize across threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if !defined(UST_TRACE_DISABLED)
#include <atomic>
#endif

namespace ust::trace {

/// \brief One recorded event. `name`, `arg_name` and `tag` must be string
/// literals (or otherwise outlive the session): slots store the pointers.
struct TraceEvent {
  const char* name = nullptr;
  const char* arg_name = nullptr;  ///< args key for `arg`; nullptr = no arg
  const char* tag = nullptr;       ///< optional args {"tag": ...}
  uint64_t ts_ns = 0;              ///< since Enable(), nanoseconds
  uint64_t dur_ns = 0;             ///< complete ('X') events only
  uint64_t arg = 0;
  uint32_t tid = 0;                ///< registration-order thread id
  char phase = 'X';                ///< 'X' complete, 'i' instant
};

/// The default args key for request-scoped spans.
inline constexpr const char* kReqArg = "req";

#if !defined(UST_TRACE_DISABLED)

namespace internal {
/// The single global enable flag: the only thing a disabled probe touches.
extern std::atomic<bool> g_enabled;
void EmitComplete(const char* name, uint64_t ts_ns, uint64_t dur_ns,
                  uint64_t arg, const char* arg_name, const char* tag);
void EmitInstant(const char* name, uint64_t arg, const char* arg_name,
                 const char* tag);
/// Nanoseconds since the session clock origin (clamped to 0 before it).
uint64_t NowNs();
uint64_t ToNs(std::chrono::steady_clock::time_point tp);
}  // namespace internal

/// True when tracing is currently recording (one relaxed load).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Start recording. Resets every registered ring to `events_per_thread`
/// slots and re-origins the clock. Not safe concurrently with live probes —
/// call before the traced workload starts.
void Enable(size_t events_per_thread = 1 << 16);

/// Pre-register (allocate and first-touch) this thread's ring if tracing is
/// enabled — call at thread start for threads that will probe on a latency
/// path, so ring allocation happens at startup instead of on the first
/// traced request. No-op when disabled.
void PrepareThisThread();

/// Stop recording (probes go back to the single-branch fast path). The
/// buffers keep their contents for Snapshot/Dump.
void Disable();

/// Drop all recorded events and counters (tracing must be disabled).
void Reset();

/// Events currently held across all thread rings (post-wrap survivors).
uint64_t RecordedCount();

/// Events overwritten by ring wrap-around since Enable (the trace_dropped
/// metric).
uint64_t DroppedCount();

/// Flattened copy of every ring, per-thread write order, tids filled in.
/// Callers must have quiesced writers (see the concurrency contract above).
std::vector<TraceEvent> Snapshot();

/// Chrome trace_event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}.
std::string ToJson();

/// Write ToJson() to `path`; false on IO failure.
bool DumpJson(const std::string& path);

/// Record an instant event ('i', thread scope).
inline void Instant(const char* name, uint64_t arg = 0,
                    const char* arg_name = kReqArg,
                    const char* tag = nullptr) {
  if (Enabled()) internal::EmitInstant(name, arg, arg_name, tag);
}

/// Record a complete span from explicit steady_clock endpoints — for spans
/// whose begin predates the probe site (e.g. `queue`: submit-to-flush,
/// emitted at flush time from the recorded submit timestamp).
inline void Complete(const char* name,
                     std::chrono::steady_clock::time_point begin,
                     std::chrono::steady_clock::time_point end,
                     uint64_t arg = 0, const char* arg_name = kReqArg,
                     const char* tag = nullptr) {
  if (!Enabled()) return;
  const uint64_t b = internal::ToNs(begin);
  const uint64_t e = internal::ToNs(end);
  internal::EmitComplete(name, b, e > b ? e - b : 0, arg, arg_name, tag);
}

/// \brief RAII span: records one complete ('X') event covering its scope.
/// Construction on the disabled path reads the flag and nothing else.
class Span {
 public:
  explicit Span(const char* name, uint64_t arg = 0,
                const char* arg_name = kReqArg, const char* tag = nullptr) {
    if (Enabled()) {
      name_ = name;
      arg_ = arg;
      arg_name_ = arg_name;
      tag_ = tag;
      start_ns_ = internal::NowNs();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      const uint64_t now = internal::NowNs();
      internal::EmitComplete(name_, start_ns_,
                             now > start_ns_ ? now - start_ns_ : 0, arg_,
                             arg_name_, tag_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach/replace the tag after construction (e.g. the backend that
  /// actually refined a spec, known only after execution).
  void set_tag(const char* tag) { tag_ = tag; }

  /// Attach/replace the arg after construction (e.g. a request id assigned
  /// only once admission accepted the request).
  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  const char* name_ = nullptr;  ///< nullptr = tracing was off at entry
  const char* arg_name_ = kReqArg;
  const char* tag_ = nullptr;
  uint64_t arg_ = 0;
  uint64_t start_ns_ = 0;
};

#else  // UST_TRACE_DISABLED: every probe compiles to nothing.

inline bool Enabled() { return false; }
inline void Enable(size_t = 0) {}
inline void PrepareThisThread() {}
inline void Disable() {}
inline void Reset() {}
inline uint64_t RecordedCount() { return 0; }
inline uint64_t DroppedCount() { return 0; }
inline std::vector<TraceEvent> Snapshot() { return {}; }
inline std::string ToJson() {
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n";
}
bool DumpJson(const std::string& path);  // still writes the empty trace
inline void Instant(const char*, uint64_t = 0, const char* = kReqArg,
                    const char* = nullptr) {}
inline void Complete(const char*, std::chrono::steady_clock::time_point,
                     std::chrono::steady_clock::time_point, uint64_t = 0,
                     const char* = kReqArg, const char* = nullptr) {}
class Span {
 public:
  explicit Span(const char*, uint64_t = 0, const char* = kReqArg,
                const char* = nullptr) {}
  void set_tag(const char*) {}
  void set_arg(uint64_t) {}
};

#endif  // UST_TRACE_DISABLED

}  // namespace ust::trace

// Scope macro: UST_TRACE_SCOPE("name"), UST_TRACE_SCOPE("name", req_id), or
// UST_TRACE_SCOPE("name", value, "key") for non-request args.
#define UST_TRACE_CONCAT_(a, b) a##b
#define UST_TRACE_CONCAT(a, b) UST_TRACE_CONCAT_(a, b)
#define UST_TRACE_SCOPE(...) \
  ::ust::trace::Span UST_TRACE_CONCAT(ust_trace_span_, __LINE__)(__VA_ARGS__)

// Fault injection for the serving pipeline (DESIGN.md section 11): a small
// process-wide registry of *named injection points* compiled into the
// production binaries. A point that is not armed costs exactly one relaxed
// atomic load and a predictable branch — the same cost model as a disabled
// trace probe (util/trace.h) — so the probes stay in release builds and the
// chaos tests exercise the very code that serves traffic. Compiling with
// UST_FAULT_DISABLED removes the probes entirely (the inline fast paths
// collapse to constants).
//
// A test arms a point with a FaultSpec — how many probe hits to let pass
// (`skip_first`), how many times to fire (`max_fires`), and what firing
// means (fail the guarded operation, stall the calling thread, or skew a
// clock read). Firing is deterministic: the Nth probe of an armed point
// always behaves the same, so chaos tests can assert exact counts.
//
// Point taxonomy of the serving tier (each is the `point` literal at its
// probe site — grep for it):
//   "lane_stall"     — an execution lane sleeps `stall_ms` before running a
//                      morsel (QueryServer::ExecuteMorsel): simulates a
//                      descheduled/slow lane, so deadlines expire *on*
//                      lanes and stealing kicks in.
//   "session_build"  — SessionCache::BuildSession returns nullptr: the
//                      checkout fails and the server must resolve every
//                      promise of the group with an error instead of
//                      leaking them.
//   "compaction"     — QueryServer::CompactOnce fails before publishing:
//                      the previous base stays live, compaction_failures
//                      counts it, and serving is unaffected.
//   "alloc_limit"    — ColumnStore::View refuses to build a world column
//                      (as if its allocation were denied): the participant
//                      samples live — bit-identical, just slower.
//   "deadline_skew"  — deadline expiry checks read now + `skew_ns`:
//                      simulates clock skew, forcing requests to expire in
//                      the queue / at morsel boundaries on demand.
//
// Thread-safety: Arm/Disarm/counters take an internal mutex; probes of
// *armed* registries take it too (chaos-test-only cost). With nothing armed
// the probe never touches the mutex. A `point` must be a string literal
// (compared by content, stored by pointer lifetime of the call).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#if !defined(UST_FAULT_DISABLED)
#include <atomic>
#endif

namespace ust::fault {

/// \brief What an armed injection point does when probed.
struct FaultSpec {
  /// Let this many probe hits pass unharmed before the first fire.
  uint64_t skip_first = 0;
  /// Fire at most this many times; later probes pass again.
  uint64_t max_fires = UINT64_MAX;
  /// MaybeStall sleeps this long per fire (0 = no stall).
  double stall_ms = 0.0;
  /// SkewNs returns this per fire (deadline clock skew, nanoseconds).
  int64_t skew_ns = 0;
};

#if !defined(UST_FAULT_DISABLED)

namespace internal {
/// Number of armed points: the only thing an idle probe reads.
extern std::atomic<int> g_armed;
bool FireSlow(const char* point);
void StallSlow(const char* point);
int64_t SkewSlow(const char* point);
}  // namespace internal

/// True when any point is armed (one relaxed load).
inline bool Enabled() {
  return internal::g_armed.load(std::memory_order_relaxed) > 0;
}

/// Arm `point` (re-arming replaces the spec and resets its counters).
void Arm(const char* point, const FaultSpec& spec);

/// Disarm `point` (its counters survive until re-armed or ClearAll).
void Disarm(const char* point);

/// Disarm every point and drop all counters — test teardown.
void ClearAll();

/// Times `point` actually fired (fail/stall/skew applied) since (re)arming.
uint64_t FireCount(const char* point);

/// Times `point` was probed while armed since (re)arming.
uint64_t ProbeCount(const char* point);

/// Names of currently armed points.
std::vector<std::string> ArmedPoints();

/// Probe: should the guarded operation fail now? Counts a fire when true.
inline bool ShouldFail(const char* point) {
  if (!Enabled()) return false;
  return internal::FireSlow(point);
}

/// Probe: sleep `stall_ms` if `point` fires now.
inline void MaybeStall(const char* point) {
  if (Enabled()) internal::StallSlow(point);
}

/// Probe: clock-skew offset to add (0 unless `point` fires now).
inline int64_t SkewNs(const char* point) {
  if (!Enabled()) return 0;
  return internal::SkewSlow(point);
}

#else  // UST_FAULT_DISABLED: probes compile to nothing.

inline bool Enabled() { return false; }
inline void Arm(const char*, const FaultSpec&) {}
inline void Disarm(const char*) {}
inline void ClearAll() {}
inline uint64_t FireCount(const char*) { return 0; }
inline uint64_t ProbeCount(const char*) { return 0; }
inline std::vector<std::string> ArmedPoints() { return {}; }
inline bool ShouldFail(const char*) { return false; }
inline void MaybeStall(const char*) {}
inline int64_t SkewNs(const char*) { return 0; }

#endif

}  // namespace ust::fault

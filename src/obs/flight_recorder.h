#ifndef ROBUST_SAMPLING_OBS_FLIGHT_RECORDER_H_
#define ROBUST_SAMPLING_OBS_FLIGHT_RECORDER_H_

// ---------------------------------------------------------------------------
// Flight recorder: a fixed-size per-thread ring of trace events (span
// begin/end, marks, error marks) that costs nothing until something goes
// wrong, then leaves a readable post-mortem.
//
// Each thread records into its own bounded ring (one uncontended mutex
// acquire per event — events are span-granular, per batch/frame/trial,
// never per element), so recording threads do not serialize against each
// other. Dump() merges every thread's surviving events in global sequence
// order. RecordError() additionally fires the error hook: the default
// hook prints the merged dump to stderr once per process (so a fuzzing
// loop of ten thousand rejected frames does not spam the log); tests and
// services install their own with SetErrorHook.
//
// Wired in: the wire-codec frame failure paths (ReadFramedBody) and the
// pipeline checkpoint/restore failure paths call RecordError, so a
// corrupt restore or failed checkpoint leaves the event trail that led to
// it instead of nothing. See docs/observability.md.
// ---------------------------------------------------------------------------

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "obs/metrics.h"  // NowNanos

namespace robust_sampling {
namespace obs {

enum class TraceEventKind : uint8_t {
  kSpanBegin,
  kSpanEnd,
  kMark,
  kError,
};

/// Events per thread ring; older events are overwritten (it is a flight
/// recorder, not a log).
inline constexpr size_t kFlightRecorderRingEvents = 256;

/// Inline detail buffer size shared by TraceEvent and TraceSpan, so span
/// details survive to the dump exactly as marks do (they used to be
/// truncated harder because the span kept a smaller private copy).
inline constexpr size_t kTraceDetailBytes = 96;

/// One recorded event. `category` must be a string with static storage
/// duration ("wire", "pipeline", ...); `detail` is copied (truncated) into
/// the inline buffer so recording never allocates.
struct TraceEvent {
  uint64_t seq = 0;  // global order
  uint64_t ns = 0;   // NowNanos() at record time
  uint32_t tid = 0;  // recording thread's ring id (stable, dense from 1)
  TraceEventKind kind = TraceEventKind::kMark;
  const char* category = "";
  char detail[kTraceDetailBytes] = {};
  uint64_t arg = 0;
};

class FlightRecorder {
 public:
  static FlightRecorder& Global();

  void Record(TraceEventKind kind, const char* category,
              std::string_view detail, uint64_t arg = 0);

  /// Record(kError, ...) plus the error hook: the installed hook (or the
  /// print-once-to-stderr default) receives the merged Dump().
  void RecordError(const char* category, std::string_view detail,
                   uint64_t arg = 0);

  /// Every surviving event from every thread, merged in sequence order,
  /// one line per event.
  std::string Dump() const;

  /// The merged dump captured by the most recent RecordError(), even after
  /// the print-once default hook has fired (services scrape it via the
  /// admin plane's /trace endpoint). Empty until the first error.
  std::string LastErrorDump() const;

  /// Every surviving event as Perfetto-loadable chrome-trace JSON
  /// ({"traceEvents":[...]}): span begin/end become "B"/"E" events, marks
  /// and errors become instants; ts is microseconds, tid is the recording
  /// thread's ring id. Always valid JSON — `{"traceEvents":[]}` when
  /// empty.
  std::string DumpChromeTraceJson() const;

  /// Replaces the error hook; nullptr restores the default (print the
  /// dump to stderr, first error only).
  void SetErrorHook(std::function<void(const std::string&)> hook);

 private:
  FlightRecorder() = default;
  struct Impl;
  Impl* impl();
  std::atomic<Impl*> impl_{nullptr};
};

/// RAII span: records kSpanBegin at construction and kSpanEnd (with the
/// elapsed nanoseconds as `arg`) at destruction.
class TraceSpan {
 public:
  TraceSpan(const char* category, std::string_view detail)
      : category_(category), start_ns_(NowNanos()) {
    const size_t n = detail.size() < sizeof(detail_) - 1
                         ? detail.size()
                         : sizeof(detail_) - 1;
    detail.copy(detail_, n);
    detail_[n] = '\0';
    FlightRecorder::Global().Record(TraceEventKind::kSpanBegin, category_,
                                    detail_);
  }
  ~TraceSpan() {
    FlightRecorder::Global().Record(TraceEventKind::kSpanEnd, category_,
                                    detail_, NowNanos() - start_ns_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* category_;
  uint64_t start_ns_;
  char detail_[kTraceDetailBytes] = {};
};

}  // namespace obs
}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_OBS_FLIGHT_RECORDER_H_

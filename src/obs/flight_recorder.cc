#include "obs/flight_recorder.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace robust_sampling {
namespace obs {

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

namespace {

struct ThreadRing {
  std::mutex mu;
  TraceEvent events[kFlightRecorderRingEvents];
  uint64_t recorded = 0;  // total ever; live slots = min(recorded, ring)
  uint32_t id = 0;        // dense per-ring id, assigned at creation
};

const char* KindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSpanBegin:
      return "begin";
    case TraceEventKind::kSpanEnd:
      return "end";
    case TraceEventKind::kMark:
      return "mark";
    case TraceEventKind::kError:
      return "ERROR";
  }
  return "?";
}

// chrome://tracing phase letters: spans pair up as B/E, everything else is
// an instant.
const char* PhaseName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSpanBegin:
      return "B";
    case TraceEventKind::kSpanEnd:
      return "E";
    case TraceEventKind::kMark:
    case TraceEventKind::kError:
      return "i";
  }
  return "i";
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

struct FlightRecorder::Impl {
  std::atomic<uint64_t> next_seq{0};

  // Rings are created on a thread's first record and never destroyed (a
  // dump must be able to read events from threads that have exited), so
  // the thread_local below may hold a bare pointer safely.
  std::mutex rings_mu;
  std::vector<std::unique_ptr<ThreadRing>> rings;

  std::mutex hook_mu;
  std::function<void(const std::string&)> hook;
  std::atomic<bool> default_hook_fired{false};

  // Most recent RecordError() dump, kept so the admin plane can serve the
  // post-mortem after the print-once default hook has already fired.
  mutable std::mutex last_error_mu;
  std::string last_error_dump;

  ThreadRing* ThisThreadRing() {
    thread_local ThreadRing* ring = nullptr;
    if (ring == nullptr) {
      auto fresh = std::make_unique<ThreadRing>();
      ring = fresh.get();
      std::lock_guard<std::mutex> lock(rings_mu);
      ring->id = static_cast<uint32_t>(rings.size() + 1);
      rings.push_back(std::move(fresh));
    }
    return ring;
  }

  /// Every ring's surviving events, merged and sorted by global seq.
  std::vector<TraceEvent> Snapshot();
};

FlightRecorder::Impl* FlightRecorder::impl() {
  Impl* existing = impl_.load(std::memory_order_acquire);
  if (existing != nullptr) return existing;
  Impl* fresh = new Impl();
  if (impl_.compare_exchange_strong(existing, fresh,
                                    std::memory_order_acq_rel)) {
    return fresh;
  }
  delete fresh;
  return existing;
}

void FlightRecorder::Record(TraceEventKind kind, const char* category,
                            std::string_view detail, uint64_t arg) {
  if (!RuntimeEnabled()) return;
  Impl* state = impl();
  ThreadRing* ring = state->ThisThreadRing();
  const uint64_t seq =
      state->next_seq.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ring->mu);
  TraceEvent& event =
      ring->events[ring->recorded % kFlightRecorderRingEvents];
  event.seq = seq;
  event.ns = NowNanos();
  event.tid = ring->id;
  event.kind = kind;
  event.category = category;
  const size_t n = detail.size() < sizeof(event.detail) - 1
                       ? detail.size()
                       : sizeof(event.detail) - 1;
  detail.copy(event.detail, n);
  event.detail[n] = '\0';
  event.arg = arg;
  ++ring->recorded;
}

std::vector<TraceEvent> FlightRecorder::Impl::Snapshot() {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> rings_lock(rings_mu);
    for (const auto& ring : rings) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      const uint64_t live =
          std::min<uint64_t>(ring->recorded, kFlightRecorderRingEvents);
      for (uint64_t i = 0; i < live; ++i) events.push_back(ring->events[i]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return events;
}

std::string FlightRecorder::Dump() const {
  Impl* state = const_cast<FlightRecorder*>(this)->impl();
  const std::vector<TraceEvent> events = state->Snapshot();
  std::string out = "--- flight recorder dump (" +
                    std::to_string(events.size()) + " events) ---\n";
  for (const TraceEvent& event : events) {
    char line[224];
    std::snprintf(line, sizeof(line), "[%8llu] %14llu ns %-9s %-10s %s",
                  static_cast<unsigned long long>(event.seq),
                  static_cast<unsigned long long>(event.ns),
                  KindName(event.kind), event.category, event.detail);
    out += line;
    if (event.arg != 0) {
      out += " (arg=" + std::to_string(event.arg) + ")";
    }
    out += "\n";
  }
  return out;
}

std::string FlightRecorder::DumpChromeTraceJson() const {
  Impl* state = const_cast<FlightRecorder*>(this)->impl();
  const std::vector<TraceEvent> events = state->Snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(out, event.detail);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(out, event.category);
    out += "\",\"ph\":\"";
    out += PhaseName(event.kind);
    out += "\"";
    if (event.kind == TraceEventKind::kMark ||
        event.kind == TraceEventKind::kError) {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    // ts is microseconds by convention; keep sub-µs precision as a decimal.
    char ts[64];
    std::snprintf(ts, sizeof(ts), ",\"ts\":%llu.%03llu",
                  static_cast<unsigned long long>(event.ns / 1000),
                  static_cast<unsigned long long>(event.ns % 1000));
    out += ts;
    out += ",\"pid\":1,\"tid\":" + std::to_string(event.tid);
    out += ",\"args\":{\"seq\":" + std::to_string(event.seq);
    if (event.kind == TraceEventKind::kError) {
      out += ",\"error\":true";
    }
    if (event.arg != 0) {
      out += ",\"arg\":" + std::to_string(event.arg);
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string FlightRecorder::LastErrorDump() const {
  Impl* state = const_cast<FlightRecorder*>(this)->impl();
  std::lock_guard<std::mutex> lock(state->last_error_mu);
  return state->last_error_dump;
}

void FlightRecorder::RecordError(const char* category,
                                 std::string_view detail, uint64_t arg) {
  if (!RuntimeEnabled()) return;
  Record(TraceEventKind::kError, category, detail, arg);
  Impl* state = impl();
  const std::string dump = Dump();
  {
    std::lock_guard<std::mutex> lock(state->last_error_mu);
    state->last_error_dump = dump;
  }
  std::function<void(const std::string&)> hook;
  {
    std::lock_guard<std::mutex> lock(state->hook_mu);
    hook = state->hook;
  }
  if (hook) {
    hook(dump);
  } else if (!state->default_hook_fired.exchange(true)) {
    std::fputs(dump.c_str(), stderr);
  }
}

void FlightRecorder::SetErrorHook(
    std::function<void(const std::string&)> hook) {
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->hook_mu);
  state->hook = std::move(hook);
}

}  // namespace obs
}  // namespace robust_sampling

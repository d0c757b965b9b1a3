// Causal profiling spans recorded into per-thread ring buffers, exportable
// as Chrome trace-event JSON (open in Perfetto / chrome://tracing) and as a
// per-trace JSONL view.
//
//   void Trainer::update() {
//     ADSEC_SPAN("trainer.update");
//     ...
//   }
//
// Every span carries a TraceContext (trace_id, span_id, parent_span_id).
// A span opened while another span is live on the same thread parents to
// it; a span opened on a bare thread roots a new trace. Work that hops
// threads stays causally linked: thread_pool::submit captures the
// submitter's context and the executing worker adopts it (TraceContextScope),
// so a task's span parents to the *submitting* span, not to whatever the
// worker happened to run before it. The Chrome export adds flow
// events ("s"/"f" phases) for every cross-thread parent edge and "M"
// metadata records carrying registered thread names.
//
// The span name must be a lowercase dotted string literal ("subsystem.verb",
// enforced by adsec_lint) — only the pointer is stored. When span collection
// is fully disabled (the default) a span costs one relaxed load and a
// branch; when enabled, span exit takes the owning thread's ring mutex
// (uncontended except during export) and appends one 48-byte event. Each
// ring holds the most recent kTraceRingCapacity spans of its thread; older
// events are overwritten, so a trace is a sliding window, not an unbounded
// log.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace adsec::telemetry {

namespace detail {
// One word gates every span site: bit0 = tracing rings, bit1 = the flight
// recorder (flight.hpp). A single relaxed load keeps the disabled path
// inside the ≤5 ns/op budget no matter how many collectors exist.
inline constexpr unsigned kTraceBit = 1u;
inline constexpr unsigned kFlightBit = 2u;
extern std::atomic<unsigned> g_span_bits;
}  // namespace detail

inline constexpr std::size_t kTraceRingCapacity = 1 << 14;

void set_tracing_enabled(bool on);
inline bool tracing_enabled() {
  return (detail::g_span_bits.load(std::memory_order_relaxed) &
          detail::kTraceBit) != 0;
}
// True when any span collector (tracing rings or flight recorder) is on.
inline bool span_collection_enabled() {
  return detail::g_span_bits.load(std::memory_order_relaxed) != 0;
}

// Causal identity of one unit of work. trace_id groups a whole request /
// grid run; span_id identifies the innermost live span; 0 means "none".
struct TraceContext {
  std::uint64_t trace_id{0};
  std::uint64_t span_id{0};
  std::uint64_t parent_span_id{0};
};

// The calling thread's current context (all-zero on a bare thread).
TraceContext current_trace_context();
void set_trace_context(const TraceContext& ctx);

// Fresh process-unique ids (never 0).
std::uint64_t new_trace_id();
std::uint64_t new_span_id();

// RAII adoption of a foreign context: the thread pool wraps every queued
// task in one of these so the worker inherits the submitter's context and
// restores its own on exit.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx)
      : saved_(current_trace_context()) {
    set_trace_context(ctx);
  }
  ~TraceContextScope() { set_trace_context(saved_); }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

// Append one completed span (no causal ids) to the calling thread's ring.
// Prefer SpanGuard; this exists for hand-stamped intervals in tests.
void record_span(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns);

// RAII scope: derives a child context from the thread's current one (or
// roots a new trace on a bare thread), installs itself as current, stamps
// begin at construction, and records at destruction. The two-argument form
// parents to an explicit foreign context instead (serve: the admit span
// recorded on the submitting thread). Spans that straddle a disable are
// still recorded.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) {
    if (span_collection_enabled()) enter(name, nullptr);
  }
  SpanGuard(const char* name, const TraceContext& parent) {
    if (span_collection_enabled()) enter(name, &parent);
  }
  ~SpanGuard() {
    if (name_ != nullptr) finish();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  void enter(const char* name, const TraceContext* parent);
  void finish();
  const char* name_{nullptr};
  std::uint64_t begin_{0};
  TraceContext saved_{};
  TraceContext self_{};
};

#define ADSEC_SPAN_CONCAT2(a, b) a##b
#define ADSEC_SPAN_CONCAT(a, b) ADSEC_SPAN_CONCAT2(a, b)
// Profile the enclosing scope under `name` (a lowercase dotted literal).
#define ADSEC_SPAN(name) \
  ::adsec::telemetry::SpanGuard ADSEC_SPAN_CONCAT(adsec_span_, __LINE__)(name)

// Register a human-readable name for the calling thread (dense tid from
// clock.hpp). Exported as Chrome "M"/thread_name metadata records and in
// the per-trace JSONL view.
void set_thread_name(const std::string& name);
// The registered name for `tid`, or "" if none.
std::string thread_name(int tid);

// Total events currently buffered across all threads' rings.
std::size_t trace_event_count();

// One buffered span, resolved for export.
struct SpanRecord {
  std::string name;
  std::uint64_t trace_id{0};
  std::uint64_t span_id{0};
  std::uint64_t parent_span_id{0};
  std::uint64_t begin_ns{0};
  std::uint64_t end_ns{0};
  int tid{0};
  std::string thread;  // registered thread name, "" if unregistered
};

// Snapshot all buffered spans, sorted by (trace_id, begin_ns, span_id) so
// each trace's spans are contiguous.
std::vector<SpanRecord> collect_spans();
// Just the spans of one trace, same ordering.
std::vector<SpanRecord> collect_trace(std::uint64_t trace_id);

// Serialize all buffered spans as a Chrome trace-event JSON document:
// "X" duration events with trace/span ids in args, "M" thread_name
// metadata records, and "s"/"f" flow events for every cross-thread parent
// edge; timestamps in microseconds on the shared telemetry clock.
std::string chrome_trace_json();

// Write chrome_trace_json() to `path`. Returns false on I/O error.
bool write_chrome_trace(const std::string& path);

// Write the per-trace JSONL view to `path`: one JSON object per span,
// grouped by trace. Returns false on I/O error.
bool write_trace_jsonl(const std::string& path);

// Drop all buffered spans (registrations and rings stay). For tests.
void clear_trace();

}  // namespace adsec::telemetry

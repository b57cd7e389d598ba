// RAII stage tracing (DESIGN.md §10).
//
// A Span marks one timed region — an audit stage, a CSV import, a
// dataset build — and records {name, wall time, thread id, parent span}
// into the process-wide in-memory Timeline on destruction. Spans nest
// via a thread-local stack, so sub-stages automatically attach to the
// enclosing stage, and the exported trace.json (Chrome "trace event"
// format, load via chrome://tracing or https://ui.perfetto.dev)
// reconstructs the full flame graph per thread.
//
// Spans are deliberately coarse: one per stage or file, never one per
// transaction — the hot path stays on obs::Counter. Recording is a
// short mutex-guarded append (spans are rare); when obs is disabled at
// runtime, constructing a Span is a relaxed load and two branches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cn::obs {

/// One completed span in the timeline.
struct TraceEvent {
  std::string name;
  std::uint64_t start_ns = 0;  ///< since Timeline epoch (steady clock)
  std::uint64_t dur_ns = 0;
  std::uint32_t thread = 0;    ///< dense per-process thread index
  std::uint32_t id = 0;        ///< span id (1-based; 0 = none)
  std::uint32_t parent = 0;    ///< enclosing span id, 0 at top level
};

/// Completed spans in completion order. The epoch is the first call into
/// the timeline after process start (or the last clear()).
std::vector<TraceEvent> timeline_events();

/// Drops all recorded spans and re-arms the epoch. Tests and long-lived
/// servers scrape-and-clear between windows.
void timeline_clear();

class Span {
 public:
  explicit Span(std::string name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t id_ = 0;      ///< 0 when obs was disabled at construction
  std::uint32_t parent_ = 0;  ///< enclosing span at construction time
};

}  // namespace cn::obs

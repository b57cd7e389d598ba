#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

#include "obs/registry.hpp"

namespace cn::obs {

namespace {

struct TimelineState {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::chrono::steady_clock::time_point epoch;
  bool epoch_set = false;
  std::atomic<std::uint32_t> next_span{1};
  std::atomic<std::uint32_t> next_thread{0};
};

TimelineState& timeline() {
  static TimelineState* state = new TimelineState();  // outlives TLS dtors
  return *state;
}

std::uint64_t now_ns(TimelineState& tl) {
  // Epoch is armed lazily under the mutex so the first span starts at 0.
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(tl.mutex);
    if (!tl.epoch_set) {
      tl.epoch = now;
      tl.epoch_set = true;
    }
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - tl.epoch)
          .count());
}

std::uint32_t local_thread_index() {
  thread_local const std::uint32_t index =
      timeline().next_thread.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// Innermost open span of this thread (0 = none).
std::uint32_t& open_span() {
  thread_local std::uint32_t top = 0;
  return top;
}

}  // namespace

std::vector<TraceEvent> timeline_events() {
  TimelineState& tl = timeline();
  std::lock_guard<std::mutex> lock(tl.mutex);
  return tl.events;
}

void timeline_clear() {
  TimelineState& tl = timeline();
  std::lock_guard<std::mutex> lock(tl.mutex);
  tl.events.clear();
  tl.epoch_set = false;
}

Span::Span(std::string name) {
  if (!enabled()) return;
  TimelineState& tl = timeline();
  name_ = std::move(name);
  id_ = tl.next_span.fetch_add(1, std::memory_order_relaxed);
  start_ns_ = now_ns(tl);
  // Temporarily becomes the thread's innermost span; the previous top is
  // recovered in the destructor by recording parent here.
  parent_ = open_span();
  open_span() = id_;
}

Span::~Span() {
  if (id_ == 0) return;
  TimelineState& tl = timeline();
  TraceEvent event;
  event.name = std::move(name_);
  event.start_ns = start_ns_;
  event.dur_ns = now_ns(tl) - start_ns_;
  event.thread = local_thread_index();
  event.id = id_;
  event.parent = parent_;
  open_span() = parent_;
  std::lock_guard<std::mutex> lock(tl.mutex);
  tl.events.push_back(std::move(event));
}

}  // namespace cn::obs

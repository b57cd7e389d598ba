// Process-wide metric registry (DESIGN.md §10).
//
// The audit's dataset build and cnsweep fan out over thread pools;
// watching them at production scale needs counters that cost ~one
// relaxed atomic add on the hot path and never serialize writers. The design is the usual
// per-thread-shard scheme:
//
//   * a metric is interned once by name into a dense MetricId;
//   * every thread owns a Shard — a chunked array of atomics indexed by
//     MetricId. Writes touch only the calling thread's shard (a relaxed
//     fetch_add on an uncontended cache line);
//   * scraping (Registry::snapshot) walks all shards and sums. Shards of
//     exited threads are recycled, never freed, so totals survive
//     worker churn (a ThreadPool per audit call is the norm).
//
// Metric kinds:
//   * Counter   — monotonic u64, shard-summed;
//   * Gauge     — last-written double, stored centrally (set from one
//                 thread at a time: sizes, rates, ratios);
//   * Histogram — fixed upper-bound buckets declared at registration,
//                 per-shard bucket counts + count + sum.
//
// Naming scheme: lower-case dotted paths, subsystem first —
// "io.ingest.rows_read", "util.thread_pool.task_seconds",
// "audit.stage.build.seconds". Stable names are the schema: the
// determinism suite asserts the exported key set does not wobble across
// runs or thread counts.
//
// Switch: obs::set_enabled(false) turns every record call into a single
// relaxed load-and-branch. Audit reports are byte-identical either way
// (instrumentation never feeds back into results).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cn::obs {

/// Runtime master switch (default on). Disabling keeps every handle
/// valid; record calls become a load + branch.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

namespace detail {

using MetricId = std::uint32_t;
inline constexpr MetricId kNoMetric = ~MetricId{0};

MetricId intern_counter(std::string_view name);
MetricId intern_gauge(std::string_view name);
/// @p uppers — ascending finite bucket upper bounds; a +inf overflow
/// bucket is implicit. Re-registering the same name must pass the same
/// bounds.
MetricId intern_histogram(std::string_view name,
                          const std::vector<double>& uppers);

void counter_add(MetricId id, std::uint64_t delta) noexcept;
void gauge_set(MetricId id, double value) noexcept;
void histogram_observe(MetricId id, double value) noexcept;

}  // namespace detail

/// Cheap copyable handle to a named counter. Construction interns the
/// name (mutex-guarded, do it once, e.g. via a function-local static);
/// add() is the lock-free hot path.
class Counter {
 public:
  Counter() = default;
  explicit Counter(std::string_view name)
      : id_(detail::intern_counter(name)) {}

  void add(std::uint64_t delta = 1) const noexcept {
    if (id_ != detail::kNoMetric && enabled()) detail::counter_add(id_, delta);
  }

 private:
  detail::MetricId id_ = detail::kNoMetric;
};

class Gauge {
 public:
  Gauge() = default;
  explicit Gauge(std::string_view name) : id_(detail::intern_gauge(name)) {}

  void set(double value) const noexcept {
    if (id_ != detail::kNoMetric && enabled()) detail::gauge_set(id_, value);
  }

 private:
  detail::MetricId id_ = detail::kNoMetric;
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(std::string_view name, const std::vector<double>& uppers)
      : id_(detail::intern_histogram(name, uppers)) {}

  void observe(double value) const noexcept {
    if (id_ != detail::kNoMetric && enabled()) {
      detail::histogram_observe(id_, value);
    }
  }

 private:
  detail::MetricId id_ = detail::kNoMetric;
};

/// Exponential seconds buckets suitable for task/stage latencies
/// (1 us .. ~2 min, x4 steps).
const std::vector<double>& latency_seconds_buckets();

/// Small linear buckets for queue depths (0..256, power-of-two edges).
const std::vector<double>& depth_buckets();

// --- scrape side ------------------------------------------------------

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One merged metric at scrape time.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;                  ///< counter total / gauge level
  std::vector<double> bucket_uppers;   ///< histogram only
  std::vector<std::uint64_t> bucket_counts;  ///< +1 overflow bucket
  std::uint64_t count = 0;             ///< histogram sample count
  double sum = 0.0;                    ///< histogram sample sum
};

/// Merges every shard and returns all metrics sorted by name (the sort
/// makes the export schema-stable by construction).
std::vector<MetricValue> snapshot();

/// Zeroes every counter/histogram shard and gauge. Tests only — the
/// production registry is cumulative for the process lifetime.
void reset_for_test();

}  // namespace cn::obs

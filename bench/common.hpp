// Shared scaffolding for the reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper: it
// simulates the corresponding data set, runs the audit, prints a
// "paper vs measured" report to stdout, writes plottable CSVs under
// ./bench_out/, and finally runs a couple of google-benchmark
// micro-benchmarks of the library primitives it exercises.
//
// Environment knobs (all optional):
//   CN_SEED  — simulation seed (default 42)
//   CN_SCALE — data-set scale factor (default: each bench's own)
#pragma once

#include <benchmark/benchmark.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "obs/export.hpp"
#include "sim/dataset.hpp"

namespace cn::bench {

// A bench run with a half-parsed seed or scale silently measures the
// wrong world (CN_SEED=abc used to coerce to 0), so both knobs reject
// anything but a complete, in-range number — one line to stderr, exit 2.
inline std::uint64_t seed_from_env() {
  const char* s = std::getenv("CN_SEED");
  if (s == nullptr) return 42;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: CN_SEED='%s' is not an unsigned integer\n", s);
    std::exit(2);
  }
  return v;
}

/// The scale scale_from_env() last resolved (0 before the first call):
/// what JsonReport records, so a bench that falls back to its own default
/// reports that default rather than the 1.0 of an unset CN_SCALE.
inline double& resolved_scale() {
  static double scale = 0.0;
  return scale;
}

inline double scale_from_env(double fallback = 1.0) {
  const char* s = std::getenv("CN_SCALE");
  if (s == nullptr) return resolved_scale() = fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v <= 0.0) {
    std::fprintf(stderr, "error: CN_SCALE='%s' is not a positive number\n", s);
    std::exit(2);
  }
  return resolved_scale() = v;
}

/// Directory for CSV exports; created on first use.
inline std::string out_dir() {
  static const std::string dir = [] {
    std::error_code ec;
    std::filesystem::create_directories("bench_out", ec);
    return std::string("bench_out");
  }();
  return dir;
}

/// Machine-readable companion to the human-readable bench output.
///
/// Every bench binary owns one JsonReport for its lifetime; on
/// destruction (or an explicit flush) it writes
/// `bench_out/BENCH_<name>.json` so successive PRs can track the perf
/// trajectory without scraping stdout. Schema (all values numbers):
///
///   {
///     "bench": "<name>",
///     "seed": <CN_SEED>,
///     "scale": <the scale the bench ran at: CN_SCALE or its default>,
///     "wall_seconds": <total main() wall time>,
///     "metrics": { "<key>": <value>, ... }   // insertion order
///   }
///
/// When a "txs" metric was recorded, flush() derives "txs_per_s" from it
/// and the wall time. Wall-clock use is confined to this harness — the
/// simulation itself stays deterministic.
///
/// flush() also exports the cn::obs observability documents next to the
/// report — BENCH_<name>.metrics.json and BENCH_<name>.trace.json
/// (DESIGN.md §10) — so every bench run ships the registry counters and
/// the stage timeline it produced.
class JsonReport {
 public:
  explicit JsonReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { flush(); }

  /// Adds @p delta to a metric, creating it at zero. For benches that
  /// simulate several worlds (data sets A/B/C, year slices, ablation
  /// variants) and want an aggregate "txs"/"blocks" total.
  void add(const std::string& key, double delta) {
    for (auto& [k, v] : metrics_) {
      if (k == key) {
        v += delta;
        return;
      }
    }
    metrics_.emplace_back(key, delta);
  }

  /// Records (or overwrites) one numeric metric.
  void metric(const std::string& key, double value) {
    for (auto& [k, v] : metrics_) {
      if (k == key) {
        v = value;
        return;
      }
    }
    metrics_.emplace_back(key, value);
  }

  void flush() {
    if (flushed_) return;
    flushed_ = true;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    for (const auto& [k, v] : metrics_) {
      if (k == "txs" && wall > 0.0) {
        metric("txs_per_s", v / wall);
        break;
      }
    }
    // Atomic like the CSV/CNB1 exports: write <path>.tmp, rename into
    // place only after every byte landed, and say WHY on failure — a
    // perf-trajectory tracker reading a torn or silently-missing report
    // is worse than one reading none.
    const std::string path = out_dir() + "/BENCH_" + name_ + ".json";
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: BENCH report: cannot create %s: %s\n",
                   tmp.c_str(), std::strerror(errno));
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(seed_from_env()));
    std::fprintf(f, "  \"scale\": %.17g,\n",
                 resolved_scale() > 0.0 ? resolved_scale() : scale_from_env());
    std::fprintf(f, "  \"wall_seconds\": %.6f,\n", wall);
    std::fprintf(f, "  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].second) ? metrics_[i].second : 0.0;
      std::fprintf(f, "%s\n    \"%s\": %.17g", i == 0 ? "" : ",",
                   metrics_[i].first.c_str(), v);
    }
    std::fprintf(f, "%s}\n}\n", metrics_.empty() ? "" : "\n  ");
    const bool write_failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || write_failed) {
      std::fprintf(stderr, "error: BENCH report: write failed for %s: %s\n",
                   tmp.c_str(), std::strerror(errno));
      std::remove(tmp.c_str());
      return;
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      std::fprintf(stderr, "error: BENCH report: rename to %s failed: %s\n",
                   path.c_str(), ec.message().c_str());
      std::remove(tmp.c_str());
      return;
    }
    std::printf("JSON: %s\n", path.c_str());

    obs::write_metrics_json(out_dir() + "/BENCH_" + name_ + ".metrics.json");
    obs::write_trace_json(out_dir() + "/BENCH_" + name_ + ".trace.json");
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> metrics_;
  bool flushed_ = false;
};

inline void banner(const char* experiment, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper: %s\n", claim);
  std::printf("================================================================\n");
}

/// One "paper vs measured" line.
inline void compare(const char* metric, const std::string& paper,
                    const std::string& measured) {
  std::printf("  %-44s paper: %-18s measured: %s\n", metric, paper.c_str(),
              measured.c_str());
}

/// Runs registered google-benchmark micro-benchmarks (call at the end of
/// main, after the experiment output).
inline int run_microbenchmarks(int argc, char** argv) {
  std::printf("\n--- micro-benchmarks -------------------------------------------\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace cn::bench

// cnsweep — the scenario-matrix runner (DESIGN.md §14).
//
// One command reproduces every figure, table and ablation in
// EXPERIMENTS.md: expand the job matrix, group the worlds the jobs need
// by content-address fingerprint, generate each missing world exactly
// once through io::WorldCache, then fan the bench binaries out across a
// thread pool — each one finds its worlds warm in $CN_WORLD_DIR and
// spends its time on analysis instead of simulation.
//
//   cnsweep                      # full matrix, default seed/scales
//   cnsweep --smoke              # tiny CI matrix (3 benches, scale 0.1)
//   cnsweep --resume             # skip jobs whose .ok marker exists
//   cnsweep --jobs 4             # bench subprocess parallelism (at most 256)
//   cnsweep --seed 7 --scale 0.5 # override every bench's env knobs
//
// A malformed number, a --jobs above 256 or an unknown option exits 2
// before anything runs.
//
// Outputs: bench_out/sweep/<bench>.log per job, one consolidated
// bench_out/BENCH_sweep.json (job statuses, cache hit/miss/eviction
// counts, wall time spent simulating vs total, and — when a previous
// sweep report exists — the speedup against it, which across a
// cold-then-warm pair of runs is exactly the cache's cold-vs-warm
// speedup), plus the cn::obs metrics/trace documents next to it.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "args.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "worlds.hpp"

namespace {

using namespace cn;
namespace fs = std::filesystem;

struct Options {
  bool smoke = false;
  bool resume = false;
  unsigned jobs = 0;  ///< 0 = hardware concurrency
  std::optional<std::uint64_t> seed;
  std::optional<double> scale;
  std::string bench_dir;  ///< defaults to <cnsweep dir>/../bench
};

int usage() {
  std::fprintf(stderr,
               "usage: cnsweep [--smoke] [--resume] [--jobs N] [--seed N] "
               "[--scale X] [--bench-dir PATH]\n");
  return 2;
}

Options options_from(const cli::Args& args) {
  Options options;
  options.smoke = args.has("smoke");
  options.resume = args.has("resume");
  options.jobs = static_cast<unsigned>(args.get_u64("jobs", 0, cli::kMaxLanes));
  if (args.has("seed")) options.seed = args.get_u64("seed", 0);
  if (args.has("scale")) options.scale = args.get_positive("scale", 1.0);
  options.bench_dir = args.get_or("bench-dir", "");
  return options;
}

/// Where the bench binaries live: next to this binary's directory, under
/// ../bench — the build-tree layout (build/tools/cnsweep, build/bench/*).
std::string default_bench_dir(const char* argv0) {
  std::error_code ec;
  fs::path self = fs::path(argv0);
  const fs::path parent = self.parent_path();
  return (parent.empty() ? fs::path(".") : parent / ".." / "bench").string();
}

/// The CI matrix: two benches sharing worlds A+B plus one on C, all at
/// scale 0.1 — small enough for a cold run in seconds, rich enough to
/// exercise dedup (fig03 and fig05 want the same two worlds). The
/// evasion sweep rides along so the adversary-zoo worlds (evasive,
/// withholding) go through the same cold/warm cache cycle; at this
/// scale its detector-power gates are advisory (see
/// bench_ablation_evasion.cpp).
constexpr const char* kSmokeBenches[] = {
    "bench_fig03_congestion", "bench_fig05_delay_by_feerate",
    "bench_tab03_scam", "bench_ablation_evasion"};
constexpr double kSmokeScale = 0.1;

struct Job {
  const cn::bench::SweepEntry* entry = nullptr;
  double scale = 1.0;          ///< effective scale for spec expansion
  bool scale_forced = false;   ///< pass CN_SCALE to the subprocess
  bool skipped = false;        ///< --resume found an .ok marker
  int exit_code = -1;
  double seconds = 0.0;
};

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

/// Pulls "wall_seconds": <v> out of a previous sweep report, so a warm
/// rerun can state its speedup over the cold run it followed.
std::optional<double> previous_wall_seconds(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  const std::string key = "\"wall_seconds\":";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return std::nullopt;
  const double v = std::strtod(text.c_str() + at + key.size(), nullptr);
  return v > 0.0 ? std::optional<double>(v) : std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto sweep_start = std::chrono::steady_clock::now();
  const cli::Args args("cnsweep", argc, argv, 1, {"smoke", "resume"});
  if (!args.ok()) {
    std::fprintf(stderr, "cnsweep: bad argument '%s'\n", args.bad().c_str());
    return usage();
  }
  if (const auto bad = args.unknown({"smoke", "resume", "jobs", "seed", "scale",
                                     "bench-dir"})) {
    std::fprintf(stderr, "cnsweep: unknown option --%s\n", bad->c_str());
    return usage();
  }
  Options options = options_from(args);
  if (options.bench_dir.empty()) {
    options.bench_dir = default_bench_dir(argv[0]);
  }
  const std::uint64_t seed = options.seed.value_or(42);

  // The driver and every bench subprocess must agree on the cache
  // directory; honour an inherited CN_WORLD_DIR, else pick the default.
  const char* env_world_dir = std::getenv("CN_WORLD_DIR");
  const std::string world_dir =
      env_world_dir != nullptr && *env_world_dir != '\0'
          ? std::string(env_world_dir)
          : std::string("bench_out/worlds");
  setenv("CN_WORLD_DIR", world_dir.c_str(), 1);

  // --- expand the matrix --------------------------------------------------
  std::vector<Job> jobs;
  for (const cn::bench::SweepEntry& entry : cn::bench::sweep_matrix()) {
    if (options.smoke) {
      bool wanted = false;
      for (const char* name : kSmokeBenches) {
        wanted = wanted || std::strcmp(entry.bench, name) == 0;
      }
      if (!wanted) continue;
    }
    Job job;
    job.entry = &entry;
    if (options.scale.has_value()) {
      job.scale = *options.scale;
      job.scale_forced = true;
    } else if (options.smoke) {
      job.scale = kSmokeScale;
      job.scale_forced = true;
    } else {
      job.scale = entry.default_scale;
    }
    jobs.push_back(job);
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "cnsweep: the matrix expanded to zero jobs\n");
    return 2;
  }

  // Group the worlds the jobs will request by fingerprint: each unique
  // world is generated once, no matter how many benches want it.
  std::map<std::uint64_t, sim::WorldSpec> worlds;
  std::size_t requested = 0;
  for (const Job& job : jobs) {
    for (sim::WorldSpec& spec : job.entry->specs(seed, job.scale)) {
      ++requested;
      worlds.emplace(spec.fingerprint(), std::move(spec));
    }
  }
  std::vector<sim::WorldSpec> unique_specs;
  unique_specs.reserve(worlds.size());
  for (auto& [fingerprint, spec] : worlds) unique_specs.push_back(spec);

  std::printf("cnsweep: %zu bench jobs, %zu world requests, %zu unique worlds\n",
              jobs.size(), requested, unique_specs.size());
  std::printf("         cache %s, benches %s\n", world_dir.c_str(),
              options.bench_dir.c_str());

  util::ThreadPool pool(options.jobs);

  // --- phase 1: materialize every missing world ---------------------------
  io::WorldCache& cache = cn::bench::world_cache();
  std::vector<char> generate_failed(unique_specs.size(), 0);
  {
    const obs::Span span("sweep.generate_worlds");
    pool.parallel_for(unique_specs.size(), [&](std::size_t i) {
      try {
        const io::World world = cache.materialize(unique_specs[i]);
        std::fprintf(stderr, "world %-40s %s\n",
                     unique_specs[i].label().c_str(),
                     world.cache_hit ? "(cache hit)" : "(simulated)");
      } catch (const std::exception& e) {
        generate_failed[i] = 1;
        std::fprintf(stderr, "error: world %s: %s\n",
                     unique_specs[i].label().c_str(), e.what());
      }
    });
  }
  const io::WorldCacheStats cache_stats = cache.stats();
  std::size_t worlds_failed = 0;
  for (const char failed : generate_failed) worlds_failed += failed;
  std::printf("worlds: %llu hits, %llu simulated, %llu evicted, %.1f s in "
              "the engine\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              static_cast<unsigned long long>(cache_stats.evictions),
              cache_stats.sim_seconds);

  // --- phase 2: fan the bench binaries out --------------------------------
  const std::string sweep_dir = "bench_out/sweep";
  std::error_code ec;
  fs::create_directories(sweep_dir, ec);
  {
    const obs::Span span("sweep.run_benches");
    pool.parallel_for(jobs.size(), [&](std::size_t i) {
      Job& job = jobs[i];
      const std::string name = job.entry->bench;
      const std::string marker = sweep_dir + "/" + name + ".ok";
      if (options.resume && fs::exists(marker, ec)) {
        job.skipped = true;
        job.exit_code = 0;
        return;
      }
      const std::string log = sweep_dir + "/" + name + ".log";
      std::string cmd = "CN_SEED=" + std::to_string(seed);
      if (job.scale_forced) {
        char scale_buf[32];
        std::snprintf(scale_buf, sizeof scale_buf, "%.17g", job.scale);
        cmd += std::string(" CN_SCALE=") + scale_buf;
      }
      cmd += " CN_WORLD_DIR=" + shell_quote(world_dir);
      // --benchmark_filter='^$': skip the google-benchmark tail — the
      // sweep wants the analysis/report output, not the micro-benches.
      cmd += " " + shell_quote((fs::path(options.bench_dir) / name).string());
      cmd += " --benchmark_filter='^$'";
      cmd += " > " + shell_quote(log) + " 2>&1";
      const auto start = std::chrono::steady_clock::now();
      const int rc = std::system(cmd.c_str());
      job.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      job.exit_code = rc == 0 ? 0 : 1;
      if (job.exit_code == 0) {
        std::FILE* f = std::fopen(marker.c_str(), "w");
        if (f != nullptr) std::fclose(f);
      } else {
        std::remove(marker.c_str());
      }
      std::printf("  %-32s %s %7.1f s%s\n", name.c_str(),
                  job.exit_code == 0 ? "ok  " : "FAIL", job.seconds,
                  job.exit_code == 0 ? "" : ("  (see " + log + ")").c_str());
      std::fflush(stdout);
    });
  }

  std::size_t failed = 0, skipped = 0;
  double bench_seconds = 0.0;
  for (const Job& job : jobs) {
    failed += job.exit_code != 0;
    skipped += job.skipped;
    bench_seconds += job.seconds;
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_start)
          .count();
  const double sim_fraction =
      wall > 0.0 ? cache_stats.sim_seconds / wall : 0.0;

  // --- consolidated report ------------------------------------------------
  const std::string report_path = "bench_out/BENCH_sweep.json";
  const std::optional<double> prev_wall = previous_wall_seconds(report_path);
  const std::string tmp = report_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", tmp.c_str(),
                 std::strerror(errno));
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sweep\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n", static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"smoke\": %s,\n", options.smoke ? "true" : "false");
  std::fprintf(f, "  \"jobs\": [");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    std::fprintf(f,
                 "%s\n    {\"bench\": \"%s\", \"scale\": %.17g, "
                 "\"status\": \"%s\", \"seconds\": %.3f}",
                 i == 0 ? "" : ",", job.entry->bench, job.scale,
                 job.skipped ? "skipped" : (job.exit_code == 0 ? "ok" : "failed"),
                 job.seconds);
  }
  std::fprintf(f, "\n  ],\n  \"metrics\": {\n");
  std::fprintf(f, "    \"wall_seconds\": %.6f,\n", wall);
  std::fprintf(f, "    \"bench_seconds\": %.6f,\n", bench_seconds);
  std::fprintf(f, "    \"sim_seconds\": %.6f,\n", cache_stats.sim_seconds);
  std::fprintf(f, "    \"sim_fraction\": %.6f,\n", sim_fraction);
  std::fprintf(f, "    \"worlds_requested\": %zu,\n", requested);
  std::fprintf(f, "    \"worlds_unique\": %zu,\n", unique_specs.size());
  std::fprintf(f, "    \"worlds_failed\": %zu,\n", worlds_failed);
  std::fprintf(f, "    \"cache_hits\": %llu,\n",
               static_cast<unsigned long long>(cache_stats.hits));
  std::fprintf(f, "    \"cache_misses\": %llu,\n",
               static_cast<unsigned long long>(cache_stats.misses));
  std::fprintf(f, "    \"cache_evictions\": %llu,\n",
               static_cast<unsigned long long>(cache_stats.evictions));
  if (prev_wall.has_value()) {
    std::fprintf(f, "    \"prev_wall_seconds\": %.6f,\n", *prev_wall);
    std::fprintf(f, "    \"speedup_vs_prev\": %.3f,\n",
                 wall > 0.0 ? *prev_wall / wall : 0.0);
  }
  std::fprintf(f, "    \"jobs_total\": %zu,\n", jobs.size());
  std::fprintf(f, "    \"jobs_skipped\": %zu,\n", skipped);
  std::fprintf(f, "    \"jobs_failed\": %zu\n", failed);
  std::fprintf(f, "  }\n}\n");
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    std::fprintf(stderr, "error: write failed for %s\n", tmp.c_str());
    std::remove(tmp.c_str());
    return 1;
  }
  fs::rename(tmp, report_path, ec);
  if (ec) {
    std::fprintf(stderr, "error: rename to %s failed: %s\n",
                 report_path.c_str(), ec.message().c_str());
    std::remove(tmp.c_str());
    return 1;
  }

  obs::write_metrics_json("bench_out/BENCH_sweep.metrics.json");
  obs::write_trace_json("bench_out/BENCH_sweep.trace.json");

  std::printf("\nsweep: %zu jobs (%zu skipped, %zu failed) in %.1f s — "
              "%.1f s (%.1f%%) simulating\n",
              jobs.size(), skipped, failed, wall, cache_stats.sim_seconds,
              sim_fraction * 100.0);
  if (prev_wall.has_value() && wall > 0.0) {
    std::printf("sweep: %.1fx vs previous run (%.1f s)\n", *prev_wall / wall,
                *prev_wall);
  }
  std::printf("JSON: %s\n", report_path.c_str());
  return (failed > 0 || worlds_failed > 0) ? 1 : 0;
}

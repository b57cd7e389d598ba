// run_full_audit wall time: the staged columnar pipeline end to end with
// its per-stage split, plus two gates on it — the observability overhead
// (obs on vs off, byte-identical reports, <= 2%) and the CNB1 prebuilt
// dataset (byte-identical report, build stage < 5% of the audit).
#include "common.hpp"
#include "worlds.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "core/audit_pipeline.hpp"
#include "io/cnb.hpp"
#include "io/dataset_source.hpp"
#include "obs/registry.hpp"

namespace {

using namespace cn;

const io::World* g_world = nullptr;

std::string rendered(const core::AuditReport& report) {
  std::FILE* tmp = std::tmpfile();
  core::print_audit_report(report, tmp);
  const long size = std::ftell(tmp);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::rewind(tmp);
  const std::size_t read = std::fread(out.data(), 1, out.size(), tmp);
  std::fclose(tmp);
  out.resize(read);
  return out;
}

core::AuditOptions audit_options() {
  core::AuditOptions options;
  options.watch_addresses.push_back(g_world->scam_address());
  return options;
}

void BM_AuditColumnar(benchmark::State& state) {
  const auto options = audit_options();
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  for (auto _ : state) {
    auto report = core::run_full_audit(g_world->chain, registry, options);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_AuditColumnar)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  cn::bench::JsonReport json("audit");
  cn::bench::banner("run_full_audit: the staged columnar pipeline",
                    "(engineering bench; the paper's §4-§5 methodology end to end)");

  const std::uint64_t seed = cn::bench::seed_from_env();
  const double scale = cn::bench::scale_from_env(0.5);
  const io::World world = cn::bench::world_for(
      cn::bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));
  g_world = &world;
  std::printf("world: %zu blocks, %llu transactions\n\n", world.chain.size(),
              static_cast<unsigned long long>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const auto timed_once = [&](core::AuditReport* out) {
    const auto t0 = std::chrono::steady_clock::now();
    auto report = core::run_full_audit(g_world->chain, registry, audit_options());
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (out != nullptr) *out = std::move(report);
    return s;
  };

  core::AuditReport columnar_report;
  double columnar_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    columnar_s = std::min(columnar_s, timed_once(&columnar_report));
  }
  std::printf("  columnar pipeline: %8.3f s\n", columnar_s);
  std::printf("\n--- columnar stage timings ---\n");
  for (const core::AuditStage& s : columnar_report.stages) {
    std::printf("  %-14s %8.3f s\n", s.name.c_str(), s.seconds);
    json.metric("stage_" + s.name + "_seconds", s.seconds);
  }
  json.metric("columnar_seconds", columnar_s);

  // Observability overhead gate (DESIGN.md §10): the instrumented audit
  // must stay within 2% of the same audit with the runtime obs switch
  // off, and the report must not change by a byte either way. On/off
  // reps are interleaved and each side takes its minimum, so clock
  // drift, frequency scaling and cache warmth cancel instead of being
  // billed to the instrumentation.
  core::AuditReport lit_report, dark_report;
  double lit_s = 1e300;
  double dark_s = 1e300;
  constexpr int kObsPairs = 5;
  for (int rep = 0; rep < kObsPairs; ++rep) {
    cn::obs::set_enabled(true);
    lit_s = std::min(lit_s, timed_once(&lit_report));
    cn::obs::set_enabled(false);
    dark_s = std::min(dark_s, timed_once(&dark_report));
  }
  cn::obs::set_enabled(true);
  const bool obs_bytes_equal = rendered(dark_report) == rendered(lit_report);
  const double overhead = dark_s > 0.0 ? lit_s / dark_s - 1.0 : 0.0;
  const bool overhead_ok = overhead <= 0.02;
  std::printf("\n--- observability overhead ---\n");
  std::printf("  obs on:  %8.3f s\n  obs off: %8.3f s   (%+.2f%%, budget 2%%, "
              "reports %s)\n",
              lit_s, dark_s, overhead * 100.0,
              obs_bytes_equal ? "byte-identical" : "DIVERGED");
  json.metric("obs_enabled_seconds", lit_s);
  json.metric("obs_disabled_seconds", dark_s);
  json.metric("obs_overhead_fraction", overhead);
  json.metric("obs_overhead_ok", overhead_ok ? 1.0 : 0.0);
  json.metric("obs_reports_byte_identical", obs_bytes_equal ? 1.0 : 0.0);
  if (!obs_bytes_equal) {
    std::fprintf(stderr, "FATAL: report changed when observability was disabled\n");
    return 1;
  }

  // --- CNB1 prebuilt-dataset path (DESIGN.md §11) ---
  // Round-trip the world through a CNB1 file with the derived columns
  // embedded, audit from the stored dataset, and hold it to three
  // promises: the report stays byte-identical to the in-memory columnar
  // audit, the build stage collapses to pointer-fixup cost (< 5% of the
  // audit wall-clock), and the numbers land in the BENCH json.
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cn::bench::out_dir(), ec);
  const std::string cnb_path =
      (fs::path(cn::bench::out_dir()) / "audit_world.cnb").string();
  {
    const auto dataset = core::AuditDataset::build(world.chain, registry);
    io::CnbWriteOptions cnb_options;
    cnb_options.dataset = &dataset;
    std::string io_error;
    if (!io::write_cnb(world.chain, cnb_path, cnb_options, &io_error)) {
      std::fprintf(stderr, "FATAL: write_cnb: %s\n", io_error.c_str());
      return 1;
    }
  }

  const auto t_load = std::chrono::steady_clock::now();
  const auto loaded = io::open_dataset(cnb_path, io::LoadPolicy::kStrict);
  const double cnb_load_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_load)
          .count();
  const core::AuditDataset* prebuilt =
      loaded.has_value() ? loaded->prebuilt_for(registry) : nullptr;
  if (prebuilt == nullptr) {
    std::fprintf(stderr, "FATAL: CNB1 load yielded no usable prebuilt dataset\n");
    return 1;
  }

  core::AuditReport prebuilt_report;
  double prebuilt_s = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto options = audit_options();
    options.prebuilt_dataset = prebuilt;
    const auto t0 = std::chrono::steady_clock::now();
    auto report = core::run_full_audit(loaded->chain, registry, options);
    prebuilt_s = std::min(
        prebuilt_s,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    prebuilt_report = std::move(report);
  }
  const bool cnb_bytes_equal =
      rendered(prebuilt_report) == rendered(columnar_report);

  double build_stage_s = 0.0;
  for (const core::AuditStage& s : prebuilt_report.stages) {
    if (s.name == "build") build_stage_s = s.seconds;
  }
  // The budget is against the audit users actually wait for: a stored
  // dataset must shrink the build stage to < 5% of the columnar audit's
  // wall-clock (it used to BE ~94% of it — the cost this format erases).
  const double build_fraction =
      columnar_s > 0.0 ? build_stage_s / columnar_s : 0.0;
  const bool build_fraction_ok = build_fraction < 0.05;
  std::printf("\n--- CNB1 prebuilt dataset ---\n");
  std::printf("  load:  %8.3f s   audit: %8.3f s   (reports %s)\n", cnb_load_s,
              prebuilt_s, cnb_bytes_equal ? "byte-identical" : "DIVERGED");
  std::printf("  build stage: %.4f s = %.2f%% of the %.3f s columnar audit "
              "(budget 5%%, %s)\n",
              build_stage_s, build_fraction * 100.0, columnar_s,
              build_fraction_ok ? "OK" : "FAILED");
  json.metric("cnb_load_seconds", cnb_load_s);
  json.metric("cnb_audit_seconds", prebuilt_s);
  json.metric("cnb_stage_build_seconds", build_stage_s);
  json.metric("cnb_build_fraction", build_fraction);
  json.metric("cnb_build_fraction_ok", build_fraction_ok ? 1.0 : 0.0);
  json.metric("cnb_reports_byte_identical", cnb_bytes_equal ? 1.0 : 0.0);
  if (!cnb_bytes_equal) {
    std::fprintf(stderr,
                 "FATAL: CNB1 prebuilt report diverged from the in-memory "
                 "audit\n");
    return 1;
  }
  if (!build_fraction_ok) {
    std::fprintf(stderr,
                 "FATAL: build stage is %.2f%% of the columnar audit "
                 "(budget 5%%)\n",
                 build_fraction * 100.0);
    return 1;
  }

  return cn::bench::run_microbenchmarks(argc, argv);
}

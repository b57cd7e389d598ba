// The staged columnar audit pipeline (DESIGN.md §9). Every stage reads
// the shared immutable AuditContext — attribution, AuditDataset, tested
// pools, per-pool coverage — and writes only its own report section.
// Only the build stage's per-block pass runs on a thread pool; the
// stages after it are plain loops, so the report is byte-identical at
// every thread count.
#include "core/audit_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/darkfee.hpp"
#include "core/ppe.hpp"
#include "core/report.hpp"
#include "core/sppe.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace cn::core {

const std::vector<std::string>& audit_stage_names() {
  static const std::vector<std::string> kNames = {
      "build",   "quality-mask", "norm-stats", "pool-tests",
      "screens", "darkfee",      "neutrality", "withholding"};
  return kNames;
}

bool AuditReport::stage_skipped(std::string_view name) const noexcept {
  for (const AuditStage& s : stages) {
    if (s.name == name) return !s.ran;
  }
  return false;
}

namespace {

/// Pools below this hash share are not tested (small pools lack power).
constexpr double kMinShare = 0.03;
/// SPPE cutoff for dark-fee suspicion (Table 4's strong signal).
constexpr double kDarkFeeSppeThreshold = 99.0;
/// Resamples for the SPPE confidence interval of each finding.
constexpr std::size_t kBootstrapResamples = 500;

bool stage_selected(const AuditOptions& options, std::string_view name) {
  if (options.stages.empty()) return true;
  for (const std::string& s : options.stages) {
    if (s == name) return true;
  }
  return false;
}

/// Per-stage telemetry handles, interned once per process. Every stage
/// gets a runs counter, a last-wall-time gauge, and a latency histogram
/// ("audit.stage.<name>.*"); the whole pipeline gets a runs counter and
/// a span named "audit.run_full_audit".
struct StageMetrics {
  obs::Counter runs;
  obs::Gauge last_seconds;
  obs::Histogram seconds;

  explicit StageMetrics(const std::string& stage)
      : runs("audit.stage." + stage + ".runs"),
        last_seconds("audit.stage." + stage + ".last_seconds"),
        seconds("audit.stage." + stage + ".seconds",
                obs::latency_seconds_buckets()) {}
};

StageMetrics& stage_metrics(std::size_t stage_index) {
  static std::vector<StageMetrics>* all = [] {
    auto* v = new std::vector<StageMetrics>();
    v->reserve(audit_stage_names().size());
    for (const std::string& name : audit_stage_names()) v->emplace_back(name);
    return v;
  }();
  return (*all)[stage_index];
}

}  // namespace

AuditReport run_full_audit(const btc::Chain& chain,
                           const btc::CoinbaseTagRegistry& registry,
                           const AuditOptions& options) {
  return run_full_audit(chain, registry, nullptr, options);
}

AuditReport run_full_audit(const btc::Chain& chain,
                           const btc::CoinbaseTagRegistry& registry,
                           const DataQualityReport* quality,
                           const AuditOptions& options) {
  static obs::Counter audit_runs("audit.runs");
  const obs::Span run_span("audit.run_full_audit");
  audit_runs.add();

  AuditReport report;
  report.options = options;
  report.blocks = chain.size();
  report.txs = chain.total_tx_count();

  AuditContext ctx;

  // Runs one named stage (when selected) and records its wall time.
  // "build" and "quality-mask" pass always=true: every later stage reads
  // their output, and the report header depends on them. Stages are
  // invoked in audit_stage_names() order, so report.stages.size() is the
  // index into the interned per-stage metric handles.
  const auto stage = [&](const char* name, bool always, auto&& body) {
    AuditStage s;
    s.name = name;
    s.ran = always || stage_selected(options, name);
    if (s.ran) {
      StageMetrics& m = stage_metrics(report.stages.size());
      const obs::Span span(std::string("audit.stage.") + name);
      const auto t0 = std::chrono::steady_clock::now();
      body();
      s.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      m.runs.add();
      m.last_seconds.set(s.seconds);
      m.seconds.observe(s.seconds);
    }
    report.stages.push_back(std::move(s));
  };

  // build: attribution, the columnar dataset, and the tested-pool list.
  stage("build", true, [&] {
    ctx.attribution = PoolAttribution(chain, registry);
    if (options.prebuilt_dataset != nullptr) {
      ctx.dataset = options.prebuilt_dataset;
    } else {
      util::ThreadPool workers(options.threads);
      ctx.built_dataset = AuditDataset::build(chain, ctx.attribution, workers,
                                              options.interned_addresses);
      ctx.dataset = &ctx.built_dataset;
    }
    for (const PoolId id : ctx.attribution.pool_ids_by_blocks()) {
      if (ctx.attribution.hash_share(id) >= kMinShare) {
        ctx.pools.push_back(id);
      }
    }
    report.unidentified_blocks = ctx.attribution.unidentified_blocks();
  });
  const AuditDataset& ds = *ctx.dataset;

  // quality-mask: which blocks the audit may trust, and how much
  // observed data each pool's statistics rest on.
  stage("quality-mask", true, [&] {
    report.has_quality = quality != nullptr;
    ctx.pool_coverage.assign(ctx.attribution.pool_count(), 1.0);
    if (quality == nullptr) return;
    report.mean_coverage = quality->mean_coverage;
    report.snapshot_gaps = static_cast<std::uint64_t>(quality->gaps.size());
    std::vector<double> sum(ctx.attribution.pool_count(), 0.0);
    std::vector<std::uint64_t> n(ctx.attribution.pool_count(), 0);
    const std::span<const std::uint64_t> heights = ds.block_heights();
    const std::span<const PoolId> owners = ds.block_pool();
    for (std::size_t b = 0; b < ds.block_count(); ++b) {
      const double cov = quality->coverage_at(heights[b]);
      if (cov < options.min_coverage) {
        report.low_coverage_heights.push_back(heights[b]);
      }
      if (owners[b] != kNoPoolId) {
        sum[owners[b]] += cov;
        ++n[owners[b]];
      }
    }
    report.masked_blocks =
        static_cast<std::uint64_t>(report.low_coverage_heights.size());
    for (PoolId p = 0; p < ctx.pool_coverage.size(); ++p) {
      if (n[p] > 0) ctx.pool_coverage[p] = sum[p] / static_cast<double>(n[p]);
    }
  });
  const auto coverage_of_pool = [&](PoolId id) {
    return id < ctx.pool_coverage.size() ? ctx.pool_coverage[id] : 1.0;
  };

  // norm-stats: norm-II adherence over trusted blocks, from the cached
  // per-block PPE column.
  stage("norm-stats", false, [&] {
    std::vector<double> ppe;
    if (quality == nullptr) {
      ppe = chain_ppe(ds);
    } else {
      const std::span<const std::uint64_t> heights = ds.block_heights();
      const std::span<const double> block_ppe = ds.block_ppe();
      for (std::size_t b = 0; b < ds.block_count(); ++b) {
        if (quality->coverage_at(heights[b]) < options.min_coverage) continue;
        if (!std::isnan(block_ppe[b])) ppe.push_back(block_ppe[b]);
      }
    }
    report.ppe = stats::summarize(ppe);
  });

  // pool-tests: §5.2 cross-pool differential prioritization of
  // self-interest txs. The per-pool tx lists were precomputed by the
  // build stage in one chain scan.
  stage("pool-tests", false, [&] {
    for (const PoolId owner : ctx.pools) {
      const std::span<const TxIdx> txs = ds.self_interest_txs(owner);
      if (txs.size() < 10) continue;
      for (const PoolId miner : ctx.pools) {
        const auto test = test_differential_prioritization(ds, miner, txs);
        if (test.p_accelerate >= options.alpha || test.sppe <= 25.0) continue;

        AccelerationFinding finding;
        finding.tx_owner = ds.pool_name(owner);
        finding.miner = ds.pool_name(miner);
        finding.collusion = owner != miner;
        finding.test = test;
        const auto values = sppe_values(ds, txs, miner);
        if (!values.empty()) {
          finding.sppe_ci = stats::bootstrap_mean_ci(
              values, 0.95, kBootstrapResamples,
              stable_hash64(finding.tx_owner + "/" + finding.miner));
        }
        finding.coverage = coverage_of_pool(miner);
        finding.insufficient_data =
            report.has_quality && finding.coverage < options.min_coverage;
        report.findings.push_back(std::move(finding));
      }
    }
    std::sort(report.findings.begin(), report.findings.end(),
              [](const AccelerationFinding& a, const AccelerationFinding& b) {
                if (a.test.p_accelerate != b.test.p_accelerate)
                  return a.test.p_accelerate < b.test.p_accelerate;
                return a.test.sppe > b.test.sppe;
              });
  });

  // screens: §5.3 watched-address screens (one test per address x pool).
  stage("screens", false, [&] {
    for (const btc::Address address : options.watch_addresses) {
      const std::vector<TxIdx> txs = ds.txs_paying_to(address);
      WatchedAddressScreen screen;
      screen.address = address;
      screen.tx_count = txs.size();
      for (const PoolId pool : ctx.pools) {
        auto test = test_differential_prioritization(ds, pool, txs);
        screen.any_significant = screen.any_significant ||
                                 test.p_accelerate < options.alpha ||
                                 test.p_decelerate < options.alpha;
        screen.per_pool.push_back(std::move(test));
      }
      report.screens.push_back(std::move(screen));
    }
  });

  // darkfee: Table 4 detector (counts only; validation needs the
  // service API). Per-pool tx totals and the SPPE column are cached.
  stage("darkfee", false, [&] {
    for (const PoolId pool : ctx.pools) {
      DarkFeeSuspicion suspicion;
      suspicion.pool = ds.pool_name(pool);
      suspicion.txs = ds.pool_tx_count(pool);
      suspicion.flagged = count_accelerated(ds, pool, kDarkFeeSppeThreshold);
      report.darkfee.push_back(std::move(suspicion));
    }
    std::sort(report.darkfee.begin(), report.darkfee.end(),
              [](const DarkFeeSuspicion& a, const DarkFeeSuspicion& b) {
                const double ra = a.txs ? static_cast<double>(a.flagged) / a.txs : 0;
                const double rb = b.txs ? static_cast<double>(b.flagged) / b.txs : 0;
                if (ra != rb) return ra > rb;
                return a.pool < b.pool;
              });
  });

  // neutrality: §6.1 scorecard, per pool over the cached columns.
  stage("neutrality", false, [&] {
    report.neutrality = neutrality_reports(ds, NeutralityOptions{});
    for (NeutralityReport& n : report.neutrality) {
      const auto id = ctx.attribution.id_of(n.pool);
      n.coverage = id.has_value() ? coverage_of_pool(*id) : 1.0;
      n.insufficient_data =
          report.has_quality && n.coverage < options.min_coverage;
    }
  });

  // withholding: block-vs-mempool overlap detector. Needs the observer's
  // first-seen log; without it the stage (and its report section) is
  // absent, keeping historical reports byte-identical.
  report.has_first_seen = options.first_seen != nullptr;
  stage("withholding", false, [&] {
    if (options.first_seen == nullptr) return;
    report.withholding = withholding_reports(ds, *options.first_seen);
  });

  return report;
}

void print_audit_report(const AuditReport& report, std::FILE* out,
                        bool with_timings) {
  std::fprintf(out, "=== chain audit: %s blocks, %s transactions (%s unattributed "
                    "blocks) ===\n",
               with_commas(report.blocks).c_str(), with_commas(report.txs).c_str(),
               with_commas(report.unidentified_blocks).c_str());
  if (report.stage_skipped("norm-stats")) {
    std::fprintf(out, "norm-II adherence: [SKIPPED]\n");
  } else {
    std::fprintf(out, "norm-II adherence: mean PPE %.2f%% (std %.2f)\n",
                 report.ppe.mean, report.ppe.stddev);
  }
  if (report.has_quality) {
    std::fprintf(out,
                 "data quality: mean coverage %.1f%%, %s snapshot gap(s), "
                 "%s of %s blocks below %.0f%% coverage masked from norm stats\n",
                 report.mean_coverage * 100.0,
                 with_commas(report.snapshot_gaps).c_str(),
                 with_commas(report.masked_blocks).c_str(),
                 with_commas(report.blocks).c_str(),
                 report.options.min_coverage * 100.0);
  }
  std::fprintf(out, "\n");

  std::fprintf(out, "--- differential prioritization findings (%zu) ---\n",
               report.findings.size());
  if (report.stage_skipped("pool-tests")) {
    std::fprintf(out, "  [SKIPPED]\n");
  } else {
    for (const auto& f : report.findings) {
      std::fprintf(out,
                   "  %s: %s accelerates %s's txs  x=%llu y=%llu p=%s  "
                   "SPPE %.1f [%.1f, %.1f]%s\n",
                   f.collusion ? "COLLUSION" : "SELFISH", f.miner.c_str(),
                   f.tx_owner.c_str(), static_cast<unsigned long long>(f.test.x),
                   static_cast<unsigned long long>(f.test.y),
                   format_p_value(f.test.p_accelerate).c_str(), f.test.sppe,
                   f.sppe_ci.lo, f.sppe_ci.hi,
                   f.insufficient_data ? "  [INSUFFICIENT DATA]" : "");
    }
    if (report.findings.empty()) std::fprintf(out, "  (none)\n");
  }

  if (report.stage_skipped("screens")) {
    std::fprintf(out, "\n--- watched-address screens ---\n  [SKIPPED]\n");
  } else if (!report.screens.empty()) {
    std::fprintf(out, "\n--- watched-address screens ---\n");
    for (const auto& s : report.screens) {
      std::fprintf(out, "  %s: %zu txs, %s\n", s.address.to_string().c_str(),
                   s.tx_count,
                   s.any_significant ? "DIFFERENTIAL TREATMENT DETECTED"
                                     : "no differential treatment");
    }
  }

  std::fprintf(out, "\n--- dark-fee suspicion (SPPE >= %.0f) ---\n",
               kDarkFeeSppeThreshold);
  if (report.stage_skipped("darkfee")) {
    std::fprintf(out, "  [SKIPPED]\n");
  } else {
    for (const auto& d : report.darkfee) {
      if (d.flagged == 0) continue;
      std::fprintf(out, "  %-16s %6s of %9s txs flagged (%s)\n", d.pool.c_str(),
                   with_commas(d.flagged).c_str(), with_commas(d.txs).c_str(),
                   percent(d.txs ? static_cast<double>(d.flagged) /
                                       static_cast<double>(d.txs)
                                 : 0.0, 3)
                       .c_str());
    }
  }

  std::fprintf(out, "\n--- neutrality scorecard (worst first) ---\n");
  if (report.stage_skipped("neutrality")) {
    std::fprintf(out, "  [SKIPPED]\n");
  } else {
    for (const auto& n : report.neutrality) {
      std::fprintf(out, "  %-16s score %5.1f  (PPE %.2f%%, boosts %s, self-p %s)%s\n",
                   n.pool.c_str(), n.score, n.mean_ppe,
                   percent(n.boosted_tx_rate, 2).c_str(),
                   format_p_value(n.self_dealing_p).c_str(),
                   n.insufficient_data ? "  [INSUFFICIENT DATA]" : "");
    }
  }

  // Rendered only when a first-seen log was supplied, so data sets
  // without one keep their historical report bytes.
  if (report.has_first_seen) {
    std::fprintf(out, "\n--- block withholding (missing-mempool overlap) ---\n");
    if (report.stage_skipped("withholding")) {
      std::fprintf(out, "  [SKIPPED]\n");
    } else {
      for (const auto& w : report.withholding) {
        std::fprintf(out,
                     "  %-16s %6s of %9s blocks flagged (%s, base %s) p=%s\n",
                     w.pool.c_str(), with_commas(w.flagged).c_str(),
                     with_commas(w.blocks).c_str(),
                     percent(w.flagged_rate, 2).c_str(),
                     percent(w.base_rate, 2).c_str(),
                     format_p_value(w.p_value).c_str());
      }
      if (report.withholding.empty()) std::fprintf(out, "  (none)\n");
    }
  }

  if (with_timings && !report.stages.empty()) {
    double total = 0.0;
    std::fprintf(out, "\n--- stage timings ---\n");
    for (const AuditStage& s : report.stages) {
      if (s.ran) {
        std::fprintf(out, "  %-14s %9.3f s\n", s.name.c_str(), s.seconds);
        total += s.seconds;
      } else {
        std::fprintf(out, "  %-14s  [SKIPPED]\n", s.name.c_str());
      }
    }
    std::fprintf(out, "  %-14s %9.3f s\n", "total", total);
  }
}

}  // namespace cn::core

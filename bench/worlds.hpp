// Shared world construction for the reproduction benches (DESIGN.md §14).
//
// Every bench used to run its own sim::Engine; now each describes the
// world it needs as a sim::WorldSpec and calls bench::world_for(), which
// routes through the content-addressed io::WorldCache under
// $CN_WORLD_DIR (default bench_out/worlds). Benches that want the SAME
// world — fig03/04/05 all analyze baseline data set A at the same seed
// and scale — get the same fingerprint and hence one simulation total.
//
// The spec constructors live here, next to the sweep matrix that
// cnsweep uses to pre-generate every world a run will need, so the
// benches and the driver can never disagree about a fingerprint.
//
// Deliberately NOT a google-benchmark dependency: tools/cnsweep.cpp
// includes this header too.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "btc/rewards.hpp"
#include "io/world_cache.hpp"
#include "sim/world_spec.hpp"

namespace cn::bench {

/// The process-wide cache every bench shares. The directory comes from
/// CN_WORLD_DIR so cnsweep's subprocess jobs hit the worlds the driver
/// pre-generated.
inline io::WorldCache& world_cache() {
  static io::WorldCache* cache = [] {
    const char* dir = std::getenv("CN_WORLD_DIR");
    return new io::WorldCache(dir != nullptr && *dir != '\0'
                                  ? std::string(dir)
                                  : std::string("bench_out/worlds"));
  }();
  return *cache;
}

/// Materializes @p spec through the shared cache. The hit/miss line
/// goes to stderr so bench stdout (the paper-vs-measured tables) stays
/// independent of cache state.
inline io::World world_for(const sim::WorldSpec& spec) {
  io::World world = world_cache().materialize(spec);
  std::fprintf(stderr, "world %-40s %s %s\n", spec.label().c_str(),
               world_cache().path_for(spec).c_str(),
               world.cache_hit ? "(cache hit)" : "(simulated)");
  return world;
}

namespace worlds {

/// Unmodified data set — the workhorse spec (fig02-08, tab01-04, fig14,
/// audit/daemon/ingest infrastructure benches).
inline sim::WorldSpec baseline(sim::DatasetKind kind, std::uint64_t seed,
                               double scale) {
  return sim::baseline_spec(kind, seed, scale);
}

/// Figure 1's era contrast on data set A. The GBT era IS the baseline
/// world (every pool's default builder is GBT), so it deliberately maps
/// to the baseline fingerprint and shares that cache entry.
inline sim::WorldSpec era(sim::BuilderKind builder, std::uint64_t seed,
                          double scale) {
  if (builder == sim::BuilderKind::kGbt) {
    return baseline(sim::DatasetKind::kA, seed, scale);
  }
  sim::WorldSpec spec = baseline(sim::DatasetKind::kA, seed, scale);
  spec.scenario = "era-legacy";
  spec.set("builder", 1.0);
  return spec;
}

/// Aging-ablation world (data set A, every pool ordering with an aging
/// bonus). Zero bonus is the pure fee-rate norm — the baseline world.
inline sim::WorldSpec aging(double age_weight_per_hour, std::uint64_t seed,
                            double scale) {
  if (age_weight_per_hour == 0.0) {
    return baseline(sim::DatasetKind::kA, seed, scale);
  }
  sim::WorldSpec spec = baseline(sim::DatasetKind::kA, seed, scale);
  spec.scenario = "aging";
  spec.set("age_weight_per_hour", age_weight_per_hour);
  return spec;
}

/// Detection-ablation world: data set C (0.4 scale unless overridden)
/// with the scam window removed and the planted behaviours dialled
/// explicitly. bench_ablation_detection always uses the default scale;
/// the evasion sweep passes its own so `cnsweep --smoke` stays cheap.
inline sim::WorldSpec detection(std::uint64_t seed, double self_per_block,
                                bool selfish_enabled,
                                bool propagation_enabled,
                                double scale = 0.4) {
  sim::WorldSpec spec = baseline(sim::DatasetKind::kC, seed, scale);
  spec.scenario = "detection";
  spec.set("scam", 0.0);
  spec.set("self_interest_per_block", self_per_block);
  spec.set("selfish", selfish_enabled ? 1.0 : 0.0);
  spec.set("propagation_exclusion", propagation_enabled ? 1.0 : 0.0);
  return spec;
}

/// Evasion-sweep world (ROADMAP item 4): the detection scenario with
/// every selfish pool throttling its own-wallet boosts to intensity
/// theta in [0,1]. theta=0 IS the honest detection control — it returns
/// that exact spec, so the two share one fingerprint and one cached
/// world (the era(kGbt)/aging(0) idiom). The power sweep's evasion
/// budget is 1 - theta.
inline sim::WorldSpec evasion(std::uint64_t seed, double theta,
                              double self_per_block = 0.5,
                              double scale = 0.4) {
  if (theta == 0.0) {
    return detection(seed, self_per_block, false, true, scale);
  }
  sim::WorldSpec spec = baseline(sim::DatasetKind::kC, seed, scale);
  spec.scenario = "detection";
  spec.set("scam", 0.0);
  spec.set("self_interest_per_block", self_per_block);
  spec.set("propagation_exclusion", 1.0);
  spec.set("evasion_theta", theta);
  return spec;
}

/// Block-withholding world: the selfish detection world whose
/// misbehaving pools additionally withhold published blocks by
/// @p delay_s seconds. delay 0 is the plain selfish detection world
/// (shared fingerprint).
inline sim::WorldSpec withholding(std::uint64_t seed, double delay_s,
                                  double self_per_block = 0.5,
                                  double scale = 0.4) {
  sim::WorldSpec spec = detection(seed, self_per_block, true, true, scale);
  if (delay_s != 0.0) {
    spec.scenario = "withholding";
    spec.set("withhold_delay_s", delay_s);
  }
  return spec;
}

/// Table 5 year-slice regimes (era-calibrated fee pressure; see
/// bench_tab05_fee_revenue.cpp for the paper numbers they reproduce).
struct YearRegime {
  int year;
  double paper_mean_percent;
  double anchor_multiplier;  ///< scales all fee anchors
  double utilization;
};

inline constexpr YearRegime kTab05Years[] = {
    {2016, 2.48, 3.0, 0.70},  {2017, 11.77, 3.6, 0.92},
    {2018, 3.19, 1.7, 0.70},  {2019, 2.75, 1.55, 0.72},
    {2020, 6.29, 3.8, 0.82},
};
inline constexpr YearRegime kTab05PostHalving{2020, 8.90, 2.0, 0.82};

/// One Table 5 slice: data set C machinery at 0.2x the bench scale,
/// restarted at @p genesis with a year-calibrated regime and the
/// planted behaviours (scam window, surge bursts) stripped.
inline sim::WorldSpec year_slice(std::uint64_t genesis,
                                 const YearRegime& regime,
                                 std::uint64_t engine_seed, double scale) {
  sim::WorldSpec spec =
      baseline(sim::DatasetKind::kC, engine_seed, 0.2 * scale);
  spec.scenario = "year-slice";
  spec.set("genesis_height", static_cast<double>(genesis));
  spec.set("scam", 0.0);
  spec.set("clear_bursts", 1.0);
  spec.set("utilization", regime.utilization);
  spec.set("anchor_multiplier", regime.anchor_multiplier);
  return spec;
}

}  // namespace worlds

/// One sweep job: a bench binary plus the exact worlds it will request
/// at a given (seed, scale). cnsweep pre-generates the union of these
/// (deduplicated by fingerprint) before fanning the binaries out, so
/// every subprocess runs warm.
struct SweepEntry {
  const char* bench;     ///< executable name under build/bench/
  double default_scale;  ///< the bench's own scale_from_env() fallback
  std::vector<sim::WorldSpec> (*specs)(std::uint64_t seed, double scale);
};

/// The full EXPERIMENTS.md matrix: every figure/table/ablation bench
/// plus the infrastructure gates.
inline const std::vector<SweepEntry>& sweep_matrix() {
  using sim::DatasetKind;
  using sim::WorldSpec;
  static const std::vector<SweepEntry>* matrix = new std::vector<SweepEntry>{
      {"bench_fig01_ppe_norm_shift", 0.5,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::era(sim::BuilderKind::kGbt, seed, scale),
             worlds::era(sim::BuilderKind::kLegacyPriority, seed, scale)};
       }},
      {"bench_tab01_datasets", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kA, seed, scale),
             worlds::baseline(DatasetKind::kB, seed, scale),
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_fig02_pool_shares", 0.6,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kA, seed, scale),
             worlds::baseline(DatasetKind::kB, seed, scale),
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_fig03_congestion", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kA, seed, scale),
             worlds::baseline(DatasetKind::kB, seed, scale)};
       }},
      {"bench_fig04_fees_delays", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kA, seed, scale),
             worlds::baseline(DatasetKind::kB, seed, scale)};
       }},
      {"bench_fig05_delay_by_feerate", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kA, seed, scale),
             worlds::baseline(DatasetKind::kB, seed, scale)};
       }},
      {"bench_fig06_pair_violations", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kA, seed, scale)};
       }},
      {"bench_fig07_ppe_pools", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_fig08_wallets", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_tab02_self_interest", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_tab03_scam", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_tab04_darkfee", 1.0,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_tab05_fee_revenue", 1.0,
       [](std::uint64_t seed, double scale) {
         std::vector<WorldSpec> out;
         for (const worlds::YearRegime& regime : worlds::kTab05Years) {
           out.push_back(worlds::year_slice(
               btc::approx_height_of_year(regime.year), regime,
               seed + static_cast<std::uint64_t>(regime.year), scale));
         }
         out.push_back(worlds::year_slice(btc::kThirdHalvingHeight + 100,
                                          worlds::kTab05PostHalving, seed + 7,
                                          scale));
         return out;
       }},
      {"bench_fig14_accel_fees", 0.4,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_ablation_detection", 1.0,
       [](std::uint64_t seed, double) {
         // The ablation pins its own 0.4 scale (see worlds::detection).
         std::vector<WorldSpec> out;
         for (const double volume : {0.02, 0.08, 0.2, 0.5}) {
           out.push_back(worlds::detection(seed, volume, true, true));
         }
         for (std::uint64_t s = 0; s < 3; ++s) {
           out.push_back(worlds::detection(seed + s, 0.5, false, true));
         }
         out.push_back(worlds::detection(seed, 0.3, true, true));
         out.push_back(worlds::detection(seed, 0.3, true, false));
         return out;
       }},
      {"bench_ablation_evasion", 0.4,
       [](std::uint64_t seed, double scale) {
         // Mirrors bench_ablation_evasion.cpp's full grid. theta=0
         // deliberately maps onto bench_ablation_detection's honest
         // controls (same fingerprints, one simulation total), and the
         // delay-0 withholding world onto its selfish world.
         std::vector<WorldSpec> out;
         for (const double theta : {0.0, 0.25, 0.5, 0.75, 1.0}) {
           for (std::uint64_t s = 0; s < 3; ++s) {
             out.push_back(worlds::evasion(seed + s, theta, 0.5, scale));
           }
         }
         out.push_back(worlds::withholding(seed, 0.0, 0.5, scale));
         out.push_back(worlds::withholding(seed, 120.0, 0.5, scale));
         return out;
       }},
      {"bench_ablation_aging", 0.5,
       [](std::uint64_t seed, double scale) {
         std::vector<WorldSpec> out;
         for (const double w : {0.0, 0.20, 1.0}) {
           out.push_back(worlds::aging(w, seed, scale));
         }
         return out;
       }},
      {"bench_audit", 0.5,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_dataset_build", 0.5,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
      {"bench_fault_ingest", 0.25,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kA, seed, scale)};
       }},
      {"bench_daemon", 0.25,
       [](std::uint64_t seed, double scale) {
         return std::vector<WorldSpec>{
             worlds::baseline(DatasetKind::kC, seed, scale)};
       }},
  };
  return *matrix;
}

}  // namespace cn::bench

// Congestion study (paper §4.1): how congested is the Mempool, how long
// do transactions wait, and does paying more actually help?
//
//   $ ./congestion_study [seed]
//
// Reproduces, on simulated data sets A and B, the analyses behind
// Figures 3, 4 and 5: Mempool occupancy over time, commit-delay
// distributions, and fee-rate distributions conditioned on congestion.
#include <cstdio>
#include <cstdlib>

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "core/delay_model.hpp"
#include "core/report.hpp"
#include "sim/dataset.hpp"
#include "stats/ecdf.hpp"

namespace {

void study(cn::sim::DatasetKind kind, const char* name, std::uint64_t seed) {
  std::printf("=== data set %s ===\n", name);
  cn::sim::SimResult world = cn::sim::make_dataset(kind, seed, 1.0);
  const auto& snaps = world.observer.snapshots();
  const std::uint64_t unit = world.config.max_block_vsize;

  std::printf("blocks: %zu   committed txs: %llu   snapshots: %zu\n",
              world.chain.size(),
              static_cast<unsigned long long>(world.chain.total_tx_count()),
              snaps.size());
  std::printf("Mempool congested (>1 block budget) %.1f%% of the time; "
              "peak backlog %.1fx the block budget\n",
              snaps.fraction_above(unit) * 100.0,
              static_cast<double>(snaps.max_vsize()) / static_cast<double>(unit));

  // Commit delays (Fig 4a).
  const auto first_seen = [&world](const cn::btc::Txid& id) {
    return world.observer.first_seen(id);
  };
  const auto dataset = cn::core::AuditDataset::build(
      world.chain, cn::btc::CoinbaseTagRegistry::paper_registry());
  const auto seen = cn::core::collect_seen_txs(dataset, first_seen);
  const auto delays = cn::core::commit_delays_blocks(dataset, seen);
  const cn::stats::Ecdf delay_cdf{std::span<const double>(delays)};
  std::printf("commit delays: %.1f%% next-block, %.1f%% wait >=3 blocks, "
              "%.1f%% wait >=10 blocks\n",
              delay_cdf.evaluate(1.0) * 100.0,
              delay_cdf.survival(2.0) * 100.0,
              delay_cdf.survival(9.0) * 100.0);

  // Fee-rates by congestion level at issue time (Fig 4c / 11).
  static const char* kLevels[] = {"<=1x (none)", "(1,2]x", "(2,4]x", ">4x"};
  std::printf("median fee-rate (sat/vB) by congestion at issue:\n");
  for (int level = 0; level <= 3; ++level) {
    const auto rates = cn::core::fee_rates_at_level(
        seen, snaps, unit, static_cast<cn::node::CongestionLevel>(level));
    if (rates.empty()) {
      std::printf("  %-12s (no transactions)\n", kLevels[level]);
      continue;
    }
    const cn::stats::Ecdf cdf{std::span<const double>(rates)};
    std::printf("  %-12s n=%-7zu median=%-7.2f p90=%.2f\n", kLevels[level],
                cdf.size(), cdf.quantile(0.5), cdf.quantile(0.9));
  }

  // Wallet-style advice from the fitted fee->delay model: what must a
  // user pay to commit within 2 blocks, 90% of the time?
  {
    const auto model = cn::core::DelayModel::fit(seen, delays, snaps, unit);
    std::printf("fee needed for <=2-block commit (p90), by congestion:\n");
    static const char* kNames[] = {"none", "low", "medium", "high"};
    for (int level = 0; level <= 3; ++level) {
      const double fee = model.fee_for_target(
          2.0, static_cast<cn::node::CongestionLevel>(level), 0.9);
      if (fee < 0) {
        std::printf("  %-7s (no data)\n", kNames[level]);
      } else {
        std::printf("  %-7s >= %.1f sat/vB\n", kNames[level], fee);
      }
    }
  }

  // Delays by fee band (Fig 5 / 12).
  static const char* kBands[] = {"low (<10 sat/vB)", "high (10-100)",
                                 "exorbitant (>=100)"};
  std::printf("commit delay by fee band:\n");
  for (int band = 0; band <= 2; ++band) {
    const auto d = cn::core::delays_for_band(seen, delays,
                                             static_cast<cn::core::FeeBand>(band));
    if (d.empty()) {
      std::printf("  %-20s (no transactions)\n", kBands[band]);
      continue;
    }
    const cn::stats::Ecdf cdf{std::span<const double>(d)};
    std::printf("  %-20s n=%-7zu next-block=%.1f%%  median=%.1f  p90=%.1f blocks\n",
                kBands[band], cdf.size(), cdf.evaluate(1.0) * 100.0,
                cdf.quantile(0.5), cdf.quantile(0.9));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  study(cn::sim::DatasetKind::kA, "A (default node, Feb-Mar 2019 profile)", seed);
  study(cn::sim::DatasetKind::kB, "B (permissive node, June 2019 profile)", seed);
  return 0;
}

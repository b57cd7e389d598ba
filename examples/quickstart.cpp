// Quickstart: simulate a small Bitcoin network with planted misbehaviour,
// then audit it with the library's detectors — the whole pipeline in one
// file.
//
//   $ ./quickstart [seed]
//
// Steps:
//   1. run a scaled-down "data set C"-style simulation (pools, policies,
//      congestion, an observer node);
//   2. attribute blocks to pools from coinbase markers;
//   3. check norm adherence (PPE);
//   4. test each large pool for differential prioritization of its own
//      (self-interest) transactions;
//   5. hunt for dark-fee (accelerated) transactions via SPPE.
#include <cstdio>
#include <cstdlib>

#include "core/audit_dataset.hpp"
#include "core/darkfee.hpp"
#include "core/ppe.hpp"
#include "core/prio_test.hpp"
#include "core/report.hpp"
#include "sim/dataset.hpp"
#include "stats/descriptive.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // 1. Simulate. Scale 0.25 keeps this under a few seconds (~360 blocks).
  std::printf("Simulating a data-set-C-style network (seed %llu)...\n",
              static_cast<unsigned long long>(seed));
  cn::sim::SimResult world = cn::sim::make_dataset(cn::sim::DatasetKind::kC, seed, 0.25);
  std::printf("  blocks mined: %zu, transactions committed: %llu (issued %llu)\n\n",
              world.chain.size(),
              static_cast<unsigned long long>(world.chain.total_tx_count()),
              static_cast<unsigned long long>(world.issued_count));

  // 2. Attribute blocks from coinbase markers (no ground truth involved):
  // the columnar audit view every detector below reads, built once.
  const auto dataset = cn::core::AuditDataset::build(
      world.chain, cn::btc::CoinbaseTagRegistry::paper_registry());
  std::printf("Top pools by mined blocks:\n");
  const auto pool_ids = dataset.pools_by_blocks();
  for (std::size_t i = 0; i < pool_ids.size() && i < 5; ++i) {
    std::printf("  %-16s %5llu blocks (%.2f%% hash share), %zu reward wallets\n",
                dataset.pool_name(pool_ids[i]).c_str(),
                static_cast<unsigned long long>(dataset.blocks_of(pool_ids[i])),
                dataset.hash_share(pool_ids[i]) * 100.0,
                dataset.reward_wallets(pool_ids[i]).size());
  }
  std::printf("  unidentified blocks: %llu\n\n",
              static_cast<unsigned long long>(dataset.unidentified_blocks()));

  // 3. Norm adherence: position prediction error.
  const std::vector<double> ppe = cn::core::chain_ppe(dataset);
  const auto ppe_summary = cn::stats::summarize(ppe);
  std::printf("PPE (fee-rate ordering error): mean %.2f%%, p75 %.2f%%\n\n",
              ppe_summary.mean, ppe_summary.p75);

  // 4. Differential prioritization of self-interest transactions.
  std::printf("Self-interest prioritization tests (p<0.001 = misbehaving):\n");
  cn::core::TablePrinter table({"pool", "theta0", "x", "y", "p-accel", "SPPE"},
                               {16, 9, 7, 7, 10, 9});
  table.print_header();
  for (std::size_t i = 0; i < pool_ids.size() && i < 8; ++i) {
    const auto txs = dataset.self_interest_txs(pool_ids[i]);
    if (txs.empty()) continue;
    const auto result =
        cn::core::test_differential_prioritization(dataset, pool_ids[i], txs);
    table.print_row({result.pool, cn::fixed(result.theta0, 4),
                     std::to_string(result.x), std::to_string(result.y),
                     cn::core::format_p_value(result.p_accelerate),
                     cn::fixed(result.sppe, 2)});
  }

  // 5. Dark-fee hunting on BTC.com (the paper's Table 4 protocol).
  std::printf("\nDark-fee detection for BTC.com (SPPE >= 99):\n");
  const auto is_accel = [&world](const cn::btc::Txid& id) {
    return world.acceleration.is_accelerated(id);
  };
  const auto buckets = cn::core::darkfee_buckets(dataset, dataset.pool_id("BTC.com"),
                                                 is_accel, {99.0});
  for (const auto& b : buckets) {
    std::printf("  %llu txs flagged, %llu (%.1f%%) confirmed accelerated by the "
                "service's public API\n",
                static_cast<unsigned long long>(b.tx_count),
                static_cast<unsigned long long>(b.accelerated),
                b.accelerated_fraction() * 100.0);
  }
  std::printf("\nDone. See bench/ for full reproductions of every table and figure.\n");
  return 0;
}

// Dark-fee hunt: the paper's §5.4 detector as a workflow.
//
//   $ ./darkfee_hunt [seed] [scale]
//
// For every pool that sells acceleration, flag committed transactions
// whose SPPE says "top of the block, but the public fee says bottom",
// then validate the flags against the service's public was-it-accelerated
// query — exactly how the paper validated against BTC.com's pushtx API.
// Finishes with the economics: the dark revenue each pool collected.
#include <cstdio>
#include <cstdlib>

#include "core/audit_dataset.hpp"
#include "core/darkfee.hpp"
#include "core/report.hpp"
#include "sim/dataset.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace cn;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 99;
  const double scale = argc > 2 ? std::strtod(argv[2], nullptr) : 0.6;

  std::printf("Simulating a network with dark-fee acceleration services "
              "(seed %llu)...\n\n", static_cast<unsigned long long>(seed));
  const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, seed, scale);
  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto is_accel = [&](const btc::Txid& id) {
    return world.acceleration.is_accelerated(id);
  };

  std::printf("Ground truth: %zu transactions were accelerated off-chain.\n\n",
              world.acceleration.total_accelerated());

  core::TablePrinter table({"pool", "flagged@99", "confirmed", "precision",
                            "flagged@90", "precision@90"},
                           {12, 12, 11, 11, 12, 14});
  table.print_header();
  for (const char* pool : {"BTC.com", "AntPool", "ViaBTC", "F2Pool", "Poolin"}) {
    const auto buckets = core::darkfee_buckets(dataset, dataset.pool_id(pool),
                                               is_accel, {99.0, 90.0});
    table.print_row({pool, with_commas(buckets[0].tx_count),
                     with_commas(buckets[0].accelerated),
                     percent(buckets[0].accelerated_fraction(), 1),
                     with_commas(buckets[1].tx_count),
                     percent(buckets[1].accelerated_fraction(), 1)});
  }

  // Control: honest pools should have (almost) nothing to flag.
  std::printf("\nControls:\n");
  for (const char* pool : {"Huobi", "Okex"}) {
    // A pool no block is attributed to flags nothing.
    const auto flagged = core::count_accelerated(dataset, dataset.pool_id(pool), 99.0);
    std::printf("  %-8s (no acceleration service): %llu transactions flagged\n",
                pool, static_cast<unsigned long long>(flagged));
  }
  const auto random_hits = core::accelerated_in_random_sample(
      dataset, dataset.pool_id("BTC.com"), is_accel, 1000, seed);
  std::printf("  random 1000-tx sample of BTC.com blocks: %llu accelerated "
              "(paper: 0)\n",
              static_cast<unsigned long long>(random_hits));

  // The economics the paper highlights: the pool keeps the dark fee even
  // when someone else mines the transaction.
  std::printf("\nDark-fee revenue (off-chain, invisible to other miners):\n");
  for (const char* pool : {"BTC.com", "AntPool", "ViaBTC", "F2Pool", "Poolin"}) {
    const auto revenue = world.acceleration.revenue_of(pool);
    std::printf("  %-8s %12s sat (%.4f BTC)\n", pool,
                with_commas(revenue.value).c_str(), revenue.btc());
  }
  return 0;
}

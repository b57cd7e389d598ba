// Table 4 — detecting dark-fee (accelerated) transactions in BTC.com's
// blocks via SPPE, validated against the service's public query API.
//
// Paper claims: of BTC.com transactions with SPPE >= 100/99/90/50/1 %,
// 73.89 / 64.98 / 18.12 / 1.06 / 0.16 % are confirmed accelerated — high
// SPPE is a strong acceleration signal; a 1000-tx random sample contains
// none.
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/darkfee.hpp"
#include "core/sppe.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace {

void BM_BlockSppe(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, 3, 0.05);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& block = world.chain.blocks()[i++ % world.chain.size()];
    benchmark::DoNotOptimize(core::block_sppe(block));
  }
}
BENCHMARK(BM_BlockSppe);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Table 4 — SPPE-based dark-fee detection (BTC.com)",
                "% accelerated falls with the SPPE threshold: 73.9 / 65.0 / "
                "18.1 / 1.1 / 0.2 %; random sample: 0 of 1000");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("tab04_darkfee");
  const io::World world = bench::world_for(
      bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));
  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto is_accel = [&](const btc::Txid& id) {
    return world.is_accelerated(id);
  };

  static const double kPaperPct[] = {73.89, 64.98, 18.12, 1.06, 0.16};
  const auto buckets = core::darkfee_buckets(dataset, dataset.pool_id("BTC.com"),
                                             is_accel, {100.0, 99.0, 90.0, 50.0, 1.0});

  CsvWriter csv(bench::out_dir() + "/tab04_darkfee.csv");
  csv.header({"sppe_threshold", "txs", "accelerated", "percent"});
  core::TablePrinter table({"SPPE >=", "# txs", "# acc", "% acc", "paper %"},
                           {9, 10, 9, 9, 10});
  table.print_header();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto& b = buckets[i];
    table.print_row({fixed(b.sppe_threshold, 0) + "%", with_commas(b.tx_count),
                     with_commas(b.accelerated),
                     fixed(b.accelerated_fraction() * 100.0, 2),
                     fixed(kPaperPct[i], 2)});
    csv.field(b.sppe_threshold, 0).field(b.tx_count).field(b.accelerated);
    csv.field(b.accelerated_fraction() * 100.0, 3);
    csv.end_row();
  }

  bool monotone = true;
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    // Tolerance: the SPPE==100 bucket holds only a few dozen
    // transactions, so adjacent-threshold noise of ~0.15 is expected
    // (the paper's own 100-vs-99 step is nearly flat).
    monotone = monotone && buckets[i].accelerated_fraction() <=
                               buckets[i - 1].accelerated_fraction() + 0.15;
  }
  bench::compare("% accelerated monotone in threshold", "yes", monotone ? "yes" : "NO");

  const auto random_hits = core::accelerated_in_random_sample(
      dataset, dataset.pool_id("BTC.com"), is_accel, 1000, seed ^ 0xdead);
  bench::compare("accelerated in 1000-tx random sample", "0",
                 std::to_string(random_hits));

  // Bonus: the detector generalizes to the other service-selling pools.
  std::printf("\n  other acceleration-selling pools at SPPE >= 99 (extension):\n");
  for (const char* pool : {"AntPool", "ViaBTC", "F2Pool", "Poolin"}) {
    const auto other =
        core::darkfee_buckets(dataset, dataset.pool_id(pool), is_accel, {99.0});
    std::printf("    %-10s %6llu flagged, %5.1f%% confirmed accelerated\n", pool,
                static_cast<unsigned long long>(other[0].tx_count),
                other[0].accelerated_fraction() * 100.0);
  }
  std::printf("CSV: %s/tab04_darkfee.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

// Figure 8 — (a) reward-wallet counts per pool and (b) inferred
// self-interest transaction counts per pool, over data set C.
//
// Paper claims: pools use multiple reward wallets (SlushPool 56, Poolin
// 23, ...); 12,121 transactions (~0.011% of all) are inferred as pool
// self-interest transactions, led by Poolin, Okex and Huobi; BitDeer and
// Buffett share wallets with BTC.com and Lubian.com respectively (the
// registry folds them together).
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace {

// Every pool's wallets and self-interest list come out of the one
// dataset build.
void BM_SelfInterestLists(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, 3, 0.1);
  static const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AuditDataset::build(world.chain, registry, 1));
  }
}
BENCHMARK(BM_SelfInterestLists)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Figure 8 — pool reward wallets & self-interest transactions",
                "multiple wallets per pool; ~0.011% of all txs are pool "
                "self-interest txs");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("fig08_wallets");
  const io::World world = bench::world_for(
      bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));
  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());

  CsvWriter csv(bench::out_dir() + "/fig08_wallets.csv");
  csv.header({"pool", "blocks", "reward_wallets", "self_interest_txs"});

  core::TablePrinter table({"pool", "blocks", "wallets", "self-txs"},
                           {16, 9, 9, 10});
  table.print_header();
  std::uint64_t total_self = 0;
  for (const core::PoolId id : dataset.pools_by_blocks()) {
    const std::string& pool = dataset.pool_name(id);
    const auto txs = dataset.self_interest_txs(id);
    total_self += txs.size();
    const auto wallets = dataset.reward_wallets(id);
    table.print_row({pool, with_commas(dataset.blocks_of(id)),
                     std::to_string(wallets.size()),
                     with_commas(static_cast<std::uint64_t>(txs.size()))});
    csv.field(pool).field(dataset.blocks_of(id));
    csv.field(static_cast<std::uint64_t>(wallets.size()));
    csv.field(static_cast<std::uint64_t>(txs.size()));
    csv.end_row();
  }

  const double self_share =
      static_cast<double>(total_self) /
      static_cast<double>(std::max<std::uint64_t>(world.chain.total_tx_count(), 1));
  json.metric("self_interest_txs", static_cast<double>(total_self));
  bench::compare("total inferred self-interest txs", "12,121 (0.011%)",
                 with_commas(total_self) + " (" + percent(self_share, 3) + ")");
  std::printf("CSV: %s/fig08_wallets.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

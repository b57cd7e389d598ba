// Figure 2 — blocks mined and transactions confirmed by the top-20
// mining pools in data sets A, B and C, attributed from coinbase markers.
//
// Paper claim: top-20 pools cover 94.97% / 93.52% / 98.08% of all blocks;
// the top-5 orderings are (A) BTC.com, AntPool, F2Pool, Poolin, SlushPool
// and (C) F2Pool, Poolin, BTC.com, AntPool, Huobi.
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace {

void report(cn::sim::DatasetKind kind, const char* name, std::uint64_t seed,
            double scale, cn::CsvWriter& csv, cn::bench::JsonReport& json) {
  using namespace cn;
  const io::World world =
      bench::world_for(bench::worlds::baseline(kind, seed, scale));
  json.add("txs", static_cast<double>(world.chain.total_tx_count()));
  json.add("blocks", static_cast<double>(world.chain.size()));
  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());

  std::printf("--- data set %s: top pools by blocks mined ---\n", name);
  core::TablePrinter table({"pool", "blocks", "share%", "cfg%", "txs"},
                           {16, 9, 9, 9, 11});
  table.print_header();
  const auto order = dataset.pools_by_blocks();
  double top20 = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::string& pool = dataset.pool_name(order[i]);
    const double share = dataset.hash_share(order[i]);
    if (i < 20) top20 += share;
    double configured = 0.0;
    for (const auto& spec : world.config.pools) {
      if (spec.name == pool) configured = spec.hash_share;
    }
    if (i < 10) {
      table.print_row({pool, with_commas(dataset.blocks_of(order[i])),
                       fixed(share * 100.0, 2), fixed(configured, 2),
                       with_commas(dataset.pool_tx_count(order[i]))});
    }
    csv.field(std::string(name)).field(pool);
    csv.field(dataset.blocks_of(order[i])).field(share * 100.0, 3);
    csv.field(dataset.pool_tx_count(order[i]));
    csv.end_row();
  }
  bench::compare("top-20 combined share",
                 kind == sim::DatasetKind::kA   ? "94.97%"
                 : kind == sim::DatasetKind::kB ? "93.52%"
                                                : "98.08%",
                 percent(top20));
  bench::compare("unidentified blocks",
                 kind == sim::DatasetKind::kC ? "1.32%" : "(unreported)",
                 percent(static_cast<double>(dataset.unidentified_blocks()) /
                         static_cast<double>(dataset.block_count())));
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Figure 2 — pool block/tx distribution in A, B, C",
                "top-20 pools mine ~94-98% of blocks; per-set top-5 order as "
                "listed in the paper");

  CsvWriter csv(bench::out_dir() + "/fig02_pool_shares.csv");
  csv.header({"dataset", "pool", "blocks", "share_percent", "txs"});

  const std::uint64_t seed = bench::seed_from_env();
  bench::JsonReport json("fig02_pool_shares");
  report(sim::DatasetKind::kA, "A", seed, bench::scale_from_env(0.6), csv, json);
  report(sim::DatasetKind::kB, "B", seed, bench::scale_from_env(0.6), csv, json);
  report(sim::DatasetKind::kC, "C", seed, bench::scale_from_env(0.6), csv, json);
  std::printf("CSV: %s/fig02_pool_shares.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

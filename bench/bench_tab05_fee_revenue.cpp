// Table 5 — miners' relative revenue from transaction fees, 2016-2020.
//
// Paper claims (mean fee share of total block revenue): 2016: 2.48%,
// 2017: 11.77% (congestion peak), 2018: 3.19%, 2019: 2.75%, 2020: 6.29%;
// blocks after the May 2020 halving average 8.90% — fee revenue's weight
// is growing.
//
// Reproduction: one simulated slice per year, each with an era-calibrated
// fee regime (2017 hot, 2018-19 cool, 2020 warming) and the correct
// subsidy for that year's block heights (halvings included). Fee shares
// use a subsidy scaled by the block-size scaling factor (DESIGN.md).
#include "common.hpp"
#include "worlds.hpp"

#include "btc/rewards.hpp"
#include "core/audit_dataset.hpp"
#include "core/fee_revenue.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace {

// Era calibration lives in bench/worlds.hpp (worlds::kTab05Years) so the
// sweep driver pre-generates exactly the year slices this bench loads.
using cn::bench::worlds::YearRegime;

cn::io::World run_year_slice(std::uint64_t genesis, const YearRegime& regime,
                             std::uint64_t engine_seed, double scale) {
  using namespace cn;
  return bench::world_for(
      bench::worlds::year_slice(genesis, regime, engine_seed, scale));
}

void BM_FeeShareSummary(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, 3, 0.1);
  static const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fee_share_summary(dataset, 0.1));
  }
}
BENCHMARK(BM_FeeShareSummary)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Table 5 — fee share of miner revenue, 2016-2020",
                "mean fee share: 2.48 / 11.77 / 3.19 / 2.75 / 6.29 %; "
                "post-halving 2020 blocks: 8.90%");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("tab05_fee_revenue");

  CsvWriter csv(bench::out_dir() + "/tab05_fee_revenue.csv");
  csv.header({"year", "blocks", "mean", "std", "median", "p75", "max", "paper_mean"});

  core::TablePrinter table({"year", "blocks", "mean%", "std", "med%", "p75%",
                            "max%", "paper mean%"},
                           {6, 9, 8, 8, 8, 8, 9, 13});
  table.print_header();

  for (const YearRegime& regime : bench::worlds::kTab05Years) {
    const std::uint64_t genesis = btc::approx_height_of_year(regime.year);
    const io::World world = run_year_slice(
        genesis, regime, seed + static_cast<std::uint64_t>(regime.year), scale);
    json.add("txs", static_cast<double>(world.chain.total_tx_count()));
    json.add("blocks", static_cast<double>(world.chain.size()));
    const double subsidy_scale =
        static_cast<double>(world.config.max_block_vsize) / 1'000'000.0;
    const auto s = core::fee_share_summary(
        core::AuditDataset::build(world.chain, btc::CoinbaseTagRegistry::paper_registry()),
        subsidy_scale);
    table.print_row({std::to_string(regime.year), with_commas(world.chain.size()),
                     fixed(s.mean, 2), fixed(s.stddev, 2), fixed(s.median, 2),
                     fixed(s.p75, 2), fixed(s.max, 2),
                     fixed(regime.paper_mean_percent, 2)});
    csv.field(std::int64_t{regime.year}).field(world.chain.size());
    csv.field(s.mean, 3).field(s.stddev, 3).field(s.median, 3);
    csv.field(s.p75, 3).field(s.max, 3).field(regime.paper_mean_percent, 2);
    csv.end_row();
  }

  // Post-halving 2020 slice (subsidy 6.25 BTC): same regime as 2020 but
  // started past the halving height.
  {
    const YearRegime& regime = bench::worlds::kTab05PostHalving;
    const io::World world =
        run_year_slice(btc::kThirdHalvingHeight + 100, regime, seed + 7, scale);
    json.add("txs", static_cast<double>(world.chain.total_tx_count()));
    json.add("blocks", static_cast<double>(world.chain.size()));
    const double subsidy_scale =
        static_cast<double>(world.config.max_block_vsize) / 1'000'000.0;
    const auto s = core::fee_share_summary(
        core::AuditDataset::build(world.chain, btc::CoinbaseTagRegistry::paper_registry()),
        subsidy_scale);
    bench::compare("post-halving mean fee share", "8.90% (std 6.54)",
                   fixed(s.mean, 2) + "% (std " + fixed(s.stddev, 2) + ")");
  }

  bench::compare("2017 the outlier year; 2020 > 2018/2019 > 2016", "yes",
                 "see table");
  std::printf("CSV: %s/tab05_fee_revenue.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

// Table 2 — differential prioritization of self-interest transactions.
//
// Paper claims: F2Pool, ViaBTC, 1THash&58Coin and SlushPool accelerate
// their own transactions (acceleration p-value 0.0000, SPPE 78-99%);
// ViaBTC *collusively* accelerates 1THash&58Coin's and SlushPool's
// transactions; no other top-10 pool shows the effect.
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/prio_test.hpp"
#include "stats/binomial.hpp"
#include "util/strings.hpp"

namespace {

void BM_ExactBinomialTest(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(cn::stats::acceleration_p_value(466, 839, 0.1753));
  }
}
BENCHMARK(BM_ExactBinomialTest);

void BM_PrioTestFull(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, 3, 0.1);
  static const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const core::PoolId f2pool = dataset.pool_id("F2Pool");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::test_differential_prioritization(
        dataset, f2pool, dataset.self_interest_txs(f2pool)));
  }
}
BENCHMARK(BM_PrioTestFull)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Table 2 — self-interest differential prioritization",
                "F2Pool/ViaBTC/1THash&58Coin/SlushPool accelerate their own "
                "txs (p=0.0000, SPPE 78-99); ViaBTC colludes for partners");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("tab02_self_interest");
  const io::World world = bench::world_for(
      bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));
  const core::AuditDataset dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());

  core::TablePrinter table({"txs of", "tested pool", "theta0", "x", "y",
                            "p-accel", "p-decel", "SPPE"},
                           {16, 16, 9, 6, 6, 9, 9, 9});
  table.print_header();

  const auto print_test = [&](const std::string& tx_owner,
                              const std::string& pool) {
    // A pool no block is attributed to has nothing to test: p stays 1.
    core::PrioTestResult r;
    if (const core::PoolId id = dataset.pool_id(pool); id != core::kNoPoolId) {
      r = core::test_differential_prioritization(
          dataset, id, dataset.self_interest_txs(dataset.pool_id(tx_owner)));
    }
    table.print_row({tx_owner, pool, fixed(r.theta0, 4), std::to_string(r.x),
                     std::to_string(r.y), core::format_p_value(r.p_accelerate),
                     core::format_p_value(r.p_decelerate), fixed(r.sppe, 2)});
    return r;
  };

  // The paper's Table 2 rows.
  std::printf("(paper rows: all flagged with p=0.0000 and SPPE 45-99)\n");
  print_test("F2Pool", "F2Pool");
  print_test("ViaBTC", "ViaBTC");
  print_test("1THash&58Coin", "ViaBTC");
  print_test("1THash&58Coin", "1THash&58Coin");
  print_test("SlushPool", "SlushPool");
  print_test("SlushPool", "ViaBTC");

  // Calibration: the large honest pools, tested on their own txs.
  std::printf("\n(control rows: honest pools — no significant acceleration expected)\n");
  table.print_header();
  int false_positives = 0;
  for (const char* pool : {"Poolin", "BTC.com", "AntPool", "Huobi", "Okex",
                           "Binance Pool"}) {
    const auto r = print_test(pool, pool);
    if (r.y >= 10 && r.p_accelerate < 0.001) ++false_positives;
  }
  bench::compare("honest pools falsely flagged", "0", std::to_string(false_positives));

  // Long-horizon variant (§5.1.3): Fisher-combined windowed test.
  const core::PoolId f2pool = dataset.pool_id("F2Pool");
  const double fisher_p = core::windowed_acceleration_p_value(
      dataset, f2pool, dataset.self_interest_txs(f2pool), 4);
  bench::compare("F2Pool windowed Fisher p-value", "(extension; ~0)",
                 core::format_p_value(fisher_p));

  return cn::bench::run_microbenchmarks(argc, argv);
}

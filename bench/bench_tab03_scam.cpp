// Table 3 (+ Figure 13) — differential prioritization of scam-payment
// transactions during the July 2020 Twitter-scam window.
//
// Paper claims: 386 scam payments confirmed across 53 blocks by 12
// miners; NO top pool shows statistically significant acceleration or
// deceleration (all p > 0.001) — miners did not discriminate scam
// payments; AntPool's within-block SPPE was the only (weak) outlier.
#include "common.hpp"
#include "worlds.hpp"

#include <algorithm>

#include "core/audit_dataset.hpp"
#include "core/prio_test.hpp"
#include "util/strings.hpp"

namespace {

void BM_TxsPayingTo(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, 3, 0.1);
  static const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dataset.txs_paying_to(world.scam_address));
  }
}
BENCHMARK(BM_TxsPayingTo)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Table 3 / Figure 13 — scam-payment transactions",
                "no significant acceleration or deceleration by any top pool "
                "(miners do not distinguish scam payments)");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("tab03_scam");
  const io::World world = bench::world_for(
      bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));
  const core::AuditDataset dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());

  // Scam-window slice (the paper tests within July 14 - Aug 9 blocks).
  const auto& scam_cfg = *world.config.workload.scam;
  std::uint64_t first_h = 0, last_h = 0;
  for (std::size_t b = 0; b < dataset.block_count(); ++b) {
    const SimTime mined_at = dataset.block_mined_at()[b];
    if (mined_at < scam_cfg.start) continue;
    if (mined_at >= scam_cfg.end + 2 * kDay) break;  // commit tail
    if (first_h == 0) first_h = dataset.block_heights()[b];
    last_h = dataset.block_heights()[b];
  }

  const auto scam_all = dataset.txs_paying_to(world.scam_address());
  const auto scam_refs = core::restrict_to_heights(dataset, scam_all, first_h, last_h);
  const std::uint64_t c_blocks = core::count_c_blocks(dataset, scam_refs);

  bench::compare("scam payments confirmed", "386", with_commas(scam_all.size()));
  bench::compare("blocks containing them", "53", with_commas(c_blocks));

  // Window-local attribution (hash shares within the scam window, as the
  // paper's Fig 13 reports them).
  core::TablePrinter table({"pool", "theta0", "x", "y", "p-accel", "p-decel",
                            "SPPE"},
                           {16, 9, 6, 6, 9, 9, 10});
  table.print_header();
  int flagged = 0;
  const auto order = dataset.pools_by_blocks();
  for (std::size_t i = 0; i < order.size() && i < 9; ++i) {
    const auto r = core::test_differential_prioritization(dataset, order[i], scam_refs);
    table.print_row({r.pool, fixed(r.theta0, 4), std::to_string(r.x),
                     std::to_string(r.y), core::format_p_value(r.p_accelerate),
                     core::format_p_value(r.p_decelerate), fixed(r.sppe, 2)});
    if (r.p_accelerate < 0.001 || r.p_decelerate < 0.001) ++flagged;
  }
  bench::compare("pools with significant scam effect", "0", std::to_string(flagged));

  return cn::bench::run_microbenchmarks(argc, argv);
}

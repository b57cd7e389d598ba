// Figure 7 — position-prediction error over data set C: the overall CDF
// and the CDFs of the six largest pools.
//
// Paper claims: mean PPE 2.65% (std 2.89); 80% of blocks below 4.03%;
// all large pools broadly follow the norm, with ViaBTC deviating
// slightly more than the rest (its selfish/collusive/dark-fee placements
// shift its blocks' orderings).
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/ppe.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "util/strings.hpp"

namespace {

void BM_PredictedPositions(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, 3, 0.05);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& block = world.chain.blocks()[i++ % world.chain.size()];
    benchmark::DoNotOptimize(core::predicted_positions(block, true));
  }
}
BENCHMARK(BM_PredictedPositions);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Figure 7 — PPE over data set C, overall and per-pool",
                "mean PPE 2.65% (std 2.89), 80% of blocks < 4.03%; ViaBTC "
                "deviates slightly more");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("fig07_ppe_pools");
  const io::World world = bench::world_for(
      bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));

  const core::AuditDataset dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const std::vector<double> all_ppe = core::chain_ppe(dataset);
  const auto summary = stats::summarize(all_ppe);
  const stats::Ecdf cdf{std::span<const double>(all_ppe)};

  bench::compare("mean PPE", "2.65%", fixed(summary.mean, 2) + "%");
  bench::compare("std PPE", "2.89", fixed(summary.stddev, 2));
  bench::compare("80th-percentile PPE", "4.03%", fixed(cdf.quantile(0.8), 2) + "%");
  bench::compare("blocks with a defined PPE", "99.55%", "see count below");
  core::print_cdf_summary("PPE, all blocks", cdf);
  core::write_cdf_csv(bench::out_dir() + "/fig07_ppe_all.csv", cdf, "ppe_percent");

  // Per-pool CDFs for the six largest pools (Fig 7b).
  const auto order = dataset.pools_by_blocks();
  std::printf("\n  per-pool PPE (top-6 by hash rate):\n");
  for (std::size_t i = 0; i < order.size() && i < 6; ++i) {
    std::vector<double> pool_ppe;
    for (const std::uint32_t b : dataset.blocks_of_pool(order[i])) {
      const double ppe = dataset.block_ppe()[b];
      if (!std::isnan(ppe)) pool_ppe.push_back(ppe);
    }
    if (pool_ppe.empty()) continue;
    const std::string& pool = dataset.pool_name(order[i]);
    const auto s = stats::summarize(pool_ppe);
    std::printf("    %-16s blocks=%-6zu mean=%-6.2f p80=%.2f\n", pool.c_str(),
                pool_ppe.size(), s.mean,
                stats::quantile(pool_ppe, 0.8));
    const stats::Ecdf pool_cdf{std::span<const double>(pool_ppe)};
    core::write_cdf_csv(bench::out_dir() + "/fig07_ppe_" + pool + ".csv",
                        pool_cdf, "ppe_percent");
  }
  std::printf("\nCSV: %s/fig07_ppe_*.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

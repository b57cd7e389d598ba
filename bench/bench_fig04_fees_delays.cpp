// Figure 4 (+ Figures 10, 11) — commit delays, fee-rate distributions,
// and fee-rates conditioned on the congestion level at issue time.
//
// Paper claims: ~65% (A) / ~60% (B) of transactions commit in the next
// block while 15-20% wait 3+ blocks and 5-10% wait 10+; fee-rates span
// four orders of magnitude; fee-rate distributions are strictly ordered
// by congestion level; per-pool fee distributions barely differ (Fig 10).
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "stats/ecdf.hpp"
#include "stats/ks.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace {

void BM_CollectSeenTxs(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kA, 3, 0.1);
  static const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto lookup = [&](const btc::Txid& id) { return world.observer.first_seen(id); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::collect_seen_txs(dataset, lookup));
  }
}
BENCHMARK(BM_CollectSeenTxs)->Unit(benchmark::kMillisecond);

void BM_CommitDelays(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kA, 3, 0.1);
  static const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  static const auto seen = core::collect_seen_txs(
      dataset, [&](const btc::Txid& id) { return world.observer.first_seen(id); });
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::commit_delays_blocks(dataset, seen));
  }
}
BENCHMARK(BM_CommitDelays)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Figure 4 / 10 / 11 — delays, fee-rates, congestion response",
                "65%/60% next-block; fees higher under congestion (strict "
                "ordering); pool fee distributions similar");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("fig04_fees_delays");

  for (const auto& [kind, name, paper_next] :
       {std::tuple{sim::DatasetKind::kA, "A", "65%"},
        std::tuple{sim::DatasetKind::kB, "B", "60%"}}) {
    const io::World world =
        bench::world_for(bench::worlds::baseline(kind, seed, scale));
    const auto registry = btc::CoinbaseTagRegistry::paper_registry();
    const core::AuditDataset dataset = core::AuditDataset::build(world.chain, registry);
    const auto seen = core::collect_seen_txs(
        dataset, [&](const btc::Txid& id) { return world.first_seen(id); });
    json.add("txs", static_cast<double>(world.chain.total_tx_count()));
    json.add("blocks", static_cast<double>(world.chain.size()));
    const auto delays = core::commit_delays_blocks(dataset, seen);
    const stats::Ecdf delay_cdf{std::span<const double>(delays)};

    std::printf("--- data set %s ---\n", name);
    bench::compare("committed in the next block (Fig 4a)", paper_next,
                   percent(delay_cdf.evaluate(1.0)));
    bench::compare("wait >= 3 blocks",
                   std::string(name) == "A" ? "~15%" : "~20%",
                   percent(delay_cdf.survival(2.0)));
    bench::compare("wait >= 10 blocks",
                   std::string(name) == "A" ? "~5%" : "~10%",
                   percent(delay_cdf.survival(9.0)));
    core::write_cdf_csv(bench::out_dir() + "/fig04a_delays_" + name + ".csv",
                        delay_cdf, "delay_blocks");

    // Fee-rate CDF (Fig 4b).
    const auto rates = core::all_fee_rates(seen);
    const stats::Ecdf rate_cdf{std::span<const double>(rates)};
    core::print_cdf_summary(std::string("fee-rate sat/vB (Fig 4b), ") + name,
                            rate_cdf);
    core::write_cdf_csv(bench::out_dir() + "/fig04b_feerates_" + name + ".csv",
                        rate_cdf, "sat_per_vb");

    // Fee-rate by congestion level at issue (Fig 4c / Fig 11).
    std::printf("  fee-rate by congestion level at issue (Fig 4c):\n");
    static const char* kLevels[] = {"none", "low", "medium", "high"};
    double prev_median = 0.0;
    bool ordered = true;
    for (int level = 0; level <= 3; ++level) {
      const auto lvl_rates = core::fee_rates_at_level(
          seen, world.snapshots, world.config.max_block_vsize,
          static_cast<node::CongestionLevel>(level));
      if (lvl_rates.empty()) continue;
      const stats::Ecdf cdf{std::span<const double>(lvl_rates)};
      std::printf("    %-7s n=%-8zu median=%-8.2f p90=%.2f\n", kLevels[level],
                  cdf.size(), cdf.quantile(0.5), cdf.quantile(0.9));
      ordered = ordered && cdf.quantile(0.5) >= prev_median;
      prev_median = cdf.quantile(0.5);
      core::write_cdf_csv(bench::out_dir() + "/fig04c_" + name + "_level" +
                              std::to_string(level) + ".csv",
                          cdf, "sat_per_vb");
    }
    bench::compare("medians strictly ordered by congestion", "yes",
                   ordered ? "yes" : "NO");

    // Per-pool fee-rate distributions (Fig 10; data set A in the paper).
    // The paper argues visually that the distributions barely differ;
    // the KS statistic across pool pairs formalizes that.
    if (kind == sim::DatasetKind::kA) {
      std::printf("  per-pool fee-rate medians (Fig 10; should be similar):\n");
      const auto order = dataset.pools_by_blocks();
      const std::uint64_t first_height = dataset.block_heights()[0];
      std::vector<std::vector<double>> pool_rate_sets;
      for (std::size_t i = 0; i < order.size() && i < 5; ++i) {
        auto pool_rates = core::fee_rates_of_pool(
            seen, [&](std::uint64_t h) {
              return dataset.block_pool()[h - first_height] == order[i];
            });
        if (pool_rates.empty()) continue;
        const stats::Ecdf cdf{std::span<const double>(pool_rates)};
        std::printf("    %-14s median=%-8.2f p75=%.2f\n",
                    dataset.pool_name(order[i]).c_str(), cdf.quantile(0.5),
                    cdf.quantile(0.75));
        pool_rate_sets.push_back(std::move(pool_rates));
      }
      double max_ks = 0.0;
      for (std::size_t i = 0; i < pool_rate_sets.size(); ++i) {
        for (std::size_t j = i + 1; j < pool_rate_sets.size(); ++j) {
          max_ks = std::max(max_ks,
                            stats::ks_two_sample(pool_rate_sets[i],
                                                 pool_rate_sets[j]).statistic);
        }
      }
      bench::compare("max pairwise KS distance across top-5 pools",
                     "\"no major differences\"", fixed(max_ks, 4));
    }
    std::printf("\n");
  }
  std::printf("CSV: %s/fig04*.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

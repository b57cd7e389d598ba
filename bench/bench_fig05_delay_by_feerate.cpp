// Figure 5 (+ Figure 12) — commit-delay distributions by fee-rate band.
//
// Paper claim: paying more consistently buys lower commit delay — the
// delay CDFs for low (<1e-4 BTC/KB), high (1e-4..1e-3) and exorbitant
// (>1e-3) fee bands are strictly ordered.
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "stats/ecdf.hpp"
#include "util/strings.hpp"

namespace {

void BM_DelaysForBand(benchmark::State& state) {
  using namespace cn;
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kA, 3, 0.1);
  static const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  static const auto seen = core::collect_seen_txs(
      dataset, [&](const btc::Txid& id) { return world.observer.first_seen(id); });
  static const auto delays = core::commit_delays_blocks(dataset, seen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::delays_for_band(seen, delays, core::FeeBand::kHigh));
  }
}
BENCHMARK(BM_DelaysForBand)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Figure 5 / Figure 12 — commit delay by fee band",
                "delay distributions strictly ordered: exorbitant < high < low");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("fig05_delay_by_feerate");

  for (const auto& [kind, name] : {std::pair{sim::DatasetKind::kA, "A"},
                                   std::pair{sim::DatasetKind::kB, "B"}}) {
    const io::World world =
        bench::world_for(bench::worlds::baseline(kind, seed, scale));
    const auto dataset = core::AuditDataset::build(
        world.chain, btc::CoinbaseTagRegistry::paper_registry());
    const auto seen = core::collect_seen_txs(
        dataset, [&](const btc::Txid& id) { return world.first_seen(id); });
    const auto delays = core::commit_delays_blocks(dataset, seen);
    json.add("txs", static_cast<double>(world.chain.total_tx_count()));
    json.add("blocks", static_cast<double>(world.chain.size()));

    std::printf("--- data set %s ---\n", name);
    static const char* kBands[] = {"low <1e-4 BTC/KB", "high 1e-4..1e-3",
                                   "exorbitant >=1e-3"};
    double prev_next_block = -1.0;
    bool ordered = true;
    for (int band = 0; band <= 2; ++band) {
      const auto d = core::delays_for_band(seen, delays,
                                           static_cast<core::FeeBand>(band));
      if (d.empty()) {
        std::printf("  %-20s (no transactions)\n", kBands[band]);
        continue;
      }
      const stats::Ecdf cdf{std::span<const double>(d)};
      const double next_block = cdf.evaluate(1.0);
      std::printf("  %-20s n=%-8zu next-block=%-7s p90=%.1f blocks\n",
                  kBands[band], cdf.size(), percent(next_block).c_str(),
                  cdf.quantile(0.9));
      // Each pricier band should commit next-block at least as often as
      // the cheaper band before it (small tolerance for sampling noise).
      ordered = ordered && next_block >= prev_next_block - 0.02;
      prev_next_block = next_block;
      core::write_cdf_csv(bench::out_dir() + "/fig05_delay_band" +
                              std::to_string(band) + "_" + name + ".csv",
                          cdf, "delay_blocks");
    }
    bench::compare("higher fee band => faster commits", "yes",
                   ordered ? "yes" : "NO");
    std::printf("\n");
  }
  std::printf("CSV: %s/fig05_*.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

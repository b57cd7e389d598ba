// Figure 1 — CDF of the error in predicting a transaction's position
// under the greedy fee-rate norm, before vs after April 2016.
//
// Paper claim: ordering closely tracks the fee-rate norm after Bitcoin
// Core's April-2016 switch to fee-rate-based selection, and deviates
// wildly before it (coin-age priority era).
//
// Reproduction: simulate the same network twice — once with every pool
// running the GBT builder, once with the pre-2016 coin-age priority
// builder — and compare the per-block PPE distributions.
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/ppe.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "util/strings.hpp"

namespace {

// --- micro-benchmarks -----------------------------------------------------

const cn::btc::Chain& micro_chain() {
  static const cn::btc::Chain chain = [] {
    auto config = cn::sim::dataset_config(cn::sim::DatasetKind::kA, 7, 0.05);
    cn::sim::set_all_builders(config, cn::sim::BuilderKind::kGbt);
    return cn::sim::Engine(std::move(config)).run().chain;
  }();
  return chain;
}

void BM_BlockPpe(benchmark::State& state) {
  const auto& chain = micro_chain();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& block = chain.blocks()[i++ % chain.size()];
    benchmark::DoNotOptimize(cn::core::block_ppe(block));
  }
}
BENCHMARK(BM_BlockPpe);

void BM_ChainPpe(benchmark::State& state) {
  const auto dataset = cn::core::AuditDataset::build(
      micro_chain(), cn::btc::CoinbaseTagRegistry::paper_registry());
  for (auto _ : state) {
    benchmark::DoNotOptimize(cn::core::chain_ppe(dataset));
  }
}
BENCHMARK(BM_ChainPpe);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Figure 1 — position-prediction error, pre- vs post-April-2016",
                "post-2016 ordering tracks the fee-rate norm; pre-2016 does not");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(0.5);
  bench::JsonReport json("fig01_ppe_norm_shift");

  const io::World modern =
      bench::world_for(bench::worlds::era(sim::BuilderKind::kGbt, seed, scale));
  const io::World legacy = bench::world_for(
      bench::worlds::era(sim::BuilderKind::kLegacyPriority, seed, scale));
  json.metric("txs", static_cast<double>(modern.chain.total_tx_count() +
                                         legacy.chain.total_tx_count()));
  json.metric("blocks",
              static_cast<double>(modern.chain.size() + legacy.chain.size()));

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const std::vector<double> modern_ppe =
      core::chain_ppe(core::AuditDataset::build(modern.chain, registry));
  const std::vector<double> legacy_ppe =
      core::chain_ppe(core::AuditDataset::build(legacy.chain, registry));
  const stats::Ecdf modern_cdf{std::span<const double>(modern_ppe)};
  const stats::Ecdf legacy_cdf{std::span<const double>(legacy_ppe)};

  bench::compare("post-2016 era: mean PPE", "small (2.65% in 2020 data)",
                 fixed(stats::mean(modern_ppe), 2) + "%");
  bench::compare("post-2016 era: P[PPE < 5%]", "~high (80% below 4.03%)",
                 percent(modern_cdf.evaluate(5.0)));
  bench::compare("pre-2016 era: mean PPE", "large (norm not in place)",
                 fixed(stats::mean(legacy_ppe), 2) + "%");
  bench::compare("pre-2016 era: P[PPE < 5%]", "~low",
                 percent(legacy_cdf.evaluate(5.0)));
  bench::compare("era separation (legacy mean / modern mean)", ">> 1",
                 fixed(stats::mean(legacy_ppe) / std::max(stats::mean(modern_ppe), 1e-9), 1) + "x");

  core::print_cdf_summary("PPE CDF, GBT era", modern_cdf);
  core::print_cdf_summary("PPE CDF, coin-age era", legacy_cdf);

  core::write_cdf_csv(bench::out_dir() + "/fig01_ppe_gbt.csv", modern_cdf, "ppe_percent");
  core::write_cdf_csv(bench::out_dir() + "/fig01_ppe_legacy.csv", legacy_cdf, "ppe_percent");
  std::printf("CSV: %s/fig01_ppe_{gbt,legacy}.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

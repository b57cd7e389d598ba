// Figure 14 (+ §G) — acceleration-service prices vs public transaction
// fees, for a live Mempool snapshot.
//
// Paper claims: BTC.com's quoted acceleration fee is on average 566x
// (median 117x) the transaction's public fee; quotes range from ~0.5x to
// ~430,000x; had buyers offered the quote as a public fee, every miner
// would have prioritized them (the quote exceeds every pending fee-rate).
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

void BM_Quote(benchmark::State& state) {
  using namespace cn;
  const sim::AccelerationService service;
  Rng rng(1);
  const auto tx = btc::make_payment(0, 250, btc::Satoshi{500},
                                    btc::Address::derive("a"),
                                    btc::Address::derive("b"),
                                    btc::Satoshi{1000}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.quote(tx, rng));
  }
}
BENCHMARK(BM_Quote);

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Figure 14 — acceleration fees vs public fees",
                "quotes average 566x (median 117x) the public fee; quoted "
                "total outranks every pending fee-rate");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(0.4);
  bench::JsonReport json("fig14_accel_fees");

  // Recreate the paper's setup: take a Mempool snapshot mid-run and quote
  // every pending transaction through the acceleration service.
  const io::World world = bench::world_for(
      bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));
  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto seen = core::collect_seen_txs(
      dataset, [&](const btc::Txid& id) { return world.first_seen(id); });
  const SimTime snapshot_time = world.config.duration / 2;
  const auto pending = core::pending_at(seen, dataset, snapshot_time);
  json.metric("pending_at_snapshot", static_cast<double>(pending.size()));

  sim::AccelerationService service(world.config.quote_model);
  Rng rng(seed ^ 0xacce1);

  std::vector<double> public_rates, quoted_rates, multipliers;
  // Quote a representative pending transaction population. The SeenTx view
  // has rates; reconstruct fee/size at the mean tx size for quoting.
  const std::uint32_t vsize = 250;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const auto fee = btc::Satoshi{
        static_cast<std::int64_t>(pending[i].fee_rate * vsize)};
    const auto tx = btc::make_payment(0, vsize, fee, btc::Address::derive("q"),
                                      btc::Address::derive("r"),
                                      btc::Satoshi{1000}, 900'000 + i);
    const btc::Satoshi quote = service.quote(tx, rng);
    const double public_fee = std::max(static_cast<double>(fee.value), 1.0);
    const double quoted_total_rate =
        (static_cast<double>(quote.value) + public_fee) / vsize;
    public_rates.push_back(pending[i].fee_rate);
    quoted_rates.push_back(quoted_total_rate);
    multipliers.push_back(static_cast<double>(quote.value) / public_fee);
  }

  const auto m = stats::summarize(multipliers);
  bench::compare("pending txs quoted", "23,341 of 26,332",
                 with_commas(multipliers.size()));
  bench::compare("mean multiplier", "566.3x", fixed(m.mean, 1) + "x");
  bench::compare("median multiplier", "116.64x", fixed(m.median, 2) + "x");
  bench::compare("p25 multiplier", "51.64x", fixed(m.p25, 2) + "x");
  bench::compare("p75 multiplier", "351.8x", fixed(m.p75, 2) + "x");
  bench::compare("max multiplier", "428,800x", fixed(m.max, 0) + "x");
  // §5.4.1's framing: accelerated totals would outrank the ordinary
  // fee-rate competition. Compare the distributions.
  {
    const stats::Ecdf pub{std::span<const double>(public_rates)};
    const stats::Ecdf quo{std::span<const double>(quoted_rates)};
    bench::compare("median quoted total vs p99 public fee-rate",
                   "quote outranks the Mempool",
                   fixed(quo.quantile(0.5), 1) + " vs " + fixed(pub.quantile(0.99), 1) +
                       " sat/vB");
  }

  const stats::Ecdf public_cdf{std::span<const double>(public_rates)};
  const stats::Ecdf quoted_cdf{std::span<const double>(quoted_rates)};
  core::print_cdf_summary("public fee-rate (sat/vB)", public_cdf);
  core::print_cdf_summary("accelerated total rate (sat/vB)", quoted_cdf);
  core::write_cdf_csv(bench::out_dir() + "/fig14_public_rates.csv", public_cdf,
                      "sat_per_vb");
  core::write_cdf_csv(bench::out_dir() + "/fig14_quoted_rates.csv", quoted_cdf,
                      "sat_per_vb");
  std::printf("CSV: %s/fig14_*.csv\n", bench::out_dir().c_str());

  return cn::bench::run_microbenchmarks(argc, argv);
}

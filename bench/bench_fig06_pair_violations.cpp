// Figure 6 — fraction of transaction pairs violating the fee-rate
// selection norm, across 30 randomly sampled Mempool snapshots.
//
// Paper claims: a small but non-trivial fraction of pairs violate the
// norm in every snapshot; the fraction shrinks (but does not vanish)
// when the arrival constraint is tightened by epsilon = 10 s / 10 min,
// and shrinks further when CPFP-dependent transactions are discarded.
#include "common.hpp"
#include "worlds.hpp"

#include <algorithm>

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "stats/ecdf.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

std::vector<cn::core::SeenTx> synthetic_txs(std::size_t n) {
  using namespace cn;
  std::vector<core::SeenTx> txs;
  txs.reserve(n);
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    txs.push_back(core::SeenTx{static_cast<SimTime>(i), rng.uniform(1.0, 100.0),
                               1 + rng.uniform_below(40), false, false});
  }
  return txs;
}

void BM_PairViolationsFenwick(benchmark::State& state) {
  using namespace cn;
  const auto txs = synthetic_txs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::count_pair_violations(
        txs, 0, false, core::PairAlgorithm::kFenwick));
  }
}
BENCHMARK(BM_PairViolationsFenwick)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_PairViolationsBruteForce(benchmark::State& state) {
  using namespace cn;
  const auto txs = synthetic_txs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::count_pair_violations(
        txs, 0, false, core::PairAlgorithm::kBruteForce));
  }
}
BENCHMARK(BM_PairViolationsBruteForce)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

/// One timed run of each algorithm at n = 100k;
/// returns {fenwick_seconds, brute_seconds} and checks they agree.
std::pair<double, double> speedup_at_100k() {
  using namespace cn;
  const auto txs = synthetic_txs(100'000);
  const auto timed = [&](core::PairAlgorithm algorithm) {
    const auto start = std::chrono::steady_clock::now();
    const auto stats = core::count_pair_violations(txs, 0, false, algorithm);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::make_pair(seconds, stats);
  };
  const auto [fenwick_s, fenwick_stats] = timed(core::PairAlgorithm::kFenwick);
  const auto [brute_s, brute_stats] = timed(core::PairAlgorithm::kBruteForce);
  if (fenwick_stats.predicted_pairs != brute_stats.predicted_pairs ||
      fenwick_stats.violations != brute_stats.violations) {
    std::printf("  !! ALGORITHM MISMATCH at n=100k\n");
  }
  return {fenwick_s, brute_s};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  bench::banner("Figure 6 — pairwise selection-norm violations (data set A)",
                "non-trivial violating fraction in every snapshot; shrinks "
                "under epsilon tightening and CPFP exclusion");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(1.0);
  bench::JsonReport json("fig06_pair_violations");

  const io::World world = bench::world_for(
      bench::worlds::baseline(sim::DatasetKind::kA, seed, scale));
  json.metric("txs", static_cast<double>(world.chain.total_tx_count()));
  json.metric("blocks", static_cast<double>(world.chain.size()));
  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto seen = core::collect_seen_txs(
      dataset, [&](const btc::Txid& id) { return world.first_seen(id); });

  // Sample 30 snapshot times uniformly at random, as the paper does.
  Rng rng(seed ^ 0xf16f16);
  const auto& snaps = world.snapshots;
  std::vector<SimTime> sample_times;
  for (int i = 0; i < 30; ++i) {
    sample_times.push_back(
        snaps.stats()[rng.uniform_below(snaps.size())].time);
  }

  struct Config {
    const char* label;
    SimTime epsilon;
    bool exclude_cpfp;
  };
  const Config configs[] = {
      {"all txs, eps=0", 0, false},
      {"all txs, eps=10s", 10, false},
      {"all txs, eps=10min", 10 * kMinute, false},
      {"non-CPFP, eps=0", 0, true},
      {"non-CPFP, eps=10s", 10, true},
      {"non-CPFP, eps=10min", 10 * kMinute, true},
  };

  CsvWriter csv(bench::out_dir() + "/fig06_pair_violations.csv");
  csv.header({"config", "snapshot_time", "predicted_pairs", "violations",
              "fraction"});

  for (const Config& config : configs) {
    std::vector<double> fractions;
    for (SimTime t : sample_times) {
      const auto pending = core::pending_at(seen, dataset, t);
      const auto stats = core::count_pair_violations(pending, config.epsilon,
                                                     config.exclude_cpfp);
      if (stats.predicted_pairs == 0) continue;
      fractions.push_back(stats.fraction());
      csv.field(std::string(config.label)).field(t);
      csv.field(stats.predicted_pairs).field(stats.violations);
      csv.field(stats.fraction(), 6);
      csv.end_row();
    }
    const stats::Ecdf cdf{std::span<const double>(fractions)};
    if (cdf.empty()) {
      std::printf("  %-22s (no predicted pairs)\n", config.label);
      continue;
    }
    std::printf("  %-22s snapshots=%-3zu median=%-8s p90=%-8s max=%s\n",
                config.label, cdf.size(), percent(cdf.quantile(0.5)).c_str(),
                percent(cdf.quantile(0.9)).c_str(), percent(cdf.max()).c_str());
  }

  bench::compare("violations in (almost) every snapshot", "yes (Fig 6)", "see rows above");
  bench::compare("epsilon / CPFP filtering reduces fraction", "yes", "compare rows");

  // Extension: attribute the non-CPFP violations to the pools whose
  // blocks absorbed the worse-qualified transaction early. The planted
  // misbehaving pools should dominate per-block.
  {
    std::unordered_map<std::string, std::uint64_t> by_pool;
    for (SimTime t : sample_times) {
      const auto pending = core::pending_at(seen, dataset, t);
      for (const auto& [height, n] :
           core::violations_by_block(pending, 0, /*exclude_cpfp=*/true)) {
        const core::PoolId pool = dataset.pool_at(height);
        by_pool[pool == core::kNoPoolId ? "(unknown)" : dataset.pool_name(pool)] += n;
      }
    }
    std::printf("\n  non-CPFP violations per mined block, by pool (extension):\n");
    std::vector<std::pair<std::string, double>> rates;
    for (const auto& [pool, n] : by_pool) {
      const std::uint64_t blocks = dataset.blocks_of(dataset.pool_id(pool));
      if (blocks < 10) continue;
      rates.emplace_back(pool, static_cast<double>(n) / static_cast<double>(blocks));
    }
    std::sort(rates.begin(), rates.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (std::size_t i = 0; i < rates.size() && i < 6; ++i) {
      std::printf("    %-16s %.2f violations/block\n", rates[i].first.c_str(),
                  rates[i].second);
    }
  }
  std::printf("CSV: %s/fig06_pair_violations.csv\n", bench::out_dir().c_str());

  // Exact counting at scale: Fenwick/CDQ vs the O(n^2) reference at
  // n = 100k.
  {
    // Wall times differ run to run, so they go to stderr (and the JSON)
    // and stdout stays byte-reproducible.
    const auto [fenwick_s, brute_s] = speedup_at_100k();
    std::fprintf(stderr, "\n  exact counting, n=100k:\n");
    std::fprintf(stderr,
                 "    fenwick  %8.3f s\n    brute    %8.3f s\n    speedup  %.1fx\n",
                 fenwick_s, brute_s, fenwick_s > 0 ? brute_s / fenwick_s : 0.0);
    json.metric("fenwick_seconds_100k", fenwick_s);
    json.metric("brute_seconds_100k", brute_s);
    json.metric("speedup_100k", fenwick_s > 0 ? brute_s / fenwick_s : 0.0);
  }

  return cn::bench::run_microbenchmarks(argc, argv);
}

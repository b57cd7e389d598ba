// Ablation studies for the audit methodology (DESIGN.md §5 extensions).
//
// Four questions the paper's method raises but cannot answer on fixed
// real-world data — a simulator with ground truth can:
//   A. How much self-interest volume does the binomial test need before
//      a selfish pool becomes detectable (power curve)?
//   B. Is the test calibrated — does it stay silent when the same pool
//      does NOT misbehave (boost ablated)?
//   C. How much of the pairwise-violation signal is explained by P2P
//      propagation skew (propagation ablated)?
//   D. Does Fisher windowing (§5.1.3) preserve detection under drifting
//      hash rates (window-count sweep)?
#include "common.hpp"
#include "worlds.hpp"

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "core/pair_violations.hpp"
#include "core/prio_test.hpp"
#include "util/strings.hpp"

namespace {

using namespace cn;

io::World run_variant(std::uint64_t seed, double self_per_block,
                      bool selfish_enabled, bool propagation_enabled) {
  return bench::world_for(bench::worlds::detection(
      seed, self_per_block, selfish_enabled, propagation_enabled));
}

core::AuditDataset dataset_of(const io::World& world) {
  return core::AuditDataset::build(world.chain,
                                   btc::CoinbaseTagRegistry::paper_registry());
}

/// F2Pool's self-interest test; a world with no F2Pool block has nothing
/// to test (p stays 1).
core::PrioTestResult f2pool_test(const core::AuditDataset& dataset) {
  const core::PoolId f2pool = dataset.pool_id("F2Pool");
  if (f2pool == core::kNoPoolId) return {};
  return core::test_differential_prioritization(dataset, f2pool,
                                                dataset.self_interest_txs(f2pool));
}

void BM_NeutralAttributionPipeline(benchmark::State& state) {
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, 3, 0.05);
  static const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AuditDataset::build(world.chain, registry, 1));
  }
}
BENCHMARK(BM_NeutralAttributionPipeline)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Ablations — power, calibration, and signal attribution",
                "(extensions beyond the paper, enabled by ground truth)");
  const std::uint64_t seed = bench::seed_from_env();
  bench::JsonReport json("ablation_detection");

  // --- A: power curve over self-interest volume --------------------------
  std::printf("A. detection power vs self-interest tx volume (F2Pool, selfish ON):\n");
  core::TablePrinter power({"self-txs/block", "x", "y", "p-accel", "SPPE"},
                           {16, 6, 6, 10, 9});
  power.print_header();
  for (double volume : {0.02, 0.08, 0.2, 0.5}) {
    const auto world = run_variant(seed, volume, true, true);
    json.add("txs", static_cast<double>(world.chain.total_tx_count()));
    json.add("blocks", static_cast<double>(world.chain.size()));
    const auto r = f2pool_test(dataset_of(world));
    power.print_row({fixed(volume, 2), std::to_string(r.x), std::to_string(r.y),
                     core::format_p_value(r.p_accelerate), fixed(r.sppe, 1)});
  }
  std::printf("   (expected: p collapses toward 0 as volume grows)\n\n");

  // --- B: calibration with the boost ablated -----------------------------
  std::printf("B. calibration: same pool, selfish boost ABLATED:\n");
  core::TablePrinter calib({"seed", "x", "y", "p-accel", "SPPE"},
                           {8, 6, 6, 10, 9});
  calib.print_header();
  int false_positives = 0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    const auto world = run_variant(seed + s, 0.5, false, true);
    json.add("txs", static_cast<double>(world.chain.total_tx_count()));
    json.add("blocks", static_cast<double>(world.chain.size()));
    const auto r = f2pool_test(dataset_of(world));
    calib.print_row({std::to_string(seed + s), std::to_string(r.x),
                     std::to_string(r.y), core::format_p_value(r.p_accelerate),
                     fixed(r.sppe, 1)});
    if (r.p_accelerate < 0.001) ++false_positives;
  }
  bench::compare("false positives across seeds", "0",
                 std::to_string(false_positives));
  std::printf("\n");

  // --- C: how much violation signal is propagation skew? -----------------
  std::printf("C. pairwise violations with/without P2P propagation skew:\n");
  for (const bool propagation : {true, false}) {
    const auto world = run_variant(seed, 0.3, true, propagation);
    json.add("txs", static_cast<double>(world.chain.total_tx_count()));
    json.add("blocks", static_cast<double>(world.chain.size()));
    const core::AuditDataset dataset = dataset_of(world);
    const auto seen = core::collect_seen_txs(
        dataset, [&](const btc::Txid& id) { return world.first_seen(id); });
    const auto pending = core::pending_at(seen, dataset, world.config.duration / 2);
    const auto stats = core::count_pair_violations(pending, 0, true);
    std::printf("   propagation %-3s  predicted=%llu  violations=%llu  "
                "fraction=%s\n",
                propagation ? "ON" : "OFF",
                static_cast<unsigned long long>(stats.predicted_pairs),
                static_cast<unsigned long long>(stats.violations),
                percent(stats.fraction(), 3).c_str());
  }
  std::printf("   (expected: the non-CPFP fraction shrinks when every pool "
              "sees every tx instantly)\n\n");

  // --- D: Fisher window-count sweep ---------------------------------------
  std::printf("D. windowed Fisher combination (F2Pool, selfish ON):\n");
  {
    const auto world = run_variant(seed, 0.5, true, true);
    json.add("txs", static_cast<double>(world.chain.total_tx_count()));
    json.add("blocks", static_cast<double>(world.chain.size()));
    const core::AuditDataset dataset = dataset_of(world);
    const core::PoolId f2pool = dataset.pool_id("F2Pool");
    for (unsigned windows : {1u, 2u, 4u, 8u}) {
      const double p = core::windowed_acceleration_p_value(
          dataset, f2pool, dataset.self_interest_txs(f2pool), windows);
      std::printf("   windows=%u  combined p=%s\n", windows,
                  core::format_p_value(p).c_str());
    }
  }
  std::printf("   (expected: significant at every window count)\n");

  return cn::bench::run_microbenchmarks(argc, argv);
}

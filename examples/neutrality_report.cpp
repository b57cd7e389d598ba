// Chain-neutrality watchdog: the paper's §6.1 proposal in action.
//
//   $ ./neutrality_report [seed] [scale]
//
// Produces the per-pool scorecard a third-party observer could publish
// periodically: ordering fidelity, opaque-boost rate, self-dealing test,
// fee-floor discipline, and a composite neutrality score. The planted
// misbehaving pools (F2Pool, ViaBTC, 1THash&58Coin, SlushPool) should
// sink to the bottom of the ranking; honest pools should score ~95+.
#include <cstdio>
#include <cstdlib>

#include "core/audit_dataset.hpp"
#include "core/neutrality.hpp"
#include "core/report.hpp"
#include "sim/dataset.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace cn;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const double scale = argc > 2 ? std::strtod(argv[2], nullptr) : 0.6;

  std::printf("Simulating a year-2020-style network (seed %llu)...\n\n",
              static_cast<unsigned long long>(seed));
  const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, seed, scale);
  util::ThreadPool workers;
  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto reports = core::neutrality_reports(dataset, {}, workers);

  std::printf("Chain-neutrality scorecard (worst first):\n\n");
  core::TablePrinter table({"pool", "blocks", "PPE%", "boost%", "self-p",
                            "floor%", "score"},
                           {16, 9, 8, 9, 9, 9, 8});
  table.print_header();
  for (const auto& r : reports) {
    table.print_row({r.pool, with_commas(r.blocks), fixed(r.mean_ppe, 2),
                     fixed(r.boosted_tx_rate * 100.0, 3),
                     core::format_p_value(r.self_dealing_p),
                     fixed(r.below_floor_block_rate * 100.0, 1),
                     fixed(r.score, 1)});
  }

  std::printf("\nlegend: PPE%% = mean intra-block ordering error; boost%% = txs "
              "placed far above their fee rank\n(SPPE>=90); self-p = "
              "acceleration test on the pool's own txs; floor%% = blocks\n"
              "containing sub-1 sat/vB txs; score = 100 minus calibrated "
              "penalties.\n");
  return 0;
}

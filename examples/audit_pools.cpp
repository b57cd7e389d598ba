// Pool-behaviour audit: the paper's §5.2/§5.3 methodology as a reusable
// command-line workflow.
//
//   $ ./audit_pools [seed] [scale]
//
// Pipeline (identical to what an auditor with chain access would run):
//   1. attribute every block to a pool via coinbase markers;
//   2. collect each pool's reward wallets from its coinbases;
//   3. extract self-interest transactions (spending from / paying to
//      those wallets);
//   4. run the one-sided binomial tests for differential acceleration
//      and deceleration, pool by pool — including cross-pool tests that
//      expose collusion (pool m accelerating pool n's transactions);
//   5. corroborate flagged pairs with the SPPE position measure.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/audit_dataset.hpp"
#include "core/prio_test.hpp"
#include "core/report.hpp"
#include "sim/dataset.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace cn;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2021;
  const double scale = argc > 2 ? std::strtod(argv[2], nullptr) : 0.6;

  std::printf("Simulating a year-2020-style network (seed %llu, scale %.2f)...\n",
              static_cast<unsigned long long>(seed), scale);
  const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kC, seed, scale);
  std::printf("  %zu blocks, %llu committed transactions\n\n", world.chain.size(),
              static_cast<unsigned long long>(world.chain.total_tx_count()));

  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());

  // Audit every ordered (tx-owner, miner) pair among the large pools.
  std::vector<core::PoolId> large;
  for (const core::PoolId pool : dataset.pools_by_blocks()) {
    if (dataset.hash_share(pool) >= 0.03) large.push_back(pool);
  }

  std::printf("Cross-pool acceleration audit (rows: whose txs; cols: who mined "
              "them disproportionately; alpha = 0.001):\n\n");
  core::TablePrinter table({"txs of", "accelerated by", "x", "y", "p-accel",
                            "SPPE", "verdict"},
                           {16, 16, 6, 6, 9, 9, 22});
  table.print_header();

  int findings = 0;
  for (const core::PoolId owner : large) {
    const auto txs = dataset.self_interest_txs(owner);
    if (txs.size() < 10) continue;
    for (const core::PoolId miner : large) {
      const auto r = core::test_differential_prioritization(dataset, miner, txs);
      const bool flagged = r.p_accelerate < 0.001 && r.sppe > 25.0;
      if (!flagged) continue;
      ++findings;
      const char* verdict = owner == miner ? "SELFISH" : "COLLUSION";
      table.print_row({dataset.pool_name(owner), r.pool, std::to_string(r.x),
                       std::to_string(r.y),
                       core::format_p_value(r.p_accelerate), fixed(r.sppe, 1),
                       verdict});
    }
  }
  if (findings == 0) std::printf("  (no differential prioritization found)\n");

  // Deceleration screen: does anyone refuse anyone's transactions?
  std::printf("\nDeceleration screen (censorship would show up here; the paper "
              "— and this simulation — plant none):\n");
  int decel_findings = 0;
  for (const core::PoolId owner : large) {
    const auto txs = dataset.self_interest_txs(owner);
    if (txs.size() < 20) continue;
    for (const core::PoolId miner : large) {
      const auto r = core::test_differential_prioritization(dataset, miner, txs);
      if (r.p_decelerate < 0.001) {
        std::printf("  %s decelerates %s's txs (p=%s)\n", r.pool.c_str(),
                    dataset.pool_name(owner).c_str(),
                    core::format_p_value(r.p_decelerate).c_str());
        ++decel_findings;
      }
    }
  }
  if (decel_findings == 0) {
    std::printf("  (none found)\n");
  } else {
    std::printf("  note: the test is RELATIVE (paper §5.1.1) — when two pools\n"
                "  snap up a transaction set, every *other* pool's share of its\n"
                "  c-blocks drops below its hash rate and reads as deceleration.\n"
                "  Corroborate with SPPE before concluding censorship: a true\n"
                "  censor never mines the set at all (x = 0).\n");
  }

  std::printf("\n%d acceleration finding(s). Expected plants: F2Pool, ViaBTC,\n"
              "1THash&58Coin and SlushPool accelerating their own transactions,\n"
              "plus ViaBTC accelerating its two partners' (Table 2).\n",
              findings);
  return 0;
}

// Mining pools: hash share, reward wallets, coinbase marker, and the
// policy stack that shapes how the pool fills blocks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "btc/block.hpp"
#include "btc/coinbase_tags.hpp"
#include "node/block_template.hpp"
#include "node/legacy_priority.hpp"
#include "sim/policy.hpp"

namespace cn::sim {

/// Which base template algorithm the pool's software runs.
enum class BuilderKind {
  kGbt,             ///< fee-rate / ancestor-package ordering (post-Apr-2016)
  kLegacyPriority,  ///< coin-age priority ordering (pre-Apr-2016)
};

/// Declarative description of a pool; the simulator turns this into a
/// MiningPool. This is what dataset builders configure.
struct PoolSpec {
  std::string name;
  double hash_share = 0.0;         ///< normalized mining power
  std::size_t wallet_count = 3;    ///< reward/payout wallets the pool owns
  BuilderKind builder = BuilderKind::kGbt;
  std::int64_t min_rate_sat_per_vb = btc::kDefaultMinRelaySatPerVb;
  /// Aging bonus for GBT ordering (0 = pure fee-rate norm; see
  /// node::TemplateOptions::age_weight_per_hour).
  double age_weight_per_hour = 0.0;

  /// Relative intensity of the pool's own payout/deposit transaction
  /// issuance. In the real data this is NOT proportional to hash share —
  /// SlushPool (3.75% of blocks) had the paper's largest self-interest
  /// c-block count (y = 1343). The engine weights self-interest tx
  /// generation by hash_share * self_tx_weight.
  double self_tx_weight = 1.0;

  bool selfish = false;                       ///< boosts own-wallet txs
  /// Evasion-aware self-interest intensity (adversary zoo): boosts each
  /// own-wallet tx with probability theta. Negative (default) = policy
  /// absent; 0 attaches the policy but is byte-identical to honest;
  /// 1 is byte-identical to `selfish`. Mutually composable with
  /// `selfish` but dataset builders set one or the other.
  double evasion_theta = -1.0;
  /// Selfish-mining block withholding: published blocks exclude
  /// transactions first broadcast within the last `withhold_delay_s`
  /// seconds (the template was frozen that long ago). 0 = honest.
  double withhold_delay_s = 0.0;
  /// BitcoinF-style fair queue: FIFO ordering above the relay floor.
  bool fair_queue = false;
  std::vector<std::string> accelerates_for{}; ///< collusion partners
  bool offers_acceleration = false;           ///< sells dark-fee service
  /// Probability per block of a one-off, off-the-books boost of a random
  /// low-fee pending tx (see CourtesyBoostPolicy). 0 disables.
  double courtesy_boost_per_block = 0.0;
  bool tolerates_low_fee = false;             ///< sporadically lifts floor
  std::vector<btc::Address> censored_wallets{}; ///< refuses these (ablation)

  /// Pools that lost their marker (the paper's ~1.3% unidentified blocks)
  /// write an empty coinbase tag.
  bool anonymous = false;
};

class MiningPool {
 public:
  explicit MiningPool(const PoolSpec& spec);

  MiningPool(MiningPool&&) = default;
  MiningPool& operator=(MiningPool&&) = default;

  const std::string& name() const noexcept { return spec_.name; }
  double hash_share() const noexcept { return spec_.hash_share; }
  const PoolSpec& spec() const noexcept { return spec_; }

  /// Coinbase marker written into mined blocks ("" when anonymous).
  std::string coinbase_tag() const;

  const std::vector<btc::Address>& wallets() const noexcept { return wallets_; }
  const std::unordered_set<btc::Address>& wallet_set() const noexcept {
    return wallet_set_;
  }

  /// Reward wallet for the next block (round-robin over the pool's
  /// wallets, as pools rotate payout addresses in practice).
  btc::Address next_reward_wallet();

  /// Builds this pool's block template from @p mempool.
  /// @p base_exclude — transactions this pool has not yet heard of
  /// (propagation); merged with any policy exclusions. Taken by value:
  /// the engine rebuilds the set per block anyway, so it is moved rather
  /// than copied into the template options.
  node::BlockTemplate build_template(
      const node::Mempool& mempool, const PolicyContext& ctx,
      std::unordered_set<btc::Txid> base_exclude) const;

  /// The policy stack (diagnostics).
  const std::vector<std::unique_ptr<MinerPolicy>>& policies() const noexcept {
    return policies_;
  }

 private:
  PoolSpec spec_;
  std::vector<btc::Address> wallets_;
  std::unordered_set<btc::Address> wallet_set_;
  std::vector<std::unique_ptr<MinerPolicy>> policies_;
  std::size_t next_wallet_ = 0;
};

}  // namespace cn::sim

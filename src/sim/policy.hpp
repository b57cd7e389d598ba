// Miner policies: the behaviours (honest and otherwise) the paper audits.
//
// A policy is a transformation of the TemplateOptions a pool passes to the
// GBT builder. This mirrors how misbehaviour works in practice: pools run
// stock Bitcoin Core and express preferences through the knobs it exposes
// (`prioritisetransaction` fee deltas, relay floors, manual exclusion) —
// they do not rewrite the selection algorithm. Policies compose: a pool
// can be selfish AND sell acceleration AND tolerate low-fee transactions.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "node/block_template.hpp"
#include "node/mempool.hpp"
#include "sim/acceleration.hpp"

namespace cn::sim {

/// Everything a policy may consult when shaping a template.
struct PolicyContext {
  SimTime now = 0;
  std::uint64_t height = 0;
  /// Virtual-size budget for the template (engine-configured; scaled-down
  /// experiments shrink blocks and congestion thresholds together).
  std::uint64_t max_template_vsize = btc::kMaxBlockVsize - btc::kCoinbaseVsize;
  std::string pool_name;
  /// Wallets owned by this pool (reward + payout wallets).
  const std::unordered_set<btc::Address>* own_wallets = nullptr;
  /// Wallet sets of pools this pool colludes with.
  std::vector<const std::unordered_set<btc::Address>*> partner_wallets;
  /// The acceleration ledger (null if this pool sells no acceleration).
  const AccelerationService* acceleration = nullptr;
};

/// Fee delta large enough to outrank any organic fee-rate: with it, a
/// transaction's effective package rate exceeds every honest competitor.
inline constexpr btc::Satoshi kPriorityBoost{50LL * btc::kSatPerBtc};

class MinerPolicy {
 public:
  virtual ~MinerPolicy() = default;

  /// Human-readable policy name (diagnostics, DESIGN-level reporting).
  virtual std::string_view name() const noexcept = 0;

  /// Mutates @p options before template construction.
  virtual void apply(node::TemplateOptions& options, const node::Mempool& mempool,
                     const PolicyContext& ctx) const = 0;
};

/// §5.2 — boosts any pending transaction that spends from or pays to one
/// of the pool's own wallets.
class SelfInterestPolicy final : public MinerPolicy {
 public:
  std::string_view name() const noexcept override { return "self-interest"; }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;
};

/// §5.2 — boosts transactions involving a *partner* pool's wallets
/// (ViaBTC accelerating 1THash&58Coin and SlushPool in the paper).
class CollusionPolicy final : public MinerPolicy {
 public:
  std::string_view name() const noexcept override { return "collusion"; }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;
};

/// §5.4 — boosts transactions whose senders paid this pool's acceleration
/// service off-chain.
class DarkFeePolicy final : public MinerPolicy {
 public:
  std::string_view name() const noexcept override { return "dark-fee"; }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;
};

/// §5.3 hypothesis (not observed in the wild): refuses to mine
/// transactions paying to blacklisted wallets. Included so the
/// deceleration test has a planted positive to validate against.
class CensorshipPolicy final : public MinerPolicy {
 public:
  explicit CensorshipPolicy(std::unordered_set<btc::Address> blacklist)
      : blacklist_(std::move(blacklist)) {}

  std::string_view name() const noexcept override { return "censorship"; }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;

 private:
  std::unordered_set<btc::Address> blacklist_;
};

/// §5.4.2 residual — now and then a pool bumps a transaction outside any
/// public service (support tickets, partner exchanges, operator whim).
/// Table 4's non-accelerated top-of-block placements show such opaque
/// one-off prioritization exists: ~26-35% of BTC.com's SPPE>=99
/// transactions were NOT accelerated through the public API. The policy
/// picks a pseudo-random low-fee pending transaction roughly once per
/// @p per_block_probability blocks and boosts it.
class CourtesyBoostPolicy final : public MinerPolicy {
 public:
  explicit CourtesyBoostPolicy(double per_block_probability = 0.3)
      : probability_(per_block_probability) {}

  std::string_view name() const noexcept override { return "courtesy-boost"; }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;

 private:
  double probability_;
};

/// §4.2.3 — occasionally lifts the fee-rate floor, letting below-minimum
/// (even zero-fee) transactions into a block, as F2Pool/ViaBTC/BTC.com
/// sporadically did. The floor is lifted deterministically on roughly one
/// in @p period blocks (derived from the height).
class LowFeeTolerancePolicy final : public MinerPolicy {
 public:
  explicit LowFeeTolerancePolicy(std::uint64_t period = 16) : period_(period) {}

  std::string_view name() const noexcept override { return "low-fee-tolerance"; }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;

 private:
  std::uint64_t period_;
};

/// Selfish-mining block withholding (adversary zoo, ROADMAP item 4). A
/// withholding pool mines a block, sits on it for @p delay_s seconds,
/// and only then publishes — so the published block's template was
/// frozen before the freshest mempool arrivals. We model the *template
/// consequence* of that lag: transactions first broadcast within the
/// last @p delay_s seconds are excluded from the block, exactly what an
/// honest observer sees when comparing the block against their mempool
/// (the Bitcoin-SV `-detectselfishmining` signature: block timestamp
/// lags, and a large fraction of mempool transactions are missing).
/// The broadcast time is the entry's MempoolEntry::arrival: the engine
/// hands policies its canonical pool, which accepts each broadcast at
/// the moment it is issued. delay_s == 0 touches nothing and is
/// byte-identical to honest.
class WithholdingPolicy final : public MinerPolicy {
 public:
  explicit WithholdingPolicy(double delay_s) : delay_s_(delay_s) {}

  std::string_view name() const noexcept override { return "withholding"; }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;

 private:
  double delay_s_;
};

/// Evasion-aware self-interest ("On the Effectiveness of Mempool-based
/// Transaction Auditing"): boosts each own-wallet transaction only with
/// probability theta ∈ [0,1], using a deterministic per-transaction coin
/// keyed on (pool, txid). theta is the *retained selfishness intensity*:
///   theta = 1  — boosts everything, byte-identical to SelfInterestPolicy;
///   theta = 0  — boosts nothing, byte-identical to the honest baseline
///                (no RNG consumed, no deltas written), so theta=0 worlds
///                share cache entries with honest controls.
/// The evasion budget reported by the power sweep is 1 - theta.
class EvasiveSelfInterestPolicy final : public MinerPolicy {
 public:
  explicit EvasiveSelfInterestPolicy(double theta) : theta_(theta) {}

  std::string_view name() const noexcept override {
    return "evasive-self-interest";
  }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;

  double theta() const noexcept { return theta_; }

 private:
  double theta_;
};

/// BitcoinF-style fair queue: above the relay floor, serve transactions
/// strictly first-come-first-served instead of by fee rate. Pairs with
/// EngineConfig::fee_only to study the zero-subsidy regime where the
/// paper's fee-ordering norms no longer bind.
class FairQueuePolicy final : public MinerPolicy {
 public:
  std::string_view name() const noexcept override { return "fair-queue"; }
  void apply(node::TemplateOptions& options, const node::Mempool& mempool,
             const PolicyContext& ctx) const override;
};

}  // namespace cn::sim

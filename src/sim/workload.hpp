// Transaction workload generation.
//
// Users issue transactions as an inhomogeneous Poisson process (diurnal
// swing plus configurable burst events, like the June 2019 price-surge
// congestion in data set B). Fees follow the behaviour the paper
// documents in §4.1: users consult a recent-block fee estimator and scale
// their offer up under congestion; a small fraction issue below-floor or
// zero-fee transactions; ~20-26% are in-block CPFP children; pools issue
// their own payout ("self-interest") transactions; scam payments appear
// inside a configured window; and a sliver of users plan to pay a dark
// acceleration fee instead of a competitive public fee.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "btc/transaction.hpp"
#include "node/snapshot.hpp"
#include "util/rng.hpp"

namespace cn::sim {

struct BurstEvent {
  SimTime start = 0;
  SimTime duration = 0;
  double rate_multiplier = 1.0;  ///< applied to the base rate while active
};

struct ScamConfig {
  SimTime start = 0;
  SimTime end = 0;
  double txs_per_hour = 1.5;  ///< scam-payment arrival rate inside the window
};

struct WorkloadConfig {
  // Arrival process.
  double base_tx_per_second = 0.5;
  double diurnal_amplitude = 0.45;  ///< fraction of base; sinusoidal
  SimTime diurnal_period = kDay;
  std::vector<BurstEvent> bursts;

  // Size distribution (lognormal, clamped).
  double mean_tx_vsize = 275.0;
  double vsize_sigma = 0.45;
  std::uint32_t min_tx_vsize = 80;
  std::uint32_t max_tx_vsize = 12'000;

  // Value distribution (lognormal in satoshi).
  double mean_value_sat = 5e6;  // 0.05 BTC
  double value_sigma = 1.4;

  // Fee behaviour. Fees are anchored per urgency tier (sat/vB) and scale
  // exponentially with the congestion level; a *bounded* blend with the
  // recent-block estimator models wallet software without letting the
  // feedback loop run away.
  double urgent_fraction = 0.32;   ///< want next-block inclusion
  double patient_fraction = 0.22;  ///< content to wait many blocks
  double urgent_anchor_sat_vb = 10.0;
  double normal_anchor_sat_vb = 5.0;
  double patient_anchor_sat_vb = 1.5;
  double fee_noise_sigma = 0.50;   ///< lognormal noise on the fee target
  /// Congestion response: fee multiplier = exp(response * level) for the
  /// urgent tier (normal and patient tiers respond at 0.8x / 0.3x of
  /// this). This is the Fig 4c driver.
  double congestion_fee_response = 0.70;
  /// Exponent of the bounded estimator blend (0 disables feedback).
  double estimator_blend_exponent = 0.30;
  double below_floor_fraction = 0.0006;  ///< < 1 sat/vB offers
  double zero_fee_fraction_of_low = 0.45;

  // Dependent transactions.
  double cpfp_fraction = 0.30;      ///< children spending a pending parent
  /// Median multiple of the parent's rate a rescuing child pays; the
  /// realized boost is lognormal around this (heavy tail: a panicked
  /// 20-30x rescue drags a bottom-fee parent near the top of a block,
  /// producing the natural high-SPPE false positives of Table 4).
  double cpfp_rescue_boost = 3.0;
  double cpfp_boost_sigma = 1.5;

  // Replace-by-fee: fraction of issues that are fee bumps of the user's
  // own stuck transaction instead of fresh payments.
  double rbf_fraction = 0.02;
  double rbf_bump_min = 1.5;  ///< fee-rate multiple range for the bump
  double rbf_bump_max = 4.0;

  // Pool-involved and special transactions.
  double self_interest_per_block = 0.30;  ///< expected per block interval
  double accel_request_fraction = 0.004;  ///< of issued txs buy acceleration
  std::optional<ScamConfig> scam;

  std::size_t user_address_count = 20'000;
};

/// What the generator needs to know about the world at issue time.
struct WorkloadContext {
  double rec_p25 = 1.0;  ///< recent-block fee-rate percentiles (sat/vB)
  double rec_p50 = 2.0;
  double rec_p75 = 4.0;
  node::CongestionLevel congestion = node::CongestionLevel::kNone;
  /// A still-pending low-fee transaction usable as a CPFP parent, if any.
  const btc::Transaction* cpfp_parent = nullptr;
  /// Pool payout endpoint for self-interest txs (chosen by the engine).
  btc::Address pool_wallet{};
  bool make_self_interest = false;
  bool make_scam = false;
  btc::Address scam_address{};
};

struct GeneratedTx {
  btc::Transaction tx;
  bool wants_acceleration = false;  ///< user will pay a dark fee
  bool is_scam = false;
  bool is_self_interest = false;
  bool used_cpfp_parent = false;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig config, Rng rng);

  const WorkloadConfig& config() const noexcept { return config_; }

  /// Instantaneous arrival rate (tx/s) at time @p t.
  double rate_at(SimTime t) const noexcept;

  /// Peak rate over any time (for Poisson thinning).
  double max_rate() const noexcept;

  /// Samples the time of the next arrival strictly after @p now
  /// (inhomogeneous Poisson via thinning).
  SimTime next_arrival(SimTime now);

  /// Creates one transaction at @p now given the context.
  GeneratedTx make_transaction(SimTime now, const WorkloadContext& ctx);

  /// Creates a BIP-125 fee bump of the user's own stuck transaction:
  /// same inputs (conflicting), fee-rate raised to at least the current
  /// market rate or a multiple of the original, whichever is higher.
  btc::Transaction make_rbf_replacement(SimTime now,
                                        const btc::Transaction& original,
                                        const WorkloadContext& ctx);

 private:
  double fee_rate_target(const WorkloadContext& ctx);
  btc::Address random_user_address();

  WorkloadConfig config_;
  Rng rng_;
  std::uint64_t nonce_ = 0;
  /// User wallet pool, derived once up front: deriving an address is a
  /// SHA-256 + string build, far too hot to repeat per transaction.
  std::vector<btc::Address> user_addresses_;
  /// Continuous-time arrival clock; avoids the per-arrival rounding bias
  /// integer SimTime would otherwise introduce.
  double continuous_clock_ = 0.0;
};

}  // namespace cn::sim

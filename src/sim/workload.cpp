#include "sim/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/assert.hpp"

namespace cn::sim {

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng) {
  CN_ASSERT(config_.base_tx_per_second > 0.0);
  CN_ASSERT(config_.diurnal_amplitude >= 0.0 && config_.diurnal_amplitude < 1.0);
  CN_ASSERT(config_.urgent_fraction + config_.patient_fraction <= 1.0);
  user_addresses_.reserve(config_.user_address_count);
  for (std::size_t i = 0; i < config_.user_address_count; ++i)
    user_addresses_.push_back(btc::Address::derive("user/" + std::to_string(i)));
}

double WorkloadGenerator::rate_at(SimTime t) const noexcept {
  const double phase = 2.0 * std::numbers::pi * static_cast<double>(t) /
                       static_cast<double>(config_.diurnal_period);
  double rate = config_.base_tx_per_second *
                (1.0 + config_.diurnal_amplitude * std::sin(phase));
  for (const BurstEvent& b : config_.bursts) {
    if (t >= b.start && t < b.start + b.duration) rate *= b.rate_multiplier;
  }
  return rate;
}

double WorkloadGenerator::max_rate() const noexcept {
  double peak_multiplier = 1.0;
  for (const BurstEvent& b : config_.bursts)
    peak_multiplier = std::max(peak_multiplier, b.rate_multiplier);
  return config_.base_tx_per_second * (1.0 + config_.diurnal_amplitude) *
         peak_multiplier;
}

SimTime WorkloadGenerator::next_arrival(SimTime now) {
  // Thinning (Lewis & Shedler): propose at the peak rate, accept with
  // probability rate(t)/peak. An internal continuous clock carries the
  // fractional seconds across calls; rounding each gap to integer SimTime
  // would otherwise bias the realized rate ~20% low.
  const double peak = max_rate();
  double t = std::max(static_cast<double>(now), continuous_clock_);
  for (int guard = 0; guard < 1'000'000; ++guard) {
    t += rng_.exponential(peak);
    if (rng_.uniform01() * peak <= rate_at(static_cast<SimTime>(t))) {
      continuous_clock_ = t;
      // May equal `now` (several arrivals within one second); the event
      // queue orders equal-time events by sequence number.
      return static_cast<SimTime>(t);
    }
  }
  CN_ASSERT(false && "thinning failed to converge");
  return now + 1;
}

btc::Address WorkloadGenerator::random_user_address() {
  return user_addresses_[rng_.uniform_below(config_.user_address_count)];
}

namespace {

/// Bounded estimator feedback: how far the recent-block median deviates
/// from the normal anchor, damped by the blend exponent. Clamped so the
/// fee spiral can never run away.
double estimator_blend(const WorkloadConfig& config, double rec_p50) {
  const double ratio =
      std::clamp(rec_p50 / config.normal_anchor_sat_vb, 0.3, 3.0);
  return std::pow(ratio, config.estimator_blend_exponent);
}

}  // namespace

double WorkloadGenerator::fee_rate_target(const WorkloadContext& ctx) {
  const double level = static_cast<double>(ctx.congestion);
  const double blend = estimator_blend(config_, ctx.rec_p50);
  const double noise = rng_.lognormal(0.0, config_.fee_noise_sigma);

  const double tier = rng_.uniform01();
  double anchor, response;
  if (tier < config_.urgent_fraction) {
    anchor = config_.urgent_anchor_sat_vb;
    response = config_.congestion_fee_response;
  } else if (tier < config_.urgent_fraction + config_.patient_fraction) {
    anchor = config_.patient_anchor_sat_vb;
    response = 0.3 * config_.congestion_fee_response;
  } else {
    anchor = config_.normal_anchor_sat_vb;
    response = 0.8 * config_.congestion_fee_response;
  }
  return std::max(anchor * std::exp(response * level) * blend * noise, 1.0);
}

btc::Transaction WorkloadGenerator::make_rbf_replacement(
    SimTime now, const btc::Transaction& original, const WorkloadContext& ctx) {
  const double bump =
      rng_.uniform(config_.rbf_bump_min, config_.rbf_bump_max);
  const double old_rate = original.fee_rate().sat_per_vbyte();
  const double market = std::max(ctx.rec_p50, 1.0);
  const double new_rate = std::max(old_rate * bump, market) *
                          rng_.lognormal(0.0, 0.5 * config_.fee_noise_sigma);
  const auto new_fee = btc::Satoshi{std::max<std::int64_t>(
      static_cast<std::int64_t>(new_rate * original.vsize()),
      original.fee().value + 1)};  // BIP-125: strictly more absolute fee
  return btc::make_replacement(now, original, new_fee, ++nonce_);
}

GeneratedTx WorkloadGenerator::make_transaction(SimTime now,
                                                const WorkloadContext& ctx) {
  GeneratedTx out;

  // --- size ---
  const double mu =
      std::log(config_.mean_tx_vsize) - 0.5 * config_.vsize_sigma * config_.vsize_sigma;
  double size = rng_.lognormal(mu, config_.vsize_sigma);
  size = std::clamp(size, static_cast<double>(config_.min_tx_vsize),
                    static_cast<double>(config_.max_tx_vsize));
  const auto vsize = static_cast<std::uint32_t>(size);

  // --- value ---
  const double vmu = std::log(config_.mean_value_sat) -
                     0.5 * config_.value_sigma * config_.value_sigma;
  const double value_d = std::max(rng_.lognormal(vmu, config_.value_sigma), 1000.0);
  const btc::Satoshi value{static_cast<std::int64_t>(value_d)};

  // --- special classes (decided by the engine via ctx flags) ---
  if (ctx.make_scam) {
    // Victims rush: urgent-tier fee, payment to the scam wallet.
    const double level = static_cast<double>(ctx.congestion);
    const double rate = std::max(
        config_.urgent_anchor_sat_vb *
            std::exp(config_.congestion_fee_response * level) *
            estimator_blend(config_, ctx.rec_p50) *
            rng_.lognormal(0.0, config_.fee_noise_sigma),
        2.0);
    const btc::Satoshi fee{static_cast<std::int64_t>(rate * vsize)};
    out.tx = btc::make_payment(now, vsize, fee, random_user_address(),
                               ctx.scam_address, value, ++nonce_);
    out.is_scam = true;
    return out;
  }

  if (ctx.make_self_interest) {
    // Pool payout or deposit: large value, patient fee (these commit by
    // fee-rate slowly — unless a pool prioritizes them).
    const double rate = std::max(
        config_.patient_anchor_sat_vb * estimator_blend(config_, ctx.rec_p50) *
            rng_.lognormal(0.0, config_.fee_noise_sigma),
        1.0);
    const btc::Satoshi fee{static_cast<std::int64_t>(rate * vsize)};
    const btc::Satoshi big_value{value.value * 20};
    const bool outgoing = rng_.chance(0.7);  // payouts dominate deposits
    const btc::Address user = random_user_address();
    const btc::Address from = outgoing ? ctx.pool_wallet : user;
    const btc::Address to = outgoing ? user : ctx.pool_wallet;
    out.tx = btc::make_payment(now, vsize, fee, from, to, big_value, ++nonce_);
    out.is_self_interest = true;
    return out;
  }

  // --- below-floor offers ---
  if (rng_.chance(config_.below_floor_fraction)) {
    btc::Satoshi fee{};
    if (!rng_.chance(config_.zero_fee_fraction_of_low)) {
      // Sub-floor but non-zero: (0, 1) sat/vB.
      fee = btc::Satoshi{
          static_cast<std::int64_t>(rng_.uniform(0.05, 0.95) * vsize)};
    }
    out.tx = btc::make_payment(now, vsize, fee, random_user_address(),
                               random_user_address(), value, ++nonce_);
    return out;
  }

  // --- CPFP child of a stuck parent ---
  if (ctx.cpfp_parent != nullptr && rng_.chance(config_.cpfp_fraction)) {
    const double parent_rate = ctx.cpfp_parent->fee_rate().sat_per_vbyte();
    const double boost =
        config_.cpfp_rescue_boost * rng_.lognormal(0.0, config_.cpfp_boost_sigma);
    const double level = static_cast<double>(ctx.congestion);
    // Most rescuers pay around the going (normal-tier) rate — enough to
    // pull the parent to mid-block; the lognormal tail above produces the
    // occasional panicked 20-30x rescue that hoists a bottom-fee parent
    // near the top (Table 4's natural high-SPPE false positives).
    const double rescue_floor = 0.8 * config_.urgent_anchor_sat_vb *
                                std::exp(0.5 * level) *
                                estimator_blend(config_, ctx.rec_p50);
    const double child_rate =
        std::max({parent_rate * boost, rescue_floor, 1.0}) *
        rng_.lognormal(0.0, config_.fee_noise_sigma);
    const btc::Satoshi fee{static_cast<std::int64_t>(child_rate * vsize)};
    out.tx = btc::make_child_payment(now, vsize, fee, *ctx.cpfp_parent,
                                     random_user_address(), value, ++nonce_);
    out.used_cpfp_parent = true;
    return out;
  }

  // --- ordinary payment ---
  double rate = fee_rate_target(ctx);
  bool wants_accel = false;
  if (rng_.chance(config_.accel_request_fraction)) {
    // Dark-fee buyers deliberately offer a token public fee and pay the
    // pool off-chain instead (§5.4).
    rate = rng_.uniform(1.0, 1.6);
    wants_accel = true;
  }
  const btc::Satoshi fee{static_cast<std::int64_t>(rate * vsize)};
  out.tx = btc::make_payment(now, vsize, fee, random_user_address(),
                             random_user_address(), value, ++nonce_);
  out.wants_acceleration = wants_accel;
  return out;
}

}  // namespace cn::sim

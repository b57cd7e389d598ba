#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace cn::sim {

namespace {

std::uint64_t congestion_unit(const EngineConfig& config) {
  // Congestion bins are defined relative to the block budget (in the real
  // network: 1 MB). Scaled-down experiments scale the thresholds with it.
  return config.max_block_vsize;
}

node::CongestionLevel scaled_congestion(std::uint64_t pending_vsize,
                                        const EngineConfig& config) {
  const std::uint64_t unit = congestion_unit(config);
  if (pending_vsize <= unit) return node::CongestionLevel::kNone;
  if (pending_vsize <= 2 * unit) return node::CongestionLevel::kLow;
  if (pending_vsize <= 4 * unit) return node::CongestionLevel::kMedium;
  return node::CongestionLevel::kHigh;
}

/// Engine telemetry (DESIGN.md §10/§12), interned once per process and
/// fed from batched per-run tallies so the hot loop never touches the
/// registry.
struct SimMetrics {
  obs::Counter events{"sim.engine.events"};
  obs::Counter rbf{"sim.engine.rbf_decisions"};
  obs::Counter cpfp{"sim.engine.cpfp_decisions"};
};

SimMetrics& sim_metrics() {
  static SimMetrics* m = new SimMetrics();
  return *m;
}

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      rng_workload_(Rng(config_.seed).fork("workload")),
      rng_blocks_(Rng(config_.seed).fork("blocks")),
      rng_misc_(Rng(config_.seed).fork("misc")),
      workload_(config_.workload, rng_workload_.fork("txgen")),
      canonical_(/*min_relay_sat_per_vb=*/0),
      observer_(config_.observer_min_relay_sat_per_vb),
      estimator_(/*window_blocks=*/6),
      acceleration_(config_.quote_model),
      chain_(config_.genesis_height) {
  CN_ASSERT(!config_.pools.empty());
  CN_ASSERT(config_.max_block_vsize > btc::kCoinbaseVsize);
  CN_ASSERT(config_.max_block_vsize <= btc::kMaxBlockVsize);

  double total_share = 0.0;
  for (const PoolSpec& spec : config_.pools) {
    CN_ASSERT(spec.hash_share > 0.0);
    total_share += spec.hash_share;
    pools_.emplace_back(spec);
  }
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    pool_weights_.push_back(pools_[i].hash_share() / total_share);
    payout_weights_.push_back(pool_weights_.back() * pools_[i].spec().self_tx_weight);
    if (pools_[i].spec().offers_acceleration) accel_pool_indices_.push_back(i);
  }
  height_ = config_.genesis_height;
  if (config_.workload.scam.has_value()) {
    scam_address_ = btc::Address::derive("scam/twitter-wallet");
  }
}

void Engine::schedule(SimTime time, Event::Kind kind, std::uint32_t issue) {
  queue_.push(Event{time, next_seq_++, kind, issue});
}

std::size_t Engine::pick_winner() {
  return rng_blocks_.weighted_index(pool_weights_);
}

const btc::Transaction* Engine::pick_cpfp_parent() {
  while (!cpfp_candidates_.empty()) {
    // Prefer older stuck parents (front) with a light random skip so not
    // every child picks the same parent.
    const std::size_t idx =
        cpfp_candidates_.size() <= 1
            ? 0
            : static_cast<std::size_t>(rng_misc_.uniform_below(
                  std::min<std::uint64_t>(cpfp_candidates_.size(), 8)));
    const btc::Txid id = cpfp_candidates_[idx];
    const node::MempoolEntry* entry = canonical_.find(id);
    if (entry == nullptr) {
      cpfp_candidates_.erase(cpfp_candidates_.begin() +
                             static_cast<std::ptrdiff_t>(idx));
      continue;
    }
    // One child per parent: retire the candidate once used.
    cpfp_candidates_.erase(cpfp_candidates_.begin() +
                           static_cast<std::ptrdiff_t>(idx));
    ++stat_cpfp_decisions_;
    return &entry->tx;
  }
  return nullptr;
}

void Engine::request_acceleration(const btc::Transaction& tx) {
  if (accel_pool_indices_.empty()) return;
  // Users pick a service roughly proportionally to pool prominence.
  std::vector<double> weights;
  weights.reserve(accel_pool_indices_.size());
  for (std::size_t i : accel_pool_indices_) weights.push_back(pools_[i].hash_share());
  const std::size_t choice = rng_misc_.weighted_index(weights);
  const MiningPool& pool = pools_[accel_pool_indices_[choice]];
  const btc::Satoshi paid = acceleration_.quote(tx, rng_misc_);
  acceleration_.accelerate(tx.id(), pool.name(), paid);
}

const btc::Transaction* Engine::pick_rbf_original() {
  while (!rbf_candidates_.empty()) {
    const btc::Txid id = rbf_candidates_.front();
    rbf_candidates_.pop_front();
    const node::MempoolEntry* entry = canonical_.find(id);
    if (entry != nullptr) return &entry->tx;
  }
  return nullptr;
}

bool Engine::broadcast_tx(btc::Transaction tx, SimTime now) {
  const btc::Txid id = tx.id();
  const auto verdict = canonical_.accept(std::move(tx), now);
  if (verdict != node::AcceptResult::kAccepted) return false;

  CN_ASSERT(issued_count_ < std::numeric_limits<std::uint32_t>::max());
  const auto issue = static_cast<std::uint32_t>(issued_count_++);
  recent_broadcasts_.emplace_back(now, id);

  const node::Mempool::Handle h = canonical_.handle_of(id);
  CN_ASSERT(h != node::kNoMempoolHandle);
  if (h >= issue_of_handle_.size()) issue_of_handle_.resize(canonical_.slot_count());
  issue_of_handle_[h] = issue;
  committed_.push_back(false);
  in_flight_.emplace_back(canonical_.entry(h).tx);
  schedule(config_.propagation.arrival(id, kObserverNode, now),
           Event::Kind::kObserverDeliver, issue);
  return true;
}

void Engine::deliver_to_observer(std::uint32_t issue, SimTime now) {
  std::optional<btc::Transaction>& copy = in_flight_[issue - in_flight_base_];
  // A committed transaction is not delivered: the observer already
  // pruned its mempool on that block, so a late copy would stay queued
  // there for good.
  if (!committed_[issue]) observer_.on_transaction(std::move(*copy), now);
  copy.reset();
  while (!in_flight_.empty() && !in_flight_.front().has_value()) {
    in_flight_.pop_front();
    ++in_flight_base_;
  }
}

void Engine::handle_tx_issue(SimTime now) {
  WorkloadContext ctx;
  ctx.rec_p25 = rec_p25_;
  ctx.rec_p50 = rec_p50_;
  ctx.rec_p75 = rec_p75_;
  ctx.congestion = scaled_congestion(canonical_.total_vsize(), config_);

  // Replace-by-fee branch: an impatient user bumps their stuck payment
  // instead of issuing a new one.
  if (rng_misc_.chance(config_.workload.rbf_fraction)) {
    if (const btc::Transaction* original = pick_rbf_original()) {
      ++stat_rbf_decisions_;
      const std::uint64_t replaced_before = canonical_.replaced_count();
      btc::Transaction bump = workload_.make_rbf_replacement(now, *original, ctx);
      // `original` is invalidated by the accept below; do not touch it after.
      if (broadcast_tx(std::move(bump), now) &&
          canonical_.replaced_count() > replaced_before) {
        ++rbf_replacements_;
      }
      const SimTime next_rbf = workload_.next_arrival(now);
      if (next_rbf <= config_.duration) schedule(next_rbf, Event::Kind::kTxIssue);
      return;
    }
  }

  const double rate_now = std::max(workload_.rate_at(now), 1e-9);

  // Special-class coin flips (rates expressed per block / per hour are
  // converted to per-issue probabilities at the current arrival rate).
  const double p_self = config_.workload.self_interest_per_block /
                        (config_.mean_block_interval_s * rate_now);
  ctx.make_self_interest = rng_misc_.chance(std::min(p_self, 0.5));
  if (ctx.make_self_interest) {
    // Payout volume scales with size modulated by the pool's configured
    // intensity (real pools differ wildly here — see PoolSpec).
    const std::size_t pool_idx = rng_misc_.weighted_index(payout_weights_);
    const auto& wallets = pools_[pool_idx].wallets();
    ctx.pool_wallet = wallets[rng_misc_.uniform_below(wallets.size())];
  } else if (config_.workload.scam.has_value()) {
    const ScamConfig& scam = *config_.workload.scam;
    if (now >= scam.start && now < scam.end) {
      const double p_scam = scam.txs_per_hour / (3600.0 * rate_now);
      ctx.make_scam = rng_misc_.chance(std::min(p_scam, 0.5));
      ctx.scam_address = scam_address_;
    }
  }
  if (!ctx.make_self_interest && !ctx.make_scam) {
    ctx.cpfp_parent = pick_cpfp_parent();
  }

  GeneratedTx generated = workload_.make_transaction(now, ctx);
  const btc::Txid id = generated.tx.id();
  const bool ordinary = !generated.is_scam && !generated.is_self_interest &&
                        !generated.used_cpfp_parent;
  const bool low_fee = generated.tx.fee_rate().sat_per_vbyte() < rec_p50_;

  if (generated.is_scam) scam_txids_.push_back(id);
  if (generated.wants_acceleration) request_acceleration(generated.tx);

  const bool accepted = broadcast_tx(std::move(generated.tx), now);
  CN_ASSERT(accepted);  // fresh payments never conflict

  // Low-fee ordinary txs become future CPFP parents or RBF bump targets.
  if (ordinary && low_fee) {
    if (cpfp_candidates_.size() < 512) cpfp_candidates_.push_back(id);
    if (rbf_candidates_.size() < 256) rbf_candidates_.push_back(id);
  }

  // Next arrival.
  const SimTime next = workload_.next_arrival(now);
  if (next <= config_.duration) schedule(next, Event::Kind::kTxIssue);
}

void Engine::refresh_fee_percentiles() {
  // One partial selection over the window serves all three percentiles.
  static constexpr std::array<double, 3> kQuantiles{0.25, 0.50, 0.75};
  const std::vector<double> rates = estimator_.quantiles(kQuantiles);
  if (rates.empty()) return;
  rec_p25_ = std::max(rates[0], 1.0);
  rec_p50_ = std::max(rates[1], 1.0);
  rec_p75_ = std::max(rates[2], 1.0);
}

void Engine::prune_recent_broadcasts(SimTime now) {
  // Same expiry predicate the seed engine applied at block time; pruning
  // at every event is safe because event times are non-decreasing and
  // expired entries can never be excluded (their arrival is in the past).
  const auto cap = static_cast<SimTime>(config_.propagation.cap_seconds) + 1;
  while (!recent_broadcasts_.empty() &&
         recent_broadcasts_.front().first + cap < now) {
    recent_broadcasts_.pop_front();
  }
}

std::unordered_set<btc::Txid> Engine::propagation_exclude(
    SimTime now, const MiningPool& winner) {
  // Exclude transactions this pool has not yet heard of. The deque holds
  // only still-recent broadcasts (pruned once per event), so this scan is
  // bounded by the propagation cap window, not the run length.
  std::unordered_set<btc::Txid> exclude;
  if (!config_.propagation_exclusion) return exclude;
  for (const auto& [t_broadcast, id] : recent_broadcasts_) {
    if (!canonical_.contains(id)) continue;
    if (config_.propagation.arrival(id, winner.name(), t_broadcast) > now) {
      exclude.insert(id);
    }
  }
  return exclude;
}

void Engine::commit_block(SimTime now, MiningPool& winner,
                          node::BlockTemplate tpl) {
  btc::Coinbase coinbase;
  coinbase.tag = winner.coinbase_tag();
  coinbase.reward_address = winner.next_reward_wallet();
  coinbase.reward = (config_.fee_only ? btc::Satoshi{}
                                      : btc::block_subsidy(height_)) +
                    tpl.total_fees;

  for (const btc::Transaction& tx : tpl.txs) {
    const node::Mempool::Handle h = canonical_.handle_of(tx.id());
    CN_ASSERT(h != node::kNoMempoolHandle);
    committed_[issue_of_handle_[h]] = true;
    canonical_.remove(tx.id());
  }

  btc::Block block(height_, now, std::move(coinbase), std::move(tpl.txs));
  observer_.on_block(block);
  estimator_.on_block(block);
  refresh_fee_percentiles();
  chain_.append(std::move(block));
  ++height_;
}

void Engine::handle_block_found(SimTime now) {
  MiningPool& winner = pools_[pick_winner()];

  node::BlockTemplate tpl;
  if (!rng_blocks_.chance(config_.empty_block_fraction)) {
    std::unordered_set<btc::Txid> exclude = propagation_exclude(now, winner);

    PolicyContext ctx;
    ctx.now = now;
    ctx.height = height_;
    ctx.max_template_vsize = config_.max_block_vsize - btc::kCoinbaseVsize;
    ctx.pool_name = winner.name();
    ctx.own_wallets = &winner.wallet_set();
    for (const std::string& partner : winner.spec().accelerates_for) {
      for (const MiningPool& other : pools_) {
        if (other.name() == partner) ctx.partner_wallets.push_back(&other.wallet_set());
      }
    }
    if (winner.spec().offers_acceleration) ctx.acceleration = &acceleration_;

    tpl = winner.build_template(canonical_, ctx, std::move(exclude));
  }

  commit_block(now, winner, std::move(tpl));

  const auto gap = static_cast<SimTime>(
      rng_blocks_.exponential(1.0 / config_.mean_block_interval_s) + 0.5);
  const SimTime next = now + std::max<SimTime>(gap, 1);
  if (next <= config_.duration) schedule(next, Event::Kind::kBlockFound);
}

std::string SimTimeout::describe() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "deadline exceeded after %.1fs: reached t=%lld of %lld "
                "(%llu events, %llu blocks)",
                elapsed_s, static_cast<long long>(sim_time_reached),
                static_cast<long long>(sim_duration),
                static_cast<unsigned long long>(events_processed),
                static_cast<unsigned long long>(blocks_committed));
  return buf;
}

bool Engine::deadline_check(SimTime sim_now) {
  if (config_.deadline_s <= 0.0 || timeout_.timed_out) return timeout_.timed_out;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start_)
          .count();
  if (elapsed < config_.deadline_s) return false;
  timeout_.timed_out = true;
  timeout_.elapsed_s = elapsed;
  timeout_.sim_time_reached = sim_now;
  timeout_.sim_duration = config_.duration;
  timeout_.events_processed = stat_events_;
  timeout_.blocks_committed = chain_.size();
  return true;
}

void Engine::run_events() {
  schedule(workload_.next_arrival(0), Event::Kind::kTxIssue);
  const auto first_gap = static_cast<SimTime>(
      rng_blocks_.exponential(1.0 / config_.mean_block_interval_s) + 0.5);
  schedule(std::max<SimTime>(first_gap, 1), Event::Kind::kBlockFound);
  schedule(kSnapshotInterval, Event::Kind::kSnapshot);

  // The deadline is checked on a coarse event stride: cheap enough to
  // leave enabled, fine-grained enough to stop within a fraction of a
  // second of the budget.
  constexpr std::uint64_t kDeadlineStride = 4096;

  while (!queue_.empty()) {
    const Event ev = queue_.top();
    queue_.pop();
    if (ev.time > config_.duration) continue;
    ++stat_events_;
    if (stat_events_ % kDeadlineStride == 0 && deadline_check(ev.time)) break;
    prune_recent_broadcasts(ev.time);
    switch (ev.kind) {
      case Event::Kind::kTxIssue:
        handle_tx_issue(ev.time);
        break;
      case Event::Kind::kObserverDeliver:
        deliver_to_observer(ev.issue, ev.time);
        break;
      case Event::Kind::kBlockFound:
        handle_block_found(ev.time);
        break;
      case Event::Kind::kSnapshot:
        observer_.record_snapshot(ev.time);
        if (ev.time + kSnapshotInterval <= config_.duration) {
          schedule(ev.time + kSnapshotInterval, Event::Kind::kSnapshot);
        }
        break;
    }
  }
}

void Engine::flush_sim_metrics() {
  SimMetrics& m = sim_metrics();
  m.events.add(stat_events_);
  m.rbf.add(stat_rbf_decisions_);
  m.cpfp.add(stat_cpfp_decisions_);
}

SimResult Engine::run() {
  CN_ASSERT(!ran_);
  ran_ = true;
  const obs::Span span("sim.run");
  run_start_ = std::chrono::steady_clock::now();

  run_events();
  flush_sim_metrics();

  SimResult result;
  result.config = config_;
  result.chain = std::move(chain_);
  result.observer = std::move(observer_);
  result.acceleration = std::move(acceleration_);
  for (const MiningPool& pool : pools_) {
    result.pool_wallets.emplace(pool.name(), pool.wallets());
  }
  result.scam_address = scam_address_;
  result.scam_txids = std::move(scam_txids_);
  result.issued_count = issued_count_;
  result.rbf_replacements = rbf_replacements_;
  result.timeout = timeout_;
  return result;
}

}  // namespace cn::sim

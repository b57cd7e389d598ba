#include "daemon/accumulators.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

#include "core/ppe.hpp"
#include "core/sppe.hpp"
#include "daemon/wire.hpp"
#include "stats/binomial.hpp"

namespace cn::daemon {

namespace {

// Flag bits for the serialized SeenTx log.
constexpr std::uint8_t kSeenCpfp = 1u << 0;
constexpr std::uint8_t kSeenCpfpParent = 1u << 1;

void json_escape(const std::string& s, std::string& out) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void json_double(double v, std::string& out) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void json_u64(std::uint64_t v, std::string& out) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

}  // namespace

std::uint64_t AccumulatorOptions::fingerprint() const noexcept {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.f64(neutrality.sppe_boost_threshold);
  w.u64(neutrality.min_blocks);
  w.f64(neutrality.alpha);
  w.i64(pair_epsilon);
  w.u8(pair_exclude_cpfp ? 1 : 0);
  w.u64(congestion_unit_vsize);
  return fnv1a(bytes.data(), bytes.size());
}

AuditAccumulators::AuditAccumulators(const btc::CoinbaseTagRegistry& registry,
                                     AccumulatorOptions options)
    : registry_(&registry),
      options_(options),
      pair_counter_(options.pair_epsilon, options.pair_exclude_cpfp) {}

std::uint32_t AuditAccumulators::intern(const std::string& name) {
  const auto [it, inserted] =
      pool_ids_.try_emplace(name, static_cast<std::uint32_t>(pools_.size()));
  if (inserted) {
    pools_.emplace_back();
    pools_.back().name = name;
  }
  return it->second;
}

void AuditAccumulators::learn_wallet(std::uint32_t pool, btc::Address address) {
  if (!pools_[pool].wallets.insert(address).second) return;
  auto& owners = wallet_owner_[address];
  if (std::find(owners.begin(), owners.end(), pool) == owners.end()) {
    owners.push_back(pool);
  }
}

void AuditAccumulators::apply_block(const btc::Block& block,
                                    const core::FirstSeenFn& first_seen,
                                    std::uint64_t seq) {
  last_seq_ = seq;
  ++total_blocks_;
  total_txs_ += block.tx_count();

  // (1) Attribute and learn the coinbase wallet FIRST, so a pool's own
  // block can flag transactions paying its freshly-announced wallet —
  // the closest prequential analogue of the batch retrospective scan.
  const auto owner_name = registry_->identify(block.coinbase().tag);
  std::uint32_t owner = ~std::uint32_t{0};
  if (owner_name.has_value()) {
    owner = intern(*owner_name);
    learn_wallet(owner, block.coinbase().reward_address);
  } else {
    ++unidentified_;
  }

  // (2) Per-pool ordering norms — identical arithmetic to
  // core::report_for_pool, one block at a time.
  const std::vector<std::size_t> cpfp = block.cpfp_positions();
  std::unordered_set<btc::Txid> rescued_parents;
  for (std::size_t pos : cpfp) {
    for (const btc::TxInput& in : block.txs()[pos].inputs()) {
      if (!in.prev_txid.is_null()) rescued_parents.insert(in.prev_txid);
    }
  }
  const std::vector<double> sppe = core::block_sppe(block);
  if (owner != ~std::uint32_t{0}) {
    PoolState& p = pools_[owner];
    ++p.blocks;
    p.txs += block.tx_count();
    if (const auto ppe = core::block_ppe(block); ppe.has_value()) {
      p.ppe_sum += *ppe;
      ++p.ppe_blocks;
    }
    for (double s : sppe) {
      if (s >= options_.neutrality.sppe_boost_threshold) ++p.boosted;
    }
    for (const btc::Transaction& tx : block.txs()) {
      if (tx.fee_rate() < btc::FeeRate::from_sat_per_vb(1) &&
          !rescued_parents.contains(tx.id())) {
        ++p.floor_blocks;
        break;
      }
    }
  }

  // (3) Self-interest scan against every pool's currently-known wallets
  // (prequential: see the header contract). One pass over the block's
  // transactions collects, per pool, whether this block is a c-block
  // and the SPPE of own transactions inside own blocks.
  std::unordered_set<std::uint32_t> c_pools;
  for (std::size_t i = 0; i < block.txs().size(); ++i) {
    const btc::Transaction& tx = block.txs()[i];
    // The pools this transaction involves (spends from or pays to).
    std::unordered_set<std::uint32_t> involved;
    for (const btc::TxInput& in : tx.inputs()) {
      const auto it = wallet_owner_.find(in.owner);
      if (it != wallet_owner_.end()) involved.insert(it->second.begin(), it->second.end());
    }
    for (const btc::TxOutput& out : tx.outputs()) {
      const auto it = wallet_owner_.find(out.to);
      if (it != wallet_owner_.end()) involved.insert(it->second.begin(), it->second.end());
    }
    for (std::uint32_t pool : involved) {
      c_pools.insert(pool);
      if (pool == owner && i < sppe.size()) {
        pools_[pool].own_sppe_sum += sppe[i];
        ++pools_[pool].own_sppe_count;
      }
    }
  }
  for (std::uint32_t pool : c_pools) {
    ++pools_[pool].self_y;
    if (pool == owner) ++pools_[pool].self_x;
  }

  // (4) Append this block's observer-visible transactions to the
  // pair-violation event log (mirrors core::collect_seen_txs).
  std::unordered_set<std::size_t> parent_positions;
  if (!cpfp.empty()) {
    for (std::size_t i = 0; i < block.txs().size(); ++i) {
      if (rescued_parents.contains(block.txs()[i].id())) parent_positions.insert(i);
    }
  }
  std::size_t next_cpfp = 0;
  for (std::size_t i = 0; i < block.txs().size(); ++i) {
    const bool is_cpfp = next_cpfp < cpfp.size() && cpfp[next_cpfp] == i;
    if (is_cpfp) ++next_cpfp;
    const auto seen = first_seen ? first_seen(block.txs()[i].id()) : std::nullopt;
    if (!seen.has_value()) continue;
    core::SeenTx t;
    t.first_seen = *seen;
    t.fee_rate = block.txs()[i].fee_rate().sat_per_vbyte();
    t.block_height = block.height();
    t.cpfp = is_cpfp;
    t.cpfp_parent = parent_positions.contains(i);
    seen_txs_.push_back(t);
  }
}

void AuditAccumulators::apply_snapshot(const node::MempoolStat& snapshot,
                                       std::uint64_t seq) {
  last_seq_ = seq;
  ++snapshot_count_;
  pending_tx_sum_ += snapshot.tx_count;
  max_total_vsize_ = std::max(max_total_vsize_, snapshot.total_vsize);
  const auto level = node::congestion_level(snapshot.total_vsize,
                                            options_.congestion_unit_vsize);
  ++congestion_levels_[static_cast<int>(level)];
}

AuditAccumulators::Report AuditAccumulators::seal() const {
  Report report;
  report.version = last_seq_;
  report.blocks = total_blocks_;
  report.txs = total_txs_;
  report.unidentified_blocks = unidentified_;
  report.snapshots = snapshot_count_;
  if (snapshot_count_ > 0) {
    report.mean_pending_txs = static_cast<double>(pending_tx_sum_) /
                              static_cast<double>(snapshot_count_);
  }
  report.max_total_vsize = max_total_vsize_;
  for (int i = 0; i < 4; ++i) report.congestion_levels[i] = congestion_levels_[i];

  // A feed in height order appends blocks committed after every counted
  // one, so only the new entries need counting. Any other feed (a height
  // replayed or gone back) recounts the whole log from empty.
  const std::span<const core::SeenTx> log(seen_txs_);
  if (!pair_counter_.add(log.subspan(pairs_counted_))) {
    pair_counter_.clear();
    pair_counter_.add(log);
  }
  pairs_counted_ = log.size();
  report.pairs = pair_counter_.stats();

  const core::NeutralityOptions& n = options_.neutrality;
  for (const PoolState& p : pools_) {
    if (p.blocks < n.min_blocks || p.blocks == 0) continue;
    core::NeutralityReport r;
    r.pool = p.name;
    r.blocks = p.blocks;
    r.txs = p.txs;
    if (p.ppe_blocks > 0) {
      r.mean_ppe = p.ppe_sum / static_cast<double>(p.ppe_blocks);
    }
    if (p.txs > 0) {
      r.boosted_tx_rate =
          static_cast<double>(p.boosted) / static_cast<double>(p.txs);
    }
    r.below_floor_block_rate =
        static_cast<double>(p.floor_blocks) / static_cast<double>(p.blocks);
    if (p.self_y > 0 && total_blocks_ > 0) {
      const double theta0 = static_cast<double>(p.blocks) /
                            static_cast<double>(total_blocks_);
      r.self_dealing_p = stats::acceleration_p_value(p.self_x, p.self_y, theta0);
      if (p.own_sppe_count > 0) {
        r.self_dealing_sppe =
            p.own_sppe_sum / static_cast<double>(p.own_sppe_count);
      }
      r.self_dealing_flagged = r.self_dealing_p < n.alpha && p.self_y >= n.min_blocks;
    }
    r.score = core::neutrality_score(r, n);
    report.neutrality.push_back(std::move(r));
  }
  std::sort(report.neutrality.begin(), report.neutrality.end(),
            [](const core::NeutralityReport& a, const core::NeutralityReport& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.pool < b.pool;
            });
  return report;
}

std::string AuditAccumulators::to_json(const Report& report) {
  std::string out;
  out.reserve(1024 + report.neutrality.size() * 256);
  out += "{\"schema\":\"cnauditd/v1\",\"version\":";
  json_u64(report.version, out);
  out += ",\"blocks\":";
  json_u64(report.blocks, out);
  out += ",\"txs\":";
  json_u64(report.txs, out);
  out += ",\"unidentified_blocks\":";
  json_u64(report.unidentified_blocks, out);
  out += ",\"snapshots\":";
  json_u64(report.snapshots, out);
  out += ",\"congestion\":{\"mean_pending_txs\":";
  json_double(report.mean_pending_txs, out);
  out += ",\"max_total_vsize\":";
  json_u64(report.max_total_vsize, out);
  out += ",\"levels\":[";
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out += ',';
    json_u64(report.congestion_levels[i], out);
  }
  out += "]},\"pairs\":{\"predicted\":";
  json_u64(report.pairs.predicted_pairs, out);
  out += ",\"violations\":";
  json_u64(report.pairs.violations, out);
  out += ",\"fraction\":";
  json_double(report.pairs.fraction(), out);
  out += "},\"pools\":[";
  bool first = true;
  for (const core::NeutralityReport& r : report.neutrality) {
    if (!first) out += ',';
    first = false;
    out += "{\"pool\":\"";
    json_escape(r.pool, out);
    out += "\",\"blocks\":";
    json_u64(r.blocks, out);
    out += ",\"txs\":";
    json_u64(r.txs, out);
    out += ",\"mean_ppe\":";
    json_double(r.mean_ppe, out);
    out += ",\"boosted_tx_rate\":";
    json_double(r.boosted_tx_rate, out);
    out += ",\"self_dealing_p\":";
    json_double(r.self_dealing_p, out);
    out += ",\"self_dealing_sppe\":";
    json_double(r.self_dealing_sppe, out);
    out += ",\"self_dealing_flagged\":";
    out += r.self_dealing_flagged ? "true" : "false";
    out += ",\"below_floor_block_rate\":";
    json_double(r.below_floor_block_rate, out);
    out += ",\"score\":";
    json_double(r.score, out);
    out += '}';
  }
  out += "]}";
  return out;
}

void AuditAccumulators::encode(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.u64(last_seq_);
  w.u64(total_blocks_);
  w.u64(total_txs_);
  w.u64(unidentified_);
  w.u64(snapshot_count_);
  w.u64(pending_tx_sum_);
  w.u64(max_total_vsize_);
  for (int i = 0; i < 4; ++i) w.u64(congestion_levels_[i]);

  w.u64(pools_.size());
  for (const PoolState& p : pools_) {
    w.str(p.name);
    w.u64(p.blocks);
    w.u64(p.txs);
    w.f64(p.ppe_sum);
    w.u64(p.ppe_blocks);
    w.u64(p.boosted);
    w.u64(p.floor_blocks);
    w.u64(p.self_x);
    w.u64(p.self_y);
    w.f64(p.own_sppe_sum);
    w.u64(p.own_sppe_count);
    // Sorted so equal states serialize to equal bytes regardless of
    // hash-set iteration order.
    std::vector<btc::Address> wallets(p.wallets.begin(), p.wallets.end());
    std::sort(wallets.begin(), wallets.end());
    w.u64(wallets.size());
    for (const btc::Address& a : wallets) w.u64(a.value);
  }

  w.u64(seen_txs_.size());
  for (const core::SeenTx& t : seen_txs_) {
    w.i64(t.first_seen);
    w.f64(t.fee_rate);
    w.u64(t.block_height);
    std::uint8_t flags = 0;
    if (t.cpfp) flags |= kSeenCpfp;
    if (t.cpfp_parent) flags |= kSeenCpfpParent;
    w.u8(flags);
  }
}

bool AuditAccumulators::decode(const std::uint8_t* data, std::size_t size,
                               std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  ByteReader r(data, size);

  pools_.clear();
  pool_ids_.clear();
  wallet_owner_.clear();
  seen_txs_.clear();
  pair_counter_.clear();
  pairs_counted_ = 0;

  if (!r.u64(last_seq_) || !r.u64(total_blocks_) || !r.u64(total_txs_) ||
      !r.u64(unidentified_) || !r.u64(snapshot_count_) ||
      !r.u64(pending_tx_sum_) || !r.u64(max_total_vsize_)) {
    return fail("truncated accumulator totals");
  }
  for (int i = 0; i < 4; ++i) {
    if (!r.u64(congestion_levels_[i])) return fail("truncated congestion bins");
  }

  std::uint64_t pool_count = 0;
  if (!r.u64(pool_count)) return fail("truncated pool count");
  // Sanity bound: each pool costs >= 11*8 bytes on the wire.
  if (pool_count > size / 88 + 1) return fail("implausible pool count");
  pools_.reserve(pool_count);
  for (std::uint64_t i = 0; i < pool_count; ++i) {
    PoolState p;
    std::uint64_t wallet_count = 0;
    if (!r.str(p.name) || !r.u64(p.blocks) || !r.u64(p.txs) ||
        !r.f64(p.ppe_sum) || !r.u64(p.ppe_blocks) || !r.u64(p.boosted) ||
        !r.u64(p.floor_blocks) || !r.u64(p.self_x) || !r.u64(p.self_y) ||
        !r.f64(p.own_sppe_sum) || !r.u64(p.own_sppe_count) ||
        !r.u64(wallet_count)) {
      return fail("truncated pool record");
    }
    if (wallet_count > r.remaining() / 8) return fail("implausible wallet count");
    const std::uint32_t id = static_cast<std::uint32_t>(pools_.size());
    if (!pool_ids_.try_emplace(p.name, id).second) {
      return fail("duplicate pool name");
    }
    for (std::uint64_t wi = 0; wi < wallet_count; ++wi) {
      std::uint64_t raw = 0;
      if (!r.u64(raw)) return fail("truncated wallet list");
      const btc::Address a{raw};
      p.wallets.insert(a);
      wallet_owner_[a].push_back(id);
    }
    pools_.push_back(std::move(p));
  }

  std::uint64_t seen_count = 0;
  if (!r.u64(seen_count)) return fail("truncated event-log length");
  if (seen_count > r.remaining() / 25) return fail("implausible event-log length");
  seen_txs_.reserve(seen_count);
  for (std::uint64_t i = 0; i < seen_count; ++i) {
    core::SeenTx t;
    std::uint8_t flags = 0;
    if (!r.i64(t.first_seen) || !r.f64(t.fee_rate) || !r.u64(t.block_height) ||
        !r.u8(flags)) {
      return fail("truncated event-log entry");
    }
    t.cpfp = (flags & kSeenCpfp) != 0;
    t.cpfp_parent = (flags & kSeenCpfpParent) != 0;
    seen_txs_.push_back(t);
  }
  if (r.remaining() != 0) return fail("trailing bytes after accumulator state");
  return true;
}

}  // namespace cn::daemon

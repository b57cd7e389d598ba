#include "daemon/accumulators.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

#include "core/audit_dataset.hpp"
#include "util/bytes.hpp"

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
  util::ByteWriter w(bytes);
  w.f64(neutrality.sppe_boost_threshold);
  w.u64(neutrality.min_blocks);
  w.f64(neutrality.alpha);
  w.i64(kPairEpsilon);
  w.u8(kPairExcludeCpfp ? 1 : 0);
  w.u64(kCongestionUnitVsize);
  return util::fnv1a(bytes.data(), bytes.size());
}

AuditAccumulators::AuditAccumulators(const btc::CoinbaseTagRegistry& registry,
                                     AccumulatorOptions options)
    : registry_(&registry),
      options_(options),
      pair_counter_(kPairEpsilon, kPairExcludeCpfp) {}

std::uint32_t AuditAccumulators::intern(const std::string& name) {
  const auto [it, inserted] =
      pool_ids_.try_emplace(name, static_cast<std::uint32_t>(pools_.size()));
  if (inserted) {
    pools_.emplace_back();
    pools_.back().name = name;
  }
  return it->second;
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
  std::uint32_t owner = core::kNoPoolId;
  if (owner_name.has_value()) {
    owner = intern(*owner_name);
    pools_[owner].wallets.insert(block.coinbase().reward_address);
    wallets_.add(block.coinbase().reward_address, owner);
  } else {
    ++unidentified_;
  }

  // (2) The block's columns, as the batch dataset caches them, feed the
  // miner's ordering norms.
  const std::size_t n = block.tx_count();
  std::vector<double> sppe(n);
  std::vector<std::uint8_t> flags(n);
  const double ppe = core::block_columns(block, sppe, flags);
  if (owner != core::kNoPoolId) {
    pools_[owner].tally.add_mined_block(ppe, sppe, flags, options_.neutrality);
  }

  // (3) Self-interest against every pool's currently-known wallets
  // (prequential: see the header contract). The block is a c-block of
  // every pool a transaction involves; the miner's own transactions
  // also carry their SPPE.
  std::vector<core::PoolId> c_pools;
  std::vector<core::PoolId> involved;
  std::vector<double> own_sppe;
  for (std::size_t i = 0; i < n; ++i) {
    wallets_.pools_of(block.txs()[i], involved);
    for (const core::PoolId pool : involved) {
      if (std::find(c_pools.begin(), c_pools.end(), pool) == c_pools.end()) {
        c_pools.push_back(pool);
      }
      if (pool == owner) own_sppe.push_back(sppe[i]);
    }
  }
  for (const core::PoolId pool : c_pools) {
    pools_[pool].tally.add_c_block(pool == owner, own_sppe);
  }

  // (4) Append this block's observer-visible transactions to the
  // pair-violation event log.
  for (std::size_t i = 0; i < n; ++i) {
    const btc::Transaction& tx = block.txs()[i];
    const auto seen = first_seen ? first_seen(tx.id()) : std::nullopt;
    if (!seen.has_value()) continue;
    seen_txs_.push_back({*seen, tx.fee_rate().sat_per_vbyte(), block.height(),
                         (flags[i] & core::kTxCpfpChild) != 0,
                         (flags[i] & core::kTxCpfpParent) != 0});
  }
}

void AuditAccumulators::apply_snapshot(const node::MempoolStat& snapshot,
                                       std::uint64_t seq) {
  last_seq_ = seq;
  ++snapshot_count_;
  pending_tx_sum_ += snapshot.tx_count;
  max_total_vsize_ = std::max(max_total_vsize_, snapshot.total_vsize);
  const auto level = node::congestion_level(snapshot.total_vsize,
                                            kCongestionUnitVsize);
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
    if (p.tally.blocks < n.min_blocks || p.tally.blocks == 0) continue;
    report.neutrality.push_back(
        core::neutrality_report(p.name, p.tally, total_blocks_, n));
  }
  core::sort_worst_first(report.neutrality);
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
  util::ByteWriter w(out);
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
    const core::NeutralityTally& t = p.tally;
    w.str(p.name);
    w.u64(t.blocks);
    w.u64(t.txs);
    w.f64(t.ppe_sum);
    w.u64(t.ppe_blocks);
    w.u64(t.boosted);
    w.u64(t.floor_blocks);
    w.u64(t.self_x);
    w.u64(t.self_y);
    w.f64(t.own_sppe_sum);
    w.u64(t.own_sppe_count);
    w.u64(p.wallets.size());
    for (const btc::Address& a : p.wallets) w.u64(a.value);
  }
}

void AuditAccumulators::encode_log(std::size_t from,
                                   std::vector<std::uint8_t>& out) const {
  out.reserve(out.size() + (seen_txs_.size() - from) * kLogRecordBytes);
  util::ByteWriter w(out);
  for (std::size_t i = from; i < seen_txs_.size(); ++i) {
    const core::SeenTx& t = seen_txs_[i];
    w.i64(t.first_seen);
    w.f64(t.fee_rate);
    w.u64(t.block_height);
    std::uint8_t flags = 0;
    if (t.cpfp) flags |= kSeenCpfp;
    if (t.cpfp_parent) flags |= kSeenCpfpParent;
    w.u8(flags);
  }
}

bool AuditAccumulators::decode_log(const std::uint8_t* data, std::size_t size,
                                   std::string* error) {
  if (size % kLogRecordBytes != 0) {
    if (error != nullptr) *error = "truncated event-log entry";
    return false;
  }
  util::ByteReader r(data, size);
  seen_txs_.reserve(seen_txs_.size() + size / kLogRecordBytes);
  // Whole records only, so none of the reads below can run short.
  while (r.remaining() != 0) {
    core::SeenTx t;
    std::uint8_t flags = 0;
    r.i64(t.first_seen);
    r.f64(t.fee_rate);
    r.u64(t.block_height);
    r.u8(flags);
    t.cpfp = (flags & kSeenCpfp) != 0;
    t.cpfp_parent = (flags & kSeenCpfpParent) != 0;
    seen_txs_.push_back(t);
  }
  return true;
}

bool AuditAccumulators::decode(const std::uint8_t* data, std::size_t size,
                               std::string* error) {
  const auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  util::ByteReader r(data, size);

  pools_.clear();
  pool_ids_.clear();
  wallets_ = {};
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
    core::NeutralityTally& t = p.tally;
    std::uint64_t wallet_count = 0;
    if (!r.str(p.name) || !r.u64(t.blocks) || !r.u64(t.txs) ||
        !r.f64(t.ppe_sum) || !r.u64(t.ppe_blocks) || !r.u64(t.boosted) ||
        !r.u64(t.floor_blocks) || !r.u64(t.self_x) || !r.u64(t.self_y) ||
        !r.f64(t.own_sppe_sum) || !r.u64(t.own_sppe_count) ||
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
      wallets_.add(a, id);
    }
    pools_.push_back(std::move(p));
  }
  if (r.remaining() != 0) return fail("trailing bytes after accumulator state");
  return true;
}

}  // namespace cn::daemon

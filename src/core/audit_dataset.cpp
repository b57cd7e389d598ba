#include "core/audit_dataset.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "core/ppe.hpp"
#include "core/sppe.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace cn::core {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}

/// Build telemetry (DESIGN.md §10). Intern hits/misses are tallied into
/// plain locals inside the scan and recorded once at the end, so the
/// per-output path costs nothing beyond the comparison it already does.
struct BuildMetrics {
  obs::Counter builds{"core.audit_dataset.builds"};
  obs::Counter blocks{"core.audit_dataset.blocks"};
  obs::Counter txs{"core.audit_dataset.txs"};
  obs::Counter intern_hits{"core.audit_dataset.intern_hits"};
  obs::Counter intern_misses{"core.audit_dataset.intern_misses"};
  obs::Gauge memory_bytes{"core.audit_dataset.memory_bytes"};
  obs::Gauge bytes_per_tx{"core.audit_dataset.bytes_per_tx"};
};

BuildMetrics& build_metrics() {
  static BuildMetrics* m = new BuildMetrics();  // interned once per process
  return *m;
}

/// Each pool's distinct reward wallets, ascending: the coinbase reward
/// address of every block attributed to it (Figure 8a).
std::vector<std::vector<btc::Address>> reward_wallets_of(
    std::span<const PoolId> block_pool, std::span<const btc::Address> reward,
    std::size_t npools) {
  std::vector<std::vector<btc::Address>> wallets(npools);
  for (std::size_t b = 0; b < block_pool.size(); ++b) {
    if (block_pool[b] != kNoPoolId) wallets[block_pool[b]].push_back(reward[b]);
  }
  for (std::vector<btc::Address>& w : wallets) {
    std::sort(w.begin(), w.end());
    w.erase(std::unique(w.begin(), w.end()), w.end());
  }
  return wallets;
}

}  // namespace

void block_flags(const btc::Block& block, std::span<std::uint8_t> flags) {
  const std::span<const btc::Transaction> txs = block.txs();
  CN_ASSERT(flags.size() == txs.size());
  const btc::FeeRate floor = btc::FeeRate::from_sat_per_vb(1);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    flags[i] = txs[i].fee_rate() < floor ? kTxBelowFloor : 0;
  }
  const std::vector<std::size_t> cpfp = block.cpfp_positions();
  if (cpfp.empty()) return;
  std::unordered_set<btc::Txid> parents;
  for (const std::size_t pos : cpfp) {
    flags[pos] |= kTxCpfpChild;
    for (const btc::TxInput& in : txs[pos].inputs()) {
      if (!in.prev_txid.is_null()) parents.insert(in.prev_txid);
    }
  }
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (parents.contains(txs[i].id())) flags[i] |= kTxCpfpParent;
  }
}

double block_columns(const btc::Block& block, std::span<double> sppe,
                     std::span<std::uint8_t> flags) {
  CN_ASSERT(sppe.size() == block.tx_count());
  const std::vector<double> block_sppe = core::block_sppe(block);
  for (std::size_t i = 0; i < sppe.size(); ++i) {
    sppe[i] = block_sppe.empty() ? kNaN : block_sppe[i];
  }
  block_flags(block, flags);
  return core::block_ppe(block).value_or(kNaN);
}

AuditDataset AuditDataset::build(const btc::Chain& chain,
                                 const btc::CoinbaseTagRegistry& registry,
                                 unsigned threads,
                                 const btc::AddressTable* interned_addresses) {
  const obs::Span span("core.audit_dataset.build");
  AuditDataset ds;
  ds.registry_fingerprint_ = registry.fingerprint();
  const std::size_t nblocks = chain.size();
  if (interned_addresses != nullptr) ds.addresses_ = *interned_addresses;

  // Pass 1 (serial): attribution, block columns and the tx offset table.
  // Pools are interned in chain order of first appearance.
  std::vector<btc::Address> rewards;
  rewards.reserve(nblocks);
  ds.block_height_.reserve(nblocks);
  ds.block_mined_at_.reserve(nblocks);
  ds.block_pool_.reserve(nblocks);
  ds.block_fees_.reserve(nblocks);
  ds.tx_begin_.reserve(nblocks + 1);
  std::size_t ntxs = 0;
  for (const btc::Block& block : chain.blocks()) {
    PoolId pool = kNoPoolId;
    if (const auto name = registry.identify(block.coinbase().tag)) {
      pool = ds.pool_id(*name);
      if (pool == kNoPoolId) {
        pool = static_cast<PoolId>(ds.pool_names_.size());
        ds.pool_names_.push_back(*name);
      }
    } else {
      ++ds.unidentified_blocks_;
    }
    ds.block_height_.push_back(block.height());
    ds.block_mined_at_.push_back(block.mined_at());
    ds.block_pool_.push_back(pool);
    rewards.push_back(block.coinbase().reward_address);
    ds.block_fees_.push_back(block.total_fees().value);
    ds.tx_begin_.push_back(static_cast<TxIdx>(ntxs));
    ntxs += block.tx_count();
  }
  CN_ASSERT(ntxs < static_cast<std::size_t>(~TxIdx{0}));
  ds.tx_begin_.push_back(static_cast<TxIdx>(ntxs));
  const std::size_t npools = ds.pool_names_.size();

  // Per-pool block lists, tx counts and wallets fall straight out of
  // pass 1.
  ds.pool_blocks_.resize(npools);
  ds.pool_tx_counts_.assign(npools, 0);
  for (std::size_t b = 0; b < nblocks; ++b) {
    const PoolId p = ds.block_pool_[b];
    if (p == kNoPoolId) continue;
    ds.pool_blocks_[p].push_back(static_cast<std::uint32_t>(b));
    ds.pool_tx_counts_[p] += ds.tx_begin_[b + 1] - ds.tx_begin_[b];
  }
  ds.pools_by_blocks_.resize(npools);
  std::iota(ds.pools_by_blocks_.begin(), ds.pools_by_blocks_.end(), PoolId{0});
  std::sort(ds.pools_by_blocks_.begin(), ds.pools_by_blocks_.end(),
            [&ds](PoolId a, PoolId b) {
              if (ds.blocks_of(a) != ds.blocks_of(b)) {
                return ds.blocks_of(a) > ds.blocks_of(b);
              }
              return ds.pool_names_[a] < ds.pool_names_[b];
            });
  ds.reward_wallets_ = reward_wallets_of(ds.block_pool_, rewards, npools);

  // Every wallet any pool names, known before the self-interest scan.
  WalletIndex wallets;
  for (PoolId p = 0; p < npools; ++p) {
    for (const btc::Address& a : ds.reward_wallets_[p]) wallets.add(a, p);
  }

  // Pass 2 (serial): transaction columns, interned outputs, and the
  // per-pool self-interest lists — one chain scan instead of one per
  // pool. TxIdx ascends with (block, position), so every per-pool list
  // comes out ascending for free.
  ds.fee_rate_.resize(ntxs);
  ds.vsize_.resize(ntxs);
  ds.issued_.resize(ntxs);
  ds.txid_.resize(ntxs);
  ds.tx_block_.resize(ntxs);
  ds.out_begin_.reserve(ntxs + 1);
  ds.self_interest_.resize(npools);

  std::vector<PoolId> involved;
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_misses = 0;
  TxIdx t = 0;
  std::uint32_t out_off = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const btc::Block& block = chain.blocks()[b];
    for (const btc::Transaction& tx : block.txs()) {
      ds.fee_rate_[t] = tx.fee_rate().sat_per_vbyte();
      ds.vsize_[t] = tx.vsize();
      ds.issued_[t] = tx.issued();
      ds.txid_[t] = tx.id();
      ds.tx_block_[t] = static_cast<std::uint32_t>(b);

      ds.out_begin_.push_back(out_off);
      for (const btc::TxOutput& o : tx.outputs()) {
        const std::size_t before = ds.addresses_.size();
        ds.out_addr_.push_back(ds.addresses_.intern(o.to));
        if (ds.addresses_.size() == before) {
          ++intern_hits;
        } else {
          ++intern_misses;
        }
        ++out_off;
      }

      wallets.pools_of(tx, involved);
      for (const PoolId p : involved) ds.self_interest_[p].push_back(t);
      ++t;
    }
  }
  ds.out_begin_.push_back(out_off);

  // Pass 3 (parallel per block): the cached norm columns. Each task
  // writes only its own block's slots, so the cached doubles are bitwise
  // identical at every thread count.
  ds.block_ppe_.resize(nblocks);
  ds.sppe_.resize(ntxs);
  ds.tx_flags_.resize(ntxs);
  util::ThreadPool workers(threads);
  workers.parallel_for(nblocks, [&](std::size_t b) {
    const TxIdx begin = ds.tx_begin_[b];
    const std::size_t n = ds.tx_begin_[b + 1] - begin;
    ds.block_ppe_[b] =
        block_columns(chain.blocks()[b], std::span<double>(ds.sppe_).subspan(begin, n),
                      std::span<std::uint8_t>(ds.tx_flags_).subspan(begin, n));
  });

  BuildMetrics& m = build_metrics();
  m.builds.add();
  m.blocks.add(nblocks);
  m.txs.add(ntxs);
  m.intern_hits.add(intern_hits);
  m.intern_misses.add(intern_misses);
  const std::size_t bytes = ds.memory_bytes();
  m.memory_bytes.set(static_cast<double>(bytes));
  m.bytes_per_tx.set(ntxs == 0 ? 0.0
                               : static_cast<double>(bytes) /
                                     static_cast<double>(ntxs));
  return ds;
}

AuditDataset AuditDataset::restore(AuditDatasetColumns&& columns) {
  const obs::Span span("core.audit_dataset.restore");
  AuditDataset ds;
  ds.registry_fingerprint_ = columns.registry_fingerprint;
  ds.pool_names_ = std::move(columns.pool_names);
  ds.pools_by_blocks_ = std::move(columns.pools_by_blocks);
  ds.block_height_ = std::move(columns.block_height);
  ds.block_mined_at_ = std::move(columns.block_mined_at);
  ds.block_pool_ = std::move(columns.block_pool);
  ds.block_fees_ = std::move(columns.block_fees);
  ds.block_ppe_ = std::move(columns.block_ppe);
  ds.tx_begin_ = std::move(columns.tx_begin);
  ds.fee_rate_ = std::move(columns.fee_rate);
  ds.vsize_ = std::move(columns.vsize);
  ds.issued_ = std::move(columns.issued);
  ds.txid_ = std::move(columns.txid);
  ds.tx_flags_ = std::move(columns.tx_flags);
  ds.sppe_ = std::move(columns.sppe);
  ds.addresses_ = std::move(columns.addresses);
  ds.out_begin_ = std::move(columns.out_begin);
  ds.out_addr_ = std::move(columns.out_addr);
  ds.pool_blocks_ = std::move(columns.pool_blocks);
  ds.pool_tx_counts_ = std::move(columns.pool_tx_counts);
  ds.self_interest_ = std::move(columns.self_interest);

  CN_ASSERT(ds.tx_begin_.size() == ds.block_height_.size() + 1);
  CN_ASSERT(ds.out_begin_.size() == ds.fee_rate_.size() + 1);
  CN_ASSERT(columns.block_reward.size() == ds.block_pool_.size());
  ds.unidentified_blocks_ = static_cast<std::uint64_t>(
      std::count(ds.block_pool_.begin(), ds.block_pool_.end(), kNoPoolId));
  ds.reward_wallets_ =
      reward_wallets_of(ds.block_pool_, columns.block_reward, ds.pool_names_.size());
  ds.tx_block_.resize(ds.fee_rate_.size());
  for (std::size_t b = 0; b + 1 < ds.tx_begin_.size(); ++b) {
    for (TxIdx t = ds.tx_begin_[b]; t < ds.tx_begin_[b + 1]; ++t) {
      ds.tx_block_[t] = static_cast<std::uint32_t>(b);
    }
  }
  return ds;
}

const std::string& AuditDataset::pool_name(PoolId id) const {
  CN_ASSERT(id < pool_names_.size());
  return pool_names_[id];
}

PoolId AuditDataset::pool_id(std::string_view name) const noexcept {
  for (PoolId id = 0; id < pool_names_.size(); ++id) {
    if (pool_names_[id] == name) return id;
  }
  return kNoPoolId;
}

std::span<const btc::Address> AuditDataset::reward_wallets(PoolId id) const {
  static const std::vector<btc::Address> kEmpty;
  return id < reward_wallets_.size() ? std::span<const btc::Address>(reward_wallets_[id])
                                     : std::span<const btc::Address>(kEmpty);
}

PoolId AuditDataset::pool_at(std::uint64_t height) const noexcept {
  if (block_height_.empty() || height < block_height_.front()) return kNoPoolId;
  const std::uint64_t b = height - block_height_.front();
  return b < block_pool_.size() ? block_pool_[b] : kNoPoolId;
}

double AuditDataset::hash_share(PoolId id) const noexcept {
  if (block_height_.empty()) return 0.0;
  return static_cast<double>(blocks_of(id)) /
         static_cast<double>(block_height_.size());
}

std::span<const std::uint32_t> AuditDataset::blocks_of_pool(PoolId id) const {
  static const std::vector<std::uint32_t> kEmpty;
  return id < pool_blocks_.size() ? std::span<const std::uint32_t>(pool_blocks_[id])
                                  : std::span<const std::uint32_t>(kEmpty);
}

std::uint64_t AuditDataset::pool_tx_count(PoolId id) const noexcept {
  return id < pool_tx_counts_.size() ? pool_tx_counts_[id] : 0;
}

std::span<const TxIdx> AuditDataset::self_interest_txs(PoolId id) const {
  static const std::vector<TxIdx> kEmpty;
  return id < self_interest_.size() ? std::span<const TxIdx>(self_interest_[id])
                                    : std::span<const TxIdx>(kEmpty);
}

std::vector<TxIdx> AuditDataset::txs_paying_to(btc::Address address) const {
  std::vector<TxIdx> out;
  const btc::AddressId id = addresses_.lookup(address);
  if (id == btc::kNoAddressId) return out;
  for (TxIdx t = 0; t < static_cast<TxIdx>(tx_count()); ++t) {
    for (std::uint32_t k = out_begin_[t]; k < out_begin_[t + 1]; ++k) {
      if (out_addr_[k] == id) {
        out.push_back(t);
        break;
      }
    }
  }
  return out;
}

std::size_t AuditDataset::memory_bytes() const noexcept {
  std::size_t total = vec_bytes(block_height_) + vec_bytes(block_mined_at_) +
                      vec_bytes(block_pool_) + vec_bytes(block_fees_) +
                      vec_bytes(block_ppe_) + vec_bytes(tx_begin_) +
                      vec_bytes(fee_rate_) + vec_bytes(vsize_) + vec_bytes(issued_) +
                      vec_bytes(txid_) + vec_bytes(tx_flags_) + vec_bytes(sppe_) +
                      vec_bytes(tx_block_) + vec_bytes(out_begin_) +
                      vec_bytes(out_addr_) + vec_bytes(pool_tx_counts_) +
                      vec_bytes(pools_by_blocks_) + addresses_.memory_bytes();
  for (const auto& name : pool_names_) total += name.size();
  for (const auto& v : pool_blocks_) total += vec_bytes(v);
  for (const auto& v : self_interest_) total += vec_bytes(v);
  for (const auto& v : reward_wallets_) total += vec_bytes(v);
  return total;
}

}  // namespace cn::core

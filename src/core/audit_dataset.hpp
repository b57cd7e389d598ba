// Columnar (structure-of-arrays) view of a chain for the audit layer.
//
// The audit's analyses (§4-§6) are embarrassingly columnar: every one of
// them scans {fee_rate, vsize, first_seen, position} over contiguous
// block ranges and filters by pool identity. AuditDataset is built ONCE
// per chain and is the only input of every detector with a per-pool or
// per-transaction statistic: flat arrays addressed by dense interned
// ids instead of btc::Chain object graphs and pool-name strings:
//
//   * PoolId    — interned pool name (core/wallet_inference.hpp);
//   * TxIdx     — chain-global transaction ordinal, assigned in
//                 (block, position) commit order;
//   * AddressId — interned wallet (btc/intern.hpp).
//
// Span invariants (every analysis relies on these):
//   * blocks appear in height order; heights are contiguous, so block
//     ordinal b corresponds to height block_heights()[0] + b;
//   * the transactions of block b occupy the contiguous TxIdx range
//     [tx_begin(b), tx_end(b)), in observed block position order — the
//     position of TxIdx t is t - tx_begin(block_of(t));
//   * per-pool lists (blocks_of_pool, self_interest_txs) are ascending,
//     which downstream code exploits for run-length c-block counting;
//   * block_ppe()[b] and sppe()[t] cache the values of core/ppe.hpp and
//     core/sppe.hpp verbatim, with quiet NaN standing in for "undefined"
//     (fewer than 2 retained/total transactions); consumers skip NaN.
//
// The build fans out per block over a util::ThreadPool: each block's
// task writes only its own slots, so the dataset is bit-identical for
// every thread count.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "btc/chain.hpp"
#include "btc/intern.hpp"
#include "core/wallet_inference.hpp"
#include "util/time.hpp"

namespace cn::util {
class ThreadPool;
}

namespace cn::core {

/// Chain-global transaction ordinal in (block, position) commit order.
using TxIdx = std::uint32_t;

/// Per-transaction flags in AuditDataset::tx_flags().
enum TxFlag : std::uint8_t {
  kTxCpfpChild = 1u << 0,   ///< spends an earlier in-block output (§E)
  kTxCpfpParent = 1u << 1,  ///< parent rescued by an in-block CPFP child
  kTxBelowFloor = 1u << 2,  ///< exact fee-rate < 1 sat/vB (norm III)
};

/// Writes each transaction's TxFlag bits into @p flags, which holds
/// block.tx_count() slots.
void block_flags(const btc::Block& block, std::span<std::uint8_t> flags);

/// One block's norm columns, exactly as AuditDataset caches them: writes
/// each transaction's SPPE (core/sppe.hpp; NaN when the block has fewer
/// than 2 transactions) and TxFlag bits into @p sppe and @p flags, which
/// hold block.tx_count() slots each, and returns the block's PPE
/// (core/ppe.hpp; NaN when undefined). cnauditd calls it once per block.
double block_columns(const btc::Block& block, std::span<double> sppe,
                     std::span<std::uint8_t> flags);

/// Deserialized column bundle for AuditDataset::restore() — a
/// field-for-field mirror of the private columns, produced by the CNB1
/// loader (io/cnb.cpp) after it has bounds-checked every array. The
/// spans must satisfy the invariants in the file comment; restore()
/// trusts them and only derives what build() derives (tx_block_).
struct AuditDatasetColumns {
  std::vector<std::string> pool_names;
  std::vector<PoolId> pools_by_blocks;
  std::vector<std::uint64_t> block_height;
  std::vector<SimTime> block_mined_at;
  std::vector<PoolId> block_pool;
  std::vector<std::int64_t> block_fees;
  std::vector<double> block_ppe;
  std::vector<TxIdx> tx_begin;  // size block_count + 1
  std::vector<double> fee_rate;
  std::vector<std::uint32_t> vsize;
  std::vector<SimTime> issued;
  std::vector<btc::Txid> txid;
  std::vector<std::uint8_t> tx_flags;
  std::vector<double> sppe;
  btc::AddressTable addresses;
  std::vector<std::uint32_t> out_begin;  // size tx_count + 1
  std::vector<btc::AddressId> out_addr;
  std::vector<std::vector<std::uint32_t>> pool_blocks;
  std::vector<std::uint64_t> pool_tx_counts;
  std::vector<std::vector<TxIdx>> self_interest;
};

class AuditDataset {
 public:
  AuditDataset() = default;

  /// Builds the columnar view. @p interned_addresses may carry a table an
  /// importer produced during load (io::import_chain); it is copied and
  /// extended as needed, so the ids stay stable for the caller.
  static AuditDataset build(const btc::Chain& chain,
                            const PoolAttribution& attribution,
                            util::ThreadPool& workers,
                            const btc::AddressTable* interned_addresses = nullptr);

  /// For callers holding only a chain: attributes its blocks under
  /// @p registry and builds on @p threads lanes (0 = hardware
  /// concurrency; the dataset is the same at every count).
  static AuditDataset build(const btc::Chain& chain,
                            const btc::CoinbaseTagRegistry& registry,
                            unsigned threads = 0);

  /// Rebuilds a dataset from deserialized columns without touching a
  /// chain: every column is adopted as-is and tx_block_ is derived from
  /// the tx_begin CSR, so a restored dataset is indistinguishable from
  /// the build() that produced the columns.
  static AuditDataset restore(AuditDatasetColumns&& columns);

  // --- sizes ---------------------------------------------------------
  std::size_t block_count() const noexcept { return block_height_.size(); }
  std::size_t tx_count() const noexcept { return fee_rate_.size(); }
  std::size_t pool_count() const noexcept { return pool_names_.size(); }
  bool empty() const noexcept { return block_height_.empty(); }

  // --- pool tables (mirrors PoolAttribution) -------------------------
  const std::string& pool_name(PoolId id) const;
  /// Id of the pool named @p name; kNoPoolId when no block is
  /// attributed to it.
  PoolId pool_id(std::string_view name) const noexcept;
  std::uint64_t blocks_of(PoolId id) const noexcept {
    return id < pool_blocks_.size() ? pool_blocks_[id].size() : 0;
  }
  /// blocks_of(id) / block_count() — same estimate the attribution uses.
  double hash_share(PoolId id) const noexcept;
  /// Ids ordered by descending block count (ties by name).
  std::span<const PoolId> pools_by_blocks() const noexcept { return pools_by_blocks_; }

  // --- block columns (index = block ordinal) -------------------------
  std::span<const std::uint64_t> block_heights() const noexcept { return block_height_; }
  std::span<const SimTime> block_mined_at() const noexcept { return block_mined_at_; }
  std::span<const PoolId> block_pool() const noexcept { return block_pool_; }
  std::span<const std::int64_t> block_fees() const noexcept { return block_fees_; }
  /// Cached core/ppe.hpp block_ppe per block; NaN when undefined.
  std::span<const double> block_ppe() const noexcept { return block_ppe_; }

  TxIdx tx_begin(std::size_t block) const noexcept { return tx_begin_[block]; }
  TxIdx tx_end(std::size_t block) const noexcept { return tx_begin_[block + 1]; }

  // --- transaction columns (index = TxIdx) ---------------------------
  std::span<const double> fee_rate() const noexcept { return fee_rate_; }
  std::span<const std::uint32_t> vsize() const noexcept { return vsize_; }
  std::span<const SimTime> issued() const noexcept { return issued_; }
  std::span<const btc::Txid> txids() const noexcept { return txid_; }
  std::span<const std::uint8_t> tx_flags() const noexcept { return tx_flags_; }
  /// Cached core/sppe.hpp block_sppe per transaction; NaN when the block
  /// has fewer than 2 transactions.
  std::span<const double> sppe() const noexcept { return sppe_; }
  /// Block ordinal a transaction was committed in.
  std::uint32_t block_of(TxIdx t) const noexcept { return tx_block_[t]; }
  /// Observed position inside its block.
  std::size_t position_of(TxIdx t) const noexcept {
    return t - tx_begin_[tx_block_[t]];
  }
  std::uint64_t height_of(TxIdx t) const noexcept {
    return block_height_[tx_block_[t]];
  }

  // --- outputs (interned) --------------------------------------------
  const btc::AddressTable& addresses() const noexcept { return addresses_; }
  std::span<const btc::AddressId> out_addrs_of(TxIdx t) const noexcept {
    return std::span<const btc::AddressId>(out_addr_)
        .subspan(out_begin_[t], out_begin_[t + 1] - out_begin_[t]);
  }

  // --- per-pool precomputes ------------------------------------------
  /// Ascending block ordinals attributed to the pool.
  std::span<const std::uint32_t> blocks_of_pool(PoolId id) const;
  /// Committed transactions of the pool's blocks (sum over its blocks).
  std::uint64_t pool_tx_count(PoolId id) const noexcept;
  /// Ascending TxIdx of transactions spending from or paying to one of
  /// the pool's inferred wallets (same set and order as
  /// core/wallet_inference.hpp self_interest_txs).
  std::span<const TxIdx> self_interest_txs(PoolId id) const;

  /// Ascending TxIdx of transactions paying to @p address (scam-wallet
  /// filter); empty when the address was never seen.
  std::vector<TxIdx> txs_paying_to(btc::Address address) const;

  /// Approximate heap footprint of every column, for telemetry
  /// (BENCH_dataset_build.json reports this as bytes/tx).
  std::size_t memory_bytes() const noexcept;

 private:
  // pool tables
  std::vector<std::string> pool_names_;
  std::vector<PoolId> pools_by_blocks_;

  // block columns
  std::vector<std::uint64_t> block_height_;
  std::vector<SimTime> block_mined_at_;
  std::vector<PoolId> block_pool_;
  std::vector<std::int64_t> block_fees_;
  std::vector<double> block_ppe_;
  std::vector<TxIdx> tx_begin_;  // size block_count()+1

  // transaction columns
  std::vector<double> fee_rate_;
  std::vector<std::uint32_t> vsize_;
  std::vector<SimTime> issued_;
  std::vector<btc::Txid> txid_;
  std::vector<std::uint8_t> tx_flags_;
  std::vector<double> sppe_;
  std::vector<std::uint32_t> tx_block_;

  // outputs
  btc::AddressTable addresses_;
  std::vector<std::uint32_t> out_begin_;  // size tx_count()+1
  std::vector<btc::AddressId> out_addr_;

  // per-pool precomputes
  std::vector<std::vector<std::uint32_t>> pool_blocks_;
  std::vector<std::uint64_t> pool_tx_counts_;
  std::vector<std::vector<TxIdx>> self_interest_;
};

}  // namespace cn::core

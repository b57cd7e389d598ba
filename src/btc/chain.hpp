// The blockchain: an append-only list of blocks with a transaction index.
// The index is an open-addressing util::FlatMap from txid to an 8-byte
// (block index, position) pair, so appending a block allocates no
// per-transaction hash node: an entry is 40 bytes and a bucket 8.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "btc/block.hpp"
#include "util/flat_map.hpp"

namespace cn::btc {

/// Location of a committed transaction.
struct TxLocation {
  std::uint64_t block_height = 0;
  std::size_t position = 0;  ///< index within the block's tx list
};

class Chain {
 public:
  Chain() = default;
  /// @p genesis_height lets data sets start at realistic block heights
  /// (e.g. 610691 for the paper's data set C).
  explicit Chain(std::uint64_t genesis_height) : next_height_(genesis_height) {}

  /// Appends a block; its height must equal next_height(). The block is
  /// *sealed*: its header is stamped with the previous block's hash and
  /// the Merkle root of its contents.
  void append(Block block);

  /// Hash of the most recent block (null for an empty chain).
  BlockHash tip_hash() const noexcept;

  /// Recomputes every Merkle root and verifies header linkage; false if
  /// any block's content no longer matches its header or the chain of
  /// prev-hashes is broken.
  bool verify_integrity() const;

  std::uint64_t next_height() const noexcept { return next_height_; }
  std::size_t size() const noexcept { return blocks_.size(); }
  bool empty() const noexcept { return blocks_.empty(); }

  std::span<const Block> blocks() const noexcept { return blocks_; }
  const Block& at_height(std::uint64_t height) const;
  const Block& front() const;
  const Block& back() const;

  /// Where (if anywhere) a transaction was committed.
  std::optional<TxLocation> locate(const Txid& id) const noexcept;

  /// The committed transaction itself, or nullptr.
  const Transaction* find_tx(const Txid& id) const noexcept;

  /// Total committed (non-coinbase) transactions.
  std::uint64_t total_tx_count() const noexcept { return total_txs_; }

  /// Pre-sizes the transaction index; bulk loaders (CNB1) know the
  /// final transaction count before the first append.
  void reserve_txs(std::size_t count) { tx_index_.reserve(count); }

  /// Number of blocks with zero non-coinbase transactions.
  std::uint64_t empty_block_count() const noexcept;

 private:
  std::vector<Block> blocks_;
  std::uint64_t next_height_ = 0;
  std::uint64_t total_txs_ = 0;
  /// An index into blocks_ and a position in that block.
  struct IndexedTx {
    std::uint32_t block = 0;
    std::uint32_t position = 0;
  };
  util::FlatMap<Txid, IndexedTx> tx_index_;
};

}  // namespace cn::btc

// The blockchain: an append-only list of blocks. It keeps no txid
// index: the simulator marks a transaction committed by its issue
// number, and the audit reads committed transactions in chain order
// (core::AuditDataset's columns), so nothing looks one up by id
// (DESIGN.md §7.3). Appending a sealed block costs its move and a
// counter update.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "btc/block.hpp"

namespace cn::btc {

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

  /// Total committed (non-coinbase) transactions.
  std::uint64_t total_tx_count() const noexcept { return total_txs_; }

  /// Number of blocks with zero non-coinbase transactions.
  std::uint64_t empty_block_count() const noexcept;

 private:
  std::vector<Block> blocks_;
  std::uint64_t next_height_ = 0;
  std::uint64_t total_txs_ = 0;
};

}  // namespace cn::btc

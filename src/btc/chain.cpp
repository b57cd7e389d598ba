#include "btc/chain.hpp"

#include "util/assert.hpp"

namespace cn::btc {

void Chain::append(Block block) {
  if (blocks_.empty() && next_height_ == 0) next_height_ = block.height();
  CN_ASSERT(block.height() == next_height_);
  if (!block.sealed()) block.seal(tip_hash());
  total_txs_ += block.tx_count();
  blocks_.push_back(std::move(block));
  ++next_height_;
}

BlockHash Chain::tip_hash() const noexcept {
  if (blocks_.empty()) return kNullTxid;
  return blocks_.back().hash();
}

bool Chain::verify_integrity() const {
  BlockHash prev = kNullTxid;
  for (const Block& block : blocks_) {
    if (!block.sealed()) return false;
    const BlockHeader& header = block.header();
    if (header.prev_hash != prev) return false;
    if (header.merkle_root != block.compute_merkle_root()) return false;
    if (header.height != block.height()) return false;
    prev = header.hash();
  }
  return true;
}

const Block& Chain::at_height(std::uint64_t height) const {
  CN_ASSERT(!blocks_.empty());
  const std::uint64_t first = blocks_.front().height();
  CN_ASSERT(height >= first && height < first + blocks_.size());
  return blocks_[height - first];
}

const Block& Chain::front() const {
  CN_ASSERT(!blocks_.empty());
  return blocks_.front();
}

const Block& Chain::back() const {
  CN_ASSERT(!blocks_.empty());
  return blocks_.back();
}

std::uint64_t Chain::empty_block_count() const noexcept {
  std::uint64_t n = 0;
  for (const Block& b : blocks_)
    if (b.is_empty()) ++n;
  return n;
}

}  // namespace cn::btc

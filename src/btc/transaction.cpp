#include "btc/transaction.hpp"

#include <charconv>
#include <cstring>
#include <memory>
#include <string>

#include "util/assert.hpp"
#include "util/hex.hpp"

namespace cn::btc {

namespace {

// Serializes into a stack buffer and hashes in place: the per-tx id
// derivation is hot enough in the simulator that the std::string
// push_back version showed up as ~5% of a run. Byte layout is unchanged
// (explicit little-endian), so ids are identical to earlier versions.
Txid id_for(SimTime issued, std::uint32_t vsize, Satoshi fee,
            const std::vector<TxInput>& inputs,
            const std::vector<TxOutput>& outputs, std::uint64_t nonce) {
  const std::size_t total = 32 + inputs.size() * 48 + outputs.size() * 16;
  std::uint8_t stack[512];
  std::unique_ptr<std::uint8_t[]> heap;
  std::uint8_t* buf = stack;
  if (total > sizeof(stack)) {
    heap = std::make_unique<std::uint8_t[]>(total);
    buf = heap.get();
  }
  std::uint8_t* p = buf;
  const auto put_u64 = [&p](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    p += 8;
  };
  put_u64(static_cast<std::uint64_t>(issued));
  put_u64(vsize);
  put_u64(static_cast<std::uint64_t>(fee.value));
  put_u64(nonce);
  for (const TxInput& in : inputs) {
    std::memcpy(p, in.prev_txid.bytes.data(), in.prev_txid.bytes.size());
    p += in.prev_txid.bytes.size();
    put_u64(in.prev_vout);
    put_u64(in.owner.value);
  }
  for (const TxOutput& out : outputs) {
    put_u64(out.to.value);
    put_u64(static_cast<std::uint64_t>(out.value.value));
  }
  CN_ASSERT(static_cast<std::size_t>(p - buf) == total);
  return Txid::hash_of(
      std::string_view(reinterpret_cast<const char*>(buf), total));
}

}  // namespace

Transaction::Transaction(SimTime issued, std::uint32_t vsize_vb, Satoshi fee,
                         std::vector<TxInput> inputs,
                         std::vector<TxOutput> outputs, std::uint64_t nonce)
    : issued_(issued),
      vsize_(vsize_vb),
      fee_(fee),
      inputs_(std::move(inputs)),
      outputs_(std::move(outputs)) {
  CN_ASSERT(vsize_ > 0);
  CN_ASSERT(fee_.value >= 0);
  id_ = id_for(issued_, vsize_, fee_, inputs_, outputs_, nonce);
}

Transaction Transaction::restore(Txid id, SimTime issued, std::uint32_t vsize_vb,
                                 Satoshi fee, std::vector<TxInput> inputs,
                                 std::vector<TxOutput> outputs) {
  CN_ASSERT(!id.is_null());
  Transaction tx;
  tx.id_ = id;
  tx.issued_ = issued;
  tx.vsize_ = vsize_vb;
  tx.fee_ = fee;
  tx.inputs_ = std::move(inputs);
  tx.outputs_ = std::move(outputs);
  CN_ASSERT(tx.vsize_ > 0);
  CN_ASSERT(tx.fee_.value >= 0);
  return tx;
}

Satoshi Transaction::total_output() const noexcept {
  Satoshi sum{};
  for (const TxOutput& out : outputs_) sum += out.value;
  return sum;
}

bool Transaction::spends_from(Address a) const noexcept {
  for (const TxInput& in : inputs_)
    if (in.owner == a) return true;
  return false;
}

bool Transaction::pays_to(Address a) const noexcept {
  for (const TxOutput& out : outputs_)
    if (out.to == a) return true;
  return false;
}

bool Transaction::involves(Address a) const noexcept {
  return spends_from(a) || pays_to(a);
}

Transaction make_payment(SimTime issued, std::uint32_t vsize_vb, Satoshi fee,
                         Address from, Address to, Satoshi amount,
                         std::uint64_t nonce) {
  // Synthetic confirmed funding outpoint; the "funding/" domain prefix
  // keeps these ids disjoint from real transaction ids. Formatted on the
  // stack — the preimage bytes match the old string concatenation.
  char pre[64] = "funding/";
  char* q = pre + 8;
  q = std::to_chars(q, pre + sizeof(pre) - 1, from.value).ptr;
  *q++ = '/';
  q = std::to_chars(q, pre + sizeof(pre), nonce).ptr;
  const Txid funding = Txid::hash_of(std::string_view(pre, q - pre));
  std::vector<TxInput> ins{TxInput{funding, 0, from}};
  std::vector<TxOutput> outs{TxOutput{to, amount}};
  return Transaction(issued, vsize_vb, fee, std::move(ins), std::move(outs), nonce);
}

Transaction make_replacement(SimTime issued, const Transaction& original,
                             Satoshi new_fee, std::uint64_t nonce) {
  std::vector<TxInput> ins(original.inputs().begin(), original.inputs().end());
  std::vector<TxOutput> outs(original.outputs().begin(), original.outputs().end());
  // The extra fee comes out of the first output (sender trims change).
  if (!outs.empty()) {
    const Satoshi delta = new_fee - original.fee();
    if (delta.value > 0 && outs[0].value > delta) outs[0].value -= delta;
  }
  return Transaction(issued, original.vsize(), new_fee, std::move(ins),
                     std::move(outs), nonce);
}

Transaction make_child_payment(SimTime issued, std::uint32_t vsize_vb,
                               Satoshi fee, const Transaction& parent,
                               Address to, Satoshi amount, std::uint64_t nonce) {
  CN_ASSERT(!parent.outputs().empty());
  std::vector<TxInput> ins{TxInput{parent.id(), 0, parent.outputs()[0].to}};
  std::vector<TxOutput> outs{TxOutput{to, amount}};
  return Transaction(issued, vsize_vb, fee, std::move(ins), std::move(outs), nonce);
}

}  // namespace cn::btc

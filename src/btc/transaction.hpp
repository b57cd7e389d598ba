// Transactions. The model keeps exactly the observables the audit needs —
// identity, broadcast time, virtual size, fee, and the wallet graph
// (inputs spending from addresses, outputs paying to addresses) — while
// omitting scripts/witnesses, which play no role in ordering.
//
// Note what is deliberately *not* here: any record of dark (side-channel)
// acceleration fees. As in the real chain, those are invisible on-chain;
// the simulator keeps them in a separate ground-truth registry.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "btc/amount.hpp"
#include "btc/txid.hpp"
#include "util/time.hpp"

namespace cn::btc {

/// A transaction input: a reference to the funding output plus the wallet
/// that owned it (the "sender").
struct TxInput {
  Txid prev_txid{};
  std::uint32_t prev_vout = 0;
  Address owner{};
};

/// A transaction output: the paid wallet and the amount.
struct TxOutput {
  Address to{};
  Satoshi value{};
};

class Transaction {
 public:
  Transaction() = default;

  /// Constructs and freezes a transaction; the txid is derived from the
  /// content (inputs, outputs, fee, size, and a creation nonce), so two
  /// distinct transactions never share an id.
  Transaction(SimTime issued, std::uint32_t vsize_vb, Satoshi fee,
              std::vector<TxInput> inputs, std::vector<TxOutput> outputs,
              std::uint64_t nonce);

  /// Deserialization path: reconstructs a transaction with a KNOWN id
  /// (e.g. from an exported data set). The id is trusted, not recomputed —
  /// use only when loading data this library previously produced.
  static Transaction restore(Txid id, SimTime issued, std::uint32_t vsize_vb,
                             Satoshi fee, std::vector<TxInput> inputs,
                             std::vector<TxOutput> outputs);

  const Txid& id() const noexcept { return id_; }
  SimTime issued() const noexcept { return issued_; }
  std::uint32_t vsize() const noexcept { return vsize_; }
  Satoshi fee() const noexcept { return fee_; }
  FeeRate fee_rate() const noexcept { return FeeRate(fee_, vsize_); }

  std::span<const TxInput> inputs() const noexcept { return inputs_; }
  std::span<const TxOutput> outputs() const noexcept { return outputs_; }

  Satoshi total_output() const noexcept;

  /// True if any input spends from @p a.
  bool spends_from(Address a) const noexcept;
  /// True if any output pays to @p a.
  bool pays_to(Address a) const noexcept;
  /// spends_from(a) || pays_to(a) — "self-interest" w.r.t. wallet a.
  bool involves(Address a) const noexcept;

 private:
  Txid id_{};
  SimTime issued_ = 0;
  std::uint32_t vsize_ = 0;
  Satoshi fee_{};
  std::vector<TxInput> inputs_;
  std::vector<TxOutput> outputs_;
};

/// Convenience factory for the common 1-input payment shape. The input
/// spends a synthetic confirmed funding outpoint derived from (from,
/// nonce) — unique per call, so independent payments never conflict, and
/// replacements built with make_replacement() deliberately do.
Transaction make_payment(SimTime issued, std::uint32_t vsize_vb, Satoshi fee,
                         Address from, Address to, Satoshi amount,
                         std::uint64_t nonce);

/// A replacement (BIP-125-style) of @p original: spends exactly the same
/// outpoints, with a new fee/outputs. Conflicts with the original by
/// construction.
Transaction make_replacement(SimTime issued, const Transaction& original,
                             Satoshi new_fee, std::uint64_t nonce);

/// Factory for a child transaction spending output 0 of @p parent
/// (child-pays-for-parent shape).
Transaction make_child_payment(SimTime issued, std::uint32_t vsize_vb,
                               Satoshi fee, const Transaction& parent,
                               Address to, Satoshi amount, std::uint64_t nonce);

}  // namespace cn::btc

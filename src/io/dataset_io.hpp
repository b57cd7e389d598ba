// Data-set export/import.
//
// The paper's authors released their data sets and scripts publicly; this
// module gives the reproduction the same property. A simulated (or, in
// principle, real) chain is written as four relational CSV files —
// blocks, transactions, inputs, outputs — plus optional Mempool-snapshot
// and first-seen series, all loadable back into the library's types or
// directly into pandas/R.
//
// Layout under the export directory:
//   blocks.csv      height, mined_at, coinbase_tag, reward_address, reward_sat, tx_count
//   txs.csv         height, position, txid, issued, vsize, fee_sat
//   inputs.csv      txid, prev_txid, prev_vout, owner
//   outputs.csv     txid, to, value_sat
//   snapshots.csv   time, tx_count, total_vsize        (optional)
//   first_seen.csv  txid, first_seen                    (optional)
//
// The first-seen series is held as an io::FirstSeenMap, the flat map the
// observer logs into; its iteration order is not defined, so the export
// writes rows sorted by txid, as the CNB1 writer does.
//
// Exports are atomic: each file is written to `<name>.tmp` and renamed
// into place only after every write succeeded, so a crashed or
// disk-full export never leaves a half-written data set behind.
//
// Every import returns a LoadResult carrying a structured LoadReport —
// see load_report.hpp for the strict/lenient semantics and the defect
// taxonomy. These per-file importers are the CSV backend of the unified
// io::open_dataset entry point (io/dataset_source.hpp), which is what
// tools, benches, and fixtures should call; the historical
// std::optional-returning overloads are gone.
#pragma once

#include <string>

#include "btc/chain.hpp"
#include "btc/intern.hpp"
#include "io/load_report.hpp"
#include "node/snapshot.hpp"
#include "util/flat_map.hpp"

namespace cn::io {

/// Writes the chain into @p dir (created if missing). Returns false on
/// any I/O failure — including directory creation and write errors that
/// only surface at flush — and, when @p error is non-null, stores a
/// human-readable reason there.
bool export_chain(const btc::Chain& chain, const std::string& dir,
                  std::string* error = nullptr);

/// Policy-aware import with full diagnostics. Strict mode fails at the
/// first defect (report.first_error() pinpoints file and line); lenient
/// mode skips or repairs defective rows and still yields a chain unless
/// the data was unusable (e.g. blocks.csv missing).
LoadResult<btc::Chain> import_chain(const std::string& dir, LoadPolicy policy);

/// Same import, additionally interning every wallet address the parse
/// touches (coinbase rewards, input owners, output recipients) into
/// @p addresses as rows stream in — the columnar audit layer
/// (core::AuditDataset) reuses the table via
/// AuditOptions::interned_addresses so the address universe is hashed
/// once at load instead of once per audit. @p addresses may be null
/// (identical to the overload above).
LoadResult<btc::Chain> import_chain(const std::string& dir, LoadPolicy policy,
                                    btc::AddressTable* addresses);

bool export_snapshots(const node::SnapshotSeries& series, const std::string& path,
                      std::string* error = nullptr);
LoadResult<node::SnapshotSeries> import_snapshots(const std::string& path,
                                                  LoadPolicy policy);

/// The observer's first-seen log: node::ObserverNode::first_seen_map()
/// and core::AuditOptions::first_seen use this type.
using FirstSeenMap = util::FlatMap<btc::Txid, SimTime>;
bool export_first_seen(const FirstSeenMap& first_seen, const std::string& path,
                       std::string* error = nullptr);
LoadResult<FirstSeenMap> import_first_seen(const std::string& path,
                                           LoadPolicy policy);

}  // namespace cn::io

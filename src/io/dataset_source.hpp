// The one way to load a data set.
//
// Historically every consumer (cnaudit, benches, test fixtures) stitched
// a data set together from three importer calls — chain directory,
// snapshots.csv, first_seen.csv — and each grew its own error handling.
// DatasetSource collapses that into a single factory:
//
//   auto source = io::open_dataset(path, policy);
//
// where @p path is either a CSV export directory (io/dataset_io.hpp) or
// a single CNB1 binary columnar file (io/cnb.hpp). The format is sniffed
// from the path (directory vs file magic); callers that know better can
// pass it explicitly. The result carries everything the path contained:
// the chain, the optional snapshot / first-seen series, the interned
// address table, and — CNB1 only — a prebuilt core::AuditDataset that
// lets the audit pipeline skip its dominant build stage entirely.
//
// Ownership/lifetime contract (DESIGN.md §11): a DatasetHandle OWNS all
// of its data. The CNB1 loader maps the file, verifies every section
// checksum (which forces the full read anyway), copies the columns out,
// and unmaps before returning — no view in the handle ever points into
// the file, so the handle outlives the path, the file, and the mapping.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "btc/chain.hpp"
#include "btc/intern.hpp"
#include "core/audit_dataset.hpp"
#include "io/dataset_io.hpp"
#include "io/load_report.hpp"
#include "node/snapshot.hpp"

namespace cn::btc {
class CoinbaseTagRegistry;
}

namespace cn::io {

enum class DatasetFormat {
  kCsv,  ///< directory of relational CSV files (io/dataset_io.hpp)
  kCnb,  ///< single CNB1 binary columnar file (io/cnb.hpp)
};

/// Stable label ("csv" / "cnb").
const char* to_string(DatasetFormat format);

/// Parses a --format CLI value; nullopt on anything but "csv" / "cnb".
std::optional<DatasetFormat> parse_dataset_format(std::string_view name);

/// CNB1 only (flag bit 4): the simulator ground truth a cached world
/// carries — what a real auditor lacks but the detector-validation
/// benches need — so a cache hit can stand in for a fresh SimResult.
struct SimWorldInfo {
  /// sim::WorldSpec::fingerprint() of the spec that generated the file;
  /// the cache cross-checks it against the requested spec so a renamed
  /// or stale file can never masquerade as the wrong world.
  std::uint64_t spec_fingerprint = 0;
  btc::Address scam_address{};          ///< 0 when no scam was planted
  std::vector<btc::Txid> accelerated_txids;  ///< sorted by byte order

  /// The public "was this txid accelerated?" query, answered from the
  /// stored sorted list (the on-disk twin of
  /// sim::AccelerationService::is_accelerated).
  bool is_accelerated(const btc::Txid& id) const noexcept {
    return std::binary_search(accelerated_txids.begin(),
                              accelerated_txids.end(), id);
  }
};

/// Everything a data-set path contained, with owning storage.
struct DatasetHandle {
  DatasetFormat format = DatasetFormat::kCsv;
  btc::Chain chain;
  std::optional<node::SnapshotSeries> snapshots;
  std::optional<FirstSeenMap> first_seen;
  /// Every address the load touched, interned in load order (the same
  /// table import_chain builds); pass to AuditOptions::interned_addresses.
  btc::AddressTable addresses;

  /// The derived audit columns a CNB1 file stored alongside the chain
  /// (or a dataset a caller built and kept here). Valid only under the
  /// registry its registry_fingerprint() names.
  std::optional<core::AuditDataset> audit_dataset;

  /// CNB1 only: simulator ground truth for cached worlds.
  std::optional<SimWorldInfo> sim_world;

  /// The stored audit dataset, or nullptr when none was stored or it was
  /// attributed under a different CoinbaseTagRegistry than @p registry
  /// (the pool interning would not line up, so the caller must rebuild).
  const core::AuditDataset* prebuilt_for(
      const btc::CoinbaseTagRegistry& registry) const;
};

/// Determines how a path would be loaded: an existing directory is CSV; a
/// file starting with the CNB1 magic — or, failing a read, one with a
/// ".cnb" extension — is CNB1. nullopt when the path matches neither.
std::optional<DatasetFormat> sniff_dataset_format(const std::string& path);

/// Loads a data set from @p path under @p policy. Strict fails at the
/// first defect anywhere in the set (report.first_error() pinpoints it);
/// lenient degrades: defective CSV rows are skipped/repaired, corrupt
/// optional CNB1 sections (snapshots, first-seen, derived audit columns)
/// are dropped with the chain still loading, and only an unusable chain
/// withholds the value. Pass @p format to skip sniffing.
LoadResult<DatasetHandle> open_dataset(
    const std::string& path, LoadPolicy policy = LoadPolicy::kStrict,
    std::optional<DatasetFormat> format = std::nullopt);

}  // namespace cn::io

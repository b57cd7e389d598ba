// Crash-safe accumulator checkpoints: a small state file plus an
// append-only segment for the event log (checkpoint format version 2).
//
// cnauditd's durability contract: at any instant the files on disk hold
// a complete, verifiable snapshot of the accumulators as of some stream
// sequence number — never a half-written one. The pair-violation event
// log only grows between checkpoints, and it is nearly all of the state,
// so it is not rewritten at each one. Two files:
//
//   <path>      the state file, replaced atomically at every checkpoint:
//               write <path>.tmp, fsync it, rename it over <path>
//               (atomic on POSIX), fsync the directory.
//   <path>.log  the segment: a headerless run of the event log's records
//               (AuditAccumulators::kLogRecordBytes each). Only the
//               first `log_records` of them — the committed prefix the
//               state file names — belong to the checkpoint.
//
// A save (1) truncates the segment to the committed prefix this process
// last wrote or recovered, dropping a torn tail or another run's stale
// records; (2) appends the records added since then and fsyncs the
// segment; (3) runs the prefix checksum on over the new bytes only; and
// (4) replaces the state file, which names the new prefix. A crash
// before the rename leaves the previous state file; when this process
// wrote or recovered it, its prefix is still intact in the segment, and
// the bytes past it are ignored on load and truncated by the next save
// (after a cold start beside an old checkpoint the next load may fail
// typed instead — slower, never wrong). A crash after leaves the new one.
// Checkpoint cost is thus flat in the log length: a few KB of state plus
// the records since the last save.
//
// State file layout (all little-endian):
//   "CNCP1\0"            6-byte magic
//   u16 version          format version (2; version 1 kept the log in
//                        the payload and fails as kUnsupportedVersion)
//   u64 config_fpr       AccumulatorOptions::fingerprint() — restoring
//                        under different thresholds is a typed error
//   u64 registry_fpr     CoinbaseTagRegistry::fingerprint()
//   u64 log_records      records in the segment's committed prefix
//   u64 log_fnv1a        checksum of the committed prefix's bytes
//   u64 payload_size
//   u64 payload_fnv1a    checksum of the payload bytes
//   payload              AuditAccumulators::encode()
//
// Load failures reuse io::LoadError verbatim (kBadMagic, kTruncatedFile,
// kSectionChecksum, ...) so daemon logs speak the same defect language
// as the dataset loaders. A missing state file is kFileOpen, the quiet
// cold start; a missing or short segment is kTruncatedFile.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "daemon/accumulators.hpp"
#include "daemon/wire.hpp"
#include "io/load_report.hpp"

namespace cn::daemon {

/// The segment's committed prefix: how many event-log records the last
/// durable checkpoint covers, and the FNV-1a of their bytes. A fresh
/// value (no records) is the cold-start state.
struct CheckpointLog {
  std::uint64_t records = 0;
  std::uint64_t checksum = kFnv1aBasis;
};

/// The segment file that goes with the state file at @p path.
std::string checkpoint_log_path(const std::string& path);

/// Persists @p acc to @p path and its segment, appending to the segment
/// only the records past @p log, which must be the committed prefix this
/// process last saved or loaded (a fresh value after a cold start).
/// Advances @p log once the new state file is in place. Returns false
/// with *error set on any I/O failure; @p log and the previous checkpoint
/// are then unchanged, and the next save rewrites the same records.
bool save_checkpoint(const AuditAccumulators& acc, const std::string& path,
                     CheckpointLog& log, std::string* error = nullptr);

struct CheckpointLoad {
  bool ok = false;
  std::optional<io::LoadError> error;  ///< set when !ok
  std::uint64_t seq = 0;               ///< acc.last_seq() after a good load
  CheckpointLog log;                   ///< the committed prefix after a good load
};

/// Restores @p acc from @p path and its segment. On any defect @p acc is
/// reset-decoded state and must be discarded by the caller; the typed
/// error says what was wrong (a missing state file is kFileOpen — the
/// normal cold-start case). @p expected_config / @p expected_registry
/// are the running daemon's fingerprints; mismatches fail with
/// kUnsupportedVersion rather than resuming sums computed under
/// different rules.
CheckpointLoad load_checkpoint(AuditAccumulators& acc, const std::string& path,
                               std::uint64_t expected_config,
                               std::uint64_t expected_registry);

}  // namespace cn::daemon

// Deterministic fault injection for exported data sets.
//
// The paper's pipeline had to survive a lossy capture (truncated dumps,
// node restarts, garbled rows); this harness reproduces those failure
// modes on demand so the importers' strict/lenient guarantees are
// testable as properties instead of anecdotes. Given a seed, the
// injector copies an exported data set while mutating it — corrupted
// fields, dropped/duplicated/swapped rows, a truncated tail, deleted
// snapshot windows — and returns a log of every fault with the exact
// output file and line it landed on. The same seed always produces the
// same faults.
//
// Fault kinds and their strict-import visibility:
//   kCorruptField   a numeric/hex field becomes unparseable — always
//                   detectable; the log line is the line a strict import
//                   must pinpoint.
//   kDropRow        a row vanishes (tx_count mismatches surface it for
//                   txs.csv; silent for relation-only files).
//   kDuplicateRow   a row appears twice (duplicate-key defects).
//   kSwapRows       two adjacent rows trade places (order defects).
//   kTruncateFile   the file ends mid-record (partial-row defects).
//   kDeleteSnapshotWindow  an observer outage: snapshot rows inside a
//                   time window disappear. Invisible to the importer by
//                   design — the data-quality layer must catch it.
//   kCorruptSection a CNB1 binary section's payload bytes are flipped
//                   (inject_cnb_file) — detectable; the per-section
//                   checksum fails and a strict io::read_cnb pinpoints
//                   the logged directory index.
//   kTornWrite      a crashed writer's partial flush: from a random
//                   offset inside one CNB1 section, the file is either
//                   truncated (tail lost) or zero-filled to the section
//                   end (pages never made it to disk). Detectable: the
//                   section checksum (or the file length) can no longer
//                   match, so a strict load reports a typed defect and a
//                   lenient load drops the poisoned group.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace cn::testing {

enum class FaultKind {
  kCorruptField,
  kDropRow,
  kDuplicateRow,
  kSwapRows,
  kTruncateFile,
  kDeleteSnapshotWindow,
  kCorruptSection,
  kTornWrite,
};

const char* to_string(FaultKind kind);

struct InjectedFault {
  FaultKind kind{};
  std::string file;      ///< path of the mutated output file
  std::size_t line = 0;  ///< 1-based line in the OUTPUT file (0 = file level).
                         ///< For kCorruptSection: the 1-based CNB1
                         ///< section-directory index, matching LoadError::line.
  std::string detail;
  /// True when the fault is guaranteed to abort a strict import at
  /// exactly `line` (kCorruptField and kCorruptSection faults make this
  /// promise).
  bool detectable = false;
  SimTime gap_from = 0;  ///< kDeleteSnapshotWindow: last time before the gap
  SimTime gap_to = 0;    ///< kDeleteSnapshotWindow: first time after the gap
};

struct InjectionLog {
  std::uint64_t seed = 0;
  std::vector<InjectedFault> faults;

  std::size_t count(FaultKind kind) const noexcept;
  /// Faults guaranteed to abort a strict import, in injection order.
  std::vector<const InjectedFault*> detectable() const;
};

struct FaultOptions {
  /// Per-data-row probability of receiving a row fault.
  double row_corruption_rate = 0.01;
  /// Row-fault kinds to draw from (uniformly). kTruncateFile,
  /// kDeleteSnapshotWindow, kCorruptSection and kTornWrite are not row
  /// faults and are ignored here.
  std::vector<FaultKind> kinds = {FaultKind::kCorruptField, FaultKind::kDropRow,
                                  FaultKind::kDuplicateRow, FaultKind::kSwapRows};
  /// Additionally cut the file mid-record at a random data row.
  bool truncate_tail = false;
  /// Observer-outage windows to delete from snapshots.csv
  /// (inject_dataset only).
  std::size_t snapshot_gaps = 0;
  /// Width of each deleted window, in the series' time unit.
  SimTime gap_width = 120;
  /// Distinct CNB1 sections to corrupt (inject_cnb_file only); clamped
  /// to the number of non-empty sections in the file.
  std::size_t cnb_sections = 1;
  /// Torn-write mode (inject_cnb_file only): emulate a writer killed
  /// mid-flush by cutting or zero-garbling one section from a random
  /// interior offset. When set, cnb_sections byte flips are skipped —
  /// the torn tail is the injected fault.
  bool torn_write = false;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed);

  /// Copies the data set at @p src_dir into @p dst_dir (created),
  /// applying row faults to blocks/txs/inputs/outputs/first_seen and
  /// deleting options.snapshot_gaps windows from snapshots.csv. Files
  /// absent from the source are skipped. Deterministic per seed.
  InjectionLog inject_dataset(const std::string& src_dir,
                              const std::string& dst_dir,
                              const FaultOptions& options = {});

  /// Mutates a single CSV file from @p src to @p dst, appending to
  /// @p log. Returns false when the source could not be read.
  bool inject_file(const std::string& src, const std::string& dst,
                   const FaultOptions& options, InjectionLog& log);

  /// Deletes snapshot rows whose time falls in [window_start,
  /// window_start + width), where window_start is drawn from the file's
  /// own time range. Appends a kDeleteSnapshotWindow fault recording the
  /// surviving boundary times. Returns false when the source could not
  /// be read or has too few rows to cut.
  bool delete_snapshot_window(const std::string& src, const std::string& dst,
                              SimTime width, InjectionLog& log);

  /// Copies the CNB1 file at @p src to @p dst while flipping one payload
  /// byte in each of options.cnb_sections distinct non-empty sections
  /// (kCorruptSection faults whose `line` is the 1-based directory index
  /// a strict io::read_cnb reports), then optionally cutting the file
  /// mid-section when options.truncate_tail is set (kTruncateFile).
  /// With options.torn_write, instead emulates a partial flush: one
  /// section is torn at a random interior offset — the file is either
  /// truncated there or zero-filled to the section's end (kTornWrite,
  /// `line` = 1-based directory index).
  /// Returns false when @p src is not a readable CNB1 file or the write
  /// failed. Deterministic per seed.
  bool inject_cnb_file(const std::string& src, const std::string& dst,
                       const FaultOptions& options, InjectionLog& log);

 private:
  Rng rng_;
};

}  // namespace cn::testing

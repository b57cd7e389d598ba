// One-call audit pipeline: everything the paper's §4-§5 methodology does
// to a chain, bundled behind a single entry point.
//
//   AuditReport report = run_full_audit(chain, registry, options);
//   print_audit_report(report);
//
// The pipeline sees only public data (the chain and coinbase markers) —
// never simulator ground truth — so it runs unchanged on imported
// (io::import_chain) data sets, including, in principle, real ones.
//
// Internally the audit is a sequence of named stages over one immutable
// AuditContext (DESIGN.md §9):
//
//   build        — the columnar AuditDataset, which attributes the
//                  blocks to pools (always runs)
//   quality-mask — coverage accounting from the DataQualityReport (always)
//   norm-stats   — norm-II adherence (PPE summary)
//   pool-tests   — §5.2 cross-pool differential prioritization
//   screens      — §5.3 watched-address screens
//   darkfee      — Table 4 SPPE >= threshold detector
//   neutrality   — §6.1 per-pool scorecards
//   withholding  — block-vs-mempool withholding detector (needs the
//                  observer's first-seen log, AuditOptions::first_seen:
//                  a util::FlatMap from txid to first-seen time, the
//                  type io::FirstSeenMap names)
//
// Stages are individually timed (AuditReport::stages) and selectable via
// AuditOptions::stages (cnaudit --stages); a deselected stage is
// reported as [SKIPPED] rather than silently absent. Only the build
// stage reads the chain, and only when it builds the dataset; every
// later stage reads the same columnar
// dataset the single-detector entry points (core/prio_test.hpp,
// neutrality.hpp, withholding.hpp, ...) take, so a report and a
// per-detector run agree by construction. The thresholds the paper
// fixes (the 3% tested-pool share, Table 4's SPPE >= 99, 500 bootstrap
// resamples, the default NeutralityOptions, the withholding rule's BSV
// thresholds) are constants, not options. The rendered report is
// byte-identical at every thread count; golden digests pin it
// (tests/sim/test_golden_worlds.cpp, test_audit_differential.cpp).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "btc/chain.hpp"
#include "btc/coinbase_tags.hpp"
#include "btc/intern.hpp"
#include "core/audit_dataset.hpp"
#include "core/data_quality.hpp"
#include "core/neutrality.hpp"
#include "core/prio_test.hpp"
#include "core/wallet_inference.hpp"
#include "core/withholding.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"

namespace cn::core {

struct AuditOptions {
  /// Significance level for all hypothesis tests (paper: 0.001 implied by
  /// "p-value less than 0.001").
  double alpha = 0.001;
  /// Addresses to screen for acceleration/deceleration (e.g. scam
  /// wallets, §5.3).
  std::vector<btc::Address> watch_addresses;
  /// Execution lanes for the build stage's per-block pass
  /// (AuditDataset::build), the one stage that fans out: 0 = hardware
  /// concurrency, 1 = fully serial. Unused with a prebuilt_dataset. The
  /// report is byte-identical for every value — each block's task
  /// writes only its own slots, and every later stage is a serial loop.
  unsigned threads = 0;
  /// Blocks whose effective coverage (see data_quality.hpp) falls below
  /// this are masked from the norm statistics, and findings resting on a
  /// pool whose mean coverage is below it are downgraded to
  /// "insufficient data". Only applies when a DataQualityReport is
  /// passed to run_full_audit.
  double min_coverage = 0.5;
  /// Analysis stages to run (names from audit_stage_names()); empty =
  /// all. "build" and "quality-mask" always run — they are the report's
  /// spine.
  std::vector<std::string> stages;
  /// Optional address table an importer produced during load
  /// (io::import_chain); reused by the build stage so the address
  /// universe is hashed once per process instead of once per audit.
  /// Must outlive the run_full_audit call.
  const btc::AddressTable* interned_addresses = nullptr;
  /// Optional dataset a loader already holds (a CNB1 file's derived
  /// sections, io::DatasetHandle::prebuilt_for). When set, the build
  /// stage references it instead of calling AuditDataset::build, the
  /// dominant cost of an audit; nothing is copied and the chain is not
  /// read. The caller guarantees it was built from this chain; its
  /// registry_fingerprint() must equal the registry's, or
  /// run_full_audit aborts. It must outlive the run_full_audit call.
  const AuditDataset* prebuilt_dataset = nullptr;
  /// Optional observer first-seen log (txid -> first-seen time; the
  /// type io::FirstSeenMap names, spelled from util and btc so core
  /// stays io-free). When
  /// set, the "withholding" stage runs the block-vs-mempool withholding
  /// detector (core/withholding.hpp); when null the stage is a no-op and
  /// the rendered report is unchanged. Must outlive run_full_audit.
  const util::FlatMap<btc::Txid, SimTime>* first_seen = nullptr;
};

/// One named pipeline stage with its wall-clock cost.
struct AuditStage {
  std::string name;
  double seconds = 0.0;
  bool ran = false;
};

/// Stage names in execution order, for --stages validation and help.
const std::vector<std::string>& audit_stage_names();

/// The immutable state every analysis stage reads: the columnar dataset
/// (with its pool table), the tested-pool list, and per-pool coverage.
/// Built by the "build" and "quality-mask" stages, then read, never
/// written, by the serial stages after them.
struct AuditContext {
  /// The dataset every stage reads: AuditOptions::prebuilt_dataset when
  /// the caller passed one, otherwise built_dataset.
  const AuditDataset* dataset = nullptr;
  /// Owned only when the build stage had to build the dataset.
  AuditDataset built_dataset;
  /// Pools with at least a 3% hash share, by blocks desc.
  std::vector<PoolId> pools;
  /// PoolId-indexed mean effective coverage (1.0 without quality data).
  std::vector<double> pool_coverage;
};

/// A confirmed differential-prioritization finding (§5.2 / Table 2).
struct AccelerationFinding {
  std::string tx_owner;  ///< whose transactions
  std::string miner;     ///< who prioritized them
  bool collusion = false;  ///< owner != miner
  PrioTestResult test;
  stats::BootstrapCi sppe_ci;  ///< CI over per-tx SPPE in the miner's blocks
  /// Mean effective coverage over the miner's blocks (1.0 when no data
  /// quality report was supplied).
  double coverage = 1.0;
  /// Coverage below AuditOptions::min_coverage: the statistic rests on
  /// too little observed data to report as a firm conclusion.
  bool insufficient_data = false;
};

/// Per-pool screen of a watched address (§5.3 / Table 3).
struct WatchedAddressScreen {
  btc::Address address{};
  std::size_t tx_count = 0;
  std::vector<PrioTestResult> per_pool;
  bool any_significant = false;
};

/// Per-pool dark-fee suspicion counts (Table 4's detector without the
/// service-validation leg, which needs the service's query API).
struct DarkFeeSuspicion {
  std::string pool;
  std::uint64_t txs = 0;
  std::uint64_t flagged = 0;
};

struct AuditReport {
  AuditOptions options;
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
  std::uint64_t unidentified_blocks = 0;

  stats::Summary ppe;  ///< norm-II adherence across covered blocks
  std::vector<AccelerationFinding> findings;       ///< worst first
  std::vector<WatchedAddressScreen> screens;
  std::vector<DarkFeeSuspicion> darkfee;           ///< most-flagged first
  std::vector<NeutralityReport> neutrality;        ///< worst first
  /// Block-withholding suspicion (worst first); only populated when a
  /// first-seen log was supplied (has_first_seen).
  std::vector<WithholdingReport> withholding;
  /// True when AuditOptions::first_seen was supplied — gates both the
  /// withholding stage and its report section, so data sets without an
  /// observer log render byte-identically to before the stage existed.
  bool has_first_seen = false;

  /// Coverage accounting (meaningful when has_quality).
  bool has_quality = false;
  double mean_coverage = 1.0;
  std::uint64_t snapshot_gaps = 0;
  std::uint64_t masked_blocks = 0;  ///< blocks below min_coverage
  std::vector<std::uint64_t> low_coverage_heights;  ///< ascending

  /// Per-stage telemetry in execution order.
  std::vector<AuditStage> stages;

  /// True when the named stage was deselected via AuditOptions::stages.
  bool stage_skipped(std::string_view name) const noexcept;
};

/// Runs the whole §4-§5 methodology. The build stage attributes the
/// chain's blocks under @p registry (or adopts
/// AuditOptions::prebuilt_dataset).
AuditReport run_full_audit(const btc::Chain& chain,
                           const btc::CoinbaseTagRegistry& registry,
                           const AuditOptions& options = {});

/// Coverage-aware variant: norm statistics mask blocks whose effective
/// coverage is below options.min_coverage, and every finding / scorecard
/// is annotated with the coverage fraction it rests on (downgraded to
/// insufficient-data when too low). @p quality may be null (identical to
/// the overload above). The report stays byte-identical across
/// AuditOptions::threads values.
AuditReport run_full_audit(const btc::Chain& chain,
                           const btc::CoinbaseTagRegistry& registry,
                           const DataQualityReport* quality,
                           const AuditOptions& options = {});

/// Human-readable rendering of a report. Skipped stages render as
/// [SKIPPED] markers. @p with_timings appends the per-stage wall-time
/// footer (cnaudit passes true); it defaults off so rendered reports
/// stay deterministic for the byte-identity tests.
void print_audit_report(const AuditReport& report, std::FILE* out = stdout,
                        bool with_timings = false);

}  // namespace cn::core

#include "io/dataset_io.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <map>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/csv.hpp"

namespace cn::io {

namespace {

std::optional<std::int64_t> to_i64(std::string_view s) {
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> to_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

// ---------------------------------------------------------------------------
// Export: atomic tmp-file writers.
// ---------------------------------------------------------------------------

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// A CsvWriter that streams to `<path>.tmp`; the temporary is removed on
/// destruction unless commit_exports() renamed it into place.
struct TmpCsv {
  std::string final_path;
  std::string tmp_path;
  CsvWriter writer;
  bool committed = false;

  explicit TmpCsv(std::string path)
      : final_path(std::move(path)),
        tmp_path(final_path + ".tmp"),
        writer(tmp_path) {}

  ~TmpCsv() {
    if (!committed) {
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
    }
  }
};

/// Flushes every writer, verifies no write failed (disk full surfaces
/// here at the latest), then renames all temporaries into place. On any
/// failure the temporaries are cleaned up by ~TmpCsv and the final paths
/// are left untouched.
bool commit_exports(std::initializer_list<TmpCsv*> files, std::string* error) {
  for (TmpCsv* f : files) {
    if (!f->writer.close()) {
      return set_error(error, "write to " + f->tmp_path +
                                  " failed (disk full or I/O error)");
    }
  }
  for (TmpCsv* f : files) {
    std::error_code ec;
    std::filesystem::rename(f->tmp_path, f->final_path, ec);
    if (ec) {
      return set_error(error, "rename " + f->tmp_path + " -> " + f->final_path +
                                  ": " + ec.message());
    }
    f->committed = true;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Import: policy-aware row consumption.
// ---------------------------------------------------------------------------

/// Hash of a txs.csv (height, position) slot.
struct SlotHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& slot) const noexcept {
    return static_cast<std::size_t>((slot.first * 0x9e3779b97f4a7c15ULL) ^ slot.second);
  }
};

/// Shared defect-recording state for one import.
struct Loader {
  explicit Loader(LoadPolicy p) { report.policy = p; }

  LoadReport report;
  bool fatal = false;

  enum class Fix {
    kSkipRow,    ///< lenient drops the row
    kRepairRow,  ///< lenient keeps the row after a fix
    kNone,       ///< bookkeeping only (whole-file defects)
  };

  /// Records a defect. Returns true when the caller may continue
  /// (lenient); false aborts the load (strict).
  bool defect(LoadErrorKind kind, const std::string& file, std::size_t line,
              std::string detail, Fix fix = Fix::kSkipRow) {
    LoadError e{kind, file, line, std::move(detail), false};
    if (report.policy == LoadPolicy::kStrict) {
      report.errors.push_back(std::move(e));
      report.ok = false;
      fatal = true;
      return false;
    }
    e.repaired = fix != Fix::kNone;
    report.errors.push_back(std::move(e));
    if (fix == Fix::kSkipRow) ++report.rows_skipped;
    if (fix == Fix::kRepairRow) ++report.rows_repaired;
    return true;
  }

  /// Whole-file defect that no policy can recover from (missing file).
  void fatal_defect(LoadErrorKind kind, const std::string& file,
                    std::string detail) {
    report.errors.push_back({kind, file, 0, std::move(detail), false});
    report.ok = false;
    fatal = true;
  }
};

/// Ingest telemetry (DESIGN.md §10), recorded ONCE per import from the
/// finished LoadReport — the per-row parse loops stay untouched. All
/// rejected.* counters are interned eagerly so the exported key set is
/// identical whether or not a given defect kind occurred.
struct IngestMetrics {
  obs::Counter imports{"io.ingest.imports"};
  obs::Counter imports_failed{"io.ingest.imports_failed"};
  obs::Counter rows_read{"io.ingest.rows_read"};
  obs::Counter rows_skipped{"io.ingest.rows_skipped"};
  obs::Counter rows_repaired{"io.ingest.rows_repaired"};
  std::vector<obs::Counter> rejected;  ///< indexed by LoadErrorKind

  IngestMetrics() {
    constexpr LoadErrorKind kKinds[] = {
        LoadErrorKind::kFileOpen,          LoadErrorKind::kMissingHeader,
        LoadErrorKind::kBadFieldCount,     LoadErrorKind::kBadNumber,
        LoadErrorKind::kBadTxid,           LoadErrorKind::kDuplicateHeight,
        LoadErrorKind::kDuplicateTxPosition, LoadErrorKind::kDuplicateTxid,
        LoadErrorKind::kOutOfOrderRow,     LoadErrorKind::kTxCountMismatch,
        LoadErrorKind::kBadPositionSequence, LoadErrorKind::kMissingBlockRow,
        LoadErrorKind::kUnterminatedQuote,   LoadErrorKind::kBadMagic,
        LoadErrorKind::kUnsupportedVersion,  LoadErrorKind::kTruncatedFile,
        LoadErrorKind::kSectionChecksum,     LoadErrorKind::kSectionLayout,
        LoadErrorKind::kMissingSection,      LoadErrorKind::kMmapFailed};
    rejected.reserve(std::size(kKinds));
    for (const LoadErrorKind kind : kKinds) {
      rejected.emplace_back(std::string("io.ingest.rejected.") +
                            to_string(kind));
    }
  }
};

void record_ingest_metrics(const LoadReport& report) {
  static IngestMetrics* m = new IngestMetrics();  // interned once per process
  m->imports.add();
  if (!report.ok) m->imports_failed.add();
  m->rows_read.add(report.rows_read);
  m->rows_skipped.add(report.rows_skipped);
  m->rows_repaired.add(report.rows_repaired);
  for (const LoadError& e : report.errors) {
    const auto k = static_cast<std::size_t>(e.kind);
    if (k < m->rejected.size()) m->rejected[k].add();
  }
}

}  // namespace

bool export_chain(const btc::Chain& chain, const std::string& dir,
                  std::string* error) {
  const obs::Span span("io.export_chain");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return set_error(error, "create_directories(" + dir + "): " + ec.message());
  }

  TmpCsv blocks(dir + "/blocks.csv");
  TmpCsv txs(dir + "/txs.csv");
  TmpCsv inputs(dir + "/inputs.csv");
  TmpCsv outputs(dir + "/outputs.csv");
  if (!blocks.writer.ok() || !txs.writer.ok() || !inputs.writer.ok() ||
      !outputs.writer.ok()) {
    return set_error(error, "could not open CSV files under " + dir);
  }

  blocks.writer.header({"height", "mined_at", "coinbase_tag", "reward_address",
                        "reward_sat", "tx_count"});
  txs.writer.header({"height", "position", "txid", "issued", "vsize", "fee_sat"});
  inputs.writer.header({"txid", "prev_txid", "prev_vout", "owner"});
  outputs.writer.header({"txid", "to", "value_sat"});

  for (const btc::Block& block : chain.blocks()) {
    blocks.writer.field(block.height()).field(block.mined_at());
    blocks.writer.field(block.coinbase().tag);
    blocks.writer.field(block.coinbase().reward_address.value);
    blocks.writer.field(block.coinbase().reward.value);
    blocks.writer.field(static_cast<std::uint64_t>(block.tx_count()));
    blocks.writer.end_row();

    for (std::size_t i = 0; i < block.txs().size(); ++i) {
      const btc::Transaction& tx = block.txs()[i];
      const std::string id_hex = tx.id().to_hex();
      txs.writer.field(block.height()).field(static_cast<std::uint64_t>(i));
      txs.writer.field(id_hex).field(tx.issued());
      txs.writer.field(static_cast<std::uint64_t>(tx.vsize())).field(tx.fee().value);
      txs.writer.end_row();

      for (const btc::TxInput& in : tx.inputs()) {
        inputs.writer.field(id_hex).field(in.prev_txid.to_hex());
        inputs.writer.field(static_cast<std::uint64_t>(in.prev_vout));
        inputs.writer.field(in.owner.value);
        inputs.writer.end_row();
      }
      for (const btc::TxOutput& out : tx.outputs()) {
        outputs.writer.field(id_hex).field(out.to.value).field(out.value.value);
        outputs.writer.end_row();
      }
    }
  }
  return commit_exports({&blocks, &txs, &inputs, &outputs}, error);
}

LoadResult<btc::Chain> import_chain(const std::string& dir, LoadPolicy policy) {
  return import_chain(dir, policy, nullptr);
}

namespace {

LoadResult<btc::Chain> import_chain_impl(const std::string& dir,
                                         LoadPolicy policy,
                                         btc::AddressTable* addresses) {
  LoadResult<btc::Chain> result;
  Loader ld(policy);
  std::vector<std::string_view> row;

  // --- blocks.csv --------------------------------------------------------
  struct RawBlock {
    SimTime mined_at = 0;
    btc::Coinbase coinbase;
    std::uint64_t tx_count = 0;
    std::size_t line = 0;        ///< source line, 0 for reconstructions
    bool reconstructed = false;  ///< lenient placeholder for a lost row
  };
  std::map<std::uint64_t, RawBlock> blocks;
  const std::string blocks_path = dir + "/blocks.csv";
  {
    CsvReader in(blocks_path);
    if (!in.ok()) {
      ld.fatal_defect(LoadErrorKind::kFileOpen, blocks_path, "cannot open");
    } else if (!in.next_row(row)) {
      ld.fatal_defect(LoadErrorKind::kMissingHeader, blocks_path, "empty file");
    }
    std::optional<std::uint64_t> last_height;
    while (!ld.fatal && in.next_row(row)) {
      ++ld.report.rows_read;
      const std::size_t line = in.line();
      if (in.truncated()) {
        if (!ld.defect(LoadErrorKind::kUnterminatedQuote, blocks_path, line,
                       "record ends inside a quoted field")) break;
        continue;
      }
      if (row.size() != 6) {
        if (!ld.defect(LoadErrorKind::kBadFieldCount, blocks_path, line,
                       "expected 6 fields, found " + std::to_string(row.size()))) break;
        continue;
      }
      const auto height = to_u64(row[0]);
      const auto mined_at = to_i64(row[1]);
      const auto reward_addr = to_u64(row[3]);
      const auto reward = to_i64(row[4]);
      const auto count = to_u64(row[5]);
      if (!height || !mined_at || !reward_addr || !reward || !count) {
        if (!ld.defect(LoadErrorKind::kBadNumber, blocks_path, line,
                       "unparseable numeric field")) break;
        continue;
      }
      if (blocks.count(*height) != 0) {
        if (!ld.defect(LoadErrorKind::kDuplicateHeight, blocks_path, line,
                       "height " + std::string(row[0]) + " already seen")) break;
        continue;
      }
      if (last_height && *height < *last_height) {
        // The export writes strictly increasing heights; re-sorting (the
        // height-keyed map) repairs this in lenient mode.
        if (!ld.defect(LoadErrorKind::kOutOfOrderRow, blocks_path, line,
                       "height " + std::string(row[0]) + " after " +
                           std::to_string(*last_height),
                       Loader::Fix::kRepairRow)) break;
      }
      last_height = *height;
      btc::Coinbase cb;
      cb.tag = row[2];
      cb.reward_address = btc::Address{*reward_addr};
      if (addresses != nullptr) addresses->intern(cb.reward_address);
      cb.reward = btc::Satoshi{*reward};
      blocks.emplace(*height,
                     RawBlock{*mined_at, std::move(cb), *count, line, false});
    }
  }
  if (ld.fatal) {
    result.report = std::move(ld.report);
    return result;
  }

  // --- txs.csv -----------------------------------------------------------
  // Every distinct txid gets a dense index in first-seen order, and the
  // row that introduced it is tx_rows[index]. A row rejected after that
  // (a taken slot) keeps its index so a later row with the same txid is
  // still a duplicate, but no height lists it.
  struct RawTxRow {
    std::uint64_t position = 0;
    btc::Txid id{};
    SimTime issued = 0;
    std::uint32_t vsize = 0;
    btc::Satoshi fee{};
    std::size_t line = 0;
  };
  std::vector<RawTxRow> tx_rows;
  std::unordered_map<btc::Txid, std::uint32_t> tx_index;
  std::map<std::uint64_t, std::vector<std::uint32_t>> txs_by_height;  ///< indices
  const std::string txs_path = dir + "/txs.csv";
  {
    CsvReader in(txs_path);
    if (!in.ok()) {
      ld.fatal_defect(LoadErrorKind::kFileOpen, txs_path, "cannot open");
    } else if (!in.next_row(row)) {
      ld.fatal_defect(LoadErrorKind::kMissingHeader, txs_path, "empty file");
    }
    tx_rows.reserve(in.newline_count());
    tx_index.reserve(in.newline_count());
    std::unordered_set<std::pair<std::uint64_t, std::uint64_t>, SlotHash> seen_positions;
    seen_positions.reserve(in.newline_count());
    std::optional<std::uint64_t> last_height;
    std::optional<std::uint64_t> last_position;
    while (!ld.fatal && in.next_row(row)) {
      ++ld.report.rows_read;
      const std::size_t line = in.line();
      if (in.truncated()) {
        if (!ld.defect(LoadErrorKind::kUnterminatedQuote, txs_path, line,
                       "record ends inside a quoted field")) break;
        continue;
      }
      if (row.size() != 6) {
        if (!ld.defect(LoadErrorKind::kBadFieldCount, txs_path, line,
                       "expected 6 fields, found " + std::to_string(row.size()))) break;
        continue;
      }
      const auto height = to_u64(row[0]);
      const auto position = to_u64(row[1]);
      const auto issued = to_i64(row[3]);
      const auto vsize = to_u64(row[4]);
      const auto fee = to_i64(row[5]);
      if (!height || !position || !issued || !vsize || !fee) {
        if (!ld.defect(LoadErrorKind::kBadNumber, txs_path, line,
                       "unparseable numeric field")) break;
        continue;
      }
      const auto id = btc::Txid::from_hex(row[2]);
      if (!id) {
        if (!ld.defect(LoadErrorKind::kBadTxid, txs_path, line,
                       "bad txid '" + std::string(row[2]) + "'")) break;
        continue;
      }
      const auto index = static_cast<std::uint32_t>(tx_rows.size());
      if (!tx_index.try_emplace(*id, index).second) {
        if (!ld.defect(LoadErrorKind::kDuplicateTxid, txs_path, line,
                       "txid " + std::string(row[2].substr(0, 16)) +
                           "... already seen")) break;
        continue;
      }
      tx_rows.push_back(RawTxRow{*position, *id, *issued, static_cast<std::uint32_t>(*vsize),
                                 btc::Satoshi{*fee}, line});
      if (!seen_positions.emplace(*height, *position).second) {
        if (!ld.defect(LoadErrorKind::kDuplicateTxPosition, txs_path, line,
                       "(height " + std::string(row[0]) + ", position " +
                           std::string(row[1]) + ") already seen")) break;
        continue;
      }
      if (last_height &&
          (*height < *last_height ||
           (*height == *last_height && last_position &&
            *position < *last_position))) {
        // Repaired by the position sort at block assembly.
        if (!ld.defect(LoadErrorKind::kOutOfOrderRow, txs_path, line,
                       "row for (height " + std::string(row[0]) + ", position " +
                           std::string(row[1]) + ") out of export order",
                       Loader::Fix::kRepairRow)) break;
      }
      if (last_height != *height) last_position.reset();
      last_height = *height;
      if (!last_position || *position > *last_position) last_position = *position;
      txs_by_height[*height].push_back(index);
    }
  }
  if (ld.fatal) {
    result.report = std::move(ld.report);
    return result;
  }

  // --- inputs.csv / outputs.csv ------------------------------------------
  // Rows attach to their transaction by txid value. A row whose txid has
  // no txs.csv row is dropped without a defect, after interning its
  // address (so address ids do not depend on which rows found a home).
  // The export lists each transaction's rows together and in txs.csv
  // order, so a row's transaction is nearly always the previous row's or
  // the next one; only the other rows pay a hash lookup.
  constexpr std::uint32_t kOrphan = ~std::uint32_t{0};
  const auto index_of = [&tx_rows, &tx_index](const btc::Txid& id, std::uint32_t& hint) {
    for (const std::uint32_t guess : {hint, hint + 1}) {
      if (guess < tx_rows.size() && tx_rows[guess].id == id) return hint = guess;
    }
    const auto it = tx_index.find(id);
    return it == tx_index.end() ? kOrphan : (hint = it->second);
  };
  std::vector<std::vector<btc::TxInput>> inputs_by_tx(tx_rows.size());
  const std::string inputs_path = dir + "/inputs.csv";
  {
    CsvReader in(inputs_path);
    if (!in.ok()) {
      ld.fatal_defect(LoadErrorKind::kFileOpen, inputs_path, "cannot open");
    } else if (!in.next_row(row)) {
      ld.fatal_defect(LoadErrorKind::kMissingHeader, inputs_path, "empty file");
    }
    if (addresses != nullptr) addresses->reserve(addresses->size() + in.newline_count());
    std::uint32_t hint = 0;
    while (!ld.fatal && in.next_row(row)) {
      ++ld.report.rows_read;
      const std::size_t line = in.line();
      if (in.truncated()) {
        if (!ld.defect(LoadErrorKind::kUnterminatedQuote, inputs_path, line,
                       "record ends inside a quoted field")) break;
        continue;
      }
      if (row.size() != 4) {
        if (!ld.defect(LoadErrorKind::kBadFieldCount, inputs_path, line,
                       "expected 4 fields, found " + std::to_string(row.size()))) break;
        continue;
      }
      const auto id = btc::Txid::from_hex(row[0]);
      if (!id) {
        if (!ld.defect(LoadErrorKind::kBadTxid, inputs_path, line,
                       "bad txid '" + std::string(row[0]) + "'")) break;
        continue;
      }
      const auto prev = btc::Txid::from_hex(row[1]);
      const auto vout = to_u64(row[2]);
      const auto owner = to_u64(row[3]);
      if (!prev) {
        if (!ld.defect(LoadErrorKind::kBadTxid, inputs_path, line,
                       "bad prev_txid '" + std::string(row[1]) + "'")) break;
        continue;
      }
      if (!vout || !owner) {
        if (!ld.defect(LoadErrorKind::kBadNumber, inputs_path, line,
                       "unparseable numeric field")) break;
        continue;
      }
      const btc::Address owner_addr{*owner};
      if (addresses != nullptr) addresses->intern(owner_addr);
      const std::uint32_t tx = index_of(*id, hint);
      if (tx == kOrphan) continue;
      inputs_by_tx[tx].push_back(
          btc::TxInput{*prev, static_cast<std::uint32_t>(*vout), owner_addr});
    }
  }
  if (ld.fatal) {
    result.report = std::move(ld.report);
    return result;
  }

  std::vector<std::vector<btc::TxOutput>> outputs_by_tx(tx_rows.size());
  const std::string outputs_path = dir + "/outputs.csv";
  {
    CsvReader in(outputs_path);
    if (!in.ok()) {
      ld.fatal_defect(LoadErrorKind::kFileOpen, outputs_path, "cannot open");
    } else if (!in.next_row(row)) {
      ld.fatal_defect(LoadErrorKind::kMissingHeader, outputs_path, "empty file");
    }
    if (addresses != nullptr) addresses->reserve(addresses->size() + in.newline_count());
    std::uint32_t hint = 0;
    while (!ld.fatal && in.next_row(row)) {
      ++ld.report.rows_read;
      const std::size_t line = in.line();
      if (in.truncated()) {
        if (!ld.defect(LoadErrorKind::kUnterminatedQuote, outputs_path, line,
                       "record ends inside a quoted field")) break;
        continue;
      }
      if (row.size() != 3) {
        if (!ld.defect(LoadErrorKind::kBadFieldCount, outputs_path, line,
                       "expected 3 fields, found " + std::to_string(row.size()))) break;
        continue;
      }
      const auto id = btc::Txid::from_hex(row[0]);
      if (!id) {
        if (!ld.defect(LoadErrorKind::kBadTxid, outputs_path, line,
                       "bad txid '" + std::string(row[0]) + "'")) break;
        continue;
      }
      const auto to = to_u64(row[1]);
      const auto value = to_i64(row[2]);
      if (!to || !value) {
        if (!ld.defect(LoadErrorKind::kBadNumber, outputs_path, line,
                       "unparseable numeric field")) break;
        continue;
      }
      const btc::Address to_addr{*to};
      if (addresses != nullptr) addresses->intern(to_addr);
      const std::uint32_t tx = index_of(*id, hint);
      if (tx == kOrphan) continue;
      outputs_by_tx[tx].push_back(btc::TxOutput{to_addr, btc::Satoshi{*value}});
    }
  }
  if (ld.fatal) {
    result.report = std::move(ld.report);
    return result;
  }

  // --- assembly ----------------------------------------------------------
  // The chain requires contiguous heights; detect holes (and heights that
  // have transactions but no block row) instead of tripping the append
  // precondition. Lenient mode reconstructs a placeholder block — empty
  // coinbase, interpolated mined_at — and records the decision.
  if (!blocks.empty() || !txs_by_height.empty()) {
    std::uint64_t min_h = ~std::uint64_t{0}, max_h = 0;
    for (const auto& [h, b] : blocks) {
      min_h = std::min(min_h, h);
      max_h = std::max(max_h, h);
    }
    for (const auto& [h, t] : txs_by_height) {
      min_h = std::min(min_h, h);
      max_h = std::max(max_h, h);
    }
    const auto interpolate_mined_at = [&blocks](std::uint64_t h) -> SimTime {
      const auto above = blocks.lower_bound(h);
      std::optional<SimTime> lo, hi;
      if (above != blocks.end()) hi = above->second.mined_at;
      if (above != blocks.begin()) lo = std::prev(above)->second.mined_at;
      if (lo && hi) return (*lo + *hi) / 2;
      if (lo) return *lo + 600;
      if (hi) return *hi >= 600 ? *hi - 600 : 0;
      return 0;
    };
    for (std::uint64_t h = min_h; !ld.fatal && h <= max_h; ++h) {
      if (blocks.count(h) != 0) continue;
      const bool has_txs = txs_by_height.count(h) != 0;
      if (!ld.defect(LoadErrorKind::kMissingBlockRow, blocks_path, 0,
                     has_txs ? "height " + std::to_string(h) +
                                   " has transactions but no block row"
                             : "height hole at " + std::to_string(h) +
                                   " inside the block range",
                     Loader::Fix::kRepairRow)) break;
      RawBlock placeholder;
      placeholder.mined_at = interpolate_mined_at(h);
      placeholder.tx_count =
          has_txs ? static_cast<std::uint64_t>(txs_by_height[h].size()) : 0;
      placeholder.reconstructed = true;
      blocks.emplace(h, std::move(placeholder));
    }
  }
  if (ld.fatal) {
    result.report = std::move(ld.report);
    return result;
  }

  btc::Chain chain;
  for (auto& [height, raw] : blocks) {
    if (ld.fatal) break;
    std::vector<btc::Transaction> txs;
    const auto it = txs_by_height.find(height);
    if (it != txs_by_height.end()) {
      std::vector<std::uint32_t>& rows = it->second;
      std::sort(rows.begin(), rows.end(), [&tx_rows](std::uint32_t a, std::uint32_t b) {
        const RawTxRow& x = tx_rows[a];
        const RawTxRow& y = tx_rows[b];
        return x.position != y.position ? x.position < y.position : x.line < y.line;
      });
      // After the sort, positions must form 0..n-1 (duplicates were
      // rejected above, so any deviation is a gap).
      for (std::size_t i = 0; i < rows.size(); ++i) {
        RawTxRow& r = tx_rows[rows[i]];
        if (r.position == i) continue;
        if (!ld.defect(LoadErrorKind::kBadPositionSequence, txs_path, r.line,
                       "height " + std::to_string(height) + ": position " +
                           std::to_string(r.position) +
                           " where " + std::to_string(i) + " was expected",
                       Loader::Fix::kRepairRow)) break;
        r.position = i;  // lenient: renumber, preserving sorted order
      }
      if (ld.fatal) break;
      txs.reserve(rows.size());
      for (const std::uint32_t index : rows) {
        const RawTxRow& r = tx_rows[index];
        txs.push_back(btc::Transaction::restore(r.id, r.issued, r.vsize, r.fee,
                                                std::move(inputs_by_tx[index]),
                                                std::move(outputs_by_tx[index])));
      }
    }
    if (txs.size() != raw.tx_count && !raw.reconstructed) {
      if (!ld.defect(LoadErrorKind::kTxCountMismatch, blocks_path, raw.line,
                     "height " + std::to_string(height) + ": tx_count says " +
                         std::to_string(raw.tx_count) + ", found " +
                         std::to_string(txs.size()),
                     Loader::Fix::kRepairRow)) break;
      // lenient: trust the transaction rows actually present
    }
    chain.append(btc::Block(height, raw.mined_at, std::move(raw.coinbase),
                            std::move(txs)));
  }
  if (ld.fatal) {
    result.report = std::move(ld.report);
    return result;
  }

  result.value = std::move(chain);
  result.report = std::move(ld.report);
  return result;
}

}  // namespace

LoadResult<btc::Chain> import_chain(const std::string& dir, LoadPolicy policy,
                                    btc::AddressTable* addresses) {
  const obs::Span span("io.import_chain");
  LoadResult<btc::Chain> result = import_chain_impl(dir, policy, addresses);
  record_ingest_metrics(result.report);
  return result;
}

bool export_snapshots(const node::SnapshotSeries& series, const std::string& path,
                      std::string* error) {
  const obs::Span span("io.export_snapshots");
  TmpCsv csv(path);
  if (!csv.writer.ok()) return set_error(error, "could not open " + csv.tmp_path);
  csv.writer.header({"time", "tx_count", "total_vsize"});
  for (const node::MempoolStat& s : series.stats()) {
    csv.writer.field(s.time).field(s.tx_count).field(s.total_vsize);
    csv.writer.end_row();
  }
  return commit_exports({&csv}, error);
}

namespace {

LoadResult<node::SnapshotSeries> import_snapshots_impl(const std::string& path,
                                                       LoadPolicy policy) {
  LoadResult<node::SnapshotSeries> result;
  Loader ld(policy);
  CsvReader in(path);
  std::vector<std::string_view> row;
  if (!in.ok()) {
    ld.fatal_defect(LoadErrorKind::kFileOpen, path, "cannot open");
  } else if (!in.next_row(row)) {
    ld.fatal_defect(LoadErrorKind::kMissingHeader, path, "empty file");
  }

  struct RawStat {
    node::MempoolStat stat;
    std::size_t line = 0;
  };
  std::vector<RawStat> stats;
  stats.reserve(in.newline_count());
  bool needs_sort = false;
  while (!ld.fatal && in.next_row(row)) {
    ++ld.report.rows_read;
    const std::size_t line = in.line();
    if (in.truncated()) {
      if (!ld.defect(LoadErrorKind::kUnterminatedQuote, path, line,
                     "record ends inside a quoted field")) break;
      continue;
    }
    if (row.size() != 3) {
      if (!ld.defect(LoadErrorKind::kBadFieldCount, path, line,
                     "expected 3 fields, found " + std::to_string(row.size()))) break;
      continue;
    }
    const auto time = to_i64(row[0]);
    const auto count = to_u64(row[1]);
    const auto vsize = to_u64(row[2]);
    if (!time || !count || !vsize) {
      if (!ld.defect(LoadErrorKind::kBadNumber, path, line,
                     "unparseable numeric field")) break;
      continue;
    }
    if (!stats.empty() && *time <= stats.back().stat.time) {
      // SnapshotSeries requires strictly increasing times; lenient
      // re-sorts and drops exact-duplicate timestamps.
      if (!ld.defect(LoadErrorKind::kOutOfOrderRow, path, line,
                     "time " + std::string(row[0]) + " not after " +
                         std::to_string(stats.back().stat.time),
                     Loader::Fix::kRepairRow)) break;
      needs_sort = true;
    }
    stats.push_back(RawStat{{*time, *count, *vsize}, line});
  }
  if (ld.fatal) {
    result.report = std::move(ld.report);
    return result;
  }
  if (needs_sort) {
    std::stable_sort(stats.begin(), stats.end(),
                     [](const RawStat& a, const RawStat& b) {
                       return a.stat.time < b.stat.time;
                     });
    stats.erase(std::unique(stats.begin(), stats.end(),
                            [](const RawStat& a, const RawStat& b) {
                              return a.stat.time == b.stat.time;
                            }),
                stats.end());
  }
  node::SnapshotSeries series;
  for (const RawStat& s : stats) series.record(s.stat);
  result.value = std::move(series);
  result.report = std::move(ld.report);
  return result;
}

}  // namespace

LoadResult<node::SnapshotSeries> import_snapshots(const std::string& path,
                                                  LoadPolicy policy) {
  const obs::Span span("io.import_snapshots");
  LoadResult<node::SnapshotSeries> result = import_snapshots_impl(path, policy);
  record_ingest_metrics(result.report);
  return result;
}

bool export_first_seen(const FirstSeenMap& first_seen, const std::string& path,
                       std::string* error) {
  const obs::Span span("io.export_first_seen");
  TmpCsv csv(path);
  if (!csv.writer.ok()) return set_error(error, "could not open " + csv.tmp_path);
  csv.writer.header({"txid", "first_seen"});
  // Sorted by txid so the file bytes are a pure function of the map —
  // the same order the CNB1 first-seen section uses, which makes the
  // csv -> cnb -> csv round trip byte-identical.
  std::vector<std::pair<btc::Txid, SimTime>> rows(first_seen.begin(),
                                                  first_seen.end());
  std::sort(rows.begin(), rows.end());
  for (const auto& [id, time] : rows) {
    csv.writer.field(id.to_hex()).field(time);
    csv.writer.end_row();
  }
  return commit_exports({&csv}, error);
}

namespace {

LoadResult<FirstSeenMap> import_first_seen_impl(const std::string& path,
                                                LoadPolicy policy) {
  LoadResult<FirstSeenMap> result;
  Loader ld(policy);
  CsvReader in(path);
  std::vector<std::string_view> row;
  if (!in.ok()) {
    ld.fatal_defect(LoadErrorKind::kFileOpen, path, "cannot open");
  } else if (!in.next_row(row)) {
    ld.fatal_defect(LoadErrorKind::kMissingHeader, path, "empty file");
  }
  FirstSeenMap out;
  out.reserve(in.newline_count());
  while (!ld.fatal && in.next_row(row)) {
    ++ld.report.rows_read;
    const std::size_t line = in.line();
    if (in.truncated()) {
      if (!ld.defect(LoadErrorKind::kUnterminatedQuote, path, line,
                     "record ends inside a quoted field")) break;
      continue;
    }
    if (row.size() != 2) {
      if (!ld.defect(LoadErrorKind::kBadFieldCount, path, line,
                     "expected 2 fields, found " + std::to_string(row.size()))) break;
      continue;
    }
    const auto id = btc::Txid::from_hex(row[0]);
    if (!id) {
      if (!ld.defect(LoadErrorKind::kBadTxid, path, line,
                     "bad txid '" + std::string(row[0]) + "'")) break;
      continue;
    }
    const auto time = to_i64(row[1]);
    if (!time) {
      if (!ld.defect(LoadErrorKind::kBadNumber, path, line,
                     "unparseable numeric field")) break;
      continue;
    }
    if (!out.emplace(*id, *time).second) {
      if (!ld.defect(LoadErrorKind::kDuplicateTxid, path, line,
                     "txid " + std::string(row[0].substr(0, 16)) +
                         "... already seen")) break;
      continue;  // lenient: first occurrence wins
    }
  }
  if (ld.fatal) {
    result.report = std::move(ld.report);
    return result;
  }
  result.value = std::move(out);
  result.report = std::move(ld.report);
  return result;
}

}  // namespace

LoadResult<FirstSeenMap> import_first_seen(const std::string& path,
                                           LoadPolicy policy) {
  const obs::Span span("io.import_first_seen");
  LoadResult<FirstSeenMap> result = import_first_seen_impl(path, policy);
  record_ingest_metrics(result.report);
  return result;
}

}  // namespace cn::io

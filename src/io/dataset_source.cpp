#include "io/dataset_source.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "btc/coinbase_tags.hpp"
#include "io/cnb.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace cn::io {

namespace {

struct SourceMetrics {
  obs::Counter opens{"io.dataset_source.opens"};
  obs::Counter opens_failed{"io.dataset_source.opens_failed"};
  obs::Counter csv{"io.dataset_source.format.csv"};
  obs::Counter cnb{"io.dataset_source.format.cnb"};
};

SourceMetrics& source_metrics() {
  static SourceMetrics* m = new SourceMetrics();  // interned once per process
  return *m;
}

/// Folds a sub-load's diagnostics into the aggregate report.
void merge(LoadReport& into, const LoadReport& part) {
  into.errors.insert(into.errors.end(), part.errors.begin(),
                     part.errors.end());
  into.rows_read += part.rows_read;
  into.rows_skipped += part.rows_skipped;
  into.rows_repaired += part.rows_repaired;
  into.ok = into.ok && part.ok;
}

LoadResult<DatasetHandle> open_csv(const std::string& dir, LoadPolicy policy) {
  LoadResult<DatasetHandle> result;
  result.report.policy = policy;
  DatasetHandle handle;
  handle.format = DatasetFormat::kCsv;

  auto chain = import_chain(dir, policy, &handle.addresses);
  merge(result.report, chain.report);
  if (!chain.has_value()) return result;
  handle.chain = std::move(*chain.value);

  // The optional series load like cnaudit always has: present files are
  // read under the same policy; absent files are simply not part of the
  // data set. Strict treats a defective present file as a defect of the
  // whole set; lenient drops the series and keeps the chain.
  const std::string snapshots_path = dir + "/snapshots.csv";
  if (std::filesystem::exists(snapshots_path)) {
    auto snapshots = import_snapshots(snapshots_path, policy);
    merge(result.report, snapshots.report);
    if (snapshots.has_value()) {
      handle.snapshots = std::move(*snapshots.value);
    } else if (policy == LoadPolicy::kStrict) {
      return result;
    }
  }
  const std::string first_seen_path = dir + "/first_seen.csv";
  if (std::filesystem::exists(first_seen_path)) {
    auto first_seen = import_first_seen(first_seen_path, policy);
    merge(result.report, first_seen.report);
    if (first_seen.has_value()) {
      handle.first_seen = std::move(*first_seen.value);
    } else if (policy == LoadPolicy::kStrict) {
      return result;
    }
  }
  result.value = std::move(handle);
  return result;
}

}  // namespace

const char* to_string(DatasetFormat format) {
  switch (format) {
    case DatasetFormat::kCsv: return "csv";
    case DatasetFormat::kCnb: return "cnb";
  }
  return "unknown";
}

std::optional<DatasetFormat> parse_dataset_format(std::string_view name) {
  if (name == "csv") return DatasetFormat::kCsv;
  if (name == "cnb") return DatasetFormat::kCnb;
  return std::nullopt;
}

const core::AuditDataset* DatasetHandle::prebuilt_for(
    const btc::CoinbaseTagRegistry& registry) const {
  if (!audit_dataset.has_value()) return nullptr;
  if (audit_dataset->registry_fingerprint() != registry.fingerprint()) return nullptr;
  return &*audit_dataset;
}

std::optional<DatasetFormat> sniff_dataset_format(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) return DatasetFormat::kCsv;
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::uint8_t magic[sizeof kCnbMagic] = {};
    in.read(reinterpret_cast<char*>(magic), sizeof magic);
    if (in.gcount() == static_cast<std::streamsize>(sizeof magic) &&
        std::memcmp(magic, kCnbMagic, sizeof magic) == 0) {
      return DatasetFormat::kCnb;
    }
  }
  // A .cnb path that failed the magic read still routes to the CNB1
  // loader so its typed diagnostics (kTruncatedFile, kBadMagic) apply.
  if (std::filesystem::path(path).extension() == ".cnb") {
    return DatasetFormat::kCnb;
  }
  return std::nullopt;
}

LoadResult<DatasetHandle> open_dataset(const std::string& path,
                                       LoadPolicy policy,
                                       std::optional<DatasetFormat> format) {
  const obs::Span span("io.open_dataset");
  SourceMetrics& m = source_metrics();
  m.opens.add();
  if (!format.has_value()) format = sniff_dataset_format(path);
  if (!format.has_value()) {
    LoadResult<DatasetHandle> result;
    result.report.policy = policy;
    result.report.ok = false;
    result.report.errors.push_back(
        LoadError{LoadErrorKind::kFileOpen, path, 0,
                  "neither a data-set directory nor a CNB1 file", false});
    m.opens_failed.add();
    return result;
  }
  (*format == DatasetFormat::kCsv ? m.csv : m.cnb).add();
  auto result = *format == DatasetFormat::kCsv ? open_csv(path, policy)
                                               : read_cnb(path, policy);
  if (!result.has_value()) m.opens_failed.add();
  return result;
}

}  // namespace cn::io

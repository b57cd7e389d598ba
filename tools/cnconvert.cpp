// cnconvert — convert data sets between the CSV export layout and the
// CNB1 binary columnar format (io/cnb.hpp).
//
//   cnconvert --input PATH --output PATH [--format csv|cnb]
//             [--policy strict|lenient] [--no-derived] [--threads N]
//
// The input format is sniffed (directory = CSV, magic/.cnb = CNB1); the
// output format defaults to cnb unless --output names a directory-style
// path, and --format overrides it. Converting CSV -> cnb embeds the
// derived core::AuditDataset columns (built under the paper registry
// and keyed by its fingerprint) so a later `cnaudit report` can skip
// the dataset build stage; --no-derived writes the relational sections
// only. Converting -> csv writes the standard export directory
// (blocks/txs/inputs/outputs + any snapshot/first-seen series the
// source carried). Both directions are atomic: bytes land in temporary
// files renamed into place only after every write succeeded. An unknown
// option or a --threads that is not a whole count exits 2.
#include <cstdio>
#include <limits>
#include <string>

#include "args.hpp"
#include "btc/coinbase_tags.hpp"
#include "core/audit_dataset.hpp"
#include "core/wallet_inference.hpp"
#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "io/dataset_source.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace cn;

int usage() {
  std::fprintf(stderr,
               "usage: cnconvert --input PATH --output PATH [--format csv|cnb]\n"
               "                 [--policy strict|lenient] [--no-derived]\n"
               "                 [--threads N]\n"
               "converts a CSV export directory to a CNB1 file or back;\n"
               "--no-derived skips embedding the derived audit columns\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args("cnconvert", argc, argv, 1, {"no-derived"});
  if (!args.ok()) {
    std::fprintf(stderr, "cnconvert: bad argument '%s'\n", args.bad().c_str());
    return usage();
  }
  if (const auto bad = args.unknown({"input", "output", "format", "policy",
                                     "no-derived", "threads"})) {
    std::fprintf(stderr, "cnconvert: unknown option --%s\n", bad->c_str());
    return usage();
  }
  const std::string in_path = args.get_or("input", "");
  const std::string out_path = args.get_or("output", "");
  if (in_path.empty() || out_path.empty()) return usage();
  const bool no_derived = args.has("no-derived");
  const auto threads = static_cast<unsigned>(
      args.get_u64("threads", 0, std::numeric_limits<unsigned>::max()));

  io::LoadPolicy policy = io::LoadPolicy::kStrict;
  if (const auto p = args.get("policy")) {
    if (*p == "lenient") {
      policy = io::LoadPolicy::kLenient;
    } else if (*p != "strict") {
      std::fprintf(stderr, "cnconvert: unknown --policy '%s'\n", p->c_str());
      return usage();
    }
  }

  // Output format: explicit flag first, else cnb unless the target looks
  // like (or already is) a directory.
  io::DatasetFormat out_format = io::DatasetFormat::kCnb;
  if (const auto f = args.get("format")) {
    const auto parsed = io::parse_dataset_format(*f);
    if (!parsed) {
      std::fprintf(stderr, "cnconvert: unknown --format '%s' (want csv|cnb)\n",
                   f->c_str());
      return usage();
    }
    out_format = *parsed;
  } else if (const auto sniffed = io::sniff_dataset_format(out_path);
             sniffed == io::DatasetFormat::kCsv) {
    out_format = io::DatasetFormat::kCsv;
  }

  auto result = io::open_dataset(in_path, policy);
  if (!result.report.clean()) {
    std::fprintf(stderr, "cnconvert: %s: %s\n", in_path.c_str(),
                 result.report.summary().c_str());
  }
  if (!result) {
    std::fprintf(stderr, "cnconvert: failed to load a data set from %s\n",
                 in_path.c_str());
    return 1;
  }
  io::DatasetHandle& data = *result;
  std::printf("loaded %zu blocks, %llu transactions from %s (%s)\n",
              data.chain.size(),
              static_cast<unsigned long long>(data.chain.total_tx_count()),
              in_path.c_str(), io::to_string(data.format));

  std::string error;
  if (out_format == io::DatasetFormat::kCsv) {
    if (!io::export_chain(data.chain, out_path, &error)) {
      std::fprintf(stderr, "cnconvert: %s\n", error.c_str());
      return 1;
    }
    if (data.snapshots.has_value() &&
        !io::export_snapshots(*data.snapshots, out_path + "/snapshots.csv",
                              &error)) {
      std::fprintf(stderr, "cnconvert: %s\n", error.c_str());
      return 1;
    }
    if (data.first_seen.has_value() &&
        !io::export_first_seen(*data.first_seen, out_path + "/first_seen.csv",
                               &error)) {
      std::fprintf(stderr, "cnconvert: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote CSV export directory %s\n", out_path.c_str());
    return 0;
  }

  if (no_derived) {
    data.audit_dataset.reset();
    data.registry_fingerprint = 0;
  } else if (!data.audit_dataset.has_value()) {
    // Build the derived columns once at conversion time so every later
    // load skips the audit pipeline's dominant stage.
    const auto registry = btc::CoinbaseTagRegistry::paper_registry();
    const core::PoolAttribution attribution(data.chain, registry);
    util::ThreadPool workers(threads);
    data.audit_dataset = core::AuditDataset::build(
        data.chain, attribution, workers,
        data.addresses.size() > 0 ? &data.addresses : nullptr);
    data.registry_fingerprint = registry.fingerprint();
  }

  if (!io::write_cnb(data, out_path, &error)) {
    std::fprintf(stderr, "cnconvert: %s\n", error.c_str());
    return 1;
  }
  const auto info = io::inspect_cnb(out_path, &error);
  if (!info) {
    std::fprintf(stderr, "cnconvert: wrote %s but cannot inspect it: %s\n",
                 out_path.c_str(), error.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu section(s), %llu bytes%s\n", out_path.c_str(),
              info->sections.size(),
              static_cast<unsigned long long>(info->file_size),
              (info->flags & io::kCnbFlagAuditDataset) != 0
                  ? " (derived audit columns embedded)"
                  : "");
  return 0;
}

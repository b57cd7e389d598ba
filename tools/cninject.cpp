// cninject — deterministic fault injection for exported data sets.
//
//   cninject --input PATH --output PATH [--seed N] [--rate F]
//            [--kinds LIST] [--gaps N] [--gap-width T] [--truncate 0|1]
//            [--sections N]
//
// Copies the data set at --input to --output while injecting faults
// drawn from a seeded RNG (see src/testing/fault_injector.hpp), then
// prints the injection log: one line per fault with the output file and
// line it landed on. The same --seed always produces the same faults,
// so a logged failure is replayable with nothing but the original data
// set and the seed.
//
// When --input is a CSV export directory, row faults apply:
//   --kinds   comma-separated subset of corrupt,drop,dup,swap
//             (default: all four)
//   --rate    per-row fault probability (default 0.01)
//   --gaps    observer-outage windows to delete from snapshots.csv
//   --truncate 1 cuts each row file mid-record at a random point
//
// When --input is a CNB1 binary file (io/cnb.hpp), the section-
// corruption mode runs instead:
//   --sections N  flip a payload byte in N distinct sections (default 1;
//                 each logged with the directory index a strict
//                 io::read_cnb pinpoints)
//   --truncate 1  additionally cut the file mid-section
//
// --in/--out are historical aliases for --input/--output. Numbers must
// parse whole and in range (--rate in [0, 1], --truncate 0 or 1), and an
// option the tool does not know is rejected; either exits 2.
//
// Typical round trip:
//   cnaudit simulate --dataset C --out clean
//   cninject --input clean --output dirty --seed 7 --rate 0.02 --gaps 2
//   cnaudit report --input dirty --policy lenient  # loads, masks gaps
//   cnaudit report --input dirty --policy strict   # pinpoints a fault
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "args.hpp"
#include "io/dataset_source.hpp"
#include "testing/fault_injector.hpp"

namespace {

using namespace cn;

int usage() {
  std::fprintf(stderr,
               "usage: cninject --input PATH --output PATH [--seed N] [--rate F]\n"
               "                [--kinds corrupt,drop,dup,swap] [--gaps N]\n"
               "                [--gap-width T] [--truncate 0|1] [--sections N]\n"
               "CSV directories get row faults; .cnb files get the\n"
               "section-corruption mode (--sections payload-byte flips)\n");
  return 2;
}

std::optional<std::vector<testing::FaultKind>> parse_kinds(const std::string& s) {
  std::vector<testing::FaultKind> kinds;
  std::string cur;
  const auto flush = [&]() -> bool {
    if (cur.empty()) return true;
    if (cur == "corrupt") kinds.push_back(testing::FaultKind::kCorruptField);
    else if (cur == "drop") kinds.push_back(testing::FaultKind::kDropRow);
    else if (cur == "dup") kinds.push_back(testing::FaultKind::kDuplicateRow);
    else if (cur == "swap") kinds.push_back(testing::FaultKind::kSwapRows);
    else return false;
    cur.clear();
    return true;
  };
  for (char c : s) {
    if (c == ',') {
      if (!flush()) return std::nullopt;
    } else {
      cur.push_back(c);
    }
  }
  if (!flush()) return std::nullopt;
  return kinds;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args("cninject", argc, argv, 1);
  if (!args.ok()) {
    std::fprintf(stderr, "cninject: bad argument '%s'\n", args.bad().c_str());
    return usage();
  }
  if (const auto bad = args.unknown({"input", "output", "in", "out", "seed", "rate",
                                     "kinds", "gaps", "gap-width", "truncate",
                                     "sections"})) {
    std::fprintf(stderr, "cninject: unknown option --%s\n", bad->c_str());
    return usage();
  }
  const std::string in = args.get_or("input", args.get_or("in", ""));
  const std::string out = args.get_or("output", args.get_or("out", ""));
  if (in.empty() || out.empty()) return usage();

  const std::uint64_t seed = args.get_u64("seed", 42);
  testing::FaultOptions options;
  options.row_corruption_rate = args.get_fraction("rate", options.row_corruption_rate);
  if (const auto kinds_arg = args.get("kinds")) {
    const auto kinds = parse_kinds(*kinds_arg);
    if (!kinds) {
      std::fprintf(stderr, "cninject: bad --kinds '%s'\n", kinds_arg->c_str());
      return usage();
    }
    options.kinds = *kinds;
  }
  options.snapshot_gaps = args.get_u64("gaps", options.snapshot_gaps);
  options.gap_width = static_cast<SimTime>(
      args.get_u64("gap-width", static_cast<std::uint64_t>(options.gap_width),
                   std::numeric_limits<SimTime>::max()));
  options.truncate_tail = args.get_u64("truncate", 0, 1) == 1;
  options.cnb_sections = args.get_u64("sections", options.cnb_sections);

  testing::FaultInjector injector(seed);
  testing::InjectionLog log;
  if (io::sniff_dataset_format(in) == io::DatasetFormat::kCnb) {
    if (!injector.inject_cnb_file(in, out, options, log)) {
      std::fprintf(stderr, "cninject: could not read CNB1 file %s\n", in.c_str());
      return 1;
    }
  } else {
    log = injector.inject_dataset(in, out, options);
  }
  log.seed = seed;

  std::printf("injected %zu fault(s) with seed %llu (%zu strict-detectable)\n",
              log.faults.size(), static_cast<unsigned long long>(seed),
              log.detectable().size());
  for (const auto& f : log.faults) {
    if (f.kind == testing::FaultKind::kDeleteSnapshotWindow) {
      std::printf("  %-22s %s:%zu  %s (gap %lld..%lld)\n", to_string(f.kind),
                  f.file.c_str(), f.line, f.detail.c_str(),
                  static_cast<long long>(f.gap_from),
                  static_cast<long long>(f.gap_to));
    } else {
      std::printf("  %-22s %s:%zu  %s%s\n", to_string(f.kind), f.file.c_str(),
                  f.line, f.detail.c_str(), f.detectable ? "  [detectable]" : "");
    }
  }
  return 0;
}

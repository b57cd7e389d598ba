#include "testing/fault_injector.hpp"

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "io/cnb.hpp"

namespace cn::testing {

namespace {

/// Physical lines of @p path, without terminators. The injector works on
/// physical lines; exported data sets never quote a newline into a field
/// (txids, numbers, and pool tags are newline-free).
std::optional<std::vector<std::string>> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::vector<std::string> lines;
  std::string line;
  std::istringstream stream(buffer.str());
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

bool write_lines(const std::string& path, const std::vector<std::string>& lines,
                 bool final_newline = true) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << lines[i];
    if (i + 1 < lines.size() || final_newline) out << '\n';
  }
  out.flush();
  return out.good();
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(cur);
  return fields;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += fields[i];
  }
  return out;
}

bool is_hex64(const std::string& s) {
  if (s.size() != 64) return false;
  for (char c : s) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

bool is_number(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCorruptField: return "corrupt-field";
    case FaultKind::kDropRow: return "drop-row";
    case FaultKind::kDuplicateRow: return "duplicate-row";
    case FaultKind::kSwapRows: return "swap-rows";
    case FaultKind::kTruncateFile: return "truncate-file";
    case FaultKind::kDeleteSnapshotWindow: return "delete-snapshot-window";
    case FaultKind::kCorruptSection: return "corrupt-section";
    case FaultKind::kTornWrite: return "torn-write";
  }
  return "unknown";
}

std::size_t InjectionLog::count(FaultKind kind) const noexcept {
  std::size_t n = 0;
  for (const InjectedFault& f : faults)
    if (f.kind == kind) ++n;
  return n;
}

std::vector<const InjectedFault*> InjectionLog::detectable() const {
  std::vector<const InjectedFault*> out;
  for (const InjectedFault& f : faults)
    if (f.detectable) out.push_back(&f);
  return out;
}

FaultInjector::FaultInjector(std::uint64_t seed) : rng_(seed) {}

bool FaultInjector::inject_file(const std::string& src, const std::string& dst,
                                const FaultOptions& options, InjectionLog& log) {
  const auto lines = read_lines(src);
  if (!lines || lines->empty()) return false;

  std::vector<FaultKind> row_kinds;
  for (FaultKind k : options.kinds) {
    if (k != FaultKind::kTruncateFile && k != FaultKind::kDeleteSnapshotWindow &&
        k != FaultKind::kCorruptSection && k != FaultKind::kTornWrite) {
      row_kinds.push_back(k);
    }
  }

  std::vector<std::string> out;
  out.reserve(lines->size());
  out.push_back((*lines)[0]);  // header passes through untouched

  for (std::size_t i = 1; i < lines->size(); ++i) {
    const std::string& line = (*lines)[i];
    if (row_kinds.empty() || !rng_.chance(options.row_corruption_rate)) {
      out.push_back(line);
      continue;
    }
    const FaultKind kind = row_kinds[rng_.uniform_below(row_kinds.size())];
    switch (kind) {
      case FaultKind::kCorruptField: {
        // Quoted lines would need field-aware surgery; pass them through
        // rather than risk an ambiguous mutation (exports rarely quote).
        if (line.find('"') != std::string::npos) {
          out.push_back(line);
          break;
        }
        std::vector<std::string> fields = split_fields(line);
        std::vector<std::size_t> candidates;
        for (std::size_t f = 0; f < fields.size(); ++f) {
          if (is_number(fields[f]) || is_hex64(fields[f])) candidates.push_back(f);
        }
        const bool detectable = !candidates.empty();
        const std::size_t target =
            detectable ? candidates[rng_.uniform_below(candidates.size())]
                       : rng_.uniform_below(fields.size());
        std::string& field = fields[target];
        if (field.empty()) field = "x";
        else field[rng_.uniform_below(field.size())] = 'x';
        const std::size_t out_line = out.size() + 1;
        out.push_back(join_fields(fields));
        log.faults.push_back({FaultKind::kCorruptField, dst, out_line,
                              "field " + std::to_string(target) +
                                  " made unparseable",
                              detectable, 0, 0});
        break;
      }
      case FaultKind::kDropRow: {
        log.faults.push_back({FaultKind::kDropRow, dst, out.size() + 1,
                              "row dropped", false, 0, 0});
        break;
      }
      case FaultKind::kDuplicateRow: {
        out.push_back(line);
        const std::size_t out_line = out.size() + 1;
        out.push_back(line);
        log.faults.push_back({FaultKind::kDuplicateRow, dst, out_line,
                              "row duplicated", false, 0, 0});
        break;
      }
      case FaultKind::kSwapRows: {
        if (i + 1 >= lines->size()) {  // no successor to swap with
          out.push_back(line);
          break;
        }
        const std::size_t out_line = out.size() + 1;
        out.push_back((*lines)[i + 1]);
        out.push_back(line);
        ++i;  // the successor was consumed
        log.faults.push_back({FaultKind::kSwapRows, dst, out_line,
                              "adjacent rows swapped", false, 0, 0});
        break;
      }
      case FaultKind::kTruncateFile:
      case FaultKind::kDeleteSnapshotWindow:
      case FaultKind::kCorruptSection:
      case FaultKind::kTornWrite:
        out.push_back(line);  // not row faults; unreachable via row_kinds
        break;
    }
  }

  bool final_newline = true;
  if (options.truncate_tail && out.size() > 1) {
    const std::size_t cut = 1 + rng_.uniform_below(out.size() - 1);
    std::string& last = out[cut];
    const std::size_t keep =
        last.size() > 1 ? 1 + rng_.uniform_below(last.size() - 1) : 0;
    last.resize(keep);
    out.resize(cut + 1);
    final_newline = false;
    log.faults.push_back({FaultKind::kTruncateFile, dst, cut + 1,
                          "file cut mid-record", false, 0, 0});
  }

  return write_lines(dst, out, final_newline);
}

bool FaultInjector::delete_snapshot_window(const std::string& src,
                                           const std::string& dst, SimTime width,
                                           InjectionLog& log) {
  const auto lines = read_lines(src);
  if (!lines || lines->size() < 5) return false;  // header + >= 4 rows

  std::vector<SimTime> times;
  times.reserve(lines->size() - 1);
  for (std::size_t i = 1; i < lines->size(); ++i) {
    times.push_back(std::strtoll((*lines)[i].c_str(), nullptr, 10));
  }

  // Pick a window start that leaves at least one row on each side.
  const std::size_t n = times.size();
  const std::size_t start = 1 + rng_.uniform_below(n / 2);
  std::size_t end = start;  // rows [start, end) are removed
  while (end < n - 1 && times[end] < times[start] + width) ++end;

  std::vector<std::string> out;
  out.reserve(lines->size());
  out.push_back((*lines)[0]);
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= start && i < end) continue;
    out.push_back((*lines)[i + 1]);
  }
  log.faults.push_back({FaultKind::kDeleteSnapshotWindow, dst, start + 2,
                        std::to_string(end - start) + " snapshot row(s) deleted",
                        false, times[start - 1], times[end]});
  return write_lines(dst, out);
}

bool FaultInjector::inject_cnb_file(const std::string& src,
                                    const std::string& dst,
                                    const FaultOptions& options,
                                    InjectionLog& log) {
  const auto info = io::inspect_cnb(src);
  if (!info) return false;

  std::ifstream in(src, std::ios::binary);
  if (!in) return false;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());

  // Directory indices of sections a byte flip can land in.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < info->sections.size(); ++i) {
    const io::CnbSectionInfo& s = info->sections[i];
    if (s.byte_size > 0 && s.offset + s.byte_size <= bytes.size()) {
      candidates.push_back(i);
    }
  }

  if (options.torn_write && !candidates.empty()) {
    // A torn write, not byte flips: pick one section, cut it at an
    // interior offset, and either drop the tail (truncate) or zero it
    // to the section end (a partial page flush). Both leave a file a
    // crashed cnconvert/checkpoint writer could actually have produced.
    const std::size_t dir_index = candidates[rng_.uniform_below(candidates.size())];
    const io::CnbSectionInfo& s = info->sections[dir_index];
    // Tear strictly inside the payload so at least one byte survives and
    // at least one byte is lost.
    const std::uint64_t cut_in_section =
        s.byte_size <= 1 ? 0 : 1 + rng_.uniform_below(s.byte_size - 1);
    std::uint64_t cut = s.offset + cut_in_section;
    bool truncate = rng_.uniform_below(2) == 0;
    if (!truncate) {
      // Zero-filling a tail that is already all zeros mutates nothing —
      // the fault would be invisible, breaking the `detectable` promise.
      // Pull the cut back to cover the section's last nonzero byte, or
      // fall back to truncation when the whole candidate tail is zeros.
      std::uint64_t last_nonzero = 0;  // 0 = none found
      for (std::uint64_t i = s.offset + 1; i < s.offset + s.byte_size; ++i) {
        if (bytes[i] != 0) last_nonzero = i;
      }
      if (last_nonzero == 0) {
        truncate = true;
      } else if (cut > last_nonzero) {
        cut = last_nonzero;
      }
    }
    if (truncate) {
      bytes.resize(cut);
    } else {
      for (std::uint64_t i = cut; i < s.offset + s.byte_size; ++i) bytes[i] = 0;
    }
    log.faults.push_back(
        {FaultKind::kTornWrite, dst, dir_index + 1,
         std::string("section ") +
             io::to_string(static_cast<io::CnbSection>(s.id)) +
             (truncate ? " truncated at file offset " : " zero-torn from file offset ") +
             std::to_string(cut),
         true, 0, 0});

    std::ofstream torn_out(dst, std::ios::binary | std::ios::trunc);
    if (!torn_out) return false;
    torn_out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    torn_out.flush();
    return torn_out.good();
  }

  std::size_t flips = options.cnb_sections;
  if (flips > candidates.size()) flips = candidates.size();
  for (std::size_t f = 0; f < flips; ++f) {
    // Draw without replacement so each fault hits a distinct section.
    const std::size_t pick = rng_.uniform_below(candidates.size());
    const std::size_t dir_index = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));

    const io::CnbSectionInfo& s = info->sections[dir_index];
    const std::uint64_t at = s.offset + rng_.uniform_below(s.byte_size);
    bytes[at] = static_cast<char>(
        static_cast<unsigned char>(bytes[at]) ^
        static_cast<unsigned char>(1 + rng_.uniform_below(255)));
    log.faults.push_back(
        {FaultKind::kCorruptSection, dst, dir_index + 1,
         std::string("section ") +
             io::to_string(static_cast<io::CnbSection>(s.id)) +
             " payload byte flipped at file offset " + std::to_string(at),
         true, 0, 0});
  }

  if (options.truncate_tail && bytes.size() > io::kCnbHeaderBytes) {
    // Cut somewhere past the header so the defect reads as a truncated
    // payload, not a missing directory.
    const std::size_t keep =
        io::kCnbHeaderBytes +
        rng_.uniform_below(bytes.size() - io::kCnbHeaderBytes);
    bytes.resize(keep);
    log.faults.push_back({FaultKind::kTruncateFile, dst, 0,
                          "file cut mid-section", false, 0, 0});
  }

  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return out.good();
}

InjectionLog FaultInjector::inject_dataset(const std::string& src_dir,
                                           const std::string& dst_dir,
                                           const FaultOptions& options) {
  InjectionLog log;
  std::error_code ec;
  std::filesystem::create_directories(dst_dir, ec);

  // Fixed file order keeps the fault sequence deterministic per seed.
  for (const char* name :
       {"blocks.csv", "txs.csv", "inputs.csv", "outputs.csv", "first_seen.csv"}) {
    const std::string src = src_dir + "/" + name;
    if (!std::filesystem::exists(src, ec)) continue;
    inject_file(src, dst_dir + "/" + name, options, log);
  }

  const std::string snap_src = src_dir + "/snapshots.csv";
  if (std::filesystem::exists(snap_src, ec)) {
    const std::string snap_dst = dst_dir + "/snapshots.csv";
    if (options.snapshot_gaps == 0) {
      std::filesystem::copy_file(snap_src, snap_dst,
                                 std::filesystem::copy_options::overwrite_existing,
                                 ec);
    } else {
      std::string cur = snap_src;
      for (std::size_t g = 0; g < options.snapshot_gaps; ++g) {
        if (!delete_snapshot_window(cur, snap_dst, options.gap_width, log)) break;
        cur = snap_dst;
      }
    }
  }
  return log;
}

}  // namespace cn::testing

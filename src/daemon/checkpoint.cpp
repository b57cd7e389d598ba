#include "daemon/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "testing/crash_points.hpp"

namespace cn::daemon {

namespace {

constexpr char kMagic[6] = {'C', 'N', 'C', 'P', '1', '\0'};
constexpr std::uint16_t kVersion = 2;

/// Closes a file descriptor on every return path.
struct FileDescriptor {
  explicit FileDescriptor(int value) : fd(value) {}
  ~FileDescriptor() {
    if (fd >= 0) ::close(fd);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  int fd;
};

bool fsync_path(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (error != nullptr) *error = path + ": open for fsync: " + std::strerror(errno);
    return false;
  }
  const bool ok = ::fsync(fd) == 0;
  if (!ok && error != nullptr) *error = path + ": fsync: " + std::strerror(errno);
  ::close(fd);
  return ok;
}

bool pwrite_all(int fd, const std::uint8_t* data, std::size_t size, off_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += n;
  }
  return true;
}

/// Reads exactly @p size bytes from offset 0; false on an error or EOF.
bool pread_all(int fd, std::uint8_t* data, std::size_t size) {
  off_t offset = 0;
  while (size > 0) {
    const ssize_t n = ::pread(fd, data, size, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += n;
  }
  return true;
}

io::LoadError make_error(io::LoadErrorKind kind, const std::string& path,
                         std::string detail) {
  io::LoadError e;
  e.kind = kind;
  e.file = path;
  e.detail = std::move(detail);
  return e;
}

/// Steps (1) and (2) of a save: truncates the segment at @p path to
/// @p committed bytes, then writes @p records there and fsyncs.
bool append_records(const std::string& path, off_t committed,
                    const std::vector<std::uint8_t>& records, std::string* error) {
  const auto fail = [&](const char* what) {
    if (error != nullptr) *error = path + ": " + what + ": " + std::strerror(errno);
    return false;
  };
  const FileDescriptor segment(::open(path.c_str(), O_WRONLY | O_CREAT, 0644));
  if (segment.fd < 0) return fail("open");
  if (::ftruncate(segment.fd, committed) != 0) return fail("ftruncate");
  const std::size_t half = records.size() / 2;
  if (!pwrite_all(segment.fd, records.data(), half, committed)) return fail("write");
  testing::crash_point("checkpoint.mid_append");
  if (!pwrite_all(segment.fd, records.data() + half, records.size() - half,
                  committed + static_cast<off_t>(half))) {
    return fail("write");
  }
  if (::fsync(segment.fd) != 0) return fail("fsync");
  return true;
}

}  // namespace

std::string checkpoint_log_path(const std::string& path) { return path + ".log"; }

bool save_checkpoint(const AuditAccumulators& acc, const std::string& path,
                     CheckpointLog& log, std::string* error) {
  if (acc.log_size() < log.records) {
    if (error != nullptr) *error = path + ": event log is shorter than the committed segment";
    return false;
  }
  std::vector<std::uint8_t> records;
  acc.encode_log(log.records, records);
  const off_t committed =
      static_cast<off_t>(log.records * AuditAccumulators::kLogRecordBytes);
  if (!append_records(checkpoint_log_path(path), committed, records, error)) {
    return false;
  }
  testing::crash_point("checkpoint.post_append");
  const CheckpointLog next{acc.log_size(),
                           util::fnv1a(records.data(), records.size(), log.checksum)};

  std::vector<std::uint8_t> payload;
  acc.encode(payload);
  std::vector<std::uint8_t> file;
  file.reserve(payload.size() + 64);
  util::ByteWriter w(file);
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u8(static_cast<std::uint8_t>(kVersion & 0xff));
  w.u8(static_cast<std::uint8_t>(kVersion >> 8));
  w.u64(acc.options().fingerprint());
  // The registry itself is not serialized — the daemon re-creates it —
  // but its fingerprint guards against resuming with different tags.
  w.u64(acc.registry_fingerprint());
  w.u64(next.records);
  w.u64(next.checksum);
  w.u64(payload.size());
  w.u64(util::fnv1a(payload.data(), payload.size()));
  file.insert(file.end(), payload.begin(), payload.end());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = tmp + ": cannot open for writing";
      return false;
    }
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
    if (!out) {
      if (error != nullptr) *error = tmp + ": short write";
      return false;
    }
  }
  testing::crash_point("checkpoint.pre_fsync");
  if (!fsync_path(tmp, error)) return false;
  testing::crash_point("checkpoint.pre_rename");
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr) *error = tmp + " -> " + path + ": rename: " + ec.message();
    return false;
  }
  testing::crash_point("checkpoint.post_rename");
  // Durable rename: fsync the containing directory so the new directory
  // entries (the state file, and the segment on the first save) survive
  // power loss too (best-effort; some filesystems refuse to open
  // directories).
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) fsync_path(dir.string(), nullptr);
  log = next;
  return true;
}

CheckpointLoad load_checkpoint(AuditAccumulators& acc, const std::string& path,
                               std::uint64_t expected_config,
                               std::uint64_t expected_registry) {
  CheckpointLoad result;

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    result.error = make_error(io::LoadErrorKind::kFileOpen, path,
                              "checkpoint file missing or unreadable");
    return result;
  }
  std::vector<std::uint8_t> file((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  in.close();

  util::ByteReader r(file.data(), file.size());
  char magic[6] = {};
  for (char& c : magic) {
    std::uint8_t b = 0;
    if (!r.u8(b)) {
      result.error = make_error(io::LoadErrorKind::kTruncatedFile, path,
                                "shorter than the CNCP1 magic");
      return result;
    }
    c = static_cast<char>(b);
  }
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    result.error = make_error(io::LoadErrorKind::kBadMagic, path,
                              "not a CNCP1 checkpoint");
    return result;
  }
  std::uint8_t vlo = 0, vhi = 0;
  if (!r.u8(vlo) || !r.u8(vhi)) {
    result.error = make_error(io::LoadErrorKind::kTruncatedFile, path,
                              "header extends past EOF");
    return result;
  }
  const std::uint16_t version = static_cast<std::uint16_t>(vlo | (vhi << 8));
  if (version != kVersion) {
    result.error = make_error(io::LoadErrorKind::kUnsupportedVersion, path,
                              "checkpoint version " + std::to_string(version));
    return result;
  }
  std::uint64_t config_fpr = 0, registry_fpr = 0, log_records = 0, log_checksum = 0,
                payload_size = 0, checksum = 0;
  if (!r.u64(config_fpr) || !r.u64(registry_fpr) || !r.u64(log_records) ||
      !r.u64(log_checksum) || !r.u64(payload_size) || !r.u64(checksum)) {
    result.error = make_error(io::LoadErrorKind::kTruncatedFile, path,
                              "header extends past EOF");
    return result;
  }
  if (config_fpr != expected_config) {
    result.error =
        make_error(io::LoadErrorKind::kUnsupportedVersion, path,
                   "checkpoint was written under different accumulator options");
    return result;
  }
  if (registry_fpr != expected_registry) {
    result.error =
        make_error(io::LoadErrorKind::kUnsupportedVersion, path,
                   "checkpoint was written under a different coinbase-tag registry");
    return result;
  }
  if (payload_size != r.remaining()) {
    result.error = make_error(
        io::LoadErrorKind::kTruncatedFile, path,
        "payload is " + std::to_string(r.remaining()) + " bytes, header says " +
            std::to_string(payload_size));
    return result;
  }
  const std::uint8_t* payload = file.data() + (file.size() - payload_size);
  if (util::fnv1a(payload, payload_size) != checksum) {
    result.error = make_error(io::LoadErrorKind::kSectionChecksum, path,
                              "payload checksum mismatch");
    return result;
  }
  std::string decode_error;
  if (!acc.decode(payload, payload_size, &decode_error)) {
    result.error = make_error(io::LoadErrorKind::kSectionLayout, path,
                              "payload decode: " + decode_error);
    return result;
  }

  // The segment's committed prefix. Bytes past it are a torn or
  // unfinished append; they are ignored here and truncated by the next
  // save.
  const std::string segment_path = checkpoint_log_path(path);
  const FileDescriptor segment(::open(segment_path.c_str(), O_RDONLY));
  struct stat st {};
  if (segment.fd < 0 || ::fstat(segment.fd, &st) != 0) {
    result.error = make_error(io::LoadErrorKind::kTruncatedFile, segment_path,
                              "event-log segment missing or unreadable");
    return result;
  }
  const std::uint64_t whole_records =
      static_cast<std::uint64_t>(st.st_size) / AuditAccumulators::kLogRecordBytes;
  if (log_records > whole_records) {
    result.error = make_error(
        io::LoadErrorKind::kTruncatedFile, segment_path,
        "segment holds " + std::to_string(whole_records) +
            " records, state file commits " + std::to_string(log_records));
    return result;
  }
  std::vector<std::uint8_t> prefix(log_records * AuditAccumulators::kLogRecordBytes);
  if (!pread_all(segment.fd, prefix.data(), prefix.size())) {
    result.error = make_error(io::LoadErrorKind::kTruncatedFile, segment_path,
                              "short read of the committed records");
    return result;
  }
  if (util::fnv1a(prefix.data(), prefix.size()) != log_checksum) {
    result.error = make_error(io::LoadErrorKind::kSectionChecksum, segment_path,
                              "event-log checksum mismatch");
    return result;
  }
  if (!acc.decode_log(prefix.data(), prefix.size(), &decode_error)) {
    result.error = make_error(io::LoadErrorKind::kSectionLayout, segment_path,
                              "event-log decode: " + decode_error);
    return result;
  }
  result.ok = true;
  result.seq = acc.last_seq();
  result.log = {log_records, log_checksum};
  return result;
}

}  // namespace cn::daemon

#include "util/csv.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/strings.hpp"

namespace cn {

std::string csv_escape(std::string_view v) {
  const bool needs_quotes =
      v.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(v);
  std::string out;
  out.reserve(v.size() + 2);
  out.push_back('"');
  for (char c : v) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

CsvWriter::CsvWriter(const std::string& path) : out_(path) {}

void CsvWriter::separator() {
  if (row_started_) out_ << ',';
  row_started_ = true;
}

CsvWriter& CsvWriter::field(std::string_view v) {
  separator();
  out_ << csv_escape(v);
  return *this;
}

CsvWriter& CsvWriter::field(double v, int decimals) {
  separator();
  out_ << fixed(v, decimals);
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t v) {
  separator();
  out_ << v;
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t v) {
  separator();
  out_ << v;
  return *this;
}

void CsvWriter::end_row() {
  out_ << '\n';
  row_started_ = false;
}

void CsvWriter::header(const std::vector<std::string>& names) {
  for (const auto& n : names) field(n);
  end_row();
}

bool CsvWriter::close() {
  if (closed_) return closed_ok_;
  closed_ = true;
  out_.flush();
  closed_ok_ = out_.good();
  out_.close();
  closed_ok_ = closed_ok_ && !out_.fail();
  return closed_ok_;
}

namespace {

/// Reads everything @p fd holds into @p out. A regular file arrives in
/// one read into a buffer of its fstat size; anything else (a pipe, a
/// device) streams in chunks, as does whatever a regular file gained
/// after the fstat. A read error (EISDIR for a directory) ends the
/// input, like the end of the file.
void read_all(int fd, std::string& out) {
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    out.resize(static_cast<std::size_t>(st.st_size));
    std::size_t have = 0;
    while (have < out.size()) {
      const ssize_t got = ::read(fd, out.data() + have, out.size() - have);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      have += static_cast<std::size_t>(got);
    }
    if (have < out.size()) {  // the file shrank after the fstat
      out.resize(have);
      return;
    }
  }
  char chunk[1 << 14];
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return;
    out.append(chunk, static_cast<std::size_t>(got));
  }
}

}  // namespace

CsvReader::CsvReader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ok_ = true;
  read_all(fd, buf_);
  ::close(fd);
  newlines_ = static_cast<std::size_t>(std::count(buf_.begin(), buf_.end(), '\n'));
}

bool CsvReader::next_row(std::vector<std::string_view>& fields) {
  fields.clear();
  truncated_ = false;
  const std::size_t end = buf_.size();
  if (pos_ == end) return false;
  record_line_ = cur_line_;

  char* const buf = buf_.data();
  std::size_t r = pos_;      // next byte to read
  std::size_t w = pos_;      // next byte of unescaped output; w <= r
  std::size_t field = pos_;  // where the current field's output begins
  bool in_quotes = false;
  while (r < end) {
    if (in_quotes) {
      const char ch = buf[r++];
      if (ch == '"') {
        if (r < end && buf[r] == '"') {
          buf[w++] = '"';
          ++r;
        } else {
          in_quotes = false;
        }
      } else {
        if (ch == '\n') ++cur_line_;
        buf[w++] = ch;
      }
      continue;
    }
    // Copy the plain run up to the next byte with a meaning; until the
    // record's first quote or CR the run is already in place.
    std::size_t run = r;
    while (run < end && buf[run] != ',' && buf[run] != '\n' && buf[run] != '"' &&
           buf[run] != '\r') {
      ++run;
    }
    if (w != r) std::memmove(buf + w, buf + r, run - r);
    w += run - r;
    r = run;
    if (r == end) break;
    switch (buf[r++]) {
      case '"':
        in_quotes = true;
        break;
      case ',':
        fields.emplace_back(buf + field, w - field);
        field = w;
        break;
      case '\n':
        ++cur_line_;
        fields.emplace_back(buf + field, w - field);
        pos_ = r;
        return true;
      default:  // '\r': swallowed (handles CRLF)
        break;
    }
  }
  // Last record without a trailing newline — or a truncated file that
  // ends mid-quote, which callers can distinguish via truncated().
  truncated_ = in_quotes;
  fields.emplace_back(buf + field, w - field);
  pos_ = end;
  return true;
}

}  // namespace cn

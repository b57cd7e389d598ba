// Minimal CSV writer used by benches and examples to dump series
// (CDFs, time series, tables) that plot scripts can consume, and the
// reader the data-set importers parse exports with.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace cn {

/// Streams rows to a CSV file. Fields containing separators, quotes, or
/// newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens @p path for writing (truncates). ok() reports failure instead of
  /// throwing so benches can degrade to stdout-only output.
  explicit CsvWriter(const std::string& path);

  /// True while the stream is healthy. Reflects accumulated state: once a
  /// write fails (disk full, closed descriptor) this stays false. Note that
  /// ofstream buffering can defer the failure until flush — close() is the
  /// authoritative end-of-export check.
  bool ok() const noexcept { return out_.good(); }

  CsvWriter& field(std::string_view v);
  CsvWriter& field(double v, int decimals = 6);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(std::uint64_t v);

  /// Ends the current row.
  void end_row();

  /// Convenience: writes a full header row.
  void header(const std::vector<std::string>& names);

  /// Flushes and closes the file; returns false if any write (including
  /// the final flush) failed. Safe to call more than once.
  bool close();

 private:
  std::ofstream out_;
  bool row_started_ = false;
  bool closed_ok_ = false;
  bool closed_ = false;

  void separator();
};

/// Escapes a single CSV field (exposed for testing).
std::string csv_escape(std::string_view v);

/// CSV reader (RFC 4180: quoted fields, doubled quotes, embedded
/// newlines; a CR outside quotes is dropped, so CRLF files read like LF
/// ones). Complements CsvWriter for data-set import.
///
/// The constructor reads the whole file into a buffer the reader owns,
/// with one read for a regular file (sized by fstat) and chunked reads
/// for anything else. next_row() then tokenizes one record into views
/// over that buffer, unescaping quoted fields in place: dropping the
/// quotes only ever shrinks a field, so the unescaped bytes never
/// overtake the ones still to be read.
class CsvReader {
 public:
  explicit CsvReader(const std::string& path);

  // Neither copied nor moved: the rows handed out are views of buf_.
  CsvReader(const CsvReader&) = delete;
  CsvReader& operator=(const CsvReader&) = delete;

  /// False when the file could not be opened. A path that opens but
  /// cannot be read (a directory) is ok() and simply has no rows.
  bool ok() const noexcept { return ok_; }

  /// Reads the next record into @p fields (cleared first). The views
  /// point into the reader's buffer and stay valid for the reader's
  /// lifetime. Returns false at end of input.
  bool next_row(std::vector<std::string_view>& fields);

  /// 1-based physical line on which the record last returned by
  /// next_row() began (quoted fields may span further lines).
  std::size_t line() const noexcept { return record_line_; }

  /// True if the record last returned by next_row() ended at EOF inside
  /// an unterminated quoted field (a truncated file).
  bool truncated() const noexcept { return truncated_; }

  /// Newline bytes in the file: an upper bound on its records that
  /// loaders use to size their containers before the parse.
  std::size_t newline_count() const noexcept { return newlines_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  ///< first unread byte of buf_
  std::size_t newlines_ = 0;
  std::size_t cur_line_ = 1;
  std::size_t record_line_ = 0;
  bool ok_ = false;
  bool truncated_ = false;
};

}  // namespace cn

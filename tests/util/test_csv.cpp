#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string_view>
#include <vector>

namespace cn {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CsvEscape, PlainFieldUntouched) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, QuotesFieldsWithSeparators) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvEscape, DoublesEmbeddedQuotes) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

/// A file of the running test's own: ctest runs each test of a fixture as
/// its own process, in parallel, and a shared path would let one test's
/// TearDown delete another's input.
std::string test_path(const char* prefix) {
  return ::testing::TempDir() + "/" + prefix +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
}

class CsvWriterTest : public ::testing::Test {
 protected:
  std::string path_ = test_path("cn_csv_test_");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_);
    ASSERT_TRUE(csv.ok());
    csv.header({"name", "value"});
    csv.field("pi").field(3.14159, 2);
    csv.end_row();
    csv.field("n").field(std::int64_t{-5});
    csv.end_row();
  }
  EXPECT_EQ(read_all(path_), "name,value\npi,3.14\nn,-5\n");
}

TEST_F(CsvWriterTest, QuotesSpecialFields) {
  {
    CsvWriter csv(path_);
    csv.field("a,b").field(std::uint64_t{7});
    csv.end_row();
  }
  EXPECT_EQ(read_all(path_), "\"a,b\",7\n");
}

TEST(CsvWriter, ReportsFailureForBadPath) {
  CsvWriter csv("/nonexistent-dir-xyz/file.csv");
  EXPECT_FALSE(csv.ok());
  EXPECT_FALSE(csv.close());
}

TEST_F(CsvWriterTest, CloseReportsSuccessAndIsIdempotent) {
  CsvWriter csv(path_);
  csv.field("a").end_row();
  EXPECT_TRUE(csv.close());
  EXPECT_TRUE(csv.close());  // second close keeps the verdict
}

class CsvReaderEdgeTest : public ::testing::Test {
 protected:
  std::string path_ = test_path("cn_csv_edge_");
  void TearDown() override { std::remove(path_.c_str()); }

  void write_raw(const std::string& content) {
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }
};

TEST_F(CsvReaderEdgeTest, HandlesCrlfLineEndings) {
  write_raw("a,b\r\n1,2\r\n3,4\r\n");
  CsvReader reader(path_);
  std::vector<std::string_view> row;
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row, (std::vector<std::string_view>{"a", "b"}));
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row, (std::vector<std::string_view>{"1", "2"}));
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row, (std::vector<std::string_view>{"3", "4"}));
  EXPECT_FALSE(reader.next_row(row));
}

TEST_F(CsvReaderEdgeTest, HandlesMissingTrailingNewline) {
  write_raw("a,b\n1,2");
  CsvReader reader(path_);
  std::vector<std::string_view> row;
  ASSERT_TRUE(reader.next_row(row));
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row, (std::vector<std::string_view>{"1", "2"}));
  EXPECT_FALSE(reader.truncated());  // complete record, just no newline
  EXPECT_FALSE(reader.next_row(row));
}

TEST_F(CsvReaderEdgeTest, FlagsUnterminatedQuoteAtEof) {
  write_raw("a,b\n1,\"unclosed");
  CsvReader reader(path_);
  std::vector<std::string_view> row;
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_FALSE(reader.truncated());
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.next_row(row));
}

TEST_F(CsvReaderEdgeTest, FlagsQuotedFieldCutMidNewline) {
  // A quoted field legitimately spans lines; EOF inside it is truncation.
  write_raw("a,b\n1,\"line\nbroke here");
  CsvReader reader(path_);
  std::vector<std::string_view> row;
  ASSERT_TRUE(reader.next_row(row));
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(row[1], "line\nbroke here");
}

TEST_F(CsvReaderEdgeTest, TracksPhysicalLineNumbers) {
  write_raw("h1,h2\nr1,x\n\"multi\nline\",y\nr3,z\n");
  CsvReader reader(path_);
  std::vector<std::string_view> row;
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line(), 1u);
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line(), 2u);
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line(), 3u);  // record starts on line 3, spans 3-4
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line(), 5u);  // the embedded newline advanced the count
  EXPECT_EQ(row[0], "r3");
  EXPECT_EQ(reader.newline_count(), 5u);
}

TEST_F(CsvReaderEdgeTest, EmptyFileYieldsNoRows) {
  write_raw("");
  CsvReader reader(path_);
  std::vector<std::string_view> row;
  EXPECT_FALSE(reader.next_row(row));
}

/// The char-at-a-time istream reader that CsvReader replaced, kept
/// verbatim as the reference for the differential test below.
class ReferenceCsvReader {
 public:
  explicit ReferenceCsvReader(const std::string& path) : in_(path) {}

  bool next_row(std::vector<std::string>& fields) {
    fields.clear();
    truncated_ = false;
    if (!in_ || in_.peek() == std::char_traits<char>::eof()) return false;
    record_line_ = cur_line_;

    std::string field;
    bool in_quotes = false;
    bool saw_anything = false;
    int c;
    while ((c = in_.get()) != std::char_traits<char>::eof()) {
      saw_anything = true;
      const char ch = static_cast<char>(c);
      if (ch == '\n') ++cur_line_;
      if (in_quotes) {
        if (ch == '"') {
          if (in_.peek() == '"') {
            field.push_back('"');
            in_.get();
          } else {
            in_quotes = false;
          }
        } else {
          field.push_back(ch);
        }
        continue;
      }
      if (ch == '"') {
        in_quotes = true;
      } else if (ch == ',') {
        fields.push_back(std::move(field));
        field.clear();
      } else if (ch == '\n') {
        fields.push_back(std::move(field));
        return true;
      } else if (ch == '\r') {
        // swallow (handles CRLF)
      } else {
        field.push_back(ch);
      }
    }
    if (saw_anything) {
      truncated_ = in_quotes;
      fields.push_back(std::move(field));
      return true;
    }
    return false;
  }

  std::size_t line() const noexcept { return record_line_; }
  bool truncated() const noexcept { return truncated_; }

 private:
  std::ifstream in_;
  std::size_t cur_line_ = 1;
  std::size_t record_line_ = 0;
  bool truncated_ = false;
};

TEST_F(CsvReaderEdgeTest, DifferentialAgainstCharAtATimeReader) {
  // Random files over the bytes the grammar cares about: empty fields,
  // doubled quotes, CRLF, quoted newlines, no trailing newline and EOF
  // inside a quote all come up many times over.
  constexpr char kAlphabet[] = {'a', '1', ',', '"', '\n', '\r'};
  constexpr int kInputs = 20'000;
  std::mt19937_64 gen(20260417);
  std::size_t records = 0, truncated = 0, empty_fields = 0, no_final_newline = 0,
              crlf = 0, doubled_quotes = 0;
  for (int input = 0; input < kInputs; ++input) {
    std::string text(gen() % 48, '\0');
    for (char& c : text) c = kAlphabet[gen() % sizeof kAlphabet];
    write_raw(text);
    no_final_newline += !text.empty() && text.back() != '\n';
    crlf += text.find("\r\n") != std::string::npos;
    doubled_quotes += text.find("\"\"") != std::string::npos;

    ReferenceCsvReader ref(path_);
    CsvReader reader(path_);
    ASSERT_TRUE(reader.ok());
    std::vector<std::vector<std::string>> expected;
    std::vector<std::vector<std::string_view>> got;
    std::vector<std::string> want;
    std::vector<std::string_view> row;
    for (;;) {
      const bool more = ref.next_row(want);
      ASSERT_EQ(reader.next_row(row), more) << "input " << input;
      if (!more) break;
      ASSERT_EQ(reader.line(), ref.line()) << "input " << input;
      ASSERT_EQ(reader.truncated(), ref.truncated()) << "input " << input;
      truncated += ref.truncated();
      for (const std::string& f : want) empty_fields += f.empty();
      expected.push_back(want);
      got.push_back(row);
    }
    // Compared only once the file is consumed: every view must still
    // hold its field after the later records were unescaped in place.
    ASSERT_EQ(got.size(), expected.size()) << "input " << input;
    for (std::size_t r = 0; r < got.size(); ++r) {
      ASSERT_EQ(got[r].size(), expected[r].size()) << "input " << input << " record " << r;
      for (std::size_t f = 0; f < got[r].size(); ++f) {
        ASSERT_EQ(got[r][f], expected[r][f])
            << "input " << input << " record " << r << " field " << f;
      }
    }
    records += got.size();
  }
  EXPECT_GT(records, 50'000u);
  EXPECT_GT(truncated, 1'000u);
  EXPECT_GT(empty_fields, 10'000u);
  EXPECT_GT(no_final_newline, 1'000u);
  EXPECT_GT(crlf, 1'000u);
  EXPECT_GT(doubled_quotes, 1'000u);
}

}  // namespace
}  // namespace cn

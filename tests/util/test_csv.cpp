// The field-level output helpers: CSV and JSON escaping and the checked file
// write. Whole tables (CSV, JSON and text rendering) are tested through
// TextTable in test_table.cpp.
#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace bwshare::util {
namespace {

TEST(CsvEscape, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("1.25"), "1.25");
}

TEST(CsvEscape, QuotesFieldsWithSeparators) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(WriteTextFile, RoundTripsAndErrorsOnBadPath) {
  const std::string path = testing::TempDir() + "bwshare_test_text.txt";
  write_text_file(path, "line1\nline2");
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), "line1\nline2");
  EXPECT_THROW(write_text_file("/nonexistent-dir/x.txt", "data"), Error);
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

}  // namespace
}  // namespace bwshare::util

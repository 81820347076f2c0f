#include "util/table.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace bwshare {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render(0);
  // Header first, underline second, rows afterwards.
  std::istringstream is(out);
  std::string line;
  std::getline(is, line);
  EXPECT_NE(line.find("name"), std::string::npos);
  EXPECT_NE(line.find("value"), std::string::npos);
  std::getline(is, line);
  EXPECT_EQ(line.find_first_not_of('-'), std::string::npos);
}

TEST(TextTable, RowArityIsChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), Error);
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TextTable, EmptyHeaderIsRejected) {
  EXPECT_THROW(TextTable({}), Error);
}

TEST(TextTable, CsvRendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"with,comma", "2"});
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\n\"with,comma\",2\n");
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"a"});
  t.add_row({"plain"});
  t.add_row({"with,comma"});
  t.add_row({"with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTable, WriteCsvRoundTrip) {
  TextTable t({"k", "v"});
  t.add_row({"x", "1"});
  t.add_row({"two\nlines", "say \"hi\""});
  const std::string path = ::testing::TempDir() + "bwshare_table.csv";
  t.write_csv(path);
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), t.to_csv());
}

TEST(TextTable, WriteCsvBadPathThrows) {
  TextTable t({"x"});
  EXPECT_THROW(t.write_csv("/nonexistent-dir/nope.csv"), Error);
}

TEST(TextTable, RenderIndentsEveryLine) {
  TextTable t({"k", "v"});
  t.add_row({"x", "1"});
  t.add_row({"y", "2.5"});
  std::istringstream is(t.render(4));
  std::string line;
  int lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("    ", 0), 0u) << line;
    EXPECT_NE(line[4], ' ') << line;
  }
  EXPECT_EQ(lines, 4);  // header, underline, two rows
}

TEST(TextTableJson, NumbersUnquotedStringsQuoted) {
  TextTable t({"name", "value", "note"});
  t.add_row({"alpha", "1.5", "ok"});
  t.add_row({"beta", "-2e3", "has \"quote\""});
  EXPECT_EQ(t.to_json(),
            "[\n"
            "  {\"name\": \"alpha\", \"value\": 1.5, \"note\": \"ok\"},\n"
            "  {\"name\": \"beta\", \"value\": -2e3, "
            "\"note\": \"has \\\"quote\\\"\"}\n"
            "]");
}

TEST(TextTableJson, EmptyTableIsEmptyArray) {
  TextTable t({"a"});
  EXPECT_EQ(t.to_json(), "[]");
}

TEST(TextTableJson, InfinityAndEmptyAreStrings) {
  TextTable t({"v"});
  t.add_row({"inf"});
  t.add_row({""});
  EXPECT_EQ(t.to_json(), "[\n  {\"v\": \"inf\"},\n  {\"v\": \"\"}\n]");
}

TEST(TextTableJson, StrtodAccepteesThatAreNotJsonNumbersStayQuoted) {
  // strtod consumes all of these, but none is a valid RFC 8259 number.
  TextTable t({"v"});
  for (const char* field : {"0x10", "+1", ".5", "01", "1.", "1e", "-"}) {
    t.add_row({field});
  }
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"0x10\""), std::string::npos);
  EXPECT_NE(json.find("\"+1\""), std::string::npos);
  EXPECT_NE(json.find("\".5\""), std::string::npos);
  EXPECT_NE(json.find("\"01\""), std::string::npos);
  EXPECT_NE(json.find("\"1.\""), std::string::npos);
  EXPECT_NE(json.find("\"1e\""), std::string::npos);
  EXPECT_NE(json.find("\"-\""), std::string::npos);
}

TEST(TextTableJson, ValidJsonNumbersStayBare) {
  TextTable t({"v"});
  for (const char* field : {"0", "-0.5", "10", "2.25", "1e9", "-3E-2"}) {
    t.add_row({field});
  }
  const std::string json = t.to_json();
  for (const char* token :
       {"\"v\": 0}", "\"v\": -0.5}", "\"v\": 10}", "\"v\": 2.25}",
        "\"v\": 1e9}", "\"v\": -3E-2}"}) {
    EXPECT_NE(json.find(token), std::string::npos) << json;
  }
}

}  // namespace
}  // namespace bwshare

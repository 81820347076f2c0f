#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.hpp"
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
}

TEST(TextTable, NumericRows) {
  TextTable t({"label", "x", "y"});
  t.add_row_numeric("r", {1.23456, 2.0}, 2);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_NE(t.render().find("1.23"), std::string::npos);
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
  TextTable t({"x", "y"});
  t.add_row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/bwshare_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(TextTable, WriteCsvBadPathThrows) {
  TextTable t({"x"});
  EXPECT_THROW(t.write_csv("/nonexistent-dir/nope.csv"), Error);
}


TEST(TextTable, EmptyHeaderIsRejected) {
  EXPECT_THROW(TextTable({}), Error);
}

TEST(TextTable, ToCsvMatchesCsvWriter) {
  // The table's CSV is util::CsvWriter's rendering of the same cells.
  const std::vector<std::string> header = {"name", "note"};
  const std::vector<std::vector<std::string>> rows = {
      {"alpha", "plain"}, {"b,c", "say \"hi\""}, {"", "two\nlines"}};
  TextTable t(header);
  util::CsvWriter csv(header);
  for (const auto& row : rows) {
    t.add_row(row);
    csv.add_row(row);
  }
  EXPECT_EQ(t.to_csv(), csv.render());
  EXPECT_EQ(t.num_rows(), csv.num_rows());
}

TEST(TextTable, RenderIndentsEveryLine) {
  TextTable t({"k", "v"});
  t.add_row({"x", "1"});
  t.add_row_numeric("y", {2.5}, 1);
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

}  // namespace
}  // namespace bwshare

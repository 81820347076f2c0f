// Negative paths of the scheme DSL parser: every rejected input documented
// in docs/SCHEME_DSL.md ("Rejected examples") is pinned here with its exact
// error message, so the docs table and the parser cannot drift apart.
#include "graph/scheme_parser.hpp"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bwshare::graph {
namespace {

/// Parse `source` expecting failure; assert the message contains `needle`.
void expect_parse_error(const std::string& source, const std::string& needle) {
  try {
    (void)parse_scheme(source);
    FAIL() << "expected a parse error containing \"" << needle
           << "\" for input:\n"
           << source;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error message was: " << e.what();
  }
}

TEST(SchemeParserErrors, NodeBeyondDeclaredCount) {
  expect_parse_error("nodes 2\ncomm a 0 -> 3\n",
                     "scheme references node 3 but declares only 2 nodes");
}

TEST(SchemeParserErrors, MissingDestinationNode) {
  expect_parse_error(
      "comm a 0 -> 1\ncomm b 0 ->\n",
      "line 2: expected destination node (number), got newline");
}

TEST(SchemeParserErrors, MissingArrowBetweenNodes) {
  expect_parse_error("comm a 0 1\n",
                     "line 1: expected '->' or '<-' after node id");
}

TEST(SchemeParserErrors, UnknownStatement) {
  expect_parse_error("flurb 3\n", "line 1: unknown statement 'flurb'");
}

TEST(SchemeParserErrors, DuplicateCommLabel) {
  expect_parse_error("comm a 0 -> 1\ncomm a 0 -> 2\n",
                     "duplicate communication label 'a'");
}

TEST(SchemeParserErrors, UnknownSizeSuffix) {
  expect_parse_error("comm a 0 -> 1 size 3QiB\n",
                     "unknown size suffix 'QiB' in '3QiB'");
}

TEST(SchemeParserErrors, NonFiniteSizeLiteral) {
  expect_parse_error("comm a 0 -> 1 size 1e400\n",
                     "size literal '1e400' is not a finite number of bytes");
}

TEST(SchemeParserErrors, UnexpectedCharacter) {
  expect_parse_error("comm a 0 -> 1 $\n", "line 1: unexpected character '$'");
}

TEST(SchemeParserErrors, UnterminatedString) {
  expect_parse_error("scheme \"unterminated\n", "line 1: unterminated string");
}

TEST(SchemeParserErrors, DuplicateSchemeDirective) {
  expect_parse_error("scheme \"x\"\nscheme \"y\"\n",
                     "line 2: duplicate 'scheme' directive");
}

TEST(SchemeParserErrors, NodesMustBePositive) {
  expect_parse_error("nodes 0\n", "'nodes' must be positive");
}

TEST(SchemeParserErrors, NonIntegerNodeId) {
  expect_parse_error("comm a 1.5 -> 2\n",
                     "line 1: source node must be an integer, got '1.5'");
}

TEST(SchemeParserErrors, OutOfRangeNodeCount) {
  // A count past INT_MAX must be rejected, not silently truncated.
  expect_parse_error("nodes 99999999999999999999\n",
                     "node count out of range: '99999999999999999999'");
  expect_parse_error("comm a 4294967296 -> 1\n",
                     "source node out of range: '4294967296'");
}

TEST(SchemeParserErrors, MissingSizeLiteral) {
  expect_parse_error("comm a 0 -> 1 size\n",
                     "line 1: expected size literal (number), got newline");
}

TEST(SchemeParserErrors, ReservedBraceToken) {
  // '{', '}' and ',' are lexed but rejected by the grammar.
  expect_parse_error("comm a 0 -> 1 {\n",
                     "line 1: expected end of statement (newline), got '{'");
}

TEST(SchemeParserErrors, FileErrorsCarryThePath) {
  EXPECT_THROW((void)parse_scheme_file("/nonexistent/x.scheme"), Error);
  const std::string path = testing::TempDir() + "bad_scheme_errors.scheme";
  {
    std::ofstream out(path);
    out << "flurb 3\n";
  }
  try {
    (void)parse_scheme_file(path);
    FAIL() << "expected the parse to fail";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown statement 'flurb'"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace bwshare::graph

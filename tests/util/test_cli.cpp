#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/error.hpp"

namespace bwshare {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, SpaceSeparatedValue) {
  const auto args = make({"--size", "20M"});
  EXPECT_EQ(args.get("size", ""), "20M");
}

TEST(Cli, EqualsValue) {
  const auto args = make({"--size=4M"});
  EXPECT_EQ(args.get("size", ""), "4M");
}

TEST(Cli, BooleanFlag) {
  const auto args = make({"--csv"});
  EXPECT_TRUE(args.get_bool("csv", false));
  EXPECT_FALSE(args.get_bool("other", false));
}

TEST(Cli, BooleanBeforeAnotherFlag) {
  const auto args = make({"--verbose", "--size", "3"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("size", 0), 3);
}

TEST(Cli, IntAndDoubleParsing) {
  const auto args = make({"--n", "42", "--x", "2.5"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
}

TEST(Cli, MalformedNumberThrows) {
  const auto args = make({"--n", "abc"});
  EXPECT_THROW((void)args.get_int("n", 0), Error);
  EXPECT_THROW((void)args.get_double("n", 0.0), Error);
}

TEST(Cli, IntBoundsRejectValuesOutsideTheRange) {
  const auto args = make({"--resamples", "-1", "--nodes", "4294967297",
                          "--batch", "0", "--threads", "4096"});
  // A flag that narrows to int or size_t names its own bounds; anything
  // outside is a named error, never a wrapped value.
  try {
    (void)args.get_int("resamples", 400, 1, 1000000);
    FAIL() << "--resamples -1 must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("flag --resamples integer out of "
                                         "range: '-1' (must be in [1, "
                                         "1000000])"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)args.get_int("nodes", 16, 1, kCliIntMax), Error);
  EXPECT_THROW((void)args.get_int("batch", 8, 1, kCliIntMax), Error);
  // The bounds are inclusive, and a missing flag returns the fallback
  // unchecked.
  EXPECT_EQ(args.get_int("threads", 0, 0, 4096), 4096);
  EXPECT_EQ(args.get_int("missing", 7, 1, 3), 7);
}

TEST(Cli, U64FlagsAreDigitsOnly) {
  const auto args = make({"--seed", "-1", "--scenario-seed",
                          "18446744073709551615", "--big",
                          "18446744073709551616", "--plus", "+5"});
  // strtoull would wrap "-1" to 2^64-1; a seed must be rejected instead.
  EXPECT_THROW((void)args.get_u64("seed", 42), Error);
  EXPECT_EQ(args.get_u64("scenario-seed", 42),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW((void)args.get_u64("big", 42), Error);
  EXPECT_THROW((void)args.get_u64("plus", 42), Error);
  EXPECT_EQ(args.get_u64("missing", 42), 42u);
}

TEST(Cli, Positional) {
  const auto args = make({"input.scheme", "--csv"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.scheme");
}

TEST(Cli, Defaults) {
  const auto args = make({});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Cli, UnknownFlagsReportsFlagsOutsideTheAllowlist) {
  const auto args = make({"--network", "gige", "--nodez", "9", "--csv"});
  EXPECT_EQ(args.unknown_flags({"network", "nodes", "csv"}),
            (std::vector<std::string>{"nodez"}));
}

TEST(Cli, UnknownFlagsEmptyWhenAllAllowed) {
  const auto args = make({"--a", "1", "--b", "2"});
  EXPECT_TRUE(args.unknown_flags({"a", "b", "c"}).empty());
  EXPECT_TRUE(make({}).unknown_flags({}).empty());
}

TEST(Cli, UnknownFlagsSortedAlphabetically) {
  const auto args = make({"--zeta", "1", "--alpha", "2"});
  EXPECT_EQ(args.unknown_flags({}),
            (std::vector<std::string>{"alpha", "zeta"}));
}

}  // namespace
}  // namespace bwshare

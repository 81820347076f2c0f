// Tiny command-line flag parser for the bench and example binaries.
// Supports `--name value`, `--name=value` and boolean `--flag` forms.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bwshare {

/// Upper bound for integer flags narrowed to int.
inline constexpr long kCliIntMax = std::numeric_limits<int>::max();

class CliArgs {
 public:
  /// Parse argv. Unrecognized positional arguments are kept in order.
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Integer flag within [lo, hi]; a value outside throws bwshare::Error
  /// naming the flag and the bounds. Callers that narrow the result (to
  /// int, size_t, ...) pass bounds that fit the target type.
  [[nodiscard]] long get_int(const std::string& name, long fallback,
                             long lo = std::numeric_limits<long>::min(),
                             long hi = std::numeric_limits<long>::max()) const;
  /// Non-negative 64-bit flag (seeds): digits only, so "-1" is an error
  /// rather than 2^64-1.
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Flags given on the command line but absent from `allowed`, in
  /// alphabetical order. Lets binaries reject typos ("--node" for
  /// "--nodes") instead of silently ignoring them.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::initializer_list<std::string_view> allowed) const;
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace bwshare

#include "util/cli.hpp"

#include <cstdlib>

#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

namespace bwshare {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` if the next token is not itself a flag, else boolean.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

std::vector<std::string> CliArgs::unknown_flags(
    std::initializer_list<std::string_view> allowed) const {
  std::vector<std::string> unknown;
  for (const auto& entry : values_) {
    bool found = false;
    for (const auto candidate : allowed) {
      if (entry.first == candidate) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(entry.first);
  }
  return unknown;  // values_ is an ordered map, so already alphabetical
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& name, long fallback, long lo,
                      long hi) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  long v = 0;
  switch (try_parse_long(it->second, v, lo, hi)) {
    case ParseIntStatus::kOk:
      return v;
    case ParseIntStatus::kOutOfRange:
      BWS_THROW(strformat("flag --%s integer out of range: '%s' (must be in "
                          "[%ld, %ld])",
                          name.c_str(), it->second.c_str(), lo, hi));
    case ParseIntStatus::kMalformed:
      break;
  }
  BWS_THROW("flag --" + name + " expects an integer, got '" + it->second +
            "'");
}

std::uint64_t CliArgs::get_u64(const std::string& name,
                               std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::uint64_t v = 0;
  const ParseIntStatus st = try_parse_u64(it->second, v);
  BWS_CHECK(st != ParseIntStatus::kMalformed,
            "flag --" + name + " expects a non-negative integer, got '" +
                it->second + "'");
  BWS_CHECK(st == ParseIntStatus::kOk,
            "flag --" + name + " integer out of range: '" + it->second + "'");
  return v;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  BWS_CHECK(end && *end == '\0',
            "flag --" + name + " expects a number, got '" + it->second + "'");
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  BWS_THROW("flag --" + name + " expects a boolean, got '" + v + "'");
}

}  // namespace bwshare

#include "util/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"
#include "util/units.hpp"

namespace bwshare {

std::string vstrformat(const char* fmt, va_list args) {
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
  va_end(args_copy);
  if (needed < 0) return {};
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vstrformat(fmt, args);
  va_end(args);
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string human_bytes(double bytes) {
  const double abs = std::fabs(bytes);
  if (abs >= GiB) return strformat("%.3g GiB", bytes / GiB);
  if (abs >= MiB) return strformat("%.3g MiB", bytes / MiB);
  if (abs >= KiB) return strformat("%.3g KiB", bytes / KiB);
  return strformat("%.0f B", bytes);
}

std::string human_seconds(double seconds) {
  const double abs = std::fabs(seconds);
  if (abs >= 1.0) return strformat("%.3g s", seconds);
  if (abs >= 1e-3) return strformat("%.3g ms", seconds * 1e3);
  if (abs >= 1e-6) return strformat("%.3g us", seconds * 1e6);
  return strformat("%.3g ns", seconds * 1e9);
}

double parse_size(std::string_view text) {
  const std::string_view t = trim(text);
  BWS_CHECK(!t.empty(), "empty size literal");
  char* end = nullptr;
  const std::string buf(t);
  const double value = std::strtod(buf.c_str(), &end);
  BWS_CHECK(end != buf.c_str(), "malformed size literal: '" + buf + "'");
  const std::string_view suffix = trim(std::string_view(end));
  double scale = 1.0;
  if (suffix == "k" || suffix == "K" || suffix == "KB") {
    scale = KB;
  } else if (suffix == "M" || suffix == "MB") {
    scale = MB;
  } else if (suffix == "G" || suffix == "GB") {
    scale = GB;
  } else if (suffix == "KiB") {
    scale = KiB;
  } else if (suffix == "MiB") {
    scale = MiB;
  } else if (suffix == "GiB") {
    scale = GiB;
  } else if (!suffix.empty() && suffix != "B") {
    BWS_THROW("unknown size suffix '" + std::string(suffix) + "' in '" + buf +
              "'");
  }
  // strtod passes "inf", "nan" and overflow (1e400 -> HUGE_VAL) through;
  // a non-finite size would replay as a transfer that never completes.
  const double bytes = value * scale;
  BWS_CHECK(std::isfinite(bytes),
            "size literal '" + buf + "' is not a finite number of bytes");
  return bytes;
}

}  // namespace bwshare

#include "util/csv.hpp"

#include <charconv>
#include <fstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string format_fixed(double v, int precision) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::fixed, precision);
  BWS_ASSERT(res.ec == std::errc(), "to_chars failed");
  return std::string(buf, res.ptr);
}

void write_text_file(const std::string& path, std::string_view content) {
  std::ofstream file(path, std::ios::binary);
  BWS_CHECK(file.good(), "cannot open '" + path + "' for writing");
  file.write(content.data(), static_cast<std::streamsize>(content.size()));
  file.flush();
  BWS_CHECK(file.good(), "failed writing '" + path + "'");
}

}  // namespace bwshare::util

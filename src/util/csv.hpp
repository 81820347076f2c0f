// Field-level helpers for machine-readable output: CSV and JSON escaping,
// locale-independent fixed-point numbers and a checked file write. The
// tables themselves (header, rows, CSV/JSON/text rendering) are
// bwshare::TextTable in util/table.hpp; the serve protocol and the campaign
// summary use these helpers directly for their hand-built JSON objects.
#pragma once

#include <string>
#include <string_view>

namespace bwshare::util {

/// Quote a CSV field when needed (contains comma, quote, CR or LF);
/// embedded quotes are doubled per RFC 4180.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Write `content` to `path` (binary, overwriting). Throws bwshare::Error
/// if the file cannot be opened or the write fails/truncates.
void write_text_file(const std::string& path, std::string_view content);

/// Escape a string for inclusion inside a JSON string literal (quotes,
/// backslash, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Locale-independent fixed-point formatting (std::to_chars): a host
/// application that calls setlocale() must not turn "12.5" into "12,5" in
/// machine-readable output. Shared by the sweep and campaign table writers.
[[nodiscard]] std::string format_fixed(double v, int precision);

}  // namespace bwshare::util

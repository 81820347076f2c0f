// The one table type: a header plus rows of preformatted string cells,
// rendered as aligned text (the bench and example drivers print every
// reproduced paper table this way), as RFC-4180-style CSV and as a JSON
// array of objects. All three render the same in-memory rows, so a sweep or
// campaign report emitted as CSV and JSON carries identical values. All
// number formatting is caller-side (cells arrive as strings), which keeps
// the output byte-stable across platforms and thread counts.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bwshare {

class TextTable {
 public:
  /// Create a table with the given column headers; throws bwshare::Error
  /// on an empty header.
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers
  /// (throws bwshare::Error otherwise).
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] size_t num_rows() const { return rows_.size(); }

  /// Render with padded columns, a header underline and `indent` spaces of
  /// left margin.
  [[nodiscard]] std::string render(int indent = 2) const;

  /// Header line + one line per row, '\n' line endings; cells containing a
  /// comma, quote, CR or LF are quoted (util::csv_escape).
  [[nodiscard]] std::string to_csv() const;

  /// Write to_csv() to a file; throws bwshare::Error on I/O failure.
  void write_csv(const std::string& path) const;

  /// A JSON array of objects keyed by the header. Cells that match the
  /// RFC 8259 number grammar and parse finite are emitted bare; everything
  /// else becomes a JSON string.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a section banner used by the bench binaries.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace bwshare

#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare {

namespace {

// A field is emitted bare only when it matches the JSON number grammar
// (RFC 8259 §6) AND parses finite. strtod alone is too permissive — it
// accepts hex ("0x10"), leading '+' and ".5", all invalid JSON.
bool is_json_number(const std::string& field) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  size_t i = 0;
  const size_t n = field.size();
  if (i < n && field[i] == '-') ++i;
  if (i == n || !digit(field[i])) return false;
  if (field[i] == '0') {
    ++i;  // no leading zeros: "0" or "0.x", never "01"
  } else {
    while (i < n && digit(field[i])) ++i;
  }
  if (i < n && field[i] == '.') {
    ++i;
    if (i == n || !digit(field[i])) return false;
    while (i < n && digit(field[i])) ++i;
  }
  if (i < n && (field[i] == 'e' || field[i] == 'E')) {
    ++i;
    if (i < n && (field[i] == '+' || field[i] == '-')) ++i;
    if (i == n || !digit(field[i])) return false;
    while (i < n && digit(field[i])) ++i;
  }
  if (i != n) return false;
  return std::isfinite(std::strtod(field.c_str(), nullptr));
}

}  // namespace

TextTable::TextTable(std::vector<std::string> headers)
    : header_(std::move(headers)) {
  BWS_CHECK(!header_.empty(), "TextTable: header must not be empty");
}

void TextTable::add_row(std::vector<std::string> cells) {
  BWS_CHECK(cells.size() == header_.size(),
            strformat("TextTable: row has %zu fields, header has %zu",
                      cells.size(), header_.size()));
  rows_.push_back(std::move(cells));
}

std::string TextTable::render(int indent) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const std::string margin(static_cast<size_t>(indent), ' ');
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << margin;
    for (size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size())
        os << std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    os << '\n';
  };
  emit_row(header_);
  size_t total = margin.size();
  for (size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << margin << std::string(total - margin.size(), '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string TextTable::to_csv() const {
  std::string out;
  const auto append_line = [&out](const std::vector<std::string>& fields) {
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) out.push_back(',');
      out += util::csv_escape(fields[i]);
    }
    out.push_back('\n');
  };
  append_line(header_);
  for (const auto& row : rows_) append_line(row);
  return out;
}

void TextTable::write_csv(const std::string& path) const {
  util::write_text_file(path, to_csv());
}

std::string TextTable::to_json() const {
  std::string out = "[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    out += r == 0 ? "\n  {" : ",\n  {";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += ", ";
      out += '"';
      out += util::json_escape(header_[i]);
      out += "\": ";
      if (is_json_number(row[i])) {
        out += row[i];
      } else {
        out += '"';
        out += util::json_escape(row[i]);
        out += '"';
      }
    }
    out += "}";
  }
  out += rows_.empty() ? "]" : "\n]";
  return out;
}

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << "== " << title << " " << std::string(std::max<size_t>(
      4, 76 - title.size()), '=') << '\n';
}

}  // namespace bwshare

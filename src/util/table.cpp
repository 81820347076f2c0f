#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/strings.hpp"

namespace bwshare {

TextTable::TextTable(std::vector<std::string> headers)
    : csv_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  csv_.add_row(std::move(cells));
}

void TextTable::add_row_numeric(const std::string& label,
                                const std::vector<double>& values,
                                int precision) {
  std::vector<std::string> cells;
  cells.reserve(values.size() + 1);
  cells.push_back(label);
  for (double v : values) cells.push_back(strformat("%.*f", precision, v));
  add_row(std::move(cells));
}

std::string TextTable::render(int indent) const {
  const auto& header = csv_.header();
  std::vector<size_t> widths(header.size());
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : csv_.rows())
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
  emit_row(header);
  size_t total = margin.size();
  for (size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << margin << std::string(total - margin.size(), '-') << '\n';
  for (const auto& row : csv_.rows()) emit_row(row);
  return os.str();
}

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << "== " << title << " " << std::string(std::max<size_t>(
      4, 76 - title.size()), '=') << '\n';
}

}  // namespace bwshare

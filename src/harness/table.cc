#include "harness/table.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/check.h"

namespace robust_sampling {

MarkdownTable::MarkdownTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  RS_CHECK_MSG(!headers_.empty(), "table needs at least one column");
}

void MarkdownTable::AddRow(std::vector<std::string> cells) {
  RS_CHECK_MSG(cells.size() == headers_.size(),
               "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string MarkdownTable::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells,
                      std::string* out) {
    *out += "|";
    for (size_t c = 0; c < cells.size(); ++c) {
      *out += " " + cells[c] +
              std::string(widths[c] - cells[c].size(), ' ') + " |";
    }
    *out += "\n";
  };
  std::string out;
  emit_row(headers_, &out);
  out += "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    out += std::string(widths[c] + 2, '-') + "|";
  }
  out += "\n";
  for (const auto& row : rows_) emit_row(row, &out);
  return out;
}

void MarkdownTable::Print(std::ostream& os) const { os << ToString(); }

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatScientific(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, v);
  return buf;
}

std::string FormatBool(bool v) { return v ? "yes" : "no"; }

}  // namespace robust_sampling

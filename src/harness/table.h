#ifndef ROBUST_SAMPLING_HARNESS_TABLE_H_
#define ROBUST_SAMPLING_HARNESS_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

namespace robust_sampling {

/// Column-aligned markdown table emitter used by every experiment binary in
/// bench/ to print its results in a self-contained, paste-ready form.
/// Cells are strings; use the formatters below to render numbers at a
/// fixed precision so columns stay comparable across rows.
class MarkdownTable {
 public:
  /// One header cell per column; column count is fixed from here on.
  explicit MarkdownTable(std::vector<std::string> headers);

  /// Appends one row; aborts unless it has exactly as many cells as
  /// headers (mismatches are always bugs in the caller's row assembly).
  void AddRow(std::vector<std::string> cells);

  /// Renders the table with aligned columns.
  std::string ToString() const;

  /// Prints ToString() to `os`.
  void Print(std::ostream& os) const;

  size_t NumRows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double formatting ("0.0123").
std::string FormatDouble(double v, int precision = 4);

/// Scientific formatting for very large/small magnitudes ("1.23e+18").
std::string FormatScientific(double v, int precision = 2);

/// "yes"/"no".
std::string FormatBool(bool v);

}  // namespace robust_sampling

#endif  // ROBUST_SAMPLING_HARNESS_TABLE_H_

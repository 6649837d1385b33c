// ASCII table rendering for benchmark output.
//
// The benches reproduce the paper's tables (Table I-III) as plain-text
// tables; this is the single renderer they share.
#pragma once

#include <string>
#include <vector>

namespace ompfuzz {

/// Column alignment within a rendered cell.
enum class Align { Left, Right };

/// A simple monospace table: set headers, add rows, render.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Per-column alignment; default is Left for all columns.
  void set_alignment(std::vector<Align> alignment);

  /// Adds a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Renders with a header rule, e.g.
  ///   Name   | Slow | Fast
  ///   -------+------+-----
  ///   Clang  |   10 |    -
  [[nodiscard]] std::string render() const;

  /// Renders as CSV (no quoting of separators; cells must not contain commas).
  [[nodiscard]] std::string render_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ompfuzz

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sdft {

/// Plain-text table formatter for the benchmark harness.
///
/// Produces aligned, pipe-separated tables mirroring the layout of the
/// tables in the paper, so bench output can be compared side by side with
/// the published numbers.
class text_table {
 public:
  explicit text_table(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders the table with a header separator line.
  std::string str() const;

 private:
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> widths_;
};

/// Formats a probability/frequency like the paper: "4.09e-09".
std::string sci(double value, int digits = 2);

/// Formats seconds as "12.3ms", "7.9s" or "2m 12s" like the paper's
/// analysis times (sub-second stages in milliseconds).
std::string duration_str(double seconds);

}  // namespace sdft

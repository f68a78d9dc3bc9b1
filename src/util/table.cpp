#include "util/table.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/error.hpp"

namespace sdft {

text_table::text_table(std::vector<std::string> header) {
  widths_.resize(header.size());
  add_row(std::move(header));
}

void text_table::add_row(std::vector<std::string> row) {
  require_model(row.size() == widths_.size(),
                "text_table: row arity does not match header");
  for (std::size_t i = 0; i < row.size(); ++i) {
    widths_[i] = std::max(widths_[i], row[i].size());
  }
  rows_.push_back(std::move(row));
}

std::string text_table::str() const {
  std::ostringstream out;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << "| ";
    for (std::size_t c = 0; c < rows_[r].size(); ++c) {
      const auto& cell = rows_[r][c];
      out << cell << std::string(widths_[c] - cell.size(), ' ');
      out << (c + 1 == rows_[r].size() ? " |" : " | ");
    }
    out << '\n';
    if (r == 0) {
      out << '|';
      for (std::size_t c = 0; c < widths_.size(); ++c) {
        out << std::string(widths_[c] + 2, '-')
            << (c + 1 == widths_.size() ? "|" : "|");
      }
      out << '\n';
    }
  }
  return out.str();
}

std::string sci(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*e", digits, value);
  return buf;
}

std::string duration_str(double seconds) {
  // Round once, to the unit printed, then pick the format from the
  // rounded value — so 0.99996 s is "1.0s", not "1000.0ms", and 59.97 s
  // is "1m 00s", not "60.0s".
  char buf[64];
  const long long tenth_ms = std::llround(seconds * 1e4);
  const long long tenth_s = std::llround(seconds * 10.0);
  if (tenth_ms < 10'000) {
    std::snprintf(buf, sizeof buf, "%lld.%lldms", tenth_ms / 10,
                  tenth_ms % 10);
  } else if (tenth_s < 600) {
    std::snprintf(buf, sizeof buf, "%lld.%llds", tenth_s / 10, tenth_s % 10);
  } else {
    const long long secs = std::llround(seconds);
    std::snprintf(buf, sizeof buf, "%lldm %02llds", secs / 60, secs % 60);
  }
  return buf;
}

}  // namespace sdft

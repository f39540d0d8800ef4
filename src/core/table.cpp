#include "core/table.hpp"

#include <algorithm>
#include <sstream>

#include "core/error.hpp"

namespace pvc {

void Table::set_header(std::vector<std::string> header) {
  ensure(!header.empty(), "Table: header must have at least one column");
  ensure(rows_.empty(), "Table: set_header must precede add_row");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  ensure(!header_.empty(), "Table: set_header before add_row");
  ensure(row.size() == header_.size(), [&] {
    return "Table: row has " + std::to_string(row.size()) +
           " cells, expected " + std::to_string(header_.size());
  });
  rows_.push_back(Row{std::move(row), false});
}

void Table::add_separator() { rows_.push_back(Row{{}, true}); }

std::size_t Table::columns() const noexcept { return header_.size(); }

const std::string& Table::at(std::size_t row, std::size_t col) const {
  std::size_t seen = 0;
  for (const auto& r : rows_) {
    if (r.separator) {
      continue;
    }
    if (seen == row) {
      ensure(col < r.cells.size(), "Table::at: column out of range");
      return r.cells[col];
    }
    ++seen;
  }
  unreachable("Table::at: row out of range");
}

void Table::render(std::ostream& out) const {
  ensure(!header_.empty(), "Table: nothing to render");
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& r : rows_) {
    if (r.separator) {
      continue;
    }
    for (std::size_t c = 0; c < r.cells.size(); ++c) {
      widths[c] = std::max(widths[c], r.cells[c].size());
    }
  }

  const auto print_rule = [&] {
    out << '+';
    for (std::size_t w : widths) {
      out << std::string(w + 2, '-') << '+';
    }
    out << '\n';
  };
  const auto print_cells = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << ' ' << cells[c] << std::string(widths[c] - cells[c].size(), ' ')
          << " |";
    }
    out << '\n';
  };

  if (!title_.empty()) {
    out << title_ << '\n';
  }
  print_rule();
  print_cells(header_);
  print_rule();
  for (const auto& r : rows_) {
    if (r.separator) {
      print_rule();
    } else {
      print_cells(r.cells);
    }
  }
  print_rule();
}

std::string Table::to_string() const {
  std::ostringstream oss;
  render(oss);
  return oss.str();
}

}  // namespace pvc

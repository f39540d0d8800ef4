#include "core/csv.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/error.hpp"

namespace pvc {

std::string csv_escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) {
    return cell;
  }
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') {
      out += '"';
    }
    out += ch;
  }
  out += '"';
  return out;
}

void CsvWriter::set_header(std::vector<std::string> header) {
  ensure(rows_.empty(), "CsvWriter: set_header must precede add_row");
  header_ = std::move(header);
}

void CsvWriter::add_row(std::vector<std::string> row) {
  if (!header_.empty()) {
    ensure(row.size() == header_.size(),
           "CsvWriter: row width mismatch with header");
  }
  rows_.push_back(std::move(row));
}

void CsvWriter::add_numeric_row(const std::string& label,
                                const std::vector<double>& values) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    row.emplace_back(buf);
  }
  add_row(std::move(row));
}

void CsvWriter::render(std::ostream& out) const {
  const auto emit = [&out](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) {
        out << ',';
      }
      out << csv_escape(cells[i]);
    }
    out << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
  }
  for (const auto& row : rows_) {
    emit(row);
  }
}

std::string CsvWriter::to_string() const {
  std::ostringstream oss;
  render(oss);
  return oss.str();
}

void CsvWriter::write_file(const std::string& path) const {
  std::ofstream out(path);
  ensure(out.good(), [&] { return "CsvWriter: cannot open " + path; });
  render(out);
  ensure(out.good(), [&] { return "CsvWriter: write failed for " + path; });
}

}  // namespace pvc

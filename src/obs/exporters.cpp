#include "obs/exporters.hpp"

#include <cstdio>
#include <fstream>

#include "core/error.hpp"

namespace pvc::obs {
namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

bool is_zero(const MetricSample& s) {
  return s.value == 0.0 && s.count == 0;
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 2);
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

Table to_table(const Snapshot& snapshot, bool include_zero,
               const std::string& title) {
  Table table(title);
  table.set_header({"Metric", "Type", "Value", "Unit", "Measures"});
  for (const auto& s : snapshot.samples) {
    if (!include_zero && is_zero(s)) {
      continue;
    }
    std::string value;
    switch (s.type) {
      case MetricType::Counter:
        value = std::to_string(s.count);
        break;
      case MetricType::Gauge:
        value = format_double(s.value);
        break;
      case MetricType::Histogram:
        value = "n=" + std::to_string(s.count) +
                " sum=" + format_double(s.value);
        break;
    }
    table.add_row({s.name, metric_type_name(s.type), value, s.unit, s.help});
  }
  return table;
}

CsvWriter to_csv(const Snapshot& snapshot) {
  CsvWriter csv;
  csv.set_header(
      {"metric", "type", "unit", "value", "count", "bucket_lo", "bucket_hi"});
  for (const auto& s : snapshot.samples) {
    csv.add_row({s.name, metric_type_name(s.type), s.unit,
                 format_double(s.value), std::to_string(s.count), "", ""});
    for (const auto& b : s.buckets) {
      csv.add_row({s.name, "histogram_bucket", s.unit,
                   format_double(b.weight), std::to_string(b.count),
                   std::to_string(b.lower), std::to_string(b.upper)});
    }
  }
  return csv;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\"metrics\":[";
  bool first_sample = true;
  for (const auto& s : snapshot.samples) {
    if (!first_sample) {
      out += ",";
    }
    first_sample = false;
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"type\":\"" +
           metric_type_name(s.type) + "\",\"unit\":\"" + json_escape(s.unit) +
           "\",\"help\":\"" + json_escape(s.help) +
           "\",\"value\":" + format_double(s.value) +
           ",\"count\":" + std::to_string(s.count);
    if (s.type == MetricType::Histogram) {
      out += ",\"buckets\":[";
      bool first_bucket = true;
      for (const auto& b : s.buckets) {
        if (!first_bucket) {
          out += ",";
        }
        first_bucket = false;
        out += "{\"lo\":" + std::to_string(b.lower) +
               ",\"hi\":" + std::to_string(b.upper) +
               ",\"count\":" + std::to_string(b.count) +
               ",\"weight\":" + format_double(b.weight) + "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

void write_file(const Snapshot& snapshot, const std::string& path) {
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json) {
    std::ofstream out(path, std::ios::binary);
    ensure(out.good(),
           [&] { return "obs::write_file: cannot open '" + path + "'"; });
    out << to_json(snapshot);
    ensure(out.good(),
           [&] { return "obs::write_file: write to '" + path + "' failed"; });
  } else {
    to_csv(snapshot).write_file(path);
  }
}

}  // namespace pvc::obs

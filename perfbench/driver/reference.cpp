#include "reference.hpp"

#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "micro/paper_reference.hpp"

namespace perfbench {
namespace {

using Row = std::vector<std::string>;

/// Splits CSV text into rows of cells (RFC 4180 quoting), header dropped.
std::vector<Row> parse_csv(const std::string& text) {
  std::vector<Row> rows;
  Row row;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"' && i + 1 < text.size() && text[i + 1] == '"') {
        cell += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\n') {
      row.push_back(std::move(cell));
      cell.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  if (!cell.empty() || !row.empty()) {
    row.push_back(std::move(cell));
    rows.push_back(std::move(row));
  }
  if (!rows.empty()) {
    rows.erase(rows.begin());
  }
  return rows;
}

std::optional<double> number(const std::string& cell) {
  if (cell.empty() || cell == "-") {
    return std::nullopt;
  }
  try {
    std::size_t used = 0;
    const double v = std::stod(cell, &used);
    return used == cell.size() ? std::optional<double>(v) : std::nullopt;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

class Accumulator {
 public:
  void add(std::optional<double> model, std::optional<double> reference) {
    if (model && reference && *reference != 0.0) {
      sum_ += std::fabs(*model / *reference - 1.0) * 100.0;
      ++cells_;
    }
  }
  [[nodiscard]] ReferenceError result() const {
    return {cells_ > 0 ? sum_ / static_cast<double>(cells_) : 0.0, cells_};
  }

 private:
  double sum_ = 0.0;
  std::size_t cells_ = 0;
};

// §IV-B6: PVC L1 latency +90% vs H100 and -51% vs MI250, HBM latency
// +23% vs H100 and +44% vs MI250, Dawn and Aurora within 1-2%; taken at
// the footprints fig1_latency prints (16 KiB and 512 MiB).
void figure1_ratios(const std::vector<Row>& rows, Accumulator& acc) {
  const auto at = [&rows](const std::string& system,
                          double footprint) -> std::optional<double> {
    for (const Row& r : rows) {
      if (r.size() >= 3 && r[0] == system &&
          number(r[1]).value_or(0.0) >= footprint) {
        return number(r[2]);
      }
    }
    return std::nullopt;
  };
  const auto ratio = [&](const char* a, const char* b,
                         double footprint) -> std::optional<double> {
    const auto x = at(a, footprint);
    const auto y = at(b, footprint);
    if (!x || !y || *y == 0.0) {
      return std::nullopt;
    }
    return *x / *y;
  };
  const double small = 16.0 * 1024.0;
  const double big = 512.0 * 1024.0 * 1024.0;
  acc.add(ratio("Aurora", "JLSE-H100", small), 1.90);
  acc.add(ratio("Aurora", "JLSE-MI250", small), 0.49);
  acc.add(ratio("Aurora", "JLSE-H100", big), 1.23);
  acc.add(ratio("Aurora", "JLSE-MI250", big), 1.44);
  acc.add(ratio("Dawn", "Aurora", small), 1.0);
  acc.add(ratio("Dawn", "Aurora", big), 1.0);
}

void table2(const std::vector<Row>& rows, Accumulator& acc) {
  using pvc::micro::ScopeTriple;
  using pvc::micro::Table2Reference;
  static const std::map<std::string, ScopeTriple Table2Reference::*> kRows = {
      {"Double Precision Peak Flops", &Table2Reference::fp64_peak},
      {"Single Precision Peak Flops", &Table2Reference::fp32_peak},
      {"Memory Bandwidth (triad)", &Table2Reference::stream_bw},
      {"PCIe Unidirectional Bandwidth (H2D)", &Table2Reference::pcie_h2d},
      {"PCIe Unidirectional Bandwidth (D2H)", &Table2Reference::pcie_d2h},
      {"PCIe Bidirectional Bandwidth", &Table2Reference::pcie_bidir},
      {"DGEMM", &Table2Reference::dgemm},
      {"SGEMM", &Table2Reference::sgemm},
      {"HGEMM", &Table2Reference::hgemm},
      {"BF16GEMM", &Table2Reference::bf16gemm},
      {"TF32GEMM", &Table2Reference::tf32gemm},
      {"I8GEMM", &Table2Reference::i8gemm},
      {"Single-precision FFT C2C 1D", &Table2Reference::fft_1d},
      {"Single-precision FFT C2C 2D", &Table2Reference::fft_2d},
  };
  const Table2Reference aurora = pvc::micro::table2_aurora();
  const Table2Reference dawn = pvc::micro::table2_dawn();
  for (const Row& r : rows) {
    const auto field = r.size() >= 5 ? kRows.find(r[1]) : kRows.end();
    if (field == kRows.end() || (r[0] != "Aurora" && r[0] != "Dawn")) {
      continue;
    }
    const ScopeTriple& ref = (r[0] == "Aurora" ? aurora : dawn).*field->second;
    acc.add(number(r[2]), ref.one_stack);
    acc.add(number(r[3]), ref.one_card);
    acc.add(number(r[4]), ref.full_node);
  }
}

void table3(const std::vector<Row>& rows, Accumulator& acc) {
  const auto aurora = pvc::micro::table3_aurora();
  const auto dawn = pvc::micro::table3_dawn();
  for (const Row& r : rows) {
    if (r.size() < 4 || (r[0] != "Aurora" && r[0] != "Dawn")) {
      continue;
    }
    const auto& ref = r[0] == "Aurora" ? aurora : dawn;
    std::optional<double> one;
    std::optional<double> all;
    if (r[1] == "local_uni") {
      one = ref.local_uni_one_pair;
      all = ref.local_uni_all_pairs;
    } else if (r[1] == "local_bidir") {
      one = ref.local_bidir_one_pair;
      all = ref.local_bidir_all_pairs;
    } else if (r[1] == "remote_uni") {
      one = ref.remote_uni_one_pair;
      all = ref.remote_uni_all_pairs;
    } else if (r[1] == "remote_bidir") {
      one = ref.remote_bidir_one_pair;
      all = ref.remote_bidir_all_pairs;
    }
    acc.add(number(r[2]), one);
    acc.add(number(r[3]), all);
  }
}

std::optional<double> table6_cell(const pvc::micro::Table6Reference& ref,
                                  const std::string& app,
                                  const std::string& scope) {
  const bool stack = scope == "one_stack";
  const bool gpu = scope == "one_gpu";
  const bool node = scope == "node";
  if (app == "miniBUDE") {
    return stack ? ref.minibude_one_stack : std::nullopt;
  }
  if (app == "CloverLeaf") {
    return stack ? ref.cloverleaf_one_stack
                 : gpu ? ref.cloverleaf_one_gpu
                       : node ? ref.cloverleaf_node : std::nullopt;
  }
  if (app == "miniQMC") {
    return stack ? ref.miniqmc_one_stack
                 : gpu ? ref.miniqmc_one_gpu
                       : node ? ref.miniqmc_node : std::nullopt;
  }
  if (app == "mini-GAMESS") {
    return stack ? ref.gamess_one_stack
                 : gpu ? ref.gamess_one_gpu
                       : node ? ref.gamess_node : std::nullopt;
  }
  if (app == "OpenMC") {
    return node ? ref.openmc_node : std::nullopt;
  }
  if (app == "HACC") {
    return node ? ref.hacc_node : std::nullopt;
  }
  return std::nullopt;
}

void table6(const std::vector<Row>& rows, Accumulator& acc) {
  const std::map<std::string, pvc::micro::Table6Reference> refs = {
      {"Aurora", pvc::micro::table6_aurora()},
      {"Dawn", pvc::micro::table6_dawn()},
      {"JLSE-H100", pvc::micro::table6_h100()},
      {"JLSE-MI250", pvc::micro::table6_mi250()}};
  for (const Row& r : rows) {
    const auto ref = r.size() >= 4 ? refs.find(r[0]) : refs.end();
    if (ref != refs.end()) {
      acc.add(number(r[3]), table6_cell(ref->second, r[1], r[2]));
    }
  }
}

// resilience_sweep "daly" rows: an analytic and a sim row per
// (mtbf_s, interval_s) cell, seconds in column 9.
void daly(const std::vector<Row>& rows, Accumulator& acc) {
  std::map<std::pair<std::string, std::string>, std::optional<double>>
      analytic;
  for (const Row& r : rows) {
    if (r.size() >= 10 && r[0] == "daly" && r[4] == "analytic") {
      analytic[{r[6], r[7]}] = number(r[9]);
    }
  }
  for (const Row& r : rows) {
    if (r.size() >= 10 && r[0] == "daly" && r[4] == "sim") {
      const auto it = analytic.find({r[6], r[7]});
      if (it != analytic.end()) {
        acc.add(number(r[9]), it->second);
      }
    }
  }
}

}  // namespace

ReferenceError reference_error(const std::vector<Op>& ops,
                               const std::vector<std::string>& csvs) {
  Accumulator acc;
  for (std::size_t i = 0; i < ops.size() && i < csvs.size(); ++i) {
    const std::string bench = ops[i].entry->name;
    const auto rows = parse_csv(csvs[i]);
    if (bench == "fig1_latency") {
      figure1_ratios(rows, acc);
    } else if (bench == "table2_microbench") {
      table2(rows, acc);
    } else if (bench == "table3_p2p") {
      table3(rows, acc);
    } else if (bench == "table6_foms") {
      table6(rows, acc);
    } else if (bench == "resilience_sweep") {
      daly(rows, acc);
    }
  }
  return acc.result();
}

}  // namespace perfbench

#include "invoke.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

namespace perfbench {

OpResult invoke(const Op& op, const std::vector<std::string>& extra,
                const std::string& csv_path, SpanRecorder* recorder,
                int op_index) {
  std::vector<std::string> args = op.args;
  args.insert(args.end(), extra.begin(), extra.end());
  args.push_back("csv=" + csv_path);
  std::remove(csv_path.c_str());

  OpResult result;
  int rc = 1;
  const Clock::time_point start = Clock::now();
  try {
    const ScopedSpan span(recorder, "bench.entry", 0, op_index, 0);
    result.span = span.id();
    rc = pvcbench::run_bench_entry(*op.entry, args);
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  result.seconds = seconds_between(start, Clock::now());

  if (result.error.empty() && rc != 0) {
    result.error = "returned " + std::to_string(rc);
  }
  if (result.error.empty()) {
    if (auto bytes = read_file(csv_path); bytes && !bytes->empty()) {
      result.csv = std::move(*bytes);
      result.ok = true;
    } else {
      result.error = "wrote no CSV";
    }
  }
  return result;
}

std::string serial_oracle(const Op& op, const std::string& csv_path) {
  std::vector<std::string> serial;
  if (op.takes_threads) {
    serial.push_back("threads=1");
  }
  if (op.cluster) {
    serial.push_back("shards=0");
  }
  OpResult r = invoke(op, serial, csv_path);
  if (!r.ok && op.cluster &&
      r.error.find("unknown option 'shards'") != std::string::npos) {
    // The serial engine is the only one left: threads=1 alone is serial.
    serial.pop_back();
    r = invoke(op, serial, csv_path);
  }
  if (!r.ok) {
    throw std::runtime_error("serial oracle of " + op.id + " failed: " +
                             r.error);
  }
  return r.csv;
}

std::string corpus_path(const std::string& dir, const Op& op) {
  return dir + "/" + op.id + ".csv";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace perfbench

#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t SpanRecorder::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

void SpanRecorder::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

double SpanRecorder::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += s.seconds();
    }
  }
  return total;
}

std::map<std::string, std::pair<double, std::size_t>> SpanRecorder::totals()
    const {
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (const Span& s : spans_) {
    auto& [seconds, count] = out[s.name];
    seconds += s.seconds();
    ++count;
  }
  return out;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write span file " + path);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans_) {
    const double ts = seconds_between(epoch_, s.start) * 1e6;
    const double dur = s.seconds() * 1e6;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"op\":%d}}",
                  first ? "" : ",\n", s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(), s.lane, ts, dur,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.op);
    out << buf;
    first = false;
  }
  out << "\n]}\n";
}

std::string SpanRecorder::totals_table() const {
  std::string table = "span                      count      total_s\n";
  for (const auto& [name, entry] : totals()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-24s %6zu %12.6f\n", name.c_str(),
                  entry.second, entry.first);
    table += buf;
  }
  return table;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       std::uint64_t parent, int op, int lane)
    : recorder_(recorder) {
  if (recorder_ != nullptr) {
    span_.id = recorder_->next_id();
    span_.parent = parent;
    span_.op = op;
    span_.lane = lane;
    span_.name = std::move(name);
    span_.start = Clock::now();
  }
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) {
    span_.end = Clock::now();
    recorder_->add(std::move(span_));
  }
}

}  // namespace perfbench

// Benchmark driver: runs one workload as a closed loop with one client
// (each op starts when the previous one returns), checks every op's CSV
// against the serial oracle, and prints one JSON result line.
//
//   pvc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   pvc_perfbench --record-oracle     (rewrites the oracle corpus)
//   pvc_perfbench --self-test         (fault-spec generator check)
//
// Run it from the repository root; perfbench/run.py builds it and
// forwards its arguments.  See perfbench/README.md.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "invoke.hpp"
#include "obs/metrics.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  bool record_oracle = false;
};

// Paths relative to the repository root, where the driver runs.
const std::string kOracleDir = "perfbench/oracle";
const std::string kWorkDir = ".bench_build/perfbench-work";

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      o.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value());
    } else if (flag == "--trace") {
      o.trace = value() != "0";
    } else if (flag == "--self-test") {
      o.self_test = true;
    } else if (flag == "--record-oracle") {
      o.record_oracle = true;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (!o.self_test && !o.record_oracle && o.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return o;
}

/// Sends file descriptor 1 to /dev/null while alive: the ops' stdout is
/// discarded, and the result line printed afterwards is the only output.
class StdoutSilencer {
 public:
  StdoutSilencer() : saved_(dup(1)) {
    std::fflush(stdout);
    const int null_fd = open("/dev/null", O_WRONLY);
    dup2(null_fd, 1);
    close(null_fd);
  }
  ~StdoutSilencer() {
    std::cout.flush();
    std::fflush(stdout);
    dup2(saved_, 1);
    close(saved_);
  }
  StdoutSilencer(const StdoutSilencer&) = delete;
  StdoutSilencer& operator=(const StdoutSilencer&) = delete;

 private:
  int saved_;
};

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// "median 1.2 (p10 1.1, p90 1.4, n=12)" for a stderr summary.
std::string describe(std::vector<double> v) {
  if (v.empty()) {
    return "no samples";
  }
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
  };
  char buf[128];
  std::snprintf(buf, sizeof buf, "median %.6g (p10 %.6g, p90 %.6g, n=%zu)",
                median(v), at(0.1), at(0.9), v.size());
  return buf;
}

/// Peak resident set of this process image.  VmHWM, because getrusage's
/// ru_maxrss also counts the image before exec (the launching Python
/// interpreter, ~8 MiB more than all of node_tables).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// setup_s: the median over repeated warm builds of the workload's
/// simulated machines (one untimed build first), before any simulated
/// work, sampled for at least a second.  Builds after the laps would
/// measure a heap the ops have warmed: fig1_chase's hierarchies then
/// built in 5 ms in some runs instead of 11.
double measure_setup(const Workload& w) {
  constexpr double kMinSeconds = 1.0;
  constexpr std::size_t kMinSamples = 15;
  w.build_machines();
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (samples.size() < kMinSamples ||
         seconds_between(begin, Clock::now()) < kMinSeconds) {
    const Clock::time_point start = Clock::now();
    w.build_machines();
    samples.push_back(seconds_between(start, Clock::now()));
  }
  std::fprintf(stderr, "perfbench: setup_s %s\n", describe(samples).c_str());
  return median(samples);
}

/// Every op's wall times over a run's laps at one thread count.
///
/// best() is the run's lap time: the sum over the ops of each op's
/// fastest call, the best-of-N the paper's own microbenchmarks report.
/// On the shared host the median lap wanders with the neighbours' load
/// (see README.md); each op's fastest call moves far less between runs.
class LapTimes {
 public:
  explicit LapTimes(std::size_t ops) : op_seconds_(ops) {}

  void add(std::size_t op, double seconds) {
    op_seconds_[op].push_back(seconds);
  }
  [[nodiscard]] bool empty() const { return op_seconds_[0].empty(); }
  [[nodiscard]] double best() const {
    double sum = 0.0;
    for (const auto& v : op_seconds_) {
      sum += *std::min_element(v.begin(), v.end());
    }
    return sum;
  }
  /// Each whole lap's summed time, in lap order.
  [[nodiscard]] std::vector<double> laps() const {
    std::vector<double> out(op_seconds_[0].size(), 0.0);
    for (const auto& v : op_seconds_) {
      for (std::size_t k = 0; k < out.size(); ++k) {
        out[k] += v[k];
      }
    }
    return out;
  }
  [[nodiscard]] const std::vector<double>& op(std::size_t i) const {
    return op_seconds_[i];
  }

 private:
  std::vector<std::vector<double>> op_seconds_;
};

/// Runs laps over the workload's ops and keeps the correctness tallies.
class Runner {
 public:
  Runner(const Workload& w, std::vector<std::string> oracle,
         std::string csv_path, std::uint64_t seed)
      : w_(w),
        oracle_(std::move(oracle)),
        outputs_(w.ops.size()),
        csv_path_(std::move(csv_path)),
        order_rng_(seed) {}

  /// One lap: every op once, in seed-shuffled order, at `threads`.  Each
  /// op call's wall time goes to `times`.
  void lap(int threads, LapTimes& times, SpanRecorder* recorder = nullptr,
           std::vector<std::uint64_t>* entry_spans = nullptr) {
    std::vector<std::size_t> order(w_.ops.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng_() % i]);
    }
    const std::vector<std::string> thread_opt = {"threads=" +
                                                 std::to_string(threads)};
    for (const std::size_t i : order) {
      const Op& op = w_.ops[i];
      const OpResult r =
          invoke(op, op.takes_threads ? thread_opt : std::vector<std::string>{},
                 csv_path_, recorder, static_cast<int>(i));
      times.add(i, r.seconds);
      ++attempted_;
      if (entry_spans != nullptr) {
        (*entry_spans)[i] = r.span;
      }
      if (!r.ok) {
        ++failed_;
        problem(op.id + " failed: " + r.error);
        continue;
      }
      if (r.csv == oracle_[i]) {
        ++matched_;
      }
      if (!outputs_[i]) {
        outputs_[i] = r.csv;
      } else if (*outputs_[i] != r.csv) {
        problem(op.id + ": output differs between laps or thread counts");
      }
    }
  }

  void problem(const std::string& what) {
    if (problems_.size() < 20) {
      problems_.push_back(what);
    }
    consistent_ = false;
  }

  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  [[nodiscard]] bool consistent() const { return consistent_; }
  [[nodiscard]] double match_frac() const {
    return attempted_ > 0 ? static_cast<double>(matched_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }
  /// Each op's output (empty when it never succeeded).
  [[nodiscard]] std::vector<std::string> outputs() const {
    std::vector<std::string> out;
    for (const auto& o : outputs_) {
      out.push_back(o.value_or(""));
    }
    return out;
  }

 private:
  const Workload& w_;
  std::vector<std::string> oracle_;
  std::vector<std::optional<std::string>> outputs_;
  std::string csv_path_;
  std::mt19937_64 order_rng_;
  long attempted_ = 0;
  long failed_ = 0;
  long matched_ = 0;
  bool consistent_ = true;
  std::vector<std::string> problems_;
};

/// Every op's oracle: the recorded corpus, except for seeded ops at a
/// seed other than the recorded one, whose serial run happens here.
std::vector<std::string> load_oracle(const Workload& w, const Options& o,
                                     const std::string& csv_path) {
  std::vector<std::string> oracle;
  for (const Op& op : w.ops) {
    if (op.seeded && o.seed != kDefaultSeed) {
      oracle.push_back(serial_oracle(op, csv_path));
      continue;
    }
    const auto bytes = read_file(corpus_path(kOracleDir, op));
    if (!bytes) {
      throw std::runtime_error("oracle corpus has no " +
                               corpus_path(kOracleDir, op) +
                               " (regenerate with --record-oracle)");
    }
    oracle.push_back(*bytes);
  }
  return oracle;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The traced run's per-layer metrics.
struct TraceResult {
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
};

TraceResult traced_phase(const Workload& w, Runner& runner,
                         const LapTimes& untraced, const LapTimes& par,
                         const Options& o, const std::string& trace_prefix) {
  SpanRecorder recorder;
  std::vector<std::uint64_t> entry_spans(w.ops.size());
  LapTimes traced(w.ops.size());
  pvc::obs::Snapshot counters;
  const Clock::time_point begin = Clock::now();
  do {
    pvc::obs::Registry registry;
    {
      const pvc::obs::ScopedRegistry scoped(registry);
      runner.lap(1, traced, &recorder, &entry_spans);
    }
    counters = registry.snapshot();
  } while (seconds_between(begin, Clock::now()) < o.seconds / 2);

  // Probes, two at a time (one at a time would not fit fig1_chase's
  // traced run in its time limit).  Each task runs under a throwaway
  // registry so its counters stay out of the ops' per-lap deltas.
  std::vector<ProbeTask> tasks;
  const auto outputs = runner.outputs();
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    auto op_tasks = probe_tasks(w.ops[i], static_cast<int>(i), outputs[i]);
    tasks.insert(tasks.end(), op_tasks.begin(), op_tasks.end());
  }
  constexpr int kProbeThreads = 2;
  std::atomic<std::size_t> next{0};
  std::vector<ProbeStats> stats(kProbeThreads);
  std::mutex errors_mutex;
  std::vector<std::string> errors;
  std::vector<std::thread> workers;
  for (int t = 0; t < kProbeThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t k = next++; k < tasks.size(); k = next++) {
        const ProbeTask& task = tasks[k];
        ProbeScope scope;
        scope.recorder = &recorder;
        scope.op = task.op;
        scope.parent = entry_spans[static_cast<std::size_t>(task.op)];
        scope.lane = t + 1;
        pvc::obs::Registry scratch;
        const pvc::obs::ScopedRegistry scoped(scratch);
        try {
          task.run(scope);
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(errors_mutex);
          errors.push_back(w.ops[static_cast<std::size_t>(task.op)].id +
                           " probe failed: " + e.what());
        }
        stats[static_cast<std::size_t>(t)].merge(scope.stats);
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  TraceResult result;
  result.problems = errors;
  ProbeStats probe;
  for (const ProbeStats& s : stats) {
    probe.merge(s);
  }
  for (const std::string& m : probe.mismatches) {
    result.problems.push_back("probe disagrees with op output: " + m);
  }

  // An op's probe time: its probe spans directly under its entry span.
  double probe_s = 0.0;
  for (const Span& s : recorder.spans()) {
    if (s.name != "bench.entry" && s.name != kChaseSplitSpan &&
        std::find(entry_spans.begin(), entry_spans.end(), s.parent) !=
            entry_spans.end()) {
      probe_s += s.seconds();
    }
  }

  std::filesystem::create_directories(
      std::filesystem::path(trace_prefix).parent_path());
  recorder.write_chrome_json(trace_prefix + ".json");
  write_file(trace_prefix + ".layers.txt", recorder.totals_table());
  std::fprintf(stderr, "%s\nspans: %s.json\n", recorder.totals_table().c_str(),
               trace_prefix.c_str());

  const double entry_s = median(traced.laps());
  auto& m = result.metrics;
  const auto add = [&m](const std::string& name, double value,
                        const char* unit) { m.push_back({name, value, unit}); };
  const auto count = [&counters](const char* name) {
    return counters.value(name);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  add("bench.entry_s", entry_s, "s");
  add("bench.self_s", entry_s - probe_s, "s");
  add("bench.probe_frac", ratio(probe_s, entry_s), "ratio");
  add("bench.par_efficiency", ratio(untraced.best(), 2.0 * par.best()),
      "ratio");
  add("sweep.deduped_tasks", count("sweep.deduped_tasks"), "count");
  for (const char* layer :
       {"report.table6", "report.figures", "micro.latency_curve",
        "micro.table2", "micro.table3", "micro.msg_sweep", "kernels.chase",
        "kernels.chase_walk", "core.sattolo", "sim.cache.build",
        "sim.cache.access", "runtime.nodesim_build", "comm.cluster_build",
        "comm.halo", "fault.ckpt_write", "fault.recovery", "fault.cr_mc"}) {
    add(std::string(layer) + "_s",
        recorder.total_seconds(layer) + probe.reused_seconds[layer], "s");
  }
  const double chase_steps = static_cast<double>(probe.chase_steps);
  add("kernels.chase_steps", chase_steps, "count");
  add("kernels.chase_ns_per_step",
      ratio(recorder.total_seconds("kernels.chase") * 1e9, chase_steps), "ns");
  for (const char* name :
       {"cache.accesses", "cache.l1.hits", "cache.l1.misses", "cache.l2.hits",
        "cache.l2.misses", "cache.llc.hits", "cache.llc.misses",
        "cache.memory.fills"}) {
    add(name, count(name), "count");
  }
  for (const char* level : {"l1", "l2", "llc"}) {
    const std::string prefix = std::string("cache.") + level;
    const double hits = count((prefix + ".hits").c_str());
    add(prefix + ".hit_ratio",
        ratio(hits, hits + count((prefix + ".misses").c_str())), "ratio");
  }
  const double events = static_cast<double>(probe.engine_events);
  add("sim.engine.events", events, "count");
  add("sim.engine.ns_per_event", ratio(probe.engine_seconds * 1e9, events),
      "ns");
  for (const char* name :
       {"net.flows_started", "net.flows_completed", "net.contention_events",
        "shard.windows", "shard.components", "shard.spatial.runs",
        "power.governor_resolves", "queue.kernels_submitted",
        "queue.h2d_transfers", "queue.d2h_transfers", "queue.p2p_transfers",
        "fabric.messages", "fabric.routes.nonminimal", "fabric.nic.failovers",
        "fabric.flows_killed", "fabric.messages_refused", "comm.messages",
        "comm.retries", "comm.drops", "fault.recoveries",
        "fault.rank_failures", "fault.events_armed"}) {
    add(name, count(name), "count");
  }
  add("fabric.bytes", count("fabric.bytes"), "B");
  add("fabric.killed_frac",
      ratio(count("fabric.flows_killed"), count("net.flows_started")),
      "ratio");
  add("trace.overhead_frac", ratio(traced.best(), untraced.best()) - 1.0,
      "ratio");
  return result;
}

int run_workload(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed);
  const std::string dir = kWorkDir + "/" + o.workload + "-" +
                          std::to_string(getpid());
  std::filesystem::create_directories(dir);
  const std::string csv_path = dir + "/op.csv";

  std::vector<Metric> metrics;
  std::optional<TraceResult> trace;
  std::optional<Runner> runner;
  {
    const StdoutSilencer silence;
    const double setup_s = measure_setup(w);
    runner.emplace(w, load_oracle(w, o, csv_path), csv_path, o.seed);

    // Untraced laps, alternating threads=1 and threads=2, until the run
    // length is reached with at least one lap of each.
    LapTimes serial(w.ops.size());
    LapTimes par(w.ops.size());
    const Clock::time_point begin = Clock::now();
    for (int lap = 0; serial.empty() || par.empty() ||
                      seconds_between(begin, Clock::now()) < o.seconds;
         ++lap) {
      runner->lap(lap % 2 == 0 ? 1 : 2, lap % 2 == 0 ? serial : par);
    }

    for (const auto& [name, times] :
         {std::pair{"lap_s", &serial}, std::pair{"par_lap_s", &par}}) {
      std::fprintf(stderr, "perfbench: %s %s %.6g, whole laps %s\n",
                   o.workload.c_str(), name, times->best(),
                   describe(times->laps()).c_str());
      for (std::size_t i = 0; i < w.ops.size(); ++i) {
        std::fprintf(stderr, "perfbench:   %-36s %s\n", w.ops[i].id.c_str(),
                     describe(times->op(i)).c_str());
      }
    }
    if (o.trace) {
      trace = traced_phase(
          w, *runner, serial, par, o,
          kWorkDir + "/traces/" + o.workload + "-seed" + std::to_string(o.seed));
    } else {
      const ReferenceError ref = reference_error(w.ops, runner->outputs());
      metrics = {{"setup_s", setup_s, "s"},
                 {"lap_s", serial.best(), "s"},
                 {"par_lap_s", par.best(), "s"},
                 {"peak_rss_mb", peak_rss_mib(), "MiB"},
                 {"oracle_match_frac", runner->match_frac(), "ratio"},
                 {"paper_err_pct", ref.mean_abs_pct, "%"}};
    }
  }
  std::filesystem::remove_all(dir);

  bool correct = runner->consistent();
  for (const std::string& p : runner->problems()) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (trace) {
    for (const std::string& p : trace->problems) {
      std::fprintf(stderr, "perfbench: %s\n", p.c_str());
    }
    correct = correct && trace->problems.empty();
    metrics = trace->metrics;
  }
  if (runner->match_frac() < 1.0) {
    std::fprintf(stderr,
                 "perfbench: %s: %.4f of timed ops match the serial oracle\n",
                 o.workload.c_str(), runner->match_frac());
  }
  print_result(correct && runner->failed() == 0, runner->attempted(),
               runner->failed(), metrics);
  return 0;
}

/// Rewrites the corpus: every op of every workload at the recorded seed,
/// run serially.
int record_oracle() {
  std::filesystem::create_directories(kWorkDir);
  std::filesystem::create_directories(kOracleDir);
  const std::string csv_path = kWorkDir + "/record-" +
                               std::to_string(getpid()) + ".csv";
  std::vector<std::string> written;
  {
    const StdoutSilencer silence;
    for (const std::string& name : workload_names()) {
      for (const Op& op : make_workload(name, kDefaultSeed).ops) {
        write_file(corpus_path(kOracleDir, op), serial_oracle(op, csv_path));
        written.push_back(corpus_path(kOracleDir, op));
      }
    }
  }
  std::filesystem::remove(csv_path);
  for (const std::string& path : written) {
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options o = perfbench::parse_options(argc, argv);
    if (o.self_test) {
      const std::size_t n = perfbench::self_test_fault_specs(1000);
      std::printf("self-test: %zu fault specs over 1000 seeds parse and "
                  "name existing nodes, NICs and links\n",
                  n);
      return 0;
    }
    if (o.record_oracle) {
      return perfbench::record_oracle();
    }
    return perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}

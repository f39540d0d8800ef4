// The bench registry (bench/bench_entry.hpp) and the option validation
// of the bench binaries, driven in-process through it: malformed or
// retired options and chaos clauses must fail with a typed error that
// names them, never run with a silently different meaning, and a bench
// run twice in one process must write the same bytes both times.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "arch/systems.hpp"
#include "bench_entry.hpp"
#include "core/error.hpp"
#include "fault/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "runtime/node_sim.hpp"
#include "sim/fabric.hpp"

namespace {

namespace fs = std::filesystem;

TEST(BenchRegistry, CoversEveryBenchBinary) {
  // The registry is hand-maintained (static-init registration would be
  // silently dropped from a static library); this pins the count so a
  // new bench that forgets to enlist is caught here.
  EXPECT_EQ(pvcbench::bench_entries().size(), 16u);
  EXPECT_NE(pvcbench::find_bench("table2_microbench"), nullptr);
  EXPECT_NE(pvcbench::find_bench("chaos_degradation"), nullptr);
  EXPECT_EQ(pvcbench::find_bench("gbench_simcore"), nullptr);
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs `bench` in-process under a fresh metrics registry with csv= and
/// metrics= pointing into `dir`; returns the CSV and metrics bytes.
std::pair<std::string, std::string> run_to_files(
    const char* bench, std::vector<std::string> args, const fs::path& dir) {
  const fs::path csv = dir / "out.csv";
  const fs::path metrics = dir / "out.met";
  args.push_back("csv=" + csv.string());
  args.push_back("metrics=" + metrics.string());
  pvc::obs::Registry registry;
  pvc::obs::ScopedRegistry scope(registry);
  const pvcbench::BenchEntry* entry = pvcbench::find_bench(bench);
  if (entry == nullptr) {
    ADD_FAILURE() << bench << " is not registered";
    return {};
  }
  EXPECT_EQ(pvcbench::run_bench_entry(*entry, args), 0) << bench;
  return {slurp(csv), slurp(metrics)};
}

TEST(BenchRegistry, InProcessRerunIsByteIdentical) {
  // perfbench/ runs each bench in-process many times and checks every
  // call's CSV against one recorded oracle, so a second run in the same
  // process must write the same CSV and metrics bytes — including the
  // threaded sweeps, which reuse the shared worker pool.
  const fs::path dir = fs::temp_directory_path() /
                       ("pvc_bench_rerun_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::pair<const char*, std::vector<std::string>> runs[] = {
      {"power_report", {}},
      {"table4_refspecs", {}},
      {"sweep_msgsize", {"threads=2"}},
      {"chaos_degradation", {"threads=4"}},
  };
  for (const auto& [bench, args] : runs) {
    SCOPED_TRACE(bench);
    const auto first = run_to_files(bench, args, dir);
    const auto second = run_to_files(bench, args, dir);
    EXPECT_FALSE(first.first.empty());
    EXPECT_FALSE(first.second.empty());
    EXPECT_EQ(first.first, second.first);    // CSV bytes
    EXPECT_EQ(first.second, second.second);  // metrics bytes
  }
  fs::remove_all(dir);
}

/// The integer `count` column of metric `name` in a metrics= CSV.
std::uint64_t metric_count(const std::string& metrics,
                           const std::string& name) {
  std::istringstream in(metrics);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(name + ",", 0) != 0) {
      continue;
    }
    // metric,type,unit,value,count,...: the fifth field.
    std::istringstream fields(line);
    std::string field;
    for (int i = 0; i < 5; ++i) {
      std::getline(fields, field, ',');
    }
    return std::stoull(field);
  }
  ADD_FAILURE() << name << " missing from the metrics";
  return 0;
}

TEST(BenchRegistry, ResilienceSweepRunsEachSectionOnce) {
  // resilience_sweep once reused one sweep for its three sections, so
  // every run() re-ran the sections before it: the checkpoint DES three
  // times and the Daly Monte Carlo twice.  Its counters must read one
  // pass.
  const fs::path dir = fs::temp_directory_path() /
                       ("pvc_bench_once_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto [csv, metrics] =
      run_to_files("resilience_sweep", {"sim_ranks=48", "threads=2"}, dir);
  fs::remove_all(dir);
  EXPECT_FALSE(csv.empty());

  // sim_ranks=48 prices 12 and 48 Aurora ranks on the DES, 16 GiB each.
  constexpr std::uint64_t kCkptBytes = 16ull << 30;
  EXPECT_EQ(metric_count(metrics, "fabric.ckpt.bytes"), (12 + 48) * kCkptBytes);

  // One Daly grid at the bench defaults: the MTBF x interval-factor grid
  // around the Daly optimum, C = the model's one-node write cost,
  // R = 3C, seed 7 (the default chaos) + cell, 400 trials of 10000 s.
  const auto node = pvc::arch::aurora();
  const double write = pvc::fault::checkpoint_write_model_s(
      pvc::sim::FabricSpec::for_node(node), node.total_subdevices(),
      static_cast<double>(kCkptBytes));
  pvc::obs::Registry grid;
  {
    pvc::obs::ScopedRegistry scope(grid);
    std::uint64_t cell = 0;
    for (const double mtbf : {250.0, 1000.0, 4000.0}) {
      const double center = pvc::fault::daly_optimal_interval_s(write, mtbf);
      for (const double factor : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        (void)pvc::fault::simulate_checkpoint_restart(
            10000.0, center * factor, write, 3.0 * write, mtbf, 7 + cell++,
            400);
      }
    }
  }
  const std::uint64_t one_grid = grid.snapshot().count("fault.checkpoints");
  EXPECT_GT(one_grid, 0u);
  EXPECT_EQ(metric_count(metrics, "fault.checkpoints"), one_grid);
  EXPECT_EQ(metric_count(metrics, "fault.restarts"),
            grid.snapshot().count("fault.restarts"));
}

/// Runs `bench` with `args` and returns the pvc::Error it throws; fails
/// the test when the run completes instead.
pvc::Error run_expecting_error(const char* bench,
                               const std::vector<std::string>& args) {
  const pvcbench::BenchEntry* entry = pvcbench::find_bench(bench);
  if (entry == nullptr) {
    ADD_FAILURE() << bench << " is not registered";
  } else {
    try {
      (void)pvcbench::run_bench_entry(*entry, args);
      ADD_FAILURE() << bench << " accepted the options";
    } catch (const pvc::Error& e) {
      return e;
    }
  }
  return pvc::Error("no error", std::source_location::current());
}

TEST(BenchOptions, NegativeSimRanksIsATypedError) {
  // A negative DES cap would price every point with the model, silently
  // turning the discrete-event runs off.
  for (const char* bench : {"scaling_multinode", "resilience_sweep"}) {
    const pvc::Error e = run_expecting_error(bench, {"sim_ranks=-5"});
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << bench;
    EXPECT_STREQ(e.what(),
                 "[invalid_argument] sim_ranks must be non-negative (got -5; "
                 "0 prices every point with the model)")
        << bench;
  }
}

TEST(BenchOptions, ChaosThatKillsTheMeasuredTransferNamesIt) {
  // Every message dropped and none retried: the first measured transfer
  // fails, and the bench reports why instead of printing a rate.
  testing::internal::CaptureStdout();
  const pvc::Error e = run_expecting_error(
      "chaos_degradation", {"chaos=drop:1;retries:max=0", "threads=1"});
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(e.code(), pvc::ErrorCode::Generic);
  EXPECT_STREQ(e.what(),
               "chaos_degradation: transfer did not survive the fault plan "
               "(message rank 0 -> rank 1 tag 0 (5e+08 bytes) aborted after "
               "1 attempts (0 retries exhausted))");
}

TEST(BenchOptions, NegativeThreadsIsATypedError) {
  // threads= sizes the sweep pool; a negative count is an error naming
  // the option (checked on node-table, chaos and cluster benches).
  for (const char* bench :
       {"table3_p2p", "chaos_degradation", "scaling_multinode",
        "resilience_sweep"}) {
    const pvc::Error e = run_expecting_error(bench, {"threads=-1"});
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << bench;
    EXPECT_NE(std::string(e.what()).find("threads="), std::string::npos)
        << e.what();
  }
}

TEST(BenchOptions, MalformedValuesAreTypedErrorsNamingTheKey) {
  // A value that does not parse as its option's type, a non-finite
  // number, an unknown system, an output path that is empty, names a
  // directory or lies in a directory that does not exist, and an empty
  // chaos scenario fail with an InvalidArgument that quotes the key and
  // the whole option, before the bench prints anything.  what() carries
  // no source path, so the same bad option prints the same line in every
  // build tree.
  const std::pair<const char*, const char*> cases[] = {
      {"resilience_sweep", "trials=abc"},
      {"resilience_sweep", "sim_ranks=12x"},
      {"resilience_sweep", "work=10s"},
      {"resilience_sweep", "work=-inf"},
      {"resilience_sweep", "work=1e999"},
      {"scaling_multinode", "sim_ranks="},
      {"table3_p2p", "threads=abc"},
      {"fig1_latency", "coalesced=maybe"},
      {"sweep_msgsize", "system=foo"},
      {"scaling_multinode", "system=Nope"},
      {"table3_p2p", "csv="},
      {"table3_p2p", "metrics="},
      {"table3_p2p", "csv=."},
      {"table3_p2p", "metrics=pvcbench-no-such-dir/m.csv"},
      {"chaos_degradation", "chaos="},
  };
  for (const auto& [bench, arg] : cases) {
    testing::internal::CaptureStdout();
    const pvc::Error e = run_expecting_error(bench, {arg});
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "") << arg;
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << arg;
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("[invalid_argument] ", 0), 0u) << what;
    const std::string key(arg, std::string_view(arg).find('='));
    EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    EXPECT_NE(what.find(arg), std::string::npos) << what;
  }
}

TEST(BenchOptions, ResilienceSweepChecksWorkAndTrialsFirst) {
  // work= and trials= are checked before any section runs, each by
  // name.  trials=4294967696 used to narrow to 400 and exit 0; the
  // others failed from inside src/fault without naming the option, or
  // (work=inf) hung.
  const std::pair<const char*, const char*> cases[] = {
      {"work=0", "work="},
      {"work=-3", "work="},
      {"work=nan", "work="},
      {"work=inf", "work="},
      {"trials=0", "trials="},
      {"trials=-5", "trials="},
      {"trials=2147483648", "trials="},
      {"trials=4294967696", "trials="},
      {"trials=99999999999999999999", "'trials'"},  // strtol: ERANGE
  };
  for (const auto& [arg, key] : cases) {
    pvc::obs::Registry registry;
    pvc::obs::ScopedRegistry scope(registry);
    const pvc::Error e = run_expecting_error("resilience_sweep", {arg});
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << arg;
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
        << arg << ": " << e.what();
    // The checkpoint section, the first to run, counts its bytes.
    EXPECT_EQ(registry.snapshot().count("fabric.ckpt.bytes"), 0u) << arg;
  }
}

TEST(BenchOptions, ResilienceSweepRejectsUnboundedDalyCells) {
  // Inputs whose Monte Carlo would never finish fail before any section
  // runs or prints, naming what makes them unbounded and, when a chaos
  // ckpt clause set the cell, the clause: 1e12 s of work is ~1.6e11
  // segments per trial (limit 2^20); a 1 s MTBF against a 50-800 s
  // interval expects far more than 1e9 failures; and 2e9 trials of the
  // 0.25 s cell's 4e4 segments walk 8e13 segments (limit 2^32) with
  // almost no failures.
  const std::pair<std::vector<std::string>, std::vector<const char*>>
      cases[] = {
          {{"sim_ranks=0", "work=1e12"}, {"work", "interval"}},
          {{"chaos=seed:1;ckpt:bytes=1e9,interval=200,mtbf=1"},
           {"interval", "mtbf", "ckpt"}},
          {{"sim_ranks=0", "trials=2000000000",
            "chaos=seed:1;ckpt:bytes=1e9,interval=1,mtbf=1e12"},
           {"trials", "work", "interval", "2^32", "ckpt"}},
      };
  for (const auto& [args, words] : cases) {
    testing::internal::CaptureStdout();
    const pvc::Error e = run_expecting_error("resilience_sweep", args);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(out.find("Checkpoint write"), std::string::npos)
        << args.back() << " printed:\n" << out;
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << args.back();
    for (const char* word : words) {
      EXPECT_NE(std::string(e.what()).find(word), std::string::npos)
          << args.back() << ": " << e.what();
    }
  }
}

TEST(BenchOptions, PositionalArgumentsFailByName) {
  // Every option is key=value.  A bare token, like `csv` for
  // `csv=<path>`, used to be ignored: the bench exited 0 and wrote
  // nothing.  Now every bench rejects it by name before writing.
  const fs::path dir = fs::temp_directory_path() /
                       ("pvc_bench_positional_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path csv = dir / "out.csv";
  for (const pvcbench::BenchEntry& entry : pvcbench::bench_entries()) {
    for (const char* token : {"csv", "foo"}) {
      const pvc::Error e =
          run_expecting_error(entry.name, {token, "csv=" + csv.string()});
      EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument)
          << entry.name << " " << token;
      EXPECT_NE(std::string(e.what()).find(std::string("'") + token + "'"),
                std::string::npos)
          << entry.name << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("key=value"), std::string::npos)
          << entry.name << ": " << e.what();
      EXPECT_FALSE(fs::exists(csv)) << entry.name << " " << token;
    }
  }
  fs::remove_all(dir);
}

TEST(BenchOptions, RetiredShardOptionsAreUnknown) {
  // The cluster benches have one engine, so no option selects it.
  // Harnesses that still pass `shards=` key their fallback to plain
  // `threads=1` on this exact text.
  for (const char* bench : {"scaling_multinode", "resilience_sweep"}) {
    EXPECT_NE(std::string(run_expecting_error(bench, {"shards=0"}).what())
                  .find("unknown option 'shards'"),
              std::string::npos)
        << bench;
    EXPECT_NE(
        std::string(run_expecting_error(bench, {"shard_mode=auto"}).what())
            .find("unknown option 'shard_mode'"),
        std::string::npos)
        << bench;
  }
}

TEST(BenchOptions, ClusterChaosClausesActOrFail) {
  // Both cluster benches arm their plan only on ClusterComm jobs: a
  // clause they never apply, or one naming a node, NIC or rank outside
  // the largest cluster they arm, is an error naming the clause, raised
  // before the bench prints or writes anything.
  const std::pair<const char*, const char*> common[] = {
      {"rankfail:rank=999999", "rankfail"},
      {"nodedown:node=99999,at=0", "nodedown"},
      {"nicdown:node=0,nic=99", "nicdown"},
      {"nicdegrade:node=99999,nic=0,factor=0.5", "nicdegrade"},
      {"recovery:spare", "recovery"},  // retired: an unknown clause
      {"linkdown:a=0,b=2", "linkdown"},
      {"flap:a=0,b=2,period=2ms", "flap"},
      {"degrade:a=0,b=2,factor=0.5", "degrade"},
      {"throttle:card=0,factor=0.5", "throttle"},
      {"devlost:dev=99", "devlost"},
      {"drop:0.1", "drop"},
      {"corrupt:0.1", "corrupt"},
      {"usmfail:p=0.1", "usmfail"},
      {"reroute:0.5", "reroute"},
      {"retries:max=2", "retries"},
      {"timeout:1ms", "timeout"},
      // Scheduled at NaN, this failed on both benches only after output
      // had printed, with an uncoded engine error naming no clause.
      {"rankfail:rank=5,at=nan", "rankfail:rank=5,at=nan"},
  };
  const fs::path dir = fs::temp_directory_path() /
                       ("pvc_cluster_chaos_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path csv = dir / "out.csv";
  const auto expect_rejected = [&csv](const char* bench,
                                      std::vector<std::string> args,
                                      const char* clause) {
    const std::string chaos = args.back();
    args.push_back("csv=" + csv.string());
    testing::internal::CaptureStdout();
    const pvc::Error e = run_expecting_error(bench, args);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "")
        << bench << " " << chaos;
    EXPECT_FALSE(fs::exists(csv)) << bench << " " << chaos;
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument)
        << bench << " " << chaos;
    EXPECT_NE(std::string(e.what()).find(clause), std::string::npos)
        << bench << ": " << e.what();
  };
  for (const char* bench : {"scaling_multinode", "resilience_sweep"}) {
    for (const auto& [spec, clause] : common) {
      expect_rejected(bench, {std::string("chaos=") + spec}, clause);
    }
  }
  // scaling_multinode never reads the checkpoint clause, and runs no
  // recovery, so an in-range node or rank fault, which would fail its
  // halo exchange or change nothing, is rejected too...
  expect_rejected("scaling_multinode", {"chaos=ckpt:bytes=1e6"}, "ckpt");
  expect_rejected("scaling_multinode", {"chaos=seed:7;nodedown:node=3,at=2us"},
                  "nodedown:node=3");
  expect_rejected("scaling_multinode", {"chaos=seed:7;rankfail:rank=5"},
                  "rankfail:rank=5");
  // ...bounds targets by its largest DES point <= sim_ranks (192 Aurora
  // ranks = 16 nodes at sim_ranks=384)...
  expect_rejected("scaling_multinode", {"sim_ranks=384", "chaos=nodedown:16"},
                  "nodedown:node=16");
  expect_rejected("scaling_multinode", {"sim_ranks=384", "chaos=rankfail:192"},
                  "rankfail:rank=192");
  // ...and arms no cluster at all with sim_ranks=0.
  expect_rejected("scaling_multinode",
                  {"sim_ranks=0", "chaos=nicdown:node=0,nic=0"}, "nicdown");
  // resilience_sweep arms its 64-node recovery job: node 63 exists.
  const pvcbench::BenchEntry* resilience =
      pvcbench::find_bench("resilience_sweep");
  ASSERT_NE(resilience, nullptr);
  EXPECT_EQ(pvcbench::run_bench_entry(
                *resilience, {"sim_ranks=0", "trials=1",
                              "chaos=seed:7;nodedown:node=63,at=2us"}),
            0);
  expect_rejected("resilience_sweep", {"chaos=nodedown:node=64,at=2us"},
                  "nodedown:node=64");
  fs::remove_all(dir);
}

TEST(BenchOptions, NodeChaosClausesActOrFail) {
  // chaos_degradation arms one Aurora node (12 subdevices on 6 cards).
  // Appended to seed:1, all but the last two clauses used to exit 0 with
  // the CSV of seed:1 alone (drop:nan printing neither the clause nor
  // "(no faults)"); the last two failed late inside NodeSim without
  // naming the clause.  Each now fails before any output, naming the
  // clause; throttle, devlost, usmfail and timeout, which changed no
  // measured transfer, as unknown clauses.
  const std::pair<const char*, const char*> cases[] = {
      {"nodedown:node=1,at=0", "nodedown"},
      {"rankfail:rank=3", "rankfail"},
      {"ckpt:bytes=1e6", "ckpt"},
      {"nicdown:node=0,nic=0,at=0", "nicdown"},
      {"nicdegrade:node=0,nic=0,factor=0.5", "nicdegrade"},
      {"linkdown:a=0,b=1,at=0", "linkdown:a=0,b=1"},
      {"degrade:a=0,b=1,at=0,factor=0.5", "degrade:a=0,b=1"},
      {"degrade:a=0,b=99,at=0,factor=0.5", "degrade:a=0,b=99"},
      {"drop:nan", "drop:nan"},
      {"throttle:card=0,factor=0.5,at=0", "throttle"},
      {"devlost:dev=5,at=0", "devlost"},
      {"usmfail:p=0.9", "usmfail"},
      {"timeout:1ms", "timeout"},
      {"linkdown:a=0,b=99,at=0", "linkdown:a=0,b=99"},
      {"flap:a=0,b=77,at=0,period=1ms,count=2", "flap:a=0,b=77"},
  };
  const fs::path dir = fs::temp_directory_path() /
                       ("pvc_node_chaos_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path csv = dir / "out.csv";
  for (const auto& [clause, name] : cases) {
    const std::string chaos = std::string("chaos=seed:1;") + clause;
    testing::internal::CaptureStdout();
    const pvc::Error e = run_expecting_error(
        "chaos_degradation", {chaos, "csv=" + csv.string()});
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_EQ(e.code(), pvc::ErrorCode::InvalidArgument) << clause;
    EXPECT_NE(std::string(e.what()).find(std::string("'") + name),
              std::string::npos)
        << clause << ": " << e.what();
    EXPECT_EQ(out, "") << clause;
    EXPECT_FALSE(fs::exists(csv)) << clause;
  }
  // A clause in a later '|' scenario fails before the first one prints.
  testing::internal::CaptureStdout();
  const pvc::Error e = run_expecting_error(
      "chaos_degradation", {"chaos=seed:1|seed:2;linkdown:a=0,b=99,at=0"});
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_NE(std::string(e.what()).find("linkdown:a=0,b=99"), std::string::npos)
      << e.what();
  fs::remove_all(dir);

  // Still accepted: the default plan, and drops plus a degraded Xe-Link
  // on the remote pair Table III measures.
  const pvc::rt::NodeSim probe(pvc::arch::aurora());
  const auto& topo = *probe.topology();
  const auto plane = topo.plane_members(0);
  const std::string remote = "a=" + std::to_string(topo.flat_index(plane[0])) +
                             ",b=" + std::to_string(topo.flat_index(plane[1]));
  const std::vector<std::string> accepted[] = {
      {},
      {"chaos=seed:1;drop:0.02|seed:2;degrade:" + remote +
       ",factor=0.5,at=0;drop:0.01;retries:max=8,backoff=5us"},
  };
  const pvcbench::BenchEntry* entry = pvcbench::find_bench("chaos_degradation");
  ASSERT_NE(entry, nullptr);
  for (const auto& args : accepted) {
    testing::internal::CaptureStdout();
    EXPECT_EQ(pvcbench::run_bench_entry(*entry, args), 0)
        << (args.empty() ? "defaults" : args.front());
    testing::internal::GetCapturedStdout();
  }
}

TEST(BenchOptions, EveryNodeChaosClauseMovesTheCsv) {
  // Every clause chaos_degradation accepts changes what it measures:
  // added to a plan, it changes the CSV.  One that could not would run
  // as a silent no-op.  The link clauses act on the remote pair Table III
  // measures; drop and corrupt on both pairs' messages, and retries on
  // how the dropped ones are retransmitted.
  const pvc::rt::NodeSim probe(pvc::arch::aurora());
  const auto& topo = *probe.topology();
  const auto plane = topo.plane_members(0);
  const std::string pair = "a=" + std::to_string(topo.flat_index(plane[0])) +
                           ",b=" + std::to_string(topo.flat_index(plane[1]));
  const std::string linkdown = "seed:1;linkdown:" + pair + ",at=0";
  const std::string lossy = "seed:3;drop:0.5";
  const std::string retried = lossy + ";retries:max=8,backoff=1ms";
  const std::pair<std::string, std::string> cases[] = {
      {"seed:1", linkdown},
      {"seed:1",
       "seed:1;flap:" + pair + ",period=2ms,duty=0.5,count=4,at=0"},
      {"seed:1", "seed:1;degrade:" + pair + ",factor=0.5,at=0"},
      {linkdown, linkdown + ";reroute:0.5"},
      {"seed:3", lossy},
      {"seed:3", "seed:3;corrupt:0.5"},
      {lossy, retried},
      {retried, retried + ",maxbackoff=2ms"},
  };
  const fs::path dir = fs::temp_directory_path() /
                       ("pvc_node_clause_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const auto csv_of = [&dir](const std::string& chaos) {
    testing::internal::CaptureStdout();
    const std::string csv =
        run_to_files("chaos_degradation", {"chaos=" + chaos}, dir).first;
    testing::internal::GetCapturedStdout();
    return csv;
  };
  for (const auto& [without, with] : cases) {
    const std::string before = csv_of(without);
    EXPECT_FALSE(before.empty()) << without;
    EXPECT_NE(before, csv_of(with)) << with << " vs " << without;
  }
  fs::remove_all(dir);
}

// --- serial oracle -----------------------------------------------------------

TEST(BenchOracle, UnseededCorpusOpsMatchAtDefaults) {
  // perfbench/oracle/ holds each perfbench op's CSV from a serial run
  // (threads=1).  An op id is the bench name, then its system= and
  // sim_ranks= when it sets them (scaling_multinode.Aurora.768); any
  // other suffix (.fault, .two) marks a seeded op whose chaos= plan
  // perfbench generates, and this test leaves those out.  Every other
  // option stays at the bench's default, so this also holds the default
  // threads= to the serial bytes.  The corpus is only read.
  const fs::path corpus = fs::path(PVC_SOURCE_DIR) / "perfbench" / "oracle";
  std::vector<fs::path> files;
  for (const auto& file : fs::directory_iterator(corpus)) {
    if (file.path().extension() == ".csv") {
      files.push_back(file.path());
    }
  }
  std::sort(files.begin(), files.end());
  const fs::path dir = fs::temp_directory_path() /
                       ("pvc_bench_oracle_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path csv = dir / "out.csv";
  int unseeded = 0;
  int seeded = 0;
  for (const fs::path& file : files) {
    std::vector<std::string> parts;
    std::istringstream id(file.stem().string());
    for (std::string part; std::getline(id, part, '.');) {
      parts.push_back(part);
    }
    std::vector<std::string> args;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      const std::string& part = parts[i];
      if (part == "Aurora" || part == "Dawn") {
        args.push_back("system=" + part);
      } else if (!part.empty() &&
                 part.find_first_not_of("0123456789") == std::string::npos) {
        args.push_back("sim_ranks=" + part);
      } else {
        args.clear();
        break;
      }
    }
    if (parts.size() > 1 && args.empty()) {
      ++seeded;
      continue;
    }
    ++unseeded;
    SCOPED_TRACE(file.filename().string());
    const pvcbench::BenchEntry* entry = pvcbench::find_bench(parts[0]);
    ASSERT_NE(entry, nullptr);
    args.push_back("csv=" + csv.string());
    fs::remove(csv);
    pvc::obs::Registry registry;
    pvc::obs::ScopedRegistry scope(registry);
    testing::internal::CaptureStdout();
    const int rc = pvcbench::run_bench_entry(*entry, args);
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(slurp(csv), slurp(file));
  }
  fs::remove_all(dir);
  EXPECT_EQ(unseeded, 23);
  EXPECT_EQ(seeded, 5);
}

}  // namespace

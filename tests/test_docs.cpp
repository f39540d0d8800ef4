// Documentation consistency: the README option table vs what the bench
// sources actually parse, the README's system names vs the system
// parser, the docs/ cross-links the README promises, the ARCHITECTURE.md
// subsystem map vs the src/ tree, the chaos clause table vs the
// FaultPlan parser, and the fabric metric names vs
// docs/OBSERVABILITY.md.  Pattern of
// Documentation.ObservabilityDocListsEveryRegisteredMetric
// (tests/test_obs.cpp).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "arch/systems.hpp"
#include "comm/cluster.hpp"
#include "core/error.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "sim/fabric.hpp"

namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

const fs::path kRoot = PVC_SOURCE_DIR;

/// `key=value` option names a source file parses through pvc::Config.
std::set<std::string> config_keys_in(const std::string& source) {
  static const std::regex pattern(
      R"(config\.get(?:_int|_double)?\(\"([a-z0-9_]+)\")");
  std::set<std::string> keys;
  for (std::sregex_iterator it(source.begin(), source.end(), pattern), end;
       it != end; ++it) {
    keys.insert((*it)[1].str());
  }
  return keys;
}

TEST(Documentation, ReadmeDocumentsEveryBenchOption) {
  // Every option any bench binary parses — directly, through the
  // bench_common.hpp helpers, or through the ParallelSweep runner —
  // must appear in the README's consolidated options table as
  // `key=...`.
  std::set<std::string> keys;
  for (const auto& entry : fs::directory_iterator(kRoot / "bench")) {
    if (entry.path().extension() != ".cpp" &&
        entry.path().extension() != ".hpp") {
      continue;
    }
    for (const auto& key : config_keys_in(slurp(entry.path()))) {
      keys.insert(key);
    }
  }
  EXPECT_TRUE(keys.count("csv")) << "bench_common.hpp stopped parsing csv=?";
  EXPECT_TRUE(keys.count("metrics"));
  EXPECT_TRUE(keys.count("threads"));
  EXPECT_TRUE(keys.count("chaos"));
  EXPECT_TRUE(keys.count("system"));
  EXPECT_TRUE(keys.count("sim_ranks"));

  const std::string readme = slurp(kRoot / "README.md");
  for (const auto& key : keys) {
    EXPECT_NE(readme.find("`" + key + "="), std::string::npos)
        << "README.md options table is missing `" << key
        << "=` parsed by a bench source";
  }
}

TEST(Documentation, AcceptedKeyListsMatchParsedKeysAndReadme) {
  // Every bench that parses key=value options must reject unknown keys
  // through pvcbench::require_known_keys (bench_common.hpp), and its
  // accepted-key list must (a) cover every key the source actually
  // reads — directly or through the bench_common/ParallelSweep helpers
  // it calls — and (b) consist only of keys the README option table
  // documents as `key=...`.  A key parsed but not accepted would make
  // the bench reject its own documented options; an accepted key absent
  // from the README is an undocumented knob.
  static const std::regex accepted_pattern(
      R"(require_known_keys\(config,\s*\{([^}]*)\})");
  static const std::regex quoted(R"(\"([a-z0-9_]+)\")");
  const std::string readme = slurp(kRoot / "README.md");
  std::size_t benches_checked = 0;
  for (const auto& entry : fs::directory_iterator(kRoot / "bench")) {
    if (entry.path().extension() != ".cpp") {
      continue;
    }
    const std::string source = slurp(entry.path());
    if (source.find("from_args") == std::string::npos) {
      continue;  // not an option-parsing binary (gbench_*, helpers)
    }
    ++benches_checked;
    const std::string name = entry.path().filename().string();
    std::smatch match;
    ASSERT_TRUE(std::regex_search(source, match, accepted_pattern))
        << name << " parses options but never calls require_known_keys";
    std::set<std::string> accepted;
    const std::string list = match[1].str();
    for (std::sregex_iterator it(list.begin(), list.end(), quoted), end;
         it != end; ++it) {
      accepted.insert((*it)[1].str());
    }
    std::set<std::string> parsed = config_keys_in(source);
    if (source.find("maybe_write_csv") != std::string::npos) {
      parsed.insert("csv");
    }
    if (source.find("maybe_write_metrics") != std::string::npos) {
      parsed.insert("metrics");
    }
    if (source.find("threads_from_config") != std::string::npos) {
      parsed.insert("threads");
    }
    if (source.find("system_from_config") != std::string::npos) {
      parsed.insert("system");
    }
    for (const auto& key : parsed) {
      EXPECT_TRUE(accepted.count(key))
          << name << " parses `" << key
          << "=` but its require_known_keys list would reject it";
    }
    for (const auto& key : accepted) {
      EXPECT_NE(readme.find("`" + key + "="), std::string::npos)
          << name << " accepts `" << key
          << "=` but the README options table does not document it";
    }
  }
  EXPECT_GE(benches_checked, 16u);
}

TEST(Documentation, ReadmeLinksTheDocsPages) {
  const std::string readme = slurp(kRoot / "README.md");
  for (const char* doc :
       {"docs/ARCHITECTURE.md", "docs/SCALING.md", "docs/OBSERVABILITY.md",
        "docs/ROBUSTNESS.md", "docs/PERFORMANCE.md"}) {
    EXPECT_NE(readme.find(doc), std::string::npos)
        << "README.md does not link " << doc;
    EXPECT_TRUE(fs::exists(kRoot / doc)) << doc << " does not exist";
  }
}

TEST(Documentation, ArchitectureMapCoversEverySourceSubsystem) {
  const std::string architecture = slurp(kRoot / "docs" / "ARCHITECTURE.md");
  for (const auto& entry : fs::directory_iterator(kRoot / "src")) {
    if (!entry.is_directory()) {
      continue;
    }
    const std::string name = "src/" + entry.path().filename().string();
    EXPECT_NE(architecture.find(name), std::string::npos)
        << "docs/ARCHITECTURE.md does not mention " << name;
  }
  // The data-flow narrative the README promises.
  for (const char* anchor : {"Engine", "FlowNetwork", "bench"}) {
    EXPECT_NE(architecture.find(anchor), std::string::npos)
        << "docs/ARCHITECTURE.md lost its data-flow anchor " << anchor;
  }
}

TEST(Documentation, ScalingDocCoversTheMultinodeBenchOptions) {
  const std::string scaling = slurp(kRoot / "docs" / "SCALING.md");
  EXPECT_NE(scaling.find("scaling_multinode"), std::string::npos);
  const std::string bench_source =
      slurp(kRoot / "bench" / "scaling_multinode.cpp");
  for (const auto& key : config_keys_in(bench_source)) {
    EXPECT_NE(scaling.find("`" + key + "="), std::string::npos)
        << "docs/SCALING.md does not document scaling_multinode's `" << key
        << "=` option";
  }
}

TEST(Documentation, RobustnessDocCoversTheNicFaultClauses) {
  const std::string robustness = slurp(kRoot / "docs" / "ROBUSTNESS.md");
  for (const char* clause :
       {"nicdown", "nicdegrade", "nodedown", "rankfail", "ckpt"}) {
    EXPECT_NE(robustness.find(clause), std::string::npos)
        << "docs/ROBUSTNESS.md does not document the `" << clause
        << "` chaos clause";
  }
}

TEST(Documentation, RobustnessClauseTableParses) {
  // Every spec in the `chaos=` grammar table, optional `[...]` parts
  // included, is one the parser accepts, so the table documents no
  // clause that fails as unknown.
  const std::string robustness = slurp(kRoot / "docs" / "ROBUSTNESS.md");
  const std::string header = "| Clause | Keys | Effect |";
  std::size_t pos = robustness.find(header);
  ASSERT_NE(pos, std::string::npos) << "docs/ROBUSTNESS.md lost its table";
  std::istringstream rows(robustness.substr(pos));
  std::string row;
  std::getline(rows, row);  // header
  std::getline(rows, row);  // |---|---|---|
  int specs = 0;
  while (std::getline(rows, row) && row.rfind("| `", 0) == 0) {
    const std::size_t end = row.find('`', 3);
    ASSERT_NE(end, std::string::npos) << row;
    std::string spec = row.substr(3, end - 3);
    std::erase(spec, '[');
    std::erase(spec, ']');
    EXPECT_NO_THROW((void)pvc::fault::FaultPlan::parse(spec)) << spec;
    ++specs;
  }
  // seed plus the seven node and five cluster clauses.
  EXPECT_EQ(specs, 13);
}

TEST(Documentation, ScalingDocCoversTheResilienceBenchOptions) {
  const std::string scaling = slurp(kRoot / "docs" / "SCALING.md");
  EXPECT_NE(scaling.find("resilience_sweep"), std::string::npos);
  const std::string bench_source =
      slurp(kRoot / "bench" / "resilience_sweep.cpp");
  for (const auto& key : config_keys_in(bench_source)) {
    EXPECT_NE(scaling.find("`" + key + "="), std::string::npos)
        << "docs/SCALING.md does not document resilience_sweep's `" << key
        << "=` option";
  }
}

TEST(Documentation, ObservabilityDocListsTheFabricMetrics) {
  // Register the fabric metrics for real — one exchange over a fresh
  // registry — then require each live name in the doc, backticked like
  // the rest of the metric tables, and each backticked fabric.* name in
  // the doc to be live, so a deleted counter's row cannot linger.
  pvc::obs::Registry registry;
  pvc::obs::ScopedRegistry scope(registry);
  const auto node = pvc::arch::aurora();
  pvc::comm::ClusterComm cluster(node, pvc::sim::FabricSpec::for_node(node),
                                 24);
  static_cast<void>(cluster.exchange(
      std::vector<pvc::comm::ClusterComm::Message>{{0, 12, 1024.0}}));

  const std::string doc = slurp(kRoot / "docs" / "OBSERVABILITY.md");
  std::set<std::string> live;
  for (const auto& name : registry.names()) {
    if (name.rfind("fabric.", 0) != 0) {
      continue;
    }
    live.insert(name);
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/OBSERVABILITY.md does not document `" << name << "`";
  }
  EXPECT_GE(live.size(), 9u);

  static const std::regex documented(R"(`(fabric\.[a-z_.]+)`)");
  std::size_t doc_names = 0;
  for (std::sregex_iterator it(doc.begin(), doc.end(), documented), end;
       it != end; ++it) {
    ++doc_names;
    EXPECT_TRUE(live.count((*it)[1].str()))
        << "docs/OBSERVABILITY.md documents `" << (*it)[1].str()
        << "`, which no fabric code registers";
  }
  EXPECT_GE(doc_names, live.size());
}

TEST(Documentation, ReadmeSystemNamesParse) {
  // Every name the README's system= row offers is one system_by_name()
  // accepts, and together they cover all five node models.
  const std::string readme = slurp(kRoot / "README.md");
  const std::size_t row = readme.find("| `system=<name>` |");
  ASSERT_NE(row, std::string::npos) << "README.md lost its system= row";
  const std::string line = readme.substr(row, readme.find('\n', row) - row);
  const std::string meaning = line.substr(line.rfind(" | ") + 3);
  static const std::regex name(R"(`([^`]+)`)");
  std::set<std::string> systems;
  for (std::sregex_iterator it(meaning.begin(), meaning.end(), name), end;
       it != end; ++it) {
    try {
      systems.insert(pvc::arch::system_by_name((*it)[1].str()).system_name);
    } catch (const pvc::Error& e) {
      ADD_FAILURE() << "README.md system= row: " << e.what();
    }
  }
  EXPECT_EQ(systems.size(), pvc::arch::all_systems().size() + 1)
      << "the row should name every system, Frontier included";
}

TEST(Documentation, ObservabilityDocListsTheSweepDedupCounter) {
  // ParallelSweep lives in bench/, outside the layers whose live metric
  // names tests/test_obs.cpp checks against the doc.
  const std::string doc = slurp(kRoot / "docs" / "OBSERVABILITY.md");
  EXPECT_NE(doc.find("`sweep.deduped_tasks`"), std::string::npos);
}

TEST(Documentation, DesignDocLinksTheArchitectureMap) {
  const std::string design = slurp(kRoot / "DESIGN.md");
  EXPECT_NE(design.find("docs/ARCHITECTURE.md"), std::string::npos);
  EXPECT_NE(design.find("docs/SCALING.md"), std::string::npos);
}

}  // namespace

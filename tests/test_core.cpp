// Unit tests for src/core: units, errors, RNG, statistics, tables, CSV,
// plots, config.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>

#include "core/ascii_plot.hpp"
#include "core/config.hpp"
#include "core/csv.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/statistics.hpp"
#include "core/table.hpp"
#include "core/units.hpp"

namespace pvc {
namespace {

// --- units -------------------------------------------------------------------

TEST(Units, FormatFlopsPicksPrefix) {
  EXPECT_EQ(format_flops(17.0e12), "17 TFlop/s");
  EXPECT_EQ(format_flops(2.3e15), "2.3 PFlop/s");
  EXPECT_EQ(format_flops(5.0e15, "Iop/s"), "5 PIop/s");
  EXPECT_EQ(format_flops(1.5e9), "1.5 GFlop/s");
}

TEST(Units, FormatBandwidth) {
  EXPECT_EQ(format_bandwidth(197.0e9), "197 GB/s");
  EXPECT_EQ(format_bandwidth(2.0e12), "2 TB/s");
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes_binary(512.0 * KiB), "512 KiB");
  EXPECT_EQ(format_bytes_binary(192.0 * MiB), "192 MiB");
  EXPECT_EQ(format_bytes_si(500.0 * MB), "500 MB");
}

TEST(Units, FormatDurationScales) {
  EXPECT_EQ(format_duration(1.5), "1.5 s");
  EXPECT_EQ(format_duration(2.5e-3), "2.5 ms");
  EXPECT_EQ(format_duration(3.0e-6), "3 us");
  EXPECT_EQ(format_duration(4.0e-9), "4 ns");
}

TEST(Units, FormatFrequency) {
  EXPECT_EQ(format_frequency(1.6e9), "1.60 GHz");
  EXPECT_EQ(format_frequency(800.0e6), "800 MHz");
}

// --- error -------------------------------------------------------------------

TEST(Error, EnsureThrowsWithLocation) {
  EXPECT_NO_THROW(ensure(true, "fine"));
  try {
    ensure(false, "boom");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    // what() is the message alone; location() names the failed check.
    EXPECT_STREQ(e.what(), "boom");
    EXPECT_NE(std::string(e.location().file_name()).find("test_core.cpp"),
              std::string::npos);
  }
}

TEST(Error, UnreachableThrows) { EXPECT_THROW(unreachable("x"), Error); }

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a(), b());
  Rng a2(7);
  a2();
  EXPECT_NE(a2(), c());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounded) {
  Rng rng(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, SattoloSingleCycle) {
  Rng rng(4);
  std::vector<std::uint32_t> next(257);
  sattolo_cycle(rng, next.data(), next.size());
  // Following the permutation must visit every node exactly once before
  // returning to the start.
  std::uint32_t idx = 0;
  std::set<std::uint32_t> visited;
  for (std::size_t i = 0; i < next.size(); ++i) {
    EXPECT_TRUE(visited.insert(idx).second) << "revisited early";
    idx = next[idx];
  }
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(visited.size(), next.size());
}

// --- statistics --------------------------------------------------------------

TEST(Statistics, RelativeError) {
  EXPECT_DOUBLE_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_NEAR(relative_error(1.0, 1.1), 0.1 / 1.1, 1e-12);
}

TEST(Statistics, InterpolateClampsAndInterpolates) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  const std::vector<double> ys{10.0, 20.0, 40.0};
  EXPECT_DOUBLE_EQ(interpolate(xs, ys, -1.0), 10.0);
  EXPECT_DOUBLE_EQ(interpolate(xs, ys, 3.0), 40.0);
  EXPECT_DOUBLE_EQ(interpolate(xs, ys, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(interpolate(xs, ys, 1.5), 30.0);
}

// --- table -------------------------------------------------------------------

TEST(Table, RendersAlignedGrid) {
  Table t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_separator();
  t.add_row({"bee", "22"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("| bee   |"), std::string::npos);
  EXPECT_EQ(t.at(1, 1), "22");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  try {
    t.add_row({"only-one"});
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Generic);
    EXPECT_STREQ(e.what(), "Table: row has 1 cells, expected 2");
  }
}

// --- csv ---------------------------------------------------------------------

TEST(Csv, WriteFileNamesAPathItCannotOpen) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            "pvc_no_such_dir" / "out.csv")
                               .string();
  ASSERT_FALSE(std::filesystem::exists(path));
  CsvWriter csv;
  csv.set_header({"a"});
  try {
    csv.write_file(path);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Generic);
    EXPECT_EQ(std::string(e.what()), "CsvWriter: cannot open " + path);
  }
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RendersRows) {
  CsvWriter csv;
  csv.set_header({"x", "y"});
  csv.add_numeric_row("p", {1.5});
  EXPECT_EQ(csv.to_string(), "x,y\np,1.5\n");
}

TEST(Csv, HeaderWidthEnforced) {
  CsvWriter csv;
  csv.set_header({"x", "y"});
  EXPECT_THROW(csv.add_row({"too", "many", "cells"}), Error);
}

// --- ascii plots -------------------------------------------------------------

TEST(AsciiPlot, LinePlotRendersSeries) {
  LinePlot plot("Latency", "bytes", "cycles");
  plot.set_log2_x(true);
  plot.add_series({"pvc", {1024, 2048, 4096}, {60, 60, 400}});
  const std::string out = plot.to_string();
  EXPECT_NE(out.find("Latency"), std::string::npos);
  EXPECT_NE(out.find("pvc"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiPlot, BarChartShowsExpectedMarker) {
  BarChart chart("FOM");
  chart.add_bar({"app", "sys", 1.0, 0.9});
  chart.add_bar({"app", "other", 0.5, std::nullopt});
  const std::string out = chart.to_string();
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find("expected 0.90"), std::string::npos);
}

TEST(AsciiPlot, EmptyThrows) {
  LinePlot plot("t", "x", "y");
  EXPECT_THROW(plot.render(std::cout), Error);
  EXPECT_THROW(plot.add_series({"s", {}, {}}), Error);
}

// --- config ------------------------------------------------------------------

TEST(Config, ParsesKeyValuesAndPositional) {
  const char* argv[] = {"prog", "system=aurora", "repeat=5", "run-this"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_EQ(cfg.get_string("system", ""), "aurora");
  EXPECT_EQ(cfg.get_int("repeat", 0), 5);
  ASSERT_EQ(cfg.positional().size(), 1u);
  EXPECT_EQ(cfg.positional()[0], "run-this");
}

TEST(Config, TypedGettersValidate) {
  Config cfg;
  cfg.set("n=12");
  cfg.set("x=1.5");
  cfg.set("flag=yes");
  EXPECT_EQ(cfg.get_int("n", 0), 12);
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 0.0), 1.5);
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("missing", 7), 7);
  cfg.set("bad=abc");
  EXPECT_THROW(cfg.get_int("bad", 0), Error);
  EXPECT_THROW(cfg.get_double("bad", 0.0), Error);
  EXPECT_THROW(cfg.get_bool("bad", false), Error);
  cfg.set("nan=nan");
  cfg.set("inf=-inf");
  EXPECT_THROW(cfg.get_double("nan", 0.0), Error);
  EXPECT_THROW(cfg.get_double("inf", 0.0), Error);
}

TEST(Config, MalformedEntryThrows) {
  for (const std::string entry : {"novalue", "=x"}) {
    Config cfg;
    try {
      cfg.set(entry);
      ADD_FAILURE() << entry << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Generic) << entry;
      EXPECT_EQ(std::string(e.what()),
                "Config: malformed entry (expected key=value): " + entry);
    }
  }
}

TEST(Config, RepeatedKeyIsRejectedByName) {
  const char* argv[] = {"prog", "threads=1", "system=aurora", "threads=4"};
  try {
    (void)Config::from_args(4, argv);
    FAIL() << "expected InvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
    EXPECT_STREQ(e.what(),
                 "[invalid_argument] Config: option 'threads' given more "
                 "than once");
  }
}

TEST(Config, OutOfRangeIntegerIsRejectedByName) {
  // strtol saturates an out-of-range value at LONG_MAX/LONG_MIN with
  // ERANGE; get_int() must not hand the saturated value on.
  Config cfg;
  cfg.set("max=9223372036854775807");
  EXPECT_EQ(cfg.get_int("max", 0), 9223372036854775807L);
  for (const char* entry :
       {"n=9223372036854775808", "n=-9223372036854775809",
        "n=99999999999999999999"}) {
    Config big;
    big.set(entry);
    try {
      (void)big.get_int("n", 0);
      ADD_FAILURE() << entry << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::InvalidArgument) << entry;
      EXPECT_NE(std::string(e.what()).find("'n'"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pvc

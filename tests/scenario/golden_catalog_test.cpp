// Golden-determinism guard for the event kernel.
//
// Pins, per scenario in ScenarioRegistry::paper(), (a)
// Simulator::eventsExecuted() and (b) the FNV-1a hash of the scenario's
// rendered BENCH JSON document against the checked-in table
// golden_catalog.txt. Any kernel change that silently reorders
// same-timestamp events — or perturbs scheduling at all — shows up here
// as a hash/count mismatch long before a replay file or figure does.
//
// Each scenario is its own test case
// (Catalog/GoldenScenario.PreservesEventCountsAndBenchBytes/<name>), so a
// mismatch names its scenario and `ctest -j` runs the scenarios side by
// side. GoldenCatalog.RowsMatchTheCatalogExactly checks that every
// catalog entry has a row and no stale row lingers.
//
// Regenerate after an *intentional* behavior change with:
//   MGQ_UPDATE_GOLDEN=1 ./build/tests/scenario_test
//       --gtest_filter='GoldenCatalog.*'
// (the row check then runs every scenario and rewrites the file; the
// per-scenario cases skip) and commit the rewritten golden_catalog.txt
// alongside the change. MGQ_GOLDEN_SKIP=1 skips the comparison (escape
// hatch for toolchains with a different libm, which can shift
// floating-point series).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

#ifndef MGQ_GOLDEN_CATALOG
#error "MGQ_GOLDEN_CATALOG must point at golden_catalog.txt"
#endif

namespace mgq::scenario {
namespace {

struct GoldenRow {
  std::uint64_t events_executed = 0;
  std::uint64_t json_hash = 0;
};

std::map<std::string, GoldenRow> loadGolden(const std::string& path) {
  std::map<std::string, GoldenRow> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string name;
    GoldenRow row;
    ss >> name >> row.events_executed >> std::hex >> row.json_hash;
    if (!ss.fail()) rows[name] = row;
  }
  return rows;
}

/// Runs the named catalog scenarios in order on a thread of its own, so
/// no earlier run in this process leaves pool statistics behind.
std::vector<ScenarioResult> runOnFreshThread(
    const std::vector<std::string>& names) {
  std::vector<ScenarioResult> results;
  std::exception_ptr error;
  std::thread([&] {
    try {
      ScenarioRunner runner;  // no echo; checks are not the subject here
      for (const auto& name : names) {
        const auto* info = ScenarioRegistry::paper().find(name);
        results.push_back(runner.run(info->make()));
      }
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  return results;
}

GoldenRow measure(const ScenarioInfo& info) {
  const auto result = runOnFreshThread({info.name}).back();
  GoldenRow row;
  row.events_executed = result.events_executed;
  row.json_hash =
      obs::fnv1a64(obs::renderMultiRunJson(info.name, runExports({result})));
  return row;
}

std::vector<std::string> catalogNames() {
  std::vector<std::string> names;
  for (const auto* info : ScenarioRegistry::paper().list()) {
    names.push_back(info->name);
  }
  return names;
}

bool skipGolden() { return std::getenv("MGQ_GOLDEN_SKIP") != nullptr; }
bool updateGolden() { return std::getenv("MGQ_UPDATE_GOLDEN") != nullptr; }

void writeGolden(const std::string& path) {
  std::ostringstream rows;
  rows << "# scenario events_executed fnv1a64(BENCH json), one row per\n"
       << "# catalog entry; regenerate with MGQ_UPDATE_GOLDEN=1 (see\n"
       << "# golden_catalog_test.cpp).\n";
  for (const auto* info : ScenarioRegistry::paper().list()) {
    const auto row = measure(*info);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(row.json_hash));
    rows << info->name << " " << row.events_executed << " " << buf << "\n";
  }
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << rows.str();
}

class GoldenScenario : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenScenario, PreservesEventCountsAndBenchBytes) {
  if (skipGolden()) GTEST_SKIP() << "MGQ_GOLDEN_SKIP set";
  if (updateGolden()) {
    GTEST_SKIP() << "MGQ_UPDATE_GOLDEN set; GoldenCatalog rewrites the rows";
  }
  const std::string& name = GetParam();
  const auto golden = loadGolden(MGQ_GOLDEN_CATALOG);
  const auto it = golden.find(name);
  ASSERT_NE(it, golden.end())
      << "scenario " << name << " missing from golden; regenerate";
  const auto row = measure(*ScenarioRegistry::paper().find(name));
  EXPECT_EQ(row.events_executed, it->second.events_executed)
      << name << ": eventsExecuted changed — the kernel executed a "
      << "different event sequence";
  EXPECT_EQ(row.json_hash, it->second.json_hash)
      << name << ": BENCH JSON bytes changed — exported series/trace "
      << "are no longer identical";
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, GoldenScenario, ::testing::ValuesIn(catalogNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(GoldenCatalog, RowsMatchTheCatalogExactly) {
  if (skipGolden()) GTEST_SKIP() << "MGQ_GOLDEN_SKIP set";
  const std::string golden_path = MGQ_GOLDEN_CATALOG;
  if (updateGolden()) {
    writeGolden(golden_path);
    SUCCEED() << "golden regenerated";
    return;
  }

  const auto golden = loadGolden(golden_path);
  ASSERT_FALSE(golden.empty())
      << "no golden rows in " << golden_path
      << "; run once with MGQ_UPDATE_GOLDEN=1 to create them";
  const auto names = catalogNames();
  for (const auto& name : names) {
    EXPECT_TRUE(golden.count(name) != 0)
        << "scenario " << name << " missing from golden; regenerate";
  }
  for (const auto& [name, row] : golden) {
    (void)row;
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
        << "golden row " << name << " no longer in the catalog; regenerate";
  }
}

// An adversarial run exports its own pool high-water mark: the builder
// starts a fresh mark, so a run after another on the same thread exports
// what it exports alone.
TEST(GoldenCatalog, PoolHighWaterIsPerRun) {
  const auto mark = [](const ScenarioResult& r) {
    return r.metrics->counter("pool.high_water_bytes").value();
  };
  const auto alone = runOnFreshThread({"partition_heal_reconverge"});
  const auto after =
      runOnFreshThread({"fig1_corrupt_wire", "partition_heal_reconverge"});
  ASSERT_NE(alone.back().metrics, nullptr);
  ASSERT_NE(after.back().metrics, nullptr);
  EXPECT_GT(mark(after.front()), mark(alone.back()));
  EXPECT_EQ(mark(after.back()), mark(alone.back()));
}

}  // namespace
}  // namespace mgq::scenario

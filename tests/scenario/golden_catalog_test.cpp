// Golden-determinism guard for the simulation.
//
// Pins, per scenario in ScenarioRegistry::paper(), (a)
// Simulator::eventsExecuted() and (b) the FNV-1a digest of the run's
// simulated outcome (outcomeText below) against the checked-in table
// golden_catalog.txt. Any kernel or protocol change that silently
// reorders same-timestamp events, or moves what a flow achieved, shows up
// here as a count/digest mismatch long before a replay file or figure
// does. The digest reads only the typed ScenarioResult fields and the
// trace's reservation/QoS events — never the MetricsRegistry or the JSON
// renderer — so adding or renaming an exported metric leaves it alone.
//
// Each scenario is its own test case
// (Catalog/GoldenScenario.PreservesEventCountsAndBenchBytes/<name>; the
// case keeps the name it had when it hashed BENCH bytes, so its history
// stays continuous), so a mismatch names its scenario, prints its outcome
// text, and `ctest -j` runs the scenarios side by side.
// GoldenCatalog.RowsMatchTheCatalogExactly checks that every catalog
// entry has a row and no stale row lingers.
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

#include "gq/qos_attribute.hpp"
#include "obs/export.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

#ifndef MGQ_GOLDEN_CATALOG
#error "MGQ_GOLDEN_CATALOG must point at golden_catalog.txt"
#endif

namespace mgq::scenario {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Fixed-format number for the outcome text: %.17g round-trips a double.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The run's simulated outcome as text, one line per field. Series are
/// summarized as their length and the FNV-1a of their points so the text
/// stays short enough to print on a mismatch.
std::string outcomeText(const ScenarioResult& r) {
  std::ostringstream os;
  const auto series = [&os](const char* label, const std::string& points,
                            std::size_t n) {
    os << label << " n=" << n << " fnv=" << hex64(obs::fnv1a64(points))
       << "\n";
  };

  os << "events_executed " << r.events_executed << "\n"
     << "delivered_bytes " << r.delivered_bytes << "\n"
     << "delivered_at_measure " << r.delivered_at_measure << "\n";
  {
    std::string points;
    for (const auto& p : r.series) {
      points += num(p.t_seconds) + " " + num(p.kbps) + "\n";
    }
    series("bandwidth_series", points, r.series.size());
  }
  {
    std::string points;
    for (const auto& p : r.sequence_trace) {
      points += num(p.t_seconds) + " " + std::to_string(p.seq) + " " +
                std::to_string(p.bytes) + (p.retransmit ? " r\n" : "\n");
    }
    series("sequence_trace", points, r.sequence_trace.size());
  }
  {
    std::string points;
    for (const double ms : r.rtt_ms) points += num(ms) + "\n";
    series("rtt_ms", points, r.rtt_ms.size());
  }
  os << "pingpong " << r.pingpong.round_trips << " "
     << r.pingpong.bytes_received << "\n"
     << "viz " << r.viz.frames_sent << " " << r.viz.frames_delivered << " "
     << r.viz.bytes_delivered << "\n"
     << "policer_drops " << r.policer_drops << "\n"
     << "tcp_timeouts " << r.tcp_timeouts << "\n"
     << "checksum_drops " << r.checksum_drops << "\n"
     << "tcp_resets " << r.tcp_resets << "\n"
     << "wire " << r.wire_corrupted << " " << r.wire_duplicated << " "
     << r.wire_reordered << " " << r.wire_blackholed << "\n"
     << "qos_state " << gq::qosRequestStateName(r.qos_state) << "\n"
     << "recovery_attempts " << r.recovery_attempts << "\n";
  for (const auto& t : r.tenants) {
    os << "tenant " << t.name << " " << t.delivered_bytes << " "
       << num(t.initial_kbps) << " " << num(t.final_kbps) << " " << t.grows
       << " " << t.shrinks << " " << t.refused << " " << t.clamped << "\n";
  }
  os << "adapt " << r.adapt_ticks << " " << r.adapt_grows << " "
     << r.adapt_shrinks << " " << r.adapt_refused << " " << r.adapt_clamped
     << "\n";
  series("injector_log", r.injector_log,
         static_cast<std::size_t>(
             std::count(r.injector_log.begin(), r.injector_log.end(), '\n')));
  for (const auto& c : r.checks) {
    os << (c.ok ? "[PASS] " : "[FAIL] ") << c.what << "\n";
  }
  if (r.trace != nullptr) {
    std::string events;
    std::size_t n = 0;
    for (const auto& e : r.trace->events()) {
      if (e.category != "reservation" && e.category != "qos") continue;
      events += num(e.t_seconds) + " " + e.category + " " + e.event + " " +
                std::to_string(e.id) + " " + num(e.value) + " " + e.detail +
                "\n";
      ++n;
    }
    series("trace_reservation_qos", events, n);
  }
  return os.str();
}

std::uint64_t outcomeDigest(const ScenarioResult& r) {
  return obs::fnv1a64(outcomeText(r));
}

struct GoldenRow {
  std::uint64_t events_executed = 0;
  std::uint64_t outcome_digest = 0;
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
    ss >> name >> row.events_executed >> std::hex >> row.outcome_digest;
    if (!ss.fail()) rows[name] = row;
  }
  return rows;
}

/// Runs the given specs in order on a thread of its own, so no earlier
/// run in this process leaves pool statistics behind.
std::vector<ScenarioResult> runOnFreshThread(
    const std::vector<ScenarioSpec>& specs) {
  std::vector<ScenarioResult> results;
  std::exception_ptr error;
  std::thread([&] {
    try {
      ScenarioRunner runner;  // no echo; checks are not the subject here
      for (const auto& spec : specs) results.push_back(runner.run(spec));
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  return results;
}

ScenarioSpec catalogSpec(const std::string& name) {
  return ScenarioRegistry::paper().find(name)->make();
}

ScenarioResult runAlone(const std::string& name) {
  return runOnFreshThread({catalogSpec(name)}).back();
}

GoldenRow rowOf(const ScenarioResult& r) {
  return {r.events_executed, outcomeDigest(r)};
}

/// Compares a run against its golden row; a mismatch names the scenario
/// and prints the run's outcome text.
::testing::AssertionResult matchesGolden(const std::string& name,
                                         const ScenarioResult& r,
                                         const GoldenRow& golden) {
  const auto row = rowOf(r);
  if (row.events_executed == golden.events_executed &&
      row.outcome_digest == golden.outcome_digest) {
    return ::testing::AssertionSuccess();
  }
  auto failure = ::testing::AssertionFailure() << name << ": ";
  if (row.events_executed != golden.events_executed) {
    failure << "eventsExecuted " << row.events_executed << " != golden "
            << golden.events_executed
            << " — the kernel executed a different event sequence; ";
  }
  if (row.outcome_digest != golden.outcome_digest) {
    failure << "outcome digest " << hex64(row.outcome_digest)
            << " != golden " << hex64(golden.outcome_digest) << "; ";
  }
  return failure << "the run's outcome text:\n" << outcomeText(r);
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
  rows << "# scenario events_executed fnv1a64(outcome text), one row per\n"
       << "# catalog entry; regenerate with MGQ_UPDATE_GOLDEN=1 (see\n"
       << "# golden_catalog_test.cpp).\n";
  for (const auto& name : catalogNames()) {
    const auto row = rowOf(runAlone(name));
    rows << name << " " << row.events_executed << " "
         << hex64(row.outcome_digest) << "\n";
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
  EXPECT_TRUE(matchesGolden(name, runAlone(name), it->second));
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

// The digest pins what the simulation did, not what the run exported: a
// counter added to the run's registry leaves it alone, while a different
// seed of the same scenario moves it. fault_recovery_on draws its
// recovery backoff jitter from the simulation seed; most catalog
// scenarios draw nothing from it.
TEST(GoldenCatalog, DigestIgnoresExportedMetrics) {
  auto result = runAlone("fault_recovery_on");
  ASSERT_NE(result.metrics, nullptr);
  const auto digest = outcomeDigest(result);
  result.metrics->counter("test.extra_metric").inc(7);
  EXPECT_EQ(outcomeDigest(result), digest);

  auto reseeded = catalogSpec("fault_recovery_on");
  ASSERT_TRUE(applyParam(reseeded, "seed", 2));
  EXPECT_NE(outcomeDigest(runOnFreshThread({reseeded}).back()), digest);
}

TEST(GoldenCatalog, MismatchNamesTheScenarioAndPrintsItsOutcome) {
  const auto result = runAlone("fig7_frames_1fps");
  auto row = rowOf(result);
  EXPECT_TRUE(matchesGolden("fig7_frames_1fps", result, row));
  row.outcome_digest ^= 1;
  const auto verdict = matchesGolden("fig7_frames_1fps", result, row);
  ASSERT_FALSE(verdict);
  const std::string message = verdict.message();
  EXPECT_EQ(message.rfind("fig7_frames_1fps: ", 0), 0u) << message;
  EXPECT_NE(message.find(outcomeText(result)), std::string::npos) << message;
}

// The byte hash this guard used to pin implied that a scenario's BENCH
// export is deterministic; pin that property directly.
TEST(GoldenCatalog, BenchExportIsByteIdenticalAcrossRuns) {
  const auto render = [](const ScenarioResult& r) {
    return obs::renderMultiRunJson(r.name, runExports({r}));
  };
  const auto first = runAlone("fig1_corrupt_wire");
  const auto second = runAlone("fig1_corrupt_wire");
  ASSERT_NE(first.metrics, nullptr);
  EXPECT_EQ(render(first), render(second));
}

// An adversarial run exports its own pool high-water mark: the builder
// starts a fresh mark, so a run after another on the same thread exports
// what it exports alone.
TEST(GoldenCatalog, PoolHighWaterIsPerRun) {
  const auto mark = [](const ScenarioResult& r) {
    return r.metrics->counter("pool.high_water_bytes").value();
  };
  const auto alone = runOnFreshThread(
      {catalogSpec("partition_heal_reconverge")});
  const auto after = runOnFreshThread(
      {catalogSpec("fig1_corrupt_wire"),
       catalogSpec("partition_heal_reconverge")});
  ASSERT_NE(alone.back().metrics, nullptr);
  ASSERT_NE(after.back().metrics, nullptr);
  EXPECT_GT(mark(after.front()), mark(alone.back()));
  EXPECT_EQ(mark(after.back()), mark(alone.back()));
}

}  // namespace
}  // namespace mgq::scenario

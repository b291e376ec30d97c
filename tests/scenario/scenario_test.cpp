// Tests for the declarative scenario subsystem: spec -> build round trip,
// registry lookup, sweep expansion, check reporting, and the determinism
// contract (same spec + seed => byte-identical BENCH JSON; a threaded
// sweep matches serial execution exactly).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "scenario/builder.hpp"
#include "scenario/catalog.hpp"
#include "scenario/check.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"

#ifndef MGQ_PAPER_SUITES
#error "MGQ_PAPER_SUITES must list the paper suites, comma-separated"
#endif

namespace mgq::scenario {
namespace {

// A short ping-pong under contention: enough to exercise reservation,
// marking, sampling, and the delivered-bytes plumbing in a fraction of a
// second of wall time.
ScenarioSpec quickSpec() {
  auto spec = pingPongSpec("quick", 4000.0, 5000, /*seconds=*/2.0);
  spec.run_until_seconds = 3.0;
  return spec;
}

TEST(ScenarioBuilder, SpecBuildRoundTrip) {
  auto spec = quickSpec();
  spec.checks.push_back(
      {"delivered something", [](const ScenarioResult& r) {
         return r.delivered_bytes > 0;
       }});

  ScenarioBuilder builder;
  auto built = builder.build(spec);
  ASSERT_NE(built, nullptr);
  // The spec's seed reaches the rig's simulator-driven config.
  EXPECT_EQ(spec.seed, 1u);
  // Observability is attached per run, not globally.
  ASSERT_NE(built->metrics, nullptr);
  ASSERT_NE(built->trace, nullptr);
  ASSERT_NE(built->sampler, nullptr);
  ASSERT_TRUE(static_cast<bool>(built->delivered_fn));

  built->rig.sim.runUntil(sim::TimePoint::fromSeconds(3.0));
  EXPECT_GT(built->deliveredBytes(), 0);
  EXPECT_GT(built->pingpong.round_trips, 0);
}

TEST(ScenarioRunner, PopulatesResultAndEvaluatesChecks) {
  auto spec = quickSpec();
  spec.checks.push_back(
      {"delivered something",
       [](const ScenarioResult& r) { return r.delivered_bytes > 0; }});
  spec.checks.push_back(
      {"impossible", [](const ScenarioResult&) { return false; }});

  ScenarioRunner runner;
  const auto result = runner.run(spec);
  EXPECT_EQ(result.name, "quick");
  EXPECT_GT(result.delivered_bytes, 0);
  EXPECT_GT(result.goodput_kbps, 0.0);
  EXPECT_FALSE(result.series.empty());
  ASSERT_NE(result.metrics, nullptr);
  // One snapshot path: an unfaulted run exports the wire and pool counters
  // too.
  const auto& counters = result.metrics->counters();
  EXPECT_EQ(counters.count("net.wire.corrupted"), 1u);
  EXPECT_EQ(counters.count("pool.high_water_bytes"), 1u);

  ASSERT_EQ(result.checks.size(), 2u);
  EXPECT_TRUE(result.checks[0].ok);
  EXPECT_EQ(result.checks[0].what, "quick: delivered something");
  EXPECT_FALSE(result.checks[1].ok);
  EXPECT_FALSE(result.checksPassed());
}

TEST(ScenarioRegistry, PaperRegistryLookup) {
  const auto& registry = ScenarioRegistry::paper();
  EXPECT_GE(registry.size(), 18u);

  const auto* fig8 = registry.find("fig8_cpu_reservation");
  ASSERT_NE(fig8, nullptr);
  EXPECT_EQ(fig8->name, "fig8_cpu_reservation");
  const auto spec = fig8->make();
  EXPECT_EQ(spec.name, "fig8_cpu_reservation");
  EXPECT_FALSE(spec.checks.empty());

  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);

  // Filtered listing is sorted and matches by substring.
  const auto faults = registry.list("fault_");
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_EQ(faults[0]->name, "fault_recovery_crash");
  EXPECT_EQ(faults[1]->name, "fault_recovery_off");
  EXPECT_EQ(faults[2]->name, "fault_recovery_on");
}

TEST(ScenarioRegistry, PaperSuitesKeepTheirBenchNames) {
  // Suite names are the BENCH_<name>.json file names and the ctest names:
  // MGQ_PAPER_SUITES is the CMake list every paper.<name> test is made
  // from. Suites live apart from the golden scenario set.
  std::vector<std::string> expected;
  std::istringstream list(MGQ_PAPER_SUITES);
  for (std::string name; std::getline(list, name, ',');) {
    expected.push_back(name);
  }
  std::sort(expected.begin(), expected.end());
  const auto& registry = ScenarioRegistry::paper();
  std::vector<std::string> names;
  for (const auto* suite : registry.listSuites()) {
    names.push_back(suite->name);
    EXPECT_TRUE(static_cast<bool>(suite->run)) << suite->name;
  }
  EXPECT_EQ(names, expected);
  EXPECT_EQ(registry.findSuite("fig1_under"), nullptr);
}

TEST(ScenarioRegistry, SuiteRunPrintsItsTableAndChecks) {
  CheckReporter checks;
  std::ostringstream out;
  const auto* suite = ScenarioRegistry::paper().findSuite("fig7_burst_trace");
  ASSERT_NE(suite, nullptr);
  const auto results = suite->run(checks, out, /*threads=*/2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "fig7_frames_10fps");
  EXPECT_NE(out.str().find("bursts in 1 s:"), std::string::npos);
  EXPECT_EQ(checks.results().size(), 4u);
  EXPECT_TRUE(checks.allPassed());
}

TEST(Sweep, SecondsParameterMovesTheFig1StopTime) {
  const auto* info = ScenarioRegistry::paper().find("fig1_under");
  ASSERT_NE(info, nullptr);
  const auto base = info->make();
  EXPECT_EQ(defaultRunUntilSeconds(base), 100.0);

  const auto specs = expandSweep(base, {{"seconds", {10}}});
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(defaultRunUntilSeconds(specs[0]), 10.0);
  const auto result = ScenarioRunner().run(specs[0]);
  ASSERT_FALSE(result.series.empty());
  EXPECT_LE(result.series.back().t_seconds, 10.0);
  EXPECT_GE(result.series.back().t_seconds, 9.0);
}

TEST(SweepRunner, ForEachVisitsEveryIndexOnce) {
  for (const int threads : {1, 3}) {
    std::vector<std::atomic<int>> visits(50);
    SweepRunner(threads).forEach(visits.size(),
                                 [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << ", threads "
                                     << threads;
    }
  }
  int calls = 0;
  SweepRunner(3).forEach(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_THROW(SweepRunner(3).forEach(
                   10,
                   [](std::size_t i) {
                     if (i == 4) throw std::runtime_error("task 4");
                   }),
               std::runtime_error);
}

TEST(Sweep, ExpandsCrossProductWithLabels) {
  const auto base = quickSpec();
  const auto specs = expandSweep(
      base, {{"message_bytes", {1000, 5000}}, {"seed", {1, 2, 3}}});
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].name, "quick/message_bytes=1000/seed=1");
  EXPECT_EQ(specs.back().name, "quick/message_bytes=5000/seed=3");
  EXPECT_EQ(specs.back().seed, 3u);
  const auto* pp = std::get_if<PingPongWorkload>(&specs.back().workload);
  ASSERT_NE(pp, nullptr);
  EXPECT_EQ(pp->message_bytes, 5000);

  EXPECT_THROW(expandSweep(base, {{"no_such_param", {1}}}),
               std::invalid_argument);
}

TEST(CheckReporter, CountsAndMerges) {
  CheckReporter reporter;
  reporter.check(true, "a");
  reporter.check(false, "b");
  reporter.merge({{"c", true}, {"d", false}});
  EXPECT_EQ(reporter.results().size(), 4u);
  EXPECT_EQ(reporter.failures(), 2);
  EXPECT_FALSE(reporter.allPassed());
}

std::string benchJson(const std::vector<ScenarioResult>& results) {
  std::ostringstream os;
  obs::writeMultiRunJson(os, "determinism", runExports(results));
  return os.str();
}

TEST(Determinism, SameSpecAndSeedGiveByteIdenticalJson) {
  ScenarioRunner runner;
  const auto a = runner.run(quickSpec());
  const auto b = runner.run(quickSpec());
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
  EXPECT_EQ(benchJson({a}), benchJson({b}));

  // A changed parameter must show up in the document (no caching by name).
  auto resized = quickSpec();
  applyParam(resized, "message_bytes", 1000);
  const auto c = runner.run(resized);
  EXPECT_NE(benchJson({a}), benchJson({c}));
}

TEST(Determinism, ThreadedSweepMatchesSerial) {
  const auto specs = expandSweep(
      quickSpec(), {{"message_bytes", {1000, 5000}}, {"seed", {1, 2}}});
  ASSERT_EQ(specs.size(), 4u);
  const auto threaded = SweepRunner(2).run(specs);
  const auto serial = SweepRunner(1).run(specs);
  ASSERT_EQ(threaded.size(), serial.size());
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    EXPECT_EQ(threaded[i].name, serial[i].name);
    EXPECT_EQ(threaded[i].delivered_bytes, serial[i].delivered_bytes);
  }
  EXPECT_EQ(benchJson(threaded), benchJson(serial));
}

}  // namespace
}  // namespace mgq::scenario

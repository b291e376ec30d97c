// Self-tests of the benchmark's own logic: summary statistics, metric-name
// validation, the outcome gate, seed determinism, and span accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "gate.hpp"
#include "summary.hpp"
#include "trace.hpp"
#include "unit_runner.hpp"
#include "workloads.hpp"

namespace qosbench {
namespace {

TEST(Summary, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(summarize({3.0, 1.0, 2.0}).p50, 2.0);
  EXPECT_DOUBLE_EQ(summarize({4.0, 1.0, 3.0, 2.0}).p50, 2.5);
}

TEST(Summary, P90InterpolatesBetweenClosestRanks) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(summarize(v).p90, 9.1);
}

TEST(Summary, P90NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
  EXPECT_EQ(samplesBeyond(99, 90.0), 9u);
  EXPECT_EQ(samplesBeyond(0, 90.0), 0u);
  EXPECT_TRUE(summarize(std::vector<double>(100, 1.0)).has_p90);
  EXPECT_FALSE(summarize(std::vector<double>(99, 1.0)).has_p90);
}

TEST(Summary, EmptySampleIsNotZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_TRUE(std::isnan(s.p50));
  EXPECT_FALSE(s.has_p90);
}

TEST(MetricNames, AcceptOnlyTheDocumentedAlphabet) {
  for (const char* ok : {"unit_s_p50", "sim.ns_per_event", "net-hop", "9x"}) {
    EXPECT_TRUE(validMetricName(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "a b", "a/b", "x\"y", "µs"}) {
    EXPECT_FALSE(validMetricName(bad)) << bad;
  }
  EXPECT_TRUE(validMetricName(std::string(64, 'a')));
  EXPECT_FALSE(validMetricName(std::string(65, 'a')));
  EXPECT_TRUE(validUnit("ns/KB"));
  EXPECT_FALSE(validUnit("per second"));
}

TEST(MetricNames, MetricSetRejectsBadDuplicateAndNonFinite) {
  MetricSet m;
  m.add("setup_s", 0.5, "s");
  EXPECT_THROW(m.add("setup_s", 0.6, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(m.add("ok", 1.0, "bad unit"), std::invalid_argument);
  EXPECT_THROW(m.add("nan", std::nan(""), "s"), std::invalid_argument);
  EXPECT_EQ(resultJson(true, 3, 0, m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

UnitOutcome outcome(std::uint64_t digest) {
  UnitOutcome out;
  out.digest = digest;
  return out;
}

TEST(OutcomeGate, PinnedDigestMismatchFailsTheUnit) {
  OutcomeGate gate({std::uint64_t{0xabc}, std::nullopt});
  std::string why;
  EXPECT_TRUE(gate.judge(0, outcome(0xabc), why));
  EXPECT_FALSE(gate.judge(0, outcome(0xabd), why));
  EXPECT_NE(why.find("digest"), std::string::npos) << why;
}

TEST(OutcomeGate, FirstExecutionSetsTheDigestRepeatsMustMatch) {
  OutcomeGate gate({});
  std::string why;
  EXPECT_TRUE(gate.judge(3, outcome(7), why));
  EXPECT_TRUE(gate.judge(3, outcome(7), why));
  EXPECT_FALSE(gate.judge(3, outcome(8), why));
}

TEST(OutcomeGate, FailedChecksAndViolationsFailTheUnit) {
  OutcomeGate gate({});
  std::string why;
  auto failed_check = outcome(1);
  failed_check.checks_passed = false;
  EXPECT_FALSE(gate.judge(0, failed_check, why));
  auto violated = outcome(2);
  violated.counts.violations = 1;
  EXPECT_FALSE(gate.judge(1, violated, why));
}

TEST(OutcomeGate, PinnedDigestFileRoundTripsAndRejectsMalformedLines) {
  const PinnedDigests pins = {{"chaos_soak", {1, 0xfedcba9876543210ULL}},
                              {"premium_tcp", {42}}};
  std::string error;
  const auto parsed = parsePinnedDigests(formatPinnedDigests(pins, 1), error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, pins);
  EXPECT_FALSE(parsePinnedDigests("premium_tcp 0 123\n", error));
  EXPECT_FALSE(parsePinnedDigests("premium_tcp 1 0000000000000001\n", error));
}

std::vector<std::string> labels(Workload w, std::uint64_t seed) {
  std::vector<std::string> out;
  for (const auto& u : makeUnitCycle(w, seed)) out.push_back(u.label);
  return out;
}

TEST(Seeds, SameSeedGivesTheSameUnitsOtherSeedsDiffer) {
  for (const auto w : {Workload::kPremiumTcp, Workload::kContentionMix,
                       Workload::kChaosSoak}) {
    EXPECT_EQ(labels(w, 5), labels(w, 5)) << workloadName(w);
    EXPECT_NE(labels(w, 5), labels(w, 6)) << workloadName(w);
    EXPECT_EQ(parseWorkload(workloadName(w)), w);
  }
  EXPECT_FALSE(parseWorkload("mpi_cpu_mix").has_value());
}

TEST(Seeds, GeneratedSpecsMatchTheirSweepPoints) {
  const auto a = makeUnitCycle(Workload::kPremiumTcp, 9);
  const auto b = makeUnitCycle(Workload::kPremiumTcp, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto sa = a[i].scenarios[0].make();
    const auto sb = b[i].scenarios[0].make();
    EXPECT_EQ(sa.flows.at(0).rate_bps, sb.flows.at(0).rate_bps);
    EXPECT_EQ(sa.run_until_seconds, 10.0);  // not the 100 s catalog default
  }
}

TEST(Seeds, AChaosUnitRepeatsItsDigestExactly) {
  const auto cycle = makeUnitCycle(Workload::kChaosSoak, 3);
  const auto first = runUnit(cycle[0], 0);
  const auto second = runUnit(cycle[0], 1);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.counts.violations, 0u);
  EXPECT_GT(first.counts.events, 0u);
}

TEST(Trace, SelfTimeSubtractsChildrenAndCoversTheUnit) {
  // unit [0,10] > scenario [1,9] > build [1,3], sim.run [3,8]
  const std::vector<std::vector<Span>> units = {{{"unit", 0, 10, -1, 0},
                                                 {"fig", 1, 9, 0, 0},
                                                 {"build", 1, 3, 1, 0},
                                                 {"sim.run", 3, 8, 1, 0}}};
  const auto layers = layerSelfTimes(units);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].layer, "build");
  EXPECT_DOUBLE_EQ(layers[0].seconds, 2.0);
  EXPECT_DOUBLE_EQ(layers[1].seconds, 5.0);
  EXPECT_EQ(layers[2].layer, "bench");
  EXPECT_DOUBLE_EQ(layers[2].seconds, 3.0);  // 2 in the unit + 1 in fig
  const auto json = chromeTraceJson(units);
  EXPECT_NE(json.find("\"name\": \"sim.run\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 3000000.000"), std::string::npos);
}

}  // namespace
}  // namespace qosbench

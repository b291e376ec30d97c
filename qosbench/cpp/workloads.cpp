#include "workloads.hpp"

#include <cmath>
#include <cstdio>

#include "scenario/catalog.hpp"
#include "sim/random.hpp"

namespace qosbench {
namespace {

namespace sc = mgq::scenario;

/// Units per cycle. A power of two, for the bit-reversed stratum order.
/// Scenario units take 1-3 s, so a short cycle is what lets a run repeat
/// each of them several times.
constexpr int kScenarioCycle = 4;
constexpr int kChaosCycle = 64;

/// Position k of the bit-reversed visiting order of `m` strata (m a power
/// of two): 0, m/2, m/4, 3m/4, ... — every prefix spreads over the axis.
int bitReversed(int k, int m) {
  int r = 0;
  for (int bit = 1; bit < m; bit <<= 1) {
    r <<= 1;
    if ((k & bit) != 0) r |= 1;
  }
  return r;
}

std::string fmt(const char* pattern, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), pattern, a, b);
  return buf;
}

mgq::sim::Rng seededRng(std::uint64_t seed, Workload w) {
  return mgq::sim::Rng(seed * 0x9e3779b97f4a7c15ULL +
                       static_cast<std::uint64_t>(w) + 1);
}

/// Point in stratum `s` of `m` over [0, 1).
double stratified(mgq::sim::Rng& rng, int s, int m) {
  return (s + rng.nextDouble()) / m;
}

std::vector<UnitPlan> premiumTcp(std::uint64_t seed) {
  auto rng = seededRng(seed, Workload::kPremiumTcp);
  std::vector<UnitPlan> units;
  for (int k = 0; k < kScenarioCycle; ++k) {
    const int s = bitReversed(k, kScenarioCycle);
    // Fig. 1 axis: reservations from well under to above the 50 Mb/s
    // offered load, so the policer drops anywhere from most to none of
    // the excess. Ten simulated seconds, passed to the factory (the
    // "seconds" sweep parameter would leave the 100 s stop time).
    const double reservation_bps = 20e6 + stratified(rng, s, kScenarioCycle) * 40e6;
    UnitPlan u;
    u.scenarios.push_back(
        {fmt("fig1_policed r=%.17g bps", reservation_bps), [reservation_bps] {
           return sc::offeredLoadFlowSpec("fig1_policed", reservation_bps,
                                          50e6, /*seconds=*/10.0);
         }});
    u.scenarios.push_back({"fig9_combined", sc::fig9Spec});
    u.label = u.scenarios[0].label + " + fig9_combined";
    units.push_back(std::move(u));
  }
  return units;
}

std::vector<UnitPlan> contentionMix(std::uint64_t seed) {
  auto rng = seededRng(seed, Workload::kContentionMix);
  // Table 1 frame shapes at the Fig. 6 stream rate (800 kb/s).
  const struct {
    double fps;
    std::int64_t frame_bytes;
  } shapes[] = {{10.0, 10'000}, {5.0, 20'000}, {20.0, 5'000}, {2.0, 50'000}};
  std::vector<UnitPlan> units;
  for (int k = 0; k < kScenarioCycle; ++k) {
    const int s = bitReversed(k, kScenarioCycle);
    const auto& shape = shapes[s % 4];
    // Fig. 6 axis: reservation from half to 1.5x the stream rate.
    const double viz_kbps = 800.0 * (0.5 + stratified(rng, s, kScenarioCycle));
    // Fig. 5 axis: message size, log-uniform over 1..50 KB.
    const int message_bytes = static_cast<int>(std::lround(
        1000.0 * std::pow(50.0, stratified(rng, s, kScenarioCycle))));
    UnitPlan u;
    u.scenarios.push_back(
        {fmt("fig6_visualization r=%.17g kbps", viz_kbps) +
             fmt(" %g fps x %g B", shape.fps,
                 static_cast<double>(shape.frame_bytes)),
         [viz_kbps, shape] {
           return sc::visualizationSpec("fig6_visualization", viz_kbps,
                                        shape.fps, shape.frame_bytes);
         }});
    u.scenarios.push_back(
        {fmt("fig5_pingpong %g B", message_bytes), [message_bytes] {
           return sc::pingPongSpec("fig5_pingpong", 4'000.0, message_bytes);
         }});
    u.scenarios.push_back({"ablation_latency_ll", [] {
                             return sc::pingLatencySpec("ablation_latency_ll",
                                                        true);
                           }});
    u.label = u.scenarios[0].label + " + " + u.scenarios[1].label +
              " + ablation_latency_ll";
    units.push_back(std::move(u));
  }
  return units;
}

std::vector<UnitPlan> chaosSoak(std::uint64_t seed) {
  auto rng = seededRng(seed, Workload::kChaosSoak);
  std::vector<UnitPlan> units;
  for (int k = 0; k < kChaosCycle; ++k) {
    UnitPlan u;
    u.chaos = ChaosPoint{
        k % 2 == 0 ? "fault_recovery_crash" : "adapt_two_tenant_tradeoff",
        rng.nextU64() % 1'000'000'000ULL + 1};
    u.label = u.chaos->scenario + " chaos seed " +
              std::to_string(u.chaos->seed);
    units.push_back(std::move(u));
  }
  return units;
}

}  // namespace

std::optional<Workload> parseWorkload(const std::string& name) {
  for (const auto w : {Workload::kPremiumTcp, Workload::kContentionMix,
                       Workload::kChaosSoak}) {
    if (name == workloadName(w)) return w;
  }
  return std::nullopt;
}

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kPremiumTcp:
      return "premium_tcp";
    case Workload::kContentionMix:
      return "contention_mix";
    case Workload::kChaosSoak:
      return "chaos_soak";
  }
  return "?";
}

std::vector<UnitPlan> makeUnitCycle(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::kPremiumTcp:
      return premiumTcp(seed);
    case Workload::kContentionMix:
      return contentionMix(seed);
    case Workload::kChaosSoak:
      return chaosSoak(seed);
  }
  return {};
}

mgq::chaos::ChaosProfile chaosProfile() {
  mgq::chaos::ChaosProfile p;
  p.agent_crashes_per_100s = 20.0;
  p.renewal_storms_per_100s = 20.0;
  p.corruption_episodes_per_100s = 20.0;
  p.duplicate_episodes_per_100s = 20.0;
  p.reorder_episodes_per_100s = 20.0;
  p.partition_episodes_per_100s = 20.0;
  return p;
}

}  // namespace qosbench
